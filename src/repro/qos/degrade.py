"""The degradation ladder: ordered, reversible fidelity rungs.

Production feed stacks degrade ranking depth under load instead of
falling over (cf. Gunosy's immediate-personalization architecture). Each
:class:`Rung` names one reversible fidelity trade the pipeline knows how
to honour, cheapest-loss first, and each rung of the default ladder
trades something on the default engine (the vector kernel):

1. shrink the served slate k (fewer ads priced and observed);
2. candidates-only scoring — serve the shared probe's top-k directly,
   skipping per-user scoring entirely (profile-less);
3. shed — drop a fraction of deliveries outright at admission.

The :class:`DegradationLadder` holds the ordered rungs, the current
position, and a floor (the deepest rung the operator allows). Movement
is strictly one rung per step in either direction — the controller's
hysteresis decides *when* to step, the ladder only enforces *how far*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["DEFAULT_LADDER", "DegradationLadder", "Rung"]


@dataclass(frozen=True, slots=True)
class Rung:
    """One fidelity level. ``k_scale`` multiplies the configured slate
    size; the flags switch whole mechanisms off. Rung 0 must be full
    fidelity."""

    name: str
    k_scale: float = 1.0
    candidates_only: bool = False
    shed_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.k_scale <= 1.0:
            raise ConfigError(f"k_scale must be in (0, 1], got {self.k_scale}")
        if not 0.0 <= self.shed_fraction < 1.0:
            raise ConfigError(
                f"shed_fraction must be in [0, 1), got {self.shed_fraction}"
            )

    @property
    def degraded(self) -> bool:
        """Whether serving under this rung loses any fidelity."""
        return (
            self.k_scale < 1.0 or self.candidates_only or self.shed_fraction > 0.0
        )


#: The default ladder, cheapest revenue loss first (see module docstring).
DEFAULT_LADDER: tuple[Rung, ...] = (
    Rung("full"),
    Rung("slate-half", k_scale=0.5),
    Rung("candidates-only", k_scale=0.5, candidates_only=True),
    Rung("shed", k_scale=0.5, candidates_only=True, shed_fraction=0.5),
)


class DegradationLadder:
    """Ordered rungs with a current position and an operator floor.

    ``floor`` is the deepest rung index the ladder may reach (defaults
    to the last rung). :meth:`degrade` and :meth:`recover` move exactly
    one rung and report whether they moved, so a controller can never
    jump levels no matter how hard its inputs swing.
    """

    def __init__(
        self, rungs: tuple[Rung, ...] = DEFAULT_LADDER, *, floor: int | None = None
    ) -> None:
        if not rungs:
            raise ConfigError("a ladder needs at least one rung")
        if rungs[0].degraded:
            raise ConfigError("rung 0 must be full fidelity")
        self._rungs = tuple(rungs)
        if floor is None:
            floor = len(self._rungs) - 1
        if not 0 <= floor < len(self._rungs):
            raise ConfigError(
                f"floor must be a rung index in [0, {len(self._rungs) - 1}], "
                f"got {floor}"
            )
        self._floor = floor
        self._index = 0
        self.degrade_steps = 0
        self.recover_steps = 0

    @property
    def rungs(self) -> tuple[Rung, ...]:
        return self._rungs

    @property
    def floor(self) -> int:
        return self._floor

    @property
    def index(self) -> int:
        return self._index

    @property
    def rung(self) -> Rung:
        return self._rungs[self._index]

    @property
    def at_floor(self) -> bool:
        return self._index >= self._floor

    @property
    def degraded(self) -> bool:
        return self._index > 0

    def degrade(self) -> bool:
        """Step one rung deeper; False when already at the floor."""
        if self._index >= self._floor:
            return False
        self._index += 1
        self.degrade_steps += 1
        return True

    def recover(self) -> bool:
        """Step one rung back toward full fidelity; False at rung 0."""
        if self._index == 0:
            return False
        self._index -= 1
        self.recover_steps += 1
        return True

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "index": self._index,
            "rung": self.rung.name,
            "degrade_steps": self.degrade_steps,
            "recover_steps": self.recover_steps,
        }

    def load_state(self, state: dict) -> None:
        """Restore a position. The rung's name must match the rung at
        that index, so a checkpoint from another ladder never restores
        as a different trade; a state without a name (written before
        names were recorded) restores only at rung 0, where every ladder
        is full fidelity."""
        index = int(state["index"])
        if not 0 <= index <= self._floor:
            raise ConfigError(
                f"checkpointed rung {index} is outside [0, floor {self._floor}]"
            )
        name = state.get("rung")
        if name is None and index != 0:
            raise ConfigError(
                f"checkpointed rung {index} carries no name; only rung 0 "
                f"restores without one"
            )
        if name is not None and name != self._rungs[index].name:
            raise ConfigError(
                f"checkpointed rung {index} is {name!r}, but this ladder's "
                f"rung {index} is {self._rungs[index].name!r}"
            )
        self._index = index
        self.degrade_steps = int(state["degrade_steps"])
        self.recover_steps = int(state["recover_steps"])
