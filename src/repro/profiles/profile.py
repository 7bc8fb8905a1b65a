"""Time-decayed user interest profiles.

A profile accumulates the term vectors of everything a user posts, with
exponential half-life decay so stale interests fade. Because the engine
only ever consumes the *normalised* profile vector, decay between updates
cancels out under normalisation — the profile therefore only needs to apply
decay when new mass arrives, and keeps that normalised vector (``unit``)
beside the weights, recomputed by each update: updates are O(profile size)
and reads are one attribute, with no background sweeps.

Each user's profile lives on their :class:`~repro.core.services.UserState`,
so a follower's state and interests resolve in one lookup.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.util.sparse import MutableSparseVector, SparseVector, l2_normalize


class UserProfile:
    """Exponentially-decayed accumulator of a user's posted content.

    ``epoch`` counts the updates (caches keyed on it never go stale) and
    ``unit`` is the unit-L2 interest vector (empty while the profile is);
    both move only in :meth:`update` — and when a checkpoint restores the
    weights."""

    __slots__ = ("_last_t", "_weights", "epoch", "half_life_s", "prune_below", "unit")

    def __init__(
        self,
        half_life_s: float | None = 6 * 3600.0,
        *,
        prune_below: float = 1e-6,
    ) -> None:
        if half_life_s is not None and half_life_s <= 0.0:
            raise ConfigError(f"half_life_s must be positive or None, got {half_life_s}")
        if prune_below < 0.0:
            raise ConfigError(f"prune_below must be >= 0, got {prune_below}")
        self.half_life_s = half_life_s
        self.prune_below = prune_below
        self._weights: MutableSparseVector = {}
        self._last_t = 0.0
        self.epoch = 0
        self.unit: MutableSparseVector = {}

    @property
    def last_update(self) -> float:
        return self._last_t

    def __len__(self) -> int:
        return len(self._weights)

    @property
    def is_empty(self) -> bool:
        return not self._weights

    def update(self, vec: SparseVector, timestamp: float, *, scale: float = 1.0) -> None:
        """Fold a posted message's term vector into the profile.

        Existing mass decays by ``0.5 ** (Δt / half_life)`` before the new
        vector is added, so more recent posts dominate. Out-of-order events
        (timestamp slightly before the last update) are treated as
        simultaneous rather than rejected — feed streams are only loosely
        ordered. Uniform decay since the last update cancels under
        normalisation, so ``unit`` is exact at any read time.
        """
        if scale <= 0.0:
            raise ConfigError(f"scale must be positive, got {scale}")
        if not vec:
            return
        if self._weights and self.half_life_s is not None:
            dt = max(0.0, timestamp - self._last_t)
            if dt > 0.0:
                decay = math.pow(0.5, dt / self.half_life_s)
                self._weights = {
                    term: weight * decay
                    for term, weight in self._weights.items()
                    if weight * decay > self.prune_below
                }
        self._last_t = max(self._last_t, timestamp)
        for term, weight in vec.items():
            self._weights[term] = self._weights.get(term, 0.0) + scale * weight
        self.unit = l2_normalize(self._weights)
        self.epoch += 1

    def top_interests(self, limit: int = 10) -> list[tuple[str, float]]:
        """Heaviest normalised terms, for inspection and examples."""
        return sorted(self.unit.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
