"""Budget accounting and spend pacing.

Each ad with a finite budget gets a :class:`BudgetState` tracking spend over
its campaign window. Pacing throttles ads that are spending faster than a
uniform schedule would: the multiplier scales the ad's bid term in the
ranking score, so over-delivering ads sink in the slate rather than being
cut off abruptly (the classic "budget smoothing" behaviour).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ads.corpus import AdCorpus
from repro.errors import BudgetError, ConfigError


@dataclass
class BudgetState:
    """Spend bookkeeping for one ad's campaign."""

    budget: float
    campaign_start: float
    campaign_end: float
    spent: float = 0.0

    def __post_init__(self) -> None:
        if self.budget <= 0.0:
            raise ConfigError(f"budget must be positive, got {self.budget}")
        if self.campaign_end <= self.campaign_start:
            raise ConfigError("campaign_end must be after campaign_start")
        if self.spent < 0.0:
            raise ConfigError(f"spent cannot be negative, got {self.spent}")

    @property
    def remaining(self) -> float:
        return max(0.0, self.budget - self.spent)

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0.0

    def time_fraction(self, timestamp: float) -> float:
        """Fraction of the campaign window elapsed at ``timestamp``, clamped."""
        span = self.campaign_end - self.campaign_start
        fraction = (timestamp - self.campaign_start) / span
        return min(1.0, max(0.0, fraction))

    def pacing_multiplier(self, timestamp: float) -> float:
        """Throttle factor in (0, 1].

        1.0 while on/behind the uniform spend schedule; otherwise the ratio
        of scheduled spend to actual spend, floored so an early burst cannot
        zero an ad out forever.
        """
        if self.exhausted:
            return 0.0
        expected = self.budget * self.time_fraction(timestamp)
        if self.spent <= expected or self.spent == 0.0:
            return 1.0
        return max(0.1, expected / self.spent)


class BudgetManager:
    """Tracks budgets for all capped ads and retires exhausted ones.

    The books *are* two dense float64 arrays, ``budget`` and ``spent``,
    indexed by slot: capped ads are interned to slots 1, 2, … in
    registration order (not by ``ad_id`` — launched campaigns carry ids
    in the 800,000s) and slot 0 is shared by every uncapped ad, never
    spends, and so paces at 1.0. Scalar accessors, :meth:`charge`,
    :meth:`charge_block` and :meth:`pacing_block` all work on these
    arrays.
    """

    def __init__(
        self,
        corpus: AdCorpus,
        *,
        campaign_start: float = 0.0,
        campaign_end: float = 86_400.0,
        pacing_enabled: bool = True,
    ) -> None:
        if campaign_end <= campaign_start:
            raise ConfigError("campaign_end must be after campaign_start")
        self._corpus = corpus
        self._pacing_enabled = pacing_enabled
        self._campaign_start = campaign_start
        self._campaign_end = campaign_end
        # ad id -> slot, in slot order (slot i + 1 is the i-th key), and
        # back (index 0 stands for the shared uncapped slot).
        self._slots: dict[int, int] = {}
        self._ad_of_slot: list[int | None] = [None]
        # Unregistered slots hold budget 1, spent 0: never exhausted.
        self._budget = np.ones(16)
        self._spent = np.zeros(16)
        #: Monotone count of writes to ``spent``: a reader holding values
        #: derived from the books compares it to know none can have moved.
        self.writes = 0
        for ad in corpus.all_ads():
            self._register(ad)
        corpus.subscribe(on_add=self._register)

    def _register(self, ad) -> None:
        if ad.budget is None or ad.ad_id in self._slots:
            return
        slot = len(self._slots) + 1
        if slot == self._budget.shape[0]:
            self._budget = np.pad(self._budget, (0, slot), constant_values=1.0)
            self._spent = np.pad(self._spent, (0, slot))
        self._slots[ad.ad_id] = slot
        self._ad_of_slot.append(ad.ad_id)
        self._budget[slot] = ad.budget

    def slot_of(self, ad_id: int) -> int:
        """The ad's slot for :meth:`pacing_block` (0 for uncapped ads);
        it never changes."""
        return self._slots.get(ad_id, 0)

    def state(self, ad_id: int) -> BudgetState | None:
        """A snapshot of the ad's books, or None for uncapped ads."""
        slot = self._slots.get(ad_id)
        if slot is None:
            return None
        return BudgetState(
            budget=self._budget.item(slot),
            campaign_start=self._campaign_start,
            campaign_end=self._campaign_end,
            spent=self._spent.item(slot),
        )

    def states(self) -> dict[int, BudgetState]:
        """Snapshots of every capped ad's books, in registration order."""
        return {ad_id: self.state(ad_id) for ad_id in self._slots}

    def pacing_multiplier(self, ad_id: int, timestamp: float) -> float:
        """Bid-term multiplier; 1.0 for uncapped ads or with pacing off."""
        state = self.state(ad_id)
        if state is None:
            return 1.0
        if not self._pacing_enabled:
            return 0.0 if state.exhausted else 1.0
        return state.pacing_multiplier(timestamp)

    def pacing_block(self, slots: np.ndarray, timestamp: float) -> np.ndarray:
        """:meth:`pacing_multiplier` for a block of slots, loop-free.

        Same arithmetic per element as :class:`BudgetState`, so values
        are bit-identical. ``spent > expected`` implies ``spent > 0``
        (expected is never negative): never-charged slots skip the divide.
        """
        spent = self._spent[slots]
        multipliers = np.ones(spent.shape[0])
        if not spent.any():  # uncharged serving: nothing to pace
            return multipliers
        budget = self._budget[slots]
        if self._pacing_enabled:
            expected = budget * self._elapsed(timestamp)
            np.divide(expected, spent, out=multipliers, where=spent > expected)
            np.maximum(multipliers, 0.1, out=multipliers)
        multipliers[spent >= budget] = 0.0
        return multipliers

    def pacing_floats(self, slots: np.ndarray, timestamp: float) -> list[float]:
        """:meth:`pacing_block` at a few slots, as floats: the same
        comparisons and divide per element, in the same order, on the
        gathered columns — where numpy's per-call cost would outweigh
        the arithmetic."""
        spent = self._spent[slots].tolist()
        budget = self._budget[slots].tolist()
        if not self._pacing_enabled:
            return [0.0 if s >= b else 1.0 for s, b in zip(spent, budget)]
        elapsed = self._elapsed(timestamp)
        multipliers = []
        for s, b in zip(spent, budget):
            expected = b * elapsed
            if s >= b:
                multipliers.append(0.0)
            elif s > expected:
                multipliers.append(max(expected / s, 0.1))
            else:
                multipliers.append(1.0)
        return multipliers

    def ahead_of_schedule(self, slots: np.ndarray, timestamp: float) -> np.ndarray:
        """Which of ``slots`` pace below 1.0 at ``timestamp`` only because
        of the time: spent past the uniform schedule and not exhausted.

        Every other slot keeps its :meth:`pacing_block` value at any later
        time until it is charged: the schedule ``budget · fraction(t)``
        never decreases, so a slot on it stays on it (1.0), and exhaustion
        does not depend on the time (0.0). With pacing off nothing does.
        """
        if not self._pacing_enabled:
            return np.zeros(slots.shape[0], dtype=bool)
        spent = self._spent[slots]
        budget = self._budget[slots]
        ahead = spent > budget * self._elapsed(timestamp)
        ahead &= spent < budget
        return ahead

    def ahead_flags(self, slots: np.ndarray, timestamp: float) -> list[bool]:
        """:meth:`ahead_of_schedule` at a few slots, as Python bools (the
        same comparisons, as :meth:`pacing_floats` is to
        :meth:`pacing_block`)."""
        if not self._pacing_enabled:
            return [False] * slots.shape[0]
        elapsed = self._elapsed(timestamp)
        return [
            b * elapsed < s < b
            for s, b in zip(self._spent[slots].tolist(), self._budget[slots].tolist())
        ]

    def _elapsed(self, timestamp: float) -> float:
        """The campaign window's elapsed fraction at ``timestamp``,
        clamped (:meth:`BudgetState.time_fraction`'s arithmetic)."""
        span = self._campaign_end - self._campaign_start
        fraction = (timestamp - self._campaign_start) / span
        return min(1.0, max(0.0, fraction))

    def charge(self, ad_id: int, price: float) -> bool:
        """Debit one impression; returns True if the ad just exhausted.

        The final impression may be charged at less than ``price`` (the
        remaining balance) — advertisers are never billed past their cap.
        Exhausted ads are retired from the corpus, which cascades to every
        subscribed index.
        """
        if price < 0.0:
            raise BudgetError(f"price cannot be negative: {price}")
        slot = self._slots.get(ad_id)
        if slot is None:
            return False
        budget = self._budget.item(slot)
        spent = self._spent.item(slot)
        if spent >= budget:
            raise BudgetError(f"ad {ad_id} is already exhausted")
        spent += min(price, budget - spent)
        self._spent[slot] = spent
        self.writes += 1
        if spent >= budget:
            self._corpus.retire(ad_id)
            return True
        return False

    def charge_block(self, slots: list[int], prices: list[float]) -> None:
        """:meth:`charge` for each ``(slot, price)`` pair in order, by
        slot (:meth:`slot_of`'s; uncapped ads share slot 0, which is
        never debited) — how a served slate is debited. The same floats
        through the same steps: ``spent + min(price, budget − spent)``,
        one ``writes`` bump per capped pair and a retirement the moment a
        pair exhausts its ad, so spend, ``writes``, the retirements and
        a :class:`BudgetError` end where the calls one at a time leave
        them. A slate is a handful of entries, where numpy's per-call
        cost outweighs the arithmetic."""
        spent_column, budget_column = self._spent, self._budget
        for slot, price in zip(slots, prices):
            if price < 0.0:
                raise BudgetError(f"price cannot be negative: {price}")
            if not slot:
                continue
            budget = budget_column.item(slot)
            spent = spent_column.item(slot)
            if spent >= budget:
                raise BudgetError(f"ad {self._ad_of_slot[slot]} is already exhausted")
            spent += min(price, budget - spent)
            spent_column[slot] = spent
            self.writes += 1
            if spent >= budget:
                self._corpus.retire(self._ad_of_slot[slot])

    def restore_spend(self, ad_id: int, spent: float) -> None:
        """Set an ad's spend directly (checkpoint restore).

        The spend must be finite and non-negative. An active ad restored
        at or over its budget is retired here, as :meth:`charge` retires
        the ad it exhausts, so a restored engine never serves it.
        """
        slot = self._slots.get(ad_id)
        if slot is None:
            raise BudgetError(f"ad {ad_id} has no budget to restore into")
        if not (math.isfinite(spent) and spent >= 0.0):
            raise ConfigError(
                f"restored spend must be finite and non-negative, got {spent}"
            )
        self._spent[slot] = spent
        self.writes += 1
        if spent >= self._budget.item(slot) and self._corpus.is_active(ad_id):
            self._corpus.retire(ad_id)

    def total_spend(self) -> float:
        # Python's left-to-right sum in registration order, not ndarray.sum:
        # pairwise summation would round differently from the ledger's.
        return sum(self._spent[1 : len(self._slots) + 1].tolist())

    def exhausted_ids(self) -> list[int]:
        size = len(self._slots) + 1
        exhausted = self._spent[1:size] >= self._budget[1:size]
        return sorted(
            ad_id for ad_id, done in zip(self._slots, exhausted.tolist()) if done
        )
