"""Click-through-rate estimation with Bayesian smoothing.

Real ad rankers multiply the bid by a *quality score* — an estimate of the
ad's click probability — so that expensive-but-ignored ads do not dominate
slates. This module provides the estimator: a Beta-Bernoulli posterior per
ad with a shared prior, plus an optional exponential discount so stale
clicks fade.

The engine consumes it through :class:`~repro.core.scoring.ScoringModel`:
with an estimator attached, the bid term becomes
``bid_norm · pacing · quality/2`` where ``quality = min(2, ctr/prior)`` —
so the term stays in [0, 1] (the pruning bounds remain admissible), proven
clickers can double their effective bid and duds fade toward zero.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

QUALITY_CAP = 2.0


class CtrEstimator:
    """Per-ad smoothed CTR with a shared Beta prior.

    ``prior_ctr`` and ``prior_strength`` define a Beta(a, b) prior with
    mean ``prior_ctr`` and pseudo-count ``prior_strength``; each ad's
    estimate is the posterior mean given its own (optionally discounted)
    impression/click counts. Clicks are reported separately from
    impressions (a click event always follows an impression event for the
    same ad).
    """

    def __init__(
        self,
        *,
        prior_ctr: float = 0.05,
        prior_strength: float = 20.0,
        discount: float = 1.0,
    ) -> None:
        if not 0.0 < prior_ctr < 1.0:
            raise ConfigError(f"prior_ctr must be in (0, 1), got {prior_ctr}")
        if prior_strength <= 0.0:
            raise ConfigError(
                f"prior_strength must be positive, got {prior_strength}"
            )
        if not 0.0 < discount <= 1.0:
            raise ConfigError(f"discount must be in (0, 1], got {discount}")
        self.prior_ctr = prior_ctr
        self.prior_strength = prior_strength
        self.discount = discount
        # The evidence *is* two dense float64 arrays indexed by slot; ads
        # are interned on first mention (not by ad id: launched campaigns
        # carry ids in the 800,000s). An empty slot holds zeros, which is
        # exactly the prior mean, so interning changes no estimate.
        self._slots: dict[int, int] = {}
        self._impressions = np.zeros(16)
        self._clicks = np.zeros(16)
        self._total_impressions = 0.0
        self._total_clicks = 0.0
        #: Monotone count of writes to the evidence arrays (as
        #: ``BudgetManager.writes``).
        self.writes = 0

    # -- observation ----------------------------------------------------

    def slot_of(self, ad_id: int) -> int:
        """The ad's slot for :meth:`quality_block`, interned on first
        request; it never changes."""
        slot = self._slots.get(ad_id)
        if slot is None:
            slot = self._slots[ad_id] = len(self._slots)
            if slot == self._impressions.shape[0]:
                self._impressions = np.pad(self._impressions, (0, slot))
                self._clicks = np.pad(self._clicks, (0, slot))
        return slot

    def record_impression(self, ad_id: int) -> None:
        """Fold one served impression into the posterior."""
        slot = self.slot_of(ad_id)
        if self.discount < 1.0:
            self._impressions[slot] *= self.discount
            self._clicks[slot] *= self.discount
        self._impressions[slot] += 1.0
        self._total_impressions += 1.0
        self.writes += 1

    def record_impressions(self, slots: np.ndarray) -> None:
        """:meth:`record_impression` once at each of ``slots``
        (:meth:`slot_of`'s, all distinct — one slate's ads), as arrays:
        the discount, then the count, elementwise, so the evidence ends
        where the calls one at a time leave it."""
        count = slots.shape[0]
        if not count:
            return
        if self.discount < 1.0:
            self._impressions[slots] *= self.discount
            self._clicks[slots] *= self.discount
        self._impressions[slots] += 1.0
        # One addition per impression: a restored total may be fractional,
        # and then ``+= count`` can round differently.
        for _ in range(count):
            self._total_impressions += 1.0
        self.writes += count

    def record_click(self, ad_id: int) -> None:
        """Fold one click on a previously-served impression."""
        self._clicks[self.slot_of(ad_id)] += 1.0
        self._total_clicks += 1.0
        self.writes += 1

    def record_block(
        self, impression_slots: np.ndarray, click_slots: np.ndarray
    ) -> None:
        """Fold a block of impressions and clicks, one per slot named (a
        slot may repeat). For an undiscounted estimator only: the
        per-impression discount is not a block operation."""
        if self.discount != 1.0:
            raise ConfigError(
                "record_block needs an undiscounted estimator, got discount "
                f"{self.discount}"
            )
        np.add.at(self._impressions, impression_slots, 1.0)
        np.add.at(self._clicks, click_slots, 1.0)
        self._total_impressions += float(len(impression_slots))
        self._total_clicks += float(len(click_slots))
        self.writes += 1

    def restore(self, ad_id: int, impressions: float, clicks: float) -> None:
        """Set an ad's evidence directly (checkpoint restore); the
        corpus-wide totals move by the difference."""
        slot = self.slot_of(ad_id)
        self._total_impressions += impressions - self._impressions.item(slot)
        self._total_clicks += clicks - self._clicks.item(slot)
        self._impressions[slot] = impressions
        self._clicks[slot] = clicks
        self.writes += 1

    # -- estimates --------------------------------------------------------

    def impressions_of(self, ad_id: int) -> float:
        slot = self._slots.get(ad_id)
        return self._impressions.item(slot) if slot is not None else 0.0

    def clicks_of(self, ad_id: int) -> float:
        slot = self._slots.get(ad_id)
        return self._clicks.item(slot) if slot is not None else 0.0

    def estimate(self, ad_id: int) -> float:
        """Posterior-mean CTR for an ad (the prior mean when unseen)."""
        alpha = self.prior_ctr * self.prior_strength
        beta = (1.0 - self.prior_ctr) * self.prior_strength
        slot = self._slots.get(ad_id)
        if slot is None:
            return alpha / (alpha + beta)
        return (alpha + self._clicks.item(slot)) / (
            alpha + beta + self._impressions.item(slot)
        )

    def global_ctr(self) -> float:
        """Observed corpus-wide CTR (prior mean with no traffic)."""
        if self._total_impressions == 0.0:
            return self.prior_ctr
        return self._total_clicks / self._total_impressions

    def quality_multiplier(self, ad_id: int) -> float:
        """``estimate / prior_ctr`` capped to [0, QUALITY_CAP].

        1.0 for unknown ads (no evidence, no penalty); the cap keeps a
        lucky early click streak from dominating the bid term, mirroring
        the bounded quality scores production auctions use.
        """
        return min(QUALITY_CAP, self.estimate(ad_id) / self.prior_ctr)

    def estimate_block(self, slots) -> np.ndarray:
        """:meth:`estimate` for a block of slots, loop-free (same
        arithmetic per element, so values are bit-identical)."""
        alpha = self.prior_ctr * self.prior_strength
        beta = (1.0 - self.prior_ctr) * self.prior_strength
        return (alpha + self._clicks[slots]) / (
            alpha + beta + self._impressions[slots]
        )

    def quality_block(self, slots: np.ndarray) -> np.ndarray:
        """:meth:`quality_multiplier` for a block of slots, loop-free."""
        return np.minimum(
            QUALITY_CAP, self.estimate_block(slots) / self.prior_ctr
        )

    def quality_floats(self, slots: np.ndarray) -> list[float]:
        """:meth:`quality_block` at a few slots, as floats: the same
        arithmetic per element, in the same order, on the gathered
        evidence."""
        alpha = self.prior_ctr * self.prior_strength
        prior = alpha + (1.0 - self.prior_ctr) * self.prior_strength
        prior_ctr = self.prior_ctr
        qualities = []  # a loop: a comprehension is a call before 3.12
        for clicks, impressions in zip(
            self._clicks[slots].tolist(), self._impressions[slots].tolist()
        ):
            qualities.append(
                min(QUALITY_CAP, (alpha + clicks) / (prior + impressions) / prior_ctr)
            )
        return qualities

    def observed_ads(self) -> list[int]:
        """Ads with any recorded evidence, ascending."""
        size = len(self._slots)
        seen = (self._impressions[:size] > 0.0) | (self._clicks[:size] > 0.0)
        return sorted(
            ad_id for ad_id, hit in zip(self._slots, seen.tolist()) if hit
        )
