"""Synthetic click feedback.

Without production logs, click events must be simulated. The model is the
standard examination hypothesis: the user examines slate positions with
geometrically decaying probability and clicks an examined ad with
probability proportional to its *true* relevance (the workload's latent
ground-truth grade), plus a small noise floor. Because the click model
consumes the latent grade — which the engine never sees — CTR feedback
carries genuinely new information into the ranker, and the A1 ablation can
measure how much it helps.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import NamedTuple

from repro.errors import ConfigError

GradeFn = Callable[[int], float]  # ad_id -> latent relevance grade in [0, 1]


class ClickEvent(NamedTuple):
    """One simulated click, attributed to its delivering slate position.

    ``user_id`` and ``slot_index`` exist so feedback consumers that
    condition on position (the LinUCB rerank, the T8 replay estimator)
    receive the full delivery coordinates — ``record_click(ad_id)`` alone
    discards where in whose slate the click landed.
    """

    ad_id: int
    user_id: int
    slot_index: int


class ClickSimulator:
    """Position-aware probabilistic click generation over a slate."""

    def __init__(
        self,
        rng: random.Random,
        *,
        examine_decay: float = 0.7,
        click_given_relevant: float = 0.6,
        noise_click: float = 0.01,
    ) -> None:
        if not 0.0 < examine_decay <= 1.0:
            raise ConfigError(f"examine_decay must be in (0, 1], got {examine_decay}")
        if not 0.0 <= click_given_relevant <= 1.0:
            raise ConfigError(
                f"click_given_relevant must be in [0, 1], got {click_given_relevant}"
            )
        if not 0.0 <= noise_click <= 1.0:
            raise ConfigError(f"noise_click must be in [0, 1], got {noise_click}")
        self._rng = rng
        self.examine_decay = examine_decay
        self.click_given_relevant = click_given_relevant
        self.noise_click = noise_click

    def clicks_for_slate(self, slate: list[int], grade_of: GradeFn) -> list[bool]:
        """One boolean per slate position: did the user click it?"""
        clicks: list[bool] = []
        examine_probability = 1.0
        for ad_id in slate:
            clicked = False
            if self._rng.random() < examine_probability:
                grade = grade_of(ad_id)
                probability = self.noise_click + self.click_given_relevant * grade
                clicked = self._rng.random() < min(1.0, probability)
            clicks.append(clicked)
            examine_probability *= self.examine_decay
        return clicks

    def click_events(self, delivery, grade_of: GradeFn) -> list[ClickEvent]:
        """Position-attributed clicks for one delivery.

        ``delivery`` is anything shaped like
        :class:`~repro.core.pipeline.DeliveryResult` — a ``user_id`` plus
        an ordered ``slate`` of scored ads; a click's ``slot_index`` is its
        entry's position in that slate. Consumes the same RNG stream
        as :meth:`clicks_for_slate` on the slate's ad ids, so swapping one
        call form for the other is draw-for-draw deterministic.
        """
        slate_ids = [scored.ad_id for scored in delivery.slate]
        return [
            ClickEvent(ad_id, delivery.user_id, slot)
            for slot, (ad_id, clicked) in enumerate(
                zip(slate_ids, self.clicks_for_slate(slate_ids, grade_of))
            )
            if clicked
        ]
