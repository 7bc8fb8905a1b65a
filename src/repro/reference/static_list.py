"""Global bid/geo candidate list: the third candidate source.

The ``gamma·geo + delta·bid`` part of the score is bounded per ad by
``gamma + delta·normalized_bid`` regardless of user and time (proximity and
pacing are both <= 1). Keeping the ads sorted by that bound gives both a
candidate list (the top ``size`` prefix) and a *cutoff*: any ad outside the
prefix contributes at most ``gamma + delta·bid_norm(prefix end)`` of
geo+bid score — one of the three cutoff terms in the slate certificate
(see :mod:`repro.reference.rerank`).

Maintenance: retirements remove entries (the bound of everyone else is
unchanged, so the cutoff only tightens); an addition is one sorted insert,
and only one that raises ``corpus.max_bid`` — rescaling every key —
re-sorts the list.
"""

from __future__ import annotations

import bisect

from repro.ads.corpus import AdCorpus
from repro.core.config import ScoringWeights
from repro.errors import ConfigError


class GlobalStaticTopList:
    """Active ads ordered by their user-independent geo+bid upper bound."""

    def __init__(self, corpus: AdCorpus, weights: ScoringWeights, size: int) -> None:
        if size < 1:
            raise ConfigError(f"size must be >= 1, got {size}")
        self._corpus = corpus
        self._weights = weights
        self.size = size
        # Descending by normalized bid; key list kept in ascending-negated
        # order for bisect. Entries: (-bid_norm, ad_id).
        self._entries: list[tuple[float, int]] = []
        self._rebuild()
        corpus.subscribe(on_add=self._on_add, on_retire=self._on_retire)

    def _rebuild(self) -> None:
        # The high-water mark every stored key is normalised by.
        self._keyed_at = self._corpus.max_bid
        self._entries = sorted(
            (-self._corpus.normalized_bid(ad.ad_id), ad.ad_id)
            for ad in self._corpus.active_ads()
        )

    def _on_add(self, ad) -> None:
        if self._corpus.max_bid != self._keyed_at:
            # The new ad raised max_bid, shifting everyone's normalized bid
            # by a common factor — order is preserved, but cutoffs are read
            # off the stored keys, so rebuild keeps them exact.
            self._rebuild()
            return
        bisect.insort(
            self._entries, (-self._corpus.normalized_bid(ad.ad_id), ad.ad_id)
        )

    def _on_retire(self, ad) -> None:
        key = (-self._corpus.normalized_bid(ad.ad_id), ad.ad_id)
        index = bisect.bisect_left(self._entries, key)
        if index < len(self._entries) and self._entries[index] == key:
            del self._entries[index]
        else:  # normalized bid changed since insert (max_bid rose): scan
            self._entries = [
                entry for entry in self._entries if entry[1] != ad.ad_id
            ]

    def __len__(self) -> int:
        return len(self._entries)

    def candidate_ids(self) -> list[int]:
        """The top-``size`` prefix of ads by geo+bid upper bound."""
        return [ad_id for _, ad_id in self._entries[: self.size]]

    def cutoff(self) -> float:
        """Upper bound on ``gamma·geo + delta·bid`` of any ad outside the
        prefix; 0.0 when the prefix covers every active ad."""
        if len(self._entries) <= self.size:
            return 0.0
        negated_bid, _ = self._entries[self.size]
        return self._weights.gamma + self._weights.delta * (-negated_bid)
