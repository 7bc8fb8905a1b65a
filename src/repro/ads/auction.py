"""Generalised second-price (GSP) charging for a ranked ad slate.

The engine ranks ads by relevance-weighted score; given that ranking, each
winner pays the bid of the ad one slot below it (capped by its own bid and
floored by the reserve price). The last slot pays the reserve.
:func:`run_gsp_auction` is the reference, one ad at a time;
:func:`gsp_prices` is the same rule over the slate's bids as a list of
floats, which is how the engine prices a served slate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ads.corpus import AdCorpus
from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class AuctionOutcome:
    """Prices charged for one slate, position-aligned with the input."""

    ad_ids: tuple[int, ...]
    prices: tuple[float, ...]

    @property
    def revenue(self) -> float:
        return sum(self.prices)


def run_gsp_auction(
    corpus: AdCorpus,
    ranked_ad_ids: list[int],
    *,
    reserve_price: float = 0.0,
) -> AuctionOutcome:
    """Price a ranked slate with generalised second-price rules.

    ``ranked_ad_ids`` must already be in slate order (best first); this
    function only prices, it never re-ranks — ranking is the engine's job
    and mixes relevance with bids.
    """
    if reserve_price < 0.0:
        raise ConfigError(f"reserve_price must be >= 0, got {reserve_price}")
    bids = [corpus.get(ad_id).bid for ad_id in ranked_ad_ids]
    prices: list[float] = []
    for position, bid in enumerate(bids):
        next_bid = bids[position + 1] if position + 1 < len(bids) else reserve_price
        price = max(reserve_price, min(bid, next_bid))
        prices.append(price)
    return AuctionOutcome(ad_ids=tuple(ranked_ad_ids), prices=tuple(prices))


def gsp_prices(bids: list[float], reserve_price: float) -> list[float]:
    """:func:`run_gsp_auction`'s prices from the ranked slate's bids, as
    floats: each bid against the one below it (the reserve below the
    last) through the same min and max, so the same doubles. The reserve
    is the engine config's, validated there."""
    prices = []  # a loop: a comprehension is a call before Python 3.12
    for bid, next_bid in zip(bids, [*bids[1:], reserve_price]):
        prices.append(max(reserve_price, min(bid, next_bid)))
    return prices
