"""Quickstart: context-aware ads on a hand-built five-user network.

Builds everything from real English text — no synthetic workload — and
shows the engine reacting to what each user is reading *right now*:

* Tom posts about volleyball → his followers see sports ads;
* the same followers, minutes later reading a coffee post, see café ads;
* Luke's accumulated posting history (profile) biases his slates.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.ads.corpus import AdCorpus
from repro.ads.targeting import TargetingSpec, TimeWindow
from repro.core.config import EngineConfig, ScoringWeights
from repro.core.engine import AdEngine
from repro.datagen.adgen import ad_from_text
from repro.geo.point import GeoPoint
from repro.geo.regions import city_by_name
from repro.graph.social import SocialGraph
from repro.text.tokenizer import Tokenizer
from repro.text.vectorizer import TfidfVectorizer

USERS = {0: "Tom", 1: "Luke", 2: "Anna", 3: "Sam", 4: "Lia"}

POSTS = [
    (0, "The nation's best volleyball returns tomorrow night!", 9.0),
    (1, "Morning espresso at the new roastery downtown, amazing beans", 9.5),
    (0, "Our volleyball team needs new shoes before the finals", 10.0),
    (3, "Training for the marathon, long run along the river today", 11.0),
    (1, "Another coffee tasting flight — the Ethiopian roast wins", 13.0),
]

AD_SPECS = [
    ("sportco", "Volleyball gear sale: nets, balls and team shoes", 1.2, None),
    ("beanhouse", "Premium single-origin coffee beans, roasted daily", 1.0, None),
    ("runfast", "Marathon running shoes with carbon plates", 1.5, None),
    ("fitclub", "Gym membership deal: strength and conditioning", 0.8, None),
    ("cafelondon", "London cafe crawl pass — espresso bars near you", 0.9, "london"),
]


def build_engine() -> AdEngine:
    tokenizer = Tokenizer()
    vectorizer = TfidfVectorizer()
    vectorizer.fit(tokenizer.tokenize(text) for _, text, _ in POSTS)
    vectorizer.fit(tokenizer.tokenize(text) for _, text, _, _ in AD_SPECS)

    ads = []
    for ad_id, (advertiser, text, bid, city_name) in enumerate(AD_SPECS):
        targeting = TargetingSpec()
        if city_name is not None:
            city = city_by_name(city_name)
            targeting = TargetingSpec(
                circles=((city.center, 50.0),),
                time_windows=(TimeWindow(6.0, 20.0),),
            )
        ads.append(
            ad_from_text(
                ad_id, advertiser, text, vectorizer,
                tokenizer=tokenizer, bid=bid, targeting=targeting,
            )
        )
    corpus = AdCorpus(ads)

    graph = SocialGraph()
    for user_id in USERS:
        graph.add_user(user_id)
    # Everyone follows Tom; Anna and Sam also follow Luke.
    for follower in (1, 2, 3, 4):
        graph.follow(follower, 0)
    graph.follow(2, 1)
    graph.follow(3, 1)

    engine = AdEngine(
        corpus,
        graph,
        vectorizer,
        tokenizer=tokenizer,
        config=EngineConfig(k=3, weights=ScoringWeights(beta=0.6)),
    )
    london = city_by_name("london").center
    engine.register_user(0, london)
    engine.register_user(1, london)
    engine.register_user(2, GeoPoint(48.85, 2.35))  # Anna is in Paris
    engine.register_user(3, london)
    engine.register_user(4, None)  # Lia has location off
    return engine


def main() -> None:
    engine = build_engine()
    for author, text, hour in POSTS:
        result = engine.post(author, text, hour * 3600.0)
        print(f"\n[{hour:05.2f}h] {USERS[author]} posts: {text!r}")
        print(f"  fan-out: {result.num_deliveries} deliveries, "
              f"revenue {result.revenue:.2f}")
        for delivery in result.deliveries:
            slate = ", ".join(
                f"{engine.corpus.get(s.ad_id).advertiser}({s.score:.2f})"
                for s in delivery.slate
            )
            print(f"    → {USERS[delivery.user_id]:<5} sees: {slate or '(no ads)'}")

    print("\nProfiles after the session (top interests):")
    for user_id, name in USERS.items():
        interests = engine.services.users.state(user_id).profile.top_interests(3)
        rendered = ", ".join(f"{term}={weight:.2f}" for term, weight in interests)
        print(f"  {name:<5} {rendered or '(never posted)'}")

    print("\nOne-off query — what would Lia see next to a sports story?")
    for scored in engine.slate_for_message(4, "championship volleyball finals", 14 * 3600.0):
        print(" ", engine.corpus.get(scored.ad_id).advertiser, round(scored.score, 3))


if __name__ == "__main__":
    main()
