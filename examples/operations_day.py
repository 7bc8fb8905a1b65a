"""Operations day: the full system under production-like conditions.

One simulated day featuring everything a live deployment deals with:

* click feedback (the CTR quality term learning creative appeal),
* campaign churn (launches and endings mid-stream),
* a mid-day checkpoint + restore (crash recovery drill).

Run:  python examples/operations_day.py
"""

from __future__ import annotations

import random

from repro import (
    ContextAwareRecommender,
    EngineConfig,
    WorkloadConfig,
    generate_workload,
    load_checkpoint,
    save_checkpoint,
)
from repro.datagen.churn import AdArrival, generate_churn
from repro.stream.clicks import ClickSimulator
import tempfile
from pathlib import Path


def build_engine(workload):
    recommender = ContextAwareRecommender.from_workload(
        workload, EngineConfig(ctr_feedback=True)
    )
    return recommender.engine


def main() -> None:
    workload = generate_workload(
        WorkloadConfig(num_users=250, num_ads=900, num_posts=300, seed=12)
    )
    engine = build_engine(workload)
    churn = generate_churn(
        workload.topic_space,
        [ad.ad_id for ad in workload.ads],
        random.Random(3),
        arrivals=40,
        endings=25,
        duration_s=workload.config.duration_s,
    )
    churn_events = churn.events()
    clicks = ClickSimulator(random.Random(4))
    truth = workload.ground_truth

    cursor = 0
    half = len(workload.posts) // 2

    for position, post in enumerate(workload.posts):
        while cursor < len(churn_events) and churn_events[cursor][0] <= post.timestamp:
            _, event = churn_events[cursor]
            if isinstance(event, AdArrival):
                engine.launch_campaign(event.ad, event.timestamp)
            else:
                engine.end_campaign(event.ad_id, event.timestamp)
            cursor += 1

        result = engine.post(post.author_id, post.text, post.timestamp)
        for delivery in result.deliveries:
            for click in clicks.click_events(
                delivery,
                lambda ad: truth.grade(ad, post.msg_id, delivery.user_id, post.timestamp)
                if ad in workload.ad_topics
                else 0.2,
            ):
                engine.record_click(
                    click.ad_id,
                    user_id=click.user_id,
                    slot_index=click.slot_index,
                )

        if position == half:
            with tempfile.TemporaryDirectory() as directory:
                checkpoint_path = Path(directory) / "engine.ckpt.json"
                save_checkpoint(checkpoint_path, engine)
                print(f"[{post.timestamp/3600:05.2f}h] checkpoint written "
                      f"({checkpoint_path.stat().st_size/1024:.0f} KiB) — simulating crash...")
                engine = build_engine(workload)
                load_checkpoint(checkpoint_path, engine)
            print(f"          restored: {engine.stats.posts} posts, "
                  f"revenue {engine.stats.revenue:.1f} carried over")

    print(f"\nDay complete: {engine.stats.posts} posts, "
          f"{engine.stats.deliveries} deliveries, "
          f"{engine.stats.impressions} impressions, "
          f"revenue {engine.stats.revenue:.1f}, "
          f"{engine.stats.retired_ads} campaigns ended/exhausted.")

    print(f"Corpus-wide realised CTR: {engine.ctr.global_ctr():.3f} "
          f"({len(engine.ctr.observed_ads())} ads with traffic)")


if __name__ == "__main__":
    main()
