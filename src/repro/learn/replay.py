"""Unbiased off-policy replay evaluation for the LinUCB rerank policy.

Implements the replay estimator of Li, Chu, Langford & Schapire: log a
stream of (context, uniformly-random arm, observed reward) events once,
then evaluate any candidate policy by walking the log — an event *matches*
when the policy would have picked the logged arm; only matched events
contribute reward and count toward the policy's CTR, and the policy's
online update runs only on matched events. Because the logging policy is
uniform over the pool, the matched subsample is an unbiased draw of the
candidate policy's own on-policy stream.

The logged stream is built from the synthetic workload's generative ground
truth: each event delivers one post to one follower, the arm pool mixes
content-matched and random ads, and the logged reward is a seeded
Bernoulli draw of the examination-model click probability at the graded
relevance. Everything is seeded and deterministic — two builds of the same
stream, and two replays of the same policy, are byte-identical (asserted
by the determinism regression test and relied on by the T8 CI gate).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.ads.ctr import CtrEstimator
from repro.core.scoring import ScoredAd, Slate
from repro.learn.linucb import LinUcbLearner, sort_records

__all__ = [
    "LinUcbPolicy",
    "LoggedEvent",
    "ReplayResult",
    "StaticCtrPolicy",
    "build_logged_stream",
    "replay_estimate",
]

#: Examination-model click probabilities (ClickSimulator defaults): a
#: logged arm is clicked with ``NOISE + CLICK_GIVEN_RELEVANT * grade``.
_NOISE_CLICK = 0.01
_CLICK_GIVEN_RELEVANT = 0.6


@dataclass(frozen=True, slots=True)
class LoggedEvent:
    """One logged serving decision: context, uniform arm, realised reward."""

    user_id: int
    msg_id: int
    timestamp: float
    pool: tuple[int, ...]
    features: dict[int, tuple]  # ad_id -> feature vector x
    arm: int  # the logged (uniformly random) ad
    reward: int  # 0/1 click on the logged arm


@dataclass(frozen=True, slots=True)
class ReplayResult:
    """A policy's replay grade: CTR over its matched-event subsample."""

    policy: str
    events: int
    matched: int
    clicks: int

    @property
    def ctr(self) -> float:
        return self.clicks / self.matched if self.matched else 0.0

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "events": self.events,
            "matched": self.matched,
            "clicks": self.clicks,
            "ctr": self.ctr,
        }


def _sparse_dot(vec: dict, terms: dict) -> float:
    """Dot of two sparse term->weight dicts (iterate the smaller one)."""
    if len(terms) < len(vec):
        return float(sum(weight * vec.get(term, 0.0) for term, weight in terms.items()))
    return float(sum(weight * terms.get(term, 0.0) for term, weight in vec.items()))


def build_logged_stream(
    workload,
    *,
    events: int,
    pool_size: int = 8,
    content_pool: int = 30,
    seed: int = 0,
) -> list[LoggedEvent]:
    """A seeded uniform-logging stream over the workload's ground truth.

    Posts round-robin through the workload; each event picks one follower
    of the author, builds an arm pool of ``pool_size`` ads — half sampled
    from the post's top-``content_pool`` content matches, half from the
    whole corpus — logs a uniformly random arm, and draws its click from
    the graded examination model. Features per arm are
    ``(1, content, affinity, 1)`` where ``affinity`` is the cosine of the
    ad's terms against a running mean of the vectors the user has seen —
    the same (context, profile) signal family the engine's stage uses.
    """
    rng = random.Random(seed)
    truth = workload.ground_truth
    graph = workload.graph
    vectorizer = workload.vectorizer
    tokenizer = workload.tokenizer
    ads = sorted(workload.ads, key=lambda ad: ad.ad_id)
    ad_ids = [ad.ad_id for ad in ads]
    terms_of = {ad.ad_id: ad.terms for ad in ads}

    # Per-post message vector + top content matches, computed once.
    post_vecs: dict[int, dict] = {}
    post_top: dict[int, list[int]] = {}
    for post in workload.posts:
        vec = vectorizer.transform(tokenizer.tokenize(post.text))
        post_vecs[post.msg_id] = vec
        scored = sorted(
            ((_sparse_dot(vec, ad.terms), ad.ad_id) for ad in ads),
            key=lambda pair: (-pair[0], pair[1]),
        )
        post_top[post.msg_id] = [ad_id for _score, ad_id in scored[:content_pool]]

    # Running per-user profile: unnormalised mean of seen message vectors.
    profiles: dict[int, dict] = {}
    seen_counts: dict[int, int] = {}

    stream: list[LoggedEvent] = []
    post_cycle = [post for post in workload.posts if graph.followers(post.author_id)]
    if not post_cycle:
        return stream
    index = 0
    while len(stream) < events:
        post = post_cycle[index % len(post_cycle)]
        index += 1
        followers = sorted(graph.followers(post.author_id))
        user_id = rng.choice(followers)
        vec = post_vecs[post.msg_id]

        matched_half = rng.sample(
            post_top[post.msg_id], min(pool_size // 2, len(post_top[post.msg_id]))
        )
        pool_set = dict.fromkeys(matched_half)
        while len(pool_set) < pool_size:
            pool_set[rng.choice(ad_ids)] = None
        pool = tuple(sorted(pool_set))

        profile = profiles.get(user_id)
        count = seen_counts.get(user_id, 0)
        features: dict[int, tuple] = {}
        for ad_id in pool:
            terms = terms_of[ad_id]
            content = _sparse_dot(vec, terms)
            affinity = (
                _sparse_dot(profile, terms) / count if profile else 0.0
            )
            features[ad_id] = (1.0, content, affinity, 1.0)

        arm = rng.choice(pool)
        grade = truth.grade(arm, post.msg_id, user_id, post.timestamp)
        p_click = _NOISE_CLICK + _CLICK_GIVEN_RELEVANT * grade
        reward = 1 if rng.random() < p_click else 0

        stream.append(
            LoggedEvent(
                user_id=user_id,
                msg_id=post.msg_id,
                timestamp=post.timestamp,
                pool=pool,
                features=features,
                arm=arm,
                reward=reward,
            )
        )

        # The user "saw" this message: fold it into their profile.
        if profile is None:
            profile = profiles[user_id] = {}
        for term, weight in vec.items():
            profile[term] = profile.get(term, 0.0) + weight
        seen_counts[user_id] = count + 1
    return stream


class StaticCtrPolicy:
    """The static baseline: content score + Beta-smoothed per-ad CTR.

    Mirrors the engine's static stage shape — a fixed context score plus a
    CTR quality estimate that updates from observed clicks — with no
    per-ad feature weights and no exploration bonus.
    """

    name = "static-ctr"

    def __init__(
        self, *, prior_ctr: float = 0.05, prior_strength: float = 20.0
    ) -> None:
        self._ctr = CtrEstimator(
            prior_ctr=prior_ctr, prior_strength=prior_strength
        )

    def select(self, event: LoggedEvent) -> int:
        return min(
            event.pool,
            key=lambda ad_id: (
                -(event.features[ad_id][1] + self._ctr.estimate(ad_id)),
                ad_id,
            ),
        )

    def update(self, event: LoggedEvent) -> None:
        self._ctr.record_impression(event.arm)
        if event.reward:
            self._ctr.record_click(event.arm)


class LinUcbPolicy:
    """The served :class:`LinUcbLearner` behind the replay policy protocol.

    A logged pool is presented to the learner as a slate (content score,
    profile affinity as the static half, base score 0, so the order is the
    UCB's alone) and the top of its ``rerank`` is the selection. Offline
    replay has no sharding to coordinate, so a matched event is folded at
    once: one impression, its click if any, one epoch.
    """

    name = "linucb"

    def __init__(self, learner: LinUcbLearner) -> None:
        self.learner = learner

    @staticmethod
    def _slate(event: LoggedEvent, ad_ids) -> Slate:
        features = event.features
        return Slate.of(
            ScoredAd(ad_id, 0.0, features[ad_id][1], features[ad_id][2])
            for ad_id in ad_ids
        )

    def select(self, event: LoggedEvent) -> int:
        slate, _rows, _order = self.learner.rerank(self._slate(event, event.pool))
        return slate[0].ad_id

    def update(self, event: LoggedEvent) -> None:
        learner = self.learner
        learner.observe_slate(
            event.msg_id, event.user_id, self._slate(event, (event.arm,))
        )
        if event.reward:
            learner.record_click(event.arm, user_id=event.user_id)
        learner.apply_sync(
            learner.epoch + 1, sort_records(learner.drain_pending())
        )

    def state_dict(self) -> dict:
        return self.learner.state_dict()


def replay_estimate(policy, stream, *, warm_fraction: float = 0.0) -> ReplayResult:
    """Li et al.'s matched-event replay: CTR over events the policy agrees
    with the uniform logger on, updating the policy online as it matches.

    ``warm_fraction`` discounts the first fraction of the stream from the
    CTR estimate (updates still run): both policies burn the same warm-up,
    so the T8 grade compares *converged* behaviour instead of averaging in
    each policy's cold-start regret.
    """
    matched = 0
    clicks = 0
    warm = int(len(stream) * warm_fraction)
    for position, event in enumerate(stream):
        if policy.select(event) != event.arm:
            continue
        if position >= warm:
            matched += 1
            clicks += event.reward
        policy.update(event)
    return ReplayResult(
        policy=policy.name,
        events=len(stream),
        matched=matched,
        clicks=clicks,
    )
