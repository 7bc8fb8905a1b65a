"""Engine checkpointing: persist and restore a live engine's mutable state.

A production matcher is a long-running stateful service; restarts must not
forget budgets (advertisers would be double-charged), profiles, feed
contexts or CTR evidence. A checkpoint captures every piece of mutable
state the engine owns:

* the clock and message-id counter;
* retired-ad set (budget exhaustions and ended campaigns);
* budget spend per capped ad;
* per-user locations, interest profiles (raw weights + timestamps) and
  feed-context windows (raw entries — the decayed aggregate is rebuilt);
* CTR impression/click counts when feedback is on.

The *immutable* inputs (corpus of ads, graph, vectorizer, config) are the
caller's to reconstruct — typically from a saved workload — mirroring how
real deployments separate config/catalog stores from runtime state.

The module is layered so the cluster routers can reuse it:

* :func:`engine_state_dict` / :func:`apply_engine_state` are the pure
  state layer (no file IO) — the multiprocess backend ships these dicts
  over its RPC channel;
* :func:`merge_shard_states` folds per-shard state dicts into one
  *logical* single-engine checkpoint (clock = max, budgets/CTR sum,
  profiles and contexts taken from each user's home shard), which is why
  a cluster checkpoint can be restored into a cluster with a *different*
  shard count — or into a single engine — and continue byte-identically;
* :func:`save_checkpoint` / :func:`load_checkpoint` wrap the state layer
  in one JSON file for the single-engine workflow.

Restore is validated end-to-end by tests: a restored engine produces
bit-identical slates to the original for the remainder of the stream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.engine import AdEngine
from repro.errors import ConfigError
from repro.geo.point import GeoPoint
from repro.profiles.context import FeedContext
from repro.profiles.profile import UserProfile
from repro.util.sparse import l2_normalize

_FORMAT_VERSION = 1


def _profile_state(profile: UserProfile) -> dict[str, Any]:
    return {
        "weights": profile._weights,
        "last_t": profile._last_t,
        "epoch": profile.epoch,
    }


def _context_state(context: FeedContext) -> list[dict[str, Any]]:
    return [
        {"msg_id": entry.msg_id, "timestamp": entry.timestamp, "vec": dict(entry.vec)}
        for entry in context._entries
    ]


def engine_state_dict(engine: AdEngine) -> dict[str, Any]:
    """The engine's mutable state as one JSON-safe dictionary.

    All mutable state hangs off the engine's
    :class:`~repro.core.services.EngineServices` (clock, user states,
    profiles, budgets, CTR evidence); the facade itself only adds the
    message-id counter and the launched-ad replay list.
    """
    services = engine.services
    users: dict[str, Any] = {}
    for user_id, state in services.users.items():
        record: dict[str, Any] = {}
        if state.location is not None:
            record["location"] = [state.location.lat, state.location.lon]
        if state.context is not None and len(state.context):
            record["context"] = _context_state(state.context)
            record["context_last_t"] = state.context.last_update
        users[str(user_id)] = record

    profiles: dict[str, Any] = {
        str(user_id): _profile_state(state.profile)
        for user_id, state in sorted(services.users.items())
        if not state.profile.is_empty
    }

    budgets = {
        str(ad_id): state.spent
        for ad_id, state in engine.budget.states().items()
        if state.spent > 0.0
    }

    ctr_state: dict[str, Any] | None = None
    if engine.ctr is not None:
        ctr_state = {
            str(ad_id): [
                engine.ctr.impressions_of(ad_id),
                engine.ctr.clicks_of(ad_id),
            ]
            for ad_id in engine.ctr.observed_ads()
        }

    from repro.io.serialize import ad_to_dict

    return {
        "version": _FORMAT_VERSION,
        "clock": services.clock.now,
        "next_msg_id": engine._next_msg_id,
        "launched_ads": [ad_to_dict(ad) for ad in engine._launched_ads],
        "retired": sorted(
            ad_id
            for ad_id in (ad.ad_id for ad in engine.corpus.all_ads())
            if not engine.corpus.is_active(ad_id)
        ),
        "budgets": budgets,
        "users": users,
        "profiles": profiles,
        "ctr": ctr_state,
        "stats": {
            "posts": engine.stats.posts,
            "deliveries": engine.stats.deliveries,
            "impressions": engine.stats.impressions,
            "revenue": engine.stats.revenue,
            "deliveries_shed": engine.stats.deliveries_shed,
            "deliveries_degraded": engine.stats.deliveries_degraded,
            "revenue_shed_upper_bound": engine.stats.revenue_shed_upper_bound,
        },
        # QoS control-plane state (ladder position, hysteresis streaks,
        # admission bucket) so a restored engine resumes on the same rung.
        "qos": (
            services.qos.state_dict() if services.qos is not None else None
        ),
        # LinUCB learner state: the epoch snapshot (replicated cluster-wide)
        # plus the open epoch's pending updates and click contexts.
        "learn": (
            services.learner.state_dict()
            if services.learner is not None
            else None
        ),
    }


def apply_engine_state(
    engine: AdEngine, payload: dict[str, Any], *, include_stats: bool = True
) -> None:
    """Apply a state dictionary to a *freshly constructed* engine.

    The engine must have been built over the same corpus/graph/vectorizer
    the checkpointed one used, and must not have processed any events yet.
    ``include_stats=False`` restores serving state without the cumulative
    counters — the cluster routers use it and keep the checkpoint's totals
    as a router-side baseline instead, so per-shard counters keep counting
    from zero while cluster roll-ups stay continuous.
    """
    if engine.stats.posts != 0:
        raise ConfigError("restore target must be a fresh engine")
    if payload.get("version") != _FORMAT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version: {payload.get('version')!r}"
        )

    from repro.io.serialize import ad_from_dict

    services = engine.services
    services.clock.advance_to(payload["clock"])
    engine._next_msg_id = payload["next_msg_id"]

    for raw in payload.get("launched_ads", ()):
        ad = ad_from_dict(raw)
        if ad.ad_id not in engine.corpus:
            engine.corpus.add(ad)
            engine._launched_ads.append(ad)

    for ad_id in payload["retired"]:
        if engine.corpus.is_active(ad_id):
            engine.corpus.retire(ad_id)

    for ad_id_str, spent in payload["budgets"].items():
        ad_id = int(ad_id_str)
        if engine.budget.state(ad_id) is None:
            raise ConfigError(
                f"checkpoint charges ad {ad_id_str} but it has no budget"
            )
        engine.budget.restore_spend(ad_id, spent)

    for user_id_str, record in payload["users"].items():
        user_id = int(user_id_str)
        engine.register_user(user_id)
        state = services.users.state(user_id)
        if "location" in record:
            lat, lon = record["location"]
            state.location = GeoPoint(lat, lon)
        if "context" in record:
            context = services.context_of(state)
            for entry in record["context"]:
                context.add(entry["msg_id"], entry["timestamp"], entry["vec"])
            context.expire(record["context_last_t"])
            context.rebuild()

    for user_id_str, profile_state in payload["profiles"].items():
        profile = services.users.register(int(user_id_str)).profile
        profile._weights = {
            term: weight for term, weight in profile_state["weights"].items()
        }
        profile._last_t = profile_state["last_t"]
        profile.epoch = profile_state["epoch"]
        profile.unit = l2_normalize(profile._weights)

    if payload["ctr"] is not None:
        if engine.ctr is None:
            raise ConfigError(
                "checkpoint carries CTR state but ctr_feedback is disabled"
            )
        for ad_id_str, (impressions, clicks) in payload["ctr"].items():
            engine.ctr.restore(int(ad_id_str), impressions, clicks)

    if include_stats:
        saved = payload["stats"]
        engine.stats.posts = saved["posts"]
        engine.stats.deliveries = saved["deliveries"]
        engine.stats.impressions = saved["impressions"]
        engine.stats.revenue = saved["revenue"]
        engine.stats.deliveries_shed = saved.get("deliveries_shed", 0)
        engine.stats.deliveries_degraded = saved.get("deliveries_degraded", 0)
        engine.stats.revenue_shed_upper_bound = saved.get(
            "revenue_shed_upper_bound", 0.0
        )

    qos_state = payload.get("qos")
    if qos_state is not None:
        if services.qos is None:
            raise ConfigError(
                "checkpoint carries QoS state but the restore target has "
                "no QoS controller attached"
            )
        services.qos.load_state(qos_state)

    learn_state = payload.get("learn")
    if learn_state is not None:
        if services.learner is None:
            raise ConfigError(
                "checkpoint carries LinUCB learner state but the restore "
                "target has personalize != 'linucb'"
            )
        services.learner.load_state(learn_state)


def merge_shard_states(
    states: Sequence[dict[str, Any]],
    shard_of: Callable[[int], int],
    *,
    posts_routed: int,
    qos_state: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Fold per-shard state dicts into one *logical* single-engine payload.

    The merge relies on the routing invariants of the user-sharded
    deployment: every shard that a user's posts touch includes the user's
    home shard, so the home shard's copy of a profile (and the only copy
    of a feed context) is exactly the single-engine state; CTR impressions
    are partitioned (each shard serves its own residents) and sum, while
    clicks are broadcast and take the max; the clock is the max watermark
    any shard reached. ``posts_routed`` is the router's own post count —
    per-shard ``posts`` counters double-count fan-out amplification and
    cannot be summed.

    Budgets are not partitioned: each shard charges its own copy of every
    capped ad's budget, and the merge sums the copies' spend, so a merged
    ad can stand over its budget. On the ``sharded`` e2e workload at seed
    7 one ad ends at 1.06× its budget, and the cluster spends 16,618
    against the single engine's 16,430; under ``budget-burst`` the worst
    ad reaches 2× on two shards and 4× on four. ROADMAP item 1 (one ad
    ledger across shards) is the fix.

    The result is shard-count-agnostic: it can be applied to a single
    engine or redistributed across any number of shards.
    """
    if not states:
        raise ConfigError("cannot merge an empty shard state list")
    for state in states:
        if state.get("version") != _FORMAT_VERSION:
            raise ConfigError(
                f"unsupported checkpoint version: {state.get('version')!r}"
            )

    budgets: dict[str, float] = {}
    retired: set[int] = set()
    launched: list[dict[str, Any]] = []
    ctr: dict[str, list[float]] | None = None
    users: dict[str, dict[str, Any]] = {}
    profiles: dict[str, dict[str, Any]] = {}
    stat_sums: dict[str, float] = {}

    for shard, state in enumerate(states):
        retired.update(state["retired"])
        if len(state.get("launched_ads", ())) > len(launched):
            # Launches are broadcast, so every shard carries the same
            # replay list; the longest copy survives a partial broadcast.
            launched = list(state["launched_ads"])
        for ad_id, spent in state["budgets"].items():
            budgets[ad_id] = budgets.get(ad_id, 0.0) + spent
        if state["ctr"] is not None:
            if ctr is None:
                ctr = {}
            for ad_id, (impressions, clicks) in state["ctr"].items():
                entry = ctr.setdefault(ad_id, [0, 0])
                # Impressions are partitioned state (each shard serves its
                # own residents) and sum; clicks are broadcast to every
                # shard, so the max — not the sum — is the logical count.
                entry[0] += impressions
                entry[1] = max(entry[1], clicks)
        for name, value in state["stats"].items():
            stat_sums[name] = stat_sums.get(name, 0) + value

        for user_id_str, record in state["users"].items():
            home = shard_of(int(user_id_str))
            merged = users.setdefault(user_id_str, {})
            if "location" in record and "location" not in merged:
                merged["location"] = record["location"]
            if home == shard and "context" in record:
                merged["context"] = record["context"]
                merged["context_last_t"] = record["context_last_t"]
        for user_id_str, profile_state in state["profiles"].items():
            home = shard_of(int(user_id_str))
            current = profiles.get(user_id_str)
            if home == shard or current is None:
                # Home shard wins (it saw every one of the user's posts);
                # otherwise keep the most-advanced replica as a fallback.
                if (
                    home == shard
                    or current is None
                    or profile_state["epoch"] > current["epoch"]
                ):
                    profiles[user_id_str] = profile_state

    from repro.learn.linucb import merge_learn_states

    stats = {name: value for name, value in stat_sums.items()}
    stats["posts"] = posts_routed
    return {
        "version": _FORMAT_VERSION,
        "clock": max(state["clock"] for state in states),
        "next_msg_id": max(state["next_msg_id"] for state in states),
        "launched_ads": launched,
        "retired": sorted(retired),
        "budgets": budgets,
        "users": users,
        "profiles": profiles,
        "ctr": ctr,
        "stats": stats,
        "qos": qos_state,
        # Snapshots are replicated (every shard folds the same sorted
        # record list each epoch), so the first shard's models stand for
        # all; the open epoch's pending/contexts concatenate (they live
        # only on each follower's home shard) into canonical order.
        "learn": merge_learn_states([state.get("learn") for state in states]),
    }


def save_state_dict(path: Path | str, payload: dict[str, Any]) -> None:
    """Write one state dictionary (engine- or cluster-level) as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_state_dict(path: Path | str) -> dict[str, Any]:
    """Read a state dictionary saved by :func:`save_state_dict`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save_checkpoint(path: Path | str, engine: AdEngine) -> None:
    """Serialise the engine's mutable state to one JSON file."""
    save_state_dict(path, engine_state_dict(engine))


def load_checkpoint(path: Path | str, engine: AdEngine) -> None:
    """Restore a checkpoint file into a *freshly constructed* engine."""
    apply_engine_state(engine, load_state_dict(path))
