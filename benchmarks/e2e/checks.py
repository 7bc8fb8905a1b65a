"""Output checks, run on collected results outside every timed window."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import harness
from workloads import K, Inputs, build_backend


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    failed_operations: int  # operations this check's failure invalidates
    detail: str = ""


def digest(results) -> str:
    """Identity of everything served: ``(msg_id, user_id, ad_ids,
    repr(revenue))`` per delivery, in serving order."""
    sha = hashlib.sha256()
    for msg_id, parts in results:
        for part in parts:
            for delivery in part.deliveries:
                ad_ids = tuple(scored.ad_id for scored in delivery.slate)
                sha.update(
                    repr((msg_id, delivery.user_id, ad_ids, repr(delivery.revenue))).encode()
                )
    return sha.hexdigest()[:16]


def _bad_slate(slate) -> bool:
    ad_ids = [scored.ad_id for scored in slate]
    scores = [scored.score for scored in slate]
    return (
        len(slate) > K
        or len(set(ad_ids)) != len(ad_ids)
        or any(later > earlier for earlier, later in zip(scores, scores[1:]))
    )


def check_round(inputs: Inputs, round_: harness.Round) -> list[Check]:
    """The invariants every replay must satisfy on its own."""
    operations = round_.operations
    results = round_.results
    stats = round_.stats
    parts = [part for _msg_id, post_parts in results for part in post_parts]

    bad_posts = sum(
        any(_bad_slate(d.slate) for part in post_parts for d in part.deliveries)
        for _msg_id, post_parts in results
    )
    checks = [
        Check(
            "slates <= k, no duplicate ad, scores descending",
            bad_posts == 0,
            bad_posts,
            f"{bad_posts} posts with a malformed slate",
        )
    ]

    def whole_round(name: str, ok: bool, detail: str) -> None:
        checks.append(Check(name, ok, 0 if ok else operations, detail))

    posts = inputs.counts["ScriptedPost"]
    whole_round(
        "every post returned a result",
        len(results) == posts == stats.posts,
        f"{len(results)} results, {stats.posts} counted, {posts} sent",
    )
    revenue = sum(part.revenue for part in parts)
    whole_round(
        "sum of PostResult.revenue == EngineStats.revenue",
        math.isclose(revenue, stats.revenue, rel_tol=1e-9, abs_tol=1e-9),
        f"{revenue!r} vs {stats.revenue!r}",
    )
    delivered = sum(part.num_deliveries for part in parts)
    shed = sum(part.num_shed for part in parts)
    whole_round(
        "deliveries == sum of fan-out - shed",
        delivered == stats.deliveries == inputs.total_fanout - shed
        and shed == stats.deliveries_shed,
        f"{delivered} delivered, {shed} shed, fan-out {inputs.total_fanout}",
    )
    ledger = round_.ledger
    if ledger:
        # Only budgeted ads keep a ledger and the last impression is
        # capped at the remaining balance, so spend is bounded by revenue,
        # not equal to it.
        whole_round(
            "ledger spend <= revenue, spend <= budget per ad",
            ledger["spend"] <= revenue + 1e-6 and not ledger["overspent"],
            f"spend {ledger['spend']!r}, overspent ads {ledger['overspent']}",
        )
        if ledger["admission"] is not None:
            attempted, admitted, shed_by_gate = ledger["admission"]
            whole_round(
                "attempted == admitted + shed",
                attempted == admitted + shed_by_gate
                and attempted == stats.attempted_deliveries
                and shed_by_gate == shed,
                f"{attempted} attempted, {admitted} admitted, {shed_by_gate} shed",
            )
    return checks


def check_digests(digests: list[str], operations: int) -> Check:
    same = len(set(digests)) == 1
    return Check(
        "output digest identical across rounds",
        same,
        0 if same else operations * len(digests),
        " ".join(digests),
    )


def check_reference(inputs: Inputs, round_: harness.Round) -> Check | None:
    """Replay the warm-up prefix on the workload's reference computation
    and compare what was served: ``searcher="ta"`` (the pure-Python
    oracle) for ``steady``, the in-process router for ``procpool``."""
    name = inputs.spec.name
    if name == "steady":
        reference = build_backend(inputs, searcher="ta")
        label = 'searcher="ta" engine'
    elif name == "procpool":
        reference = build_backend(inputs, backend="sharded")
        label = "in-process ShardedEngine"
    else:
        return None
    prefix: list = []
    harness.drive_stream(
        reference,
        inputs.events[: inputs.warm_events],
        lambda msg_ids, results, _seconds: prefix.extend(zip(msg_ids, results)),
        inputs.spec.routed,
    )
    same = digest(prefix) == digest(round_.results[: len(prefix)])
    return Check(
        f"warm-up prefix identical on the {label}",
        same,
        0 if same else inputs.warm_events,
        f"{len(prefix)} posts compared",
    )
