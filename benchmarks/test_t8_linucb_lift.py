"""T8 — online-learning effectiveness: LinUCB CTR lift over the static
baseline, graded by unbiased off-policy replay.

One uniformly-logged stream per seed (Li et al.'s replay estimator: the
matched subsample of a uniform logger is an unbiased draw of the candidate
policy's on-policy stream), two candidate policies replayed over it:

* ``static-ctr`` — content score + Beta-smoothed per-ad CTR, the engine's
  static stage shape; no feature weights, no exploration;
* ``linucb`` — the hybrid LinUCB the engine serves (``LinUcbLearner``:
  shared ridge model over context features, per-arm smoothed CTR folded
  in as a feature), each matched event folded as an epoch of its own.

Both burn the same warm-up half of the stream (updates run, CTR not
counted) so the grade compares converged behaviour, not cold-start
regret. Everything — workload, stream, clicks, policy updates — is
seeded, so the lift is bit-reproducible across hosts and runs.

Besides the monospace table, the run writes ``BENCH_t8_ctr_lift.json`` at
the repo root — the effectiveness-trajectory file
``scripts/check_bench_regression.py`` gates CI against (the committed
copy is the baseline; a fresh run must keep the learned policy's CTR at
or above the static baseline's, and within the relative-loss budget of
the committed lift).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import save_table, workload_with
from repro.eval.report import ascii_table
from repro.learn.linucb import LinUcbLearner
from repro.learn.replay import (
    LinUcbPolicy,
    ReplayResult,
    StaticCtrPolicy,
    build_logged_stream,
    replay_estimate,
)

#: Runs in the tier-1 smoke driver at miniature scale.
SMOKE_MINI = True

#: Replay length per seed. Long enough that the matched subsample
#: (~events/pool_size) gives each policy a converged post-warm-up grade.
EVENTS = 12_000
#: Exploration width. Deliberately narrow: the logged pools mix strong
#: content matches with random ads, so most of the bandit's win is in the
#: learned weights, and wide exploration just spends matched events on
#: probing arms the CTR feature already prices.
ALPHA = 0.05
#: First half of the stream is warm-up on both sides (updates run, CTR
#: not counted).
WARM_FRACTION = 0.5
SEEDS = [0, 1, 2]
POLICIES = ["static-ctr", "linucb"]

#: The effectiveness gate: at the gate seed the learned policy must not
#: lose to the static baseline.
GATE_SEED = SEEDS[0]
MIN_LIFT = 1.0
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_t8_ctr_lift.json"

_series: dict[tuple[str, int], ReplayResult] = {}


def _workload():
    return workload_with(
        num_users=40,
        num_ads=120,
        num_posts=80,
        num_topics=8,
        vocab_size=1200,
        follows_per_user=5,
        seed=11,
    )


def _policies() -> list:
    return [StaticCtrPolicy(), LinUcbPolicy(LinUcbLearner(alpha=ALPHA))]


def _replay_pair(stream) -> dict[str, ReplayResult]:
    return {
        policy.name: replay_estimate(policy, stream, warm_fraction=WARM_FRACTION)
        for policy in _policies()
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_t8_ctr_lift(benchmark, seed):
    workload = _workload()
    stream = build_logged_stream(workload, events=EVENTS, seed=seed)

    results = benchmark.pedantic(
        lambda: _replay_pair(stream), rounds=1, iterations=1
    )

    for name, result in results.items():
        _series[(name, seed)] = result
        assert result.matched > 0, f"{name} never matched the logger"
    benchmark.extra_info["ctr_lift"] = (
        results["linucb"].ctr / results["static-ctr"].ctr
        if results["static-ctr"].ctr
        else 0.0
    )


def test_t8_lift_gate(benchmark):
    """The effectiveness gate at the gate seed.

    Runs last in the file (pytest preserves definition order), so the
    sweep above has filled every series cell when the whole suite runs —
    only then are the table/JSON written and the lift floor asserted. The
    smoke driver (one sweep point, miniature stream) still exercises the
    full measurement path without tripping the full-scale gate.
    """
    workload = _workload()
    stream = build_logged_stream(workload, events=EVENTS, seed=GATE_SEED)
    results = benchmark.pedantic(
        lambda: _replay_pair(stream), rounds=1, iterations=1
    )
    for name, result in results.items():
        _series[(name, GATE_SEED)] = result
    lift = ctr_lifts(_series).get(GATE_SEED, 0.0)
    benchmark.extra_info["ctr_lift"] = lift

    if len(_series) == len(POLICIES) * len(SEEDS):
        _write_table()
        write_bench_json(_series, BENCH_FILE)
        # The tentpole claim: online learning from click feedback beats
        # the static CTR baseline on the replay estimator.
        assert lift >= MIN_LIFT, (
            f"linucb replay CTR lift at seed {GATE_SEED} regressed to "
            f"{lift:.3f}x (floor {MIN_LIFT}x)"
        )


def ctr_lifts(series: dict[tuple[str, int], ReplayResult]) -> dict[int, float]:
    """Per-seed linucb/static replay-CTR ratio (both sides share the
    logged stream, so the ratio is seed-relative, not host-relative —
    there is nothing host-dependent to cancel; the numbers themselves
    are deterministic)."""
    return {
        seed: series[("linucb", seed)].ctr / series[("static-ctr", seed)].ctr
        for seed in SEEDS
        if series.get(("static-ctr", seed))
        and series[("static-ctr", seed)].ctr > 0
        and ("linucb", seed) in series
    }


def write_bench_json(
    series: dict[tuple[str, int], ReplayResult], path: Path
) -> None:
    """Persist the effectiveness-trajectory file the CI gate consumes."""
    payload = {
        "benchmark": "t8_ctr_lift",
        "unit": "replay_ctr",
        "events": EVENTS,
        "alpha": ALPHA,
        "warm_fraction": WARM_FRACTION,
        "seeds": SEEDS,
        "series": {
            policy: {
                str(seed): round(_series_ctr(series, policy, seed), 5)
                for seed in SEEDS
            }
            for policy in POLICIES
        },
        "ctr_lift": {
            str(seed): round(lift, 4) for seed, lift in ctr_lifts(series).items()
        },
        "gate": {
            "metric": "ctr_lift",
            "at": GATE_SEED,
            "min_lift": MIN_LIFT,
            "max_relative_loss": 0.05,
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _series_ctr(series, policy: str, seed: int) -> float:
    result = series.get((policy, seed))
    return result.ctr if result else 0.0


def _write_table():
    rows = []
    lifts = ctr_lifts(_series)
    for seed in SEEDS:
        static = _series[("static-ctr", seed)]
        linucb = _series[("linucb", seed)]
        rows.append(
            [
                seed,
                round(static.ctr, 4),
                static.matched,
                round(linucb.ctr, 4),
                linucb.matched,
                round(lifts.get(seed, 0.0), 3),
            ]
        )
    table = ascii_table(
        [
            "seed",
            "static ctr",
            "static matched",
            "linucb ctr",
            "linucb matched",
            "lift",
        ],
        rows,
        title="T8: off-policy replay CTR — hybrid LinUCB vs static baseline",
    )
    save_table("t8_linucb_lift", table)
    # Shape assertion: the learned policy wins on the majority of seeds
    # (the gate seed's floor is asserted separately, with the JSON gate).
    wins = sum(1 for lift in lifts.values() if lift >= 1.0)
    assert wins * 2 > len(SEEDS), f"linucb lost most seeds: {lifts}"
