"""Each serving mechanism shows on the benchmark workload that drives it,
and only there.

The whole-path benchmark's mini run (``benchmarks/e2e/run.py --scale
mini``) reports per-layer counts for its five workloads; the counting
replays spy on the kernel's cuts, the pipeline's bookings and the
targeting cache's rebuilds. Each fall-back caught here keeps every slate,
ledger and digest right, so only a count shows it.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.ads.targeting import SECONDS_PER_DAY
from repro.core.pipeline import DeliveryPipeline, NoChargeStage
from repro.core.rerank import Personalizer
from repro.core.scoring import StaticRowCache
from repro.scenarios.base import ScriptedPost

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
WORKLOADS = ("steady", "fanout_batch", "adversarial", "sharded", "procpool")
#: procpool's bytes per delivery at the mini run's default seed. Pickling
#: is deterministic, so this is a ceiling: a slate pickles as its four
#: columns, plain lists; one that pickles as boxed entries again (a tuple
#: of ScoredAd tuples: 632.5), or a record that pickles slot state (a
#: slotted dataclass: 656.5), goes over it.
WIRE_BYTES_PER_DELIVERY = 586.2


@pytest.fixture(scope="session")
def e2e():
    """The benchmark's ``harness`` and ``workloads`` modules."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(E2E))
        return SimpleNamespace(
            harness=importlib.import_module("harness"),
            workloads=importlib.import_module("workloads"),
        )


@pytest.fixture(scope="session")
def mini(tmp_path_factory):
    """One traced pass of all five workloads at mini scale: each
    workload's result record, by name."""
    out = tmp_path_factory.mktemp("mini")
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--scale", "mini", "--rounds", "3",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return {
        workload: json.loads((out / f"{workload}.json").read_text())
        for workload in WORKLOADS
    }


@pytest.fixture(scope="session")
def layer(mini):
    return lambda workload, name: mini[workload]["per_layer"][name]["value"]


def mini_inputs(e2e, name: str):
    workloads = e2e.workloads
    return workloads.build_inputs(workloads.scaled(workloads.SPECS[name], "mini"), 7)


class TestEachMechanismShowsOnlyOnItsWorkload:
    """``benchmarks/e2e/tests/test_harness.py::
    test_each_mechanism_shows_only_on_its_workload``, line for line, except
    that ``steady`` now goes through ``personalize_batch`` too; plus the
    exact cut, the learner's timing and the wire's size."""

    def test_charged_and_uncharged_fan_outs_go_through_the_kernel(self, layer):
        assert layer("steady", "rerank.batch_calls_n") > 0
        assert layer("fanout_batch", "rerank.batch_calls_n") > 0

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_frames_cross_a_wire_only_on_procpool(self, layer, workload):
        assert (layer(workload, "rpc.frames_n") > 0) == (workload == "procpool")

    def test_writes_sheds_and_amplification_show_where_they_happen(self, layer):
        assert layer("adversarial", "ads.launch_n") > 0
        assert layer("adversarial", "qos.shed_n") > 0
        assert layer("steady", "ads.launch_n") == 0
        assert layer("sharded", "router.amplification") > 1.0

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_the_learner_runs_and_is_timed_only_on_adversarial(self, layer, workload):
        """``layers.py`` times the learner by patching ``rerank`` /
        ``observe_slate`` / ``apply_sync`` by name: a rename that blinds
        it reads 0 on ``adversarial``."""
        learns = workload == "adversarial"
        assert (layer(workload, "learn.sync_n") > 0) == learns
        assert (layer(workload, "learn.rerank_s") > 0) == learns

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_every_slate_is_the_exact_cut(self, layer, workload):
        """A silent return of the union / certificate / fallback path
        reads a fallback here."""
        assert layer(workload, "rerank.fallback_ratio") == 0.0
        assert layer(workload, "rerank.certified_ratio") == 1.0

    def test_a_delivery_pickles_under_the_ceiling(self, layer):
        wire = layer("procpool", "rpc.bytes_per_delivery")
        assert 0 < wire <= WIRE_BYTES_PER_DELIVERY * 1.02, wire


def test_one_personalize_kernel_call_per_event_on_the_charged_path(mini):
    """``steady`` is charged and CTR-fed, and every author has followers:
    its traced round sends each whole fan-out through ``personalize_batch``
    once. A fall-back to one call per follower reads ``batch_calls_n`` 0 or
    equal to the deliveries."""
    record = mini["steady"]
    assert record["correct"], record["checks"]
    metrics = record["per_layer"]
    calls = metrics["rerank.batch_calls_n"]["value"]
    events = metrics["index.candidate_n"]["value"]
    deliveries = metrics["rerank.personalize_n"]["value"]
    assert 0 < calls == events < deliveries, (calls, events, deliveries)


class TestEachCutShowsOnlyOnItsWorkload:
    """The kernel serves a fan-out in runs: one follower at a time while
    deliveries write, everyone left cut ahead as one block while they do
    not. ``fanout_batch`` is uncharged (nothing is ever written), ``steady``
    charged and CTR-fed (every delivery writes).

    Uncharged, the pipeline hands the kernel no per-delivery callback:
    every follower is cut in blocks, the first included, so a run of one
    is a post with one follower, and the disabled charge stage is never
    called. A post that reaches no follower runs no probe. Charged or not,
    ``DeliveryPipeline._book`` books a fan-out in one pass, once per post
    with a follower."""

    @staticmethod
    def replayed(e2e, monkeypatch, name: str) -> SimpleNamespace:
        """The workload's posts, through a fresh backend, with every cut,
        charge and booking counted."""
        inputs = mini_inputs(e2e, name)
        seen = SimpleNamespace(blocks=[], ones=0, charges=0, books=0)
        cut_one, cut_block = Personalizer._cut, Personalizer._cut_block
        charge, book = NoChargeStage.charge, DeliveryPipeline._book

        def counting_block(personalizer, followers, *args):
            seen.blocks.append(len(followers))
            return cut_block(personalizer, followers, *args)

        def counting_one(personalizer, *args):
            seen.ones += 1
            return cut_one(personalizer, *args)

        def counting_charge(stage, *args):
            seen.charges += 1
            return charge(stage, *args)

        def counting_book(pipeline, *args):
            seen.books += 1
            return book(pipeline, *args)

        monkeypatch.setattr(Personalizer, "_cut_block", counting_block)
        monkeypatch.setattr(Personalizer, "_cut", counting_one)
        monkeypatch.setattr(NoChargeStage, "charge", counting_charge)
        monkeypatch.setattr(DeliveryPipeline, "_book", counting_book)
        backend = e2e.workloads.build_backend(inputs)
        posts = [event for event in inputs.events if isinstance(event, ScriptedPost)]
        seen.deliveries = sum(
            backend.post(post.author_id, post.text, post.timestamp).num_deliveries
            for post in posts
        )
        seen.probes = backend.stats.shared_probes
        fanouts = [inputs.workload.graph.fanout(post.author_id) for post in posts]
        seen.served = sum(map(bool, fanouts))
        seen.single = fanouts.count(1)
        return seen

    def test_uncharged_fan_outs_are_cut_ahead_in_blocks(self, e2e, monkeypatch):
        seen = self.replayed(e2e, monkeypatch, "fanout_batch")
        blocks, deliveries = seen.blocks, seen.deliveries
        assert blocks and max(blocks) > 1 and sum(blocks) > deliveries // 2, blocks
        assert seen.ones == seen.single, (seen.ones, seen.single)
        assert sum(blocks) + seen.ones == deliveries, (sum(blocks), seen.ones, deliveries)
        assert seen.charges == 0
        assert seen.probes == seen.served, (seen.probes, seen.served)
        assert seen.books == seen.served, (seen.books, seen.served)

    def test_charged_fan_outs_cut_one_follower_at_a_time(self, e2e, monkeypatch):
        seen = self.replayed(e2e, monkeypatch, "steady")
        assert seen.deliveries > 0 and not seen.blocks, seen.blocks
        assert seen.books == seen.served, (seen.books, seen.served)


@pytest.mark.parametrize("name", ["adversarial", "sharded"])
def test_targeting_work_follows_what_changed(e2e, monkeypatch, name):
    """``StaticRowCache`` keeps its targeting state across the stream: a
    cold location costs one haversine per distinct circle centre, a clock
    tick advances the time mask across the window ends it crossed, and a
    launch extends what was kept instead of dropping it. Full mask
    rebuilds are allowed only at a cache's first read, a step back of the
    hour of day (midnight included), a launch that brings windows and a
    compaction. ``adversarial`` launches; ``sharded`` keeps two caches."""
    original = {
        attr: getattr(StaticRowCache, attr)
        for attr in ("sync", "time_keep_full", "_time_keep", "_geo_matches",
                     "_geo_extend", "_centre_distances")
    }
    counts = dict.fromkeys(
        ("first reads", "steps back", "window launches", "compactions", "rebuilds",
         "cold passes", "extensions", "recomputed"),
        0,
    )
    last_hour, seen, distances, mismatched = {}, set(), [], []

    def sync(cache, *args):
        generation, first = cache._generation, cache._synced_rows
        original["sync"](cache, *args)
        added = cache._compact.ad_ids[first : cache._synced_rows].tolist()
        if generation != cache._generation:
            counts["compactions"] += generation != -1
        elif any(cache._corpus.get(ad_id).targeting.time_windows for ad_id in added):
            counts["window launches"] += 1

    def time_keep_full(cache, timestamp):
        hour = (timestamp % SECONDS_PER_DAY) / 3600.0
        before = last_hour.get(id(cache))
        counts["first reads"] += before is None
        counts["steps back"] += before is not None and hour < before
        last_hour[id(cache)] = hour
        return original["time_keep_full"](cache, timestamp)

    def time_keep(cache, position):
        counts["rebuilds"] += 1
        return original["_time_keep"](cache, position)

    def geo_matches(cache, location):
        if location is None:
            return original["_geo_matches"](cache, location)
        key = (id(cache), cache._generation, location.lat, location.lon)
        counts["cold passes"] += 1
        counts["recomputed"] += key in seen
        seen.add(key)
        distances.clear()
        hits = original["_geo_matches"](cache, location)
        centres = {
            (centre.lat, centre.lon)
            for ad_id in cache._compact.ad_ids.tolist()
            for centre, _ in cache._corpus.get(ad_id).targeting.circles
        }
        if sum(distances) != len(centres):
            mismatched.append((sum(distances), len(centres)))
        return hits

    def geo_extend(cache, *args):
        counts["extensions"] += 1
        return original["_geo_extend"](cache, *args)

    def centre_distances(cache, location, centres):
        out = original["_centre_distances"](cache, location, centres)
        distances.append(out.shape[0])
        return out

    for attr, counting in (
        ("sync", sync), ("time_keep_full", time_keep_full), ("_time_keep", time_keep),
        ("_geo_matches", geo_matches), ("_geo_extend", geo_extend),
        ("_centre_distances", centre_distances),
    ):
        monkeypatch.setattr(StaticRowCache, attr, counting)
    e2e.harness.run_round(mini_inputs(e2e, name))

    allowed = (
        counts["first reads"] + counts["steps back"] + counts["window launches"]
        + counts["compactions"]
    )
    assert counts["rebuilds"] <= allowed, (counts["rebuilds"], allowed)
    assert counts["cold passes"] > 0 and not mismatched, mismatched[:3]
    assert counts["recomputed"] == 0, counts["recomputed"]
    if name == "adversarial":
        assert counts["extensions"] > 0, counts
