"""Tests for the effectiveness and performance harnesses and reports."""

from __future__ import annotations

import pytest

from repro.baselines.base import BaselineState
from repro.baselines.engine_adapter import SystemRecommender
from repro.baselines.random_rec import RandomRecommender
from repro.core.config import EngineConfig, EngineMode
from repro.core.recommender import ContextAwareRecommender
from repro.errors import EvaluationError
from repro.eval.harness import EffectivenessHarness
from repro.eval.report import ascii_table, format_number
from repro.scenarios import ScenarioDriver, build_scenario_stream


def make_state(workload) -> BaselineState:
    return BaselineState(
        workload.build_corpus(),
        {user.user_id: user.home for user in workload.users},
    )


class TestEffectivenessHarness:
    def test_validation(self, tiny_workload):
        with pytest.raises(EvaluationError):
            EffectivenessHarness(tiny_workload, k=0)
        with pytest.raises(EvaluationError):
            EffectivenessHarness(tiny_workload, fanout_cap=0)
        with pytest.raises(EvaluationError):
            EffectivenessHarness(tiny_workload).evaluate({})

    def test_results_aligned_with_input(self, tiny_workload):
        harness = EffectivenessHarness(tiny_workload, max_posts=30, seed=1)
        recommenders = {
            "system": SystemRecommender(make_state(tiny_workload)),
            "random": RandomRecommender(make_state(tiny_workload)),
        }
        results = harness.evaluate(recommenders)
        assert [result.name for result in results] == ["system", "random"]
        assert results[0].samples == results[1].samples > 0

    def test_system_beats_random(self, tiny_workload):
        harness = EffectivenessHarness(tiny_workload, max_posts=60, seed=2)
        results = harness.evaluate(
            {
                "system": SystemRecommender(make_state(tiny_workload)),
                "random": RandomRecommender(make_state(tiny_workload)),
            }
        )
        by_name = {result.name: result for result in results}
        assert by_name["system"].f1 > by_name["random"].f1
        assert by_name["system"].ndcg > by_name["random"].ndcg

    def test_metrics_in_unit_interval(self, tiny_workload):
        harness = EffectivenessHarness(tiny_workload, max_posts=20, seed=3)
        (result,) = harness.evaluate(
            {"system": SystemRecommender(make_state(tiny_workload))}
        )
        for value in (result.precision, result.recall, result.f1, result.ndcg, result.map):
            assert 0.0 <= value <= 1.0

    def test_deterministic_given_seed(self, tiny_workload):
        def run():
            harness = EffectivenessHarness(tiny_workload, max_posts=20, seed=5)
            (result,) = harness.evaluate(
                {"random": RandomRecommender(make_state(tiny_workload), seed=1)}
            )
            return result

        assert run() == run()


class TestPerfHarness:
    def test_driven_replay_shape(self, tiny_workload):
        recommender = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(mode=EngineMode.SHARED)
        )
        driver = ScenarioDriver(recommender.engine, tiny_workload)
        totals = driver.run(
            build_scenario_stream(tiny_workload, (), limit_posts=20).events
        )
        assert totals.posts == 20
        assert totals.deliveries > 0
        assert totals.deliveries / totals.wall_seconds > 0
        assert 0.0 <= recommender.stats.fallback_rate() <= 1.0
        assert len(driver.post_latencies) == 20


class TestReport:
    def test_format_number(self):
        assert format_number(3) == "3"
        assert format_number(3.14159, precision=2) == "3.14"
        assert format_number(2.0) == "2"
        assert format_number("x") == "x"
        assert format_number(True) == "True"

    def test_ascii_table_alignment(self):
        table = ascii_table(
            ["name", "value"],
            [["alpha", 1.5], ["b", 20]],
            title="Demo",
        )
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2  # aligned

    def test_ascii_table_row_length_checked(self):
        with pytest.raises(EvaluationError):
            ascii_table(["a", "b"], [["only-one"]])

    def test_ascii_table_empty_rows(self):
        table = ascii_table(["a", "b"], [])
        assert "a" in table
