"""Public facade: build a ready-to-run recommender from a workload.

``ContextAwareRecommender`` owns an :class:`~repro.core.engine.AdEngine`
plus the fitted text pipeline, and adds conveniences the examples and the
evaluation harness use: construction from a synthetic workload and
introspection helpers. A whole stream is replayed by
:class:`~repro.scenarios.driver.ScenarioDriver` over ``engine``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import EngineConfig
from repro.core.engine import AdEngine, EngineStats, PostResult
from repro.core.scoring import ScoredAd, Slate
from repro.geo.point import GeoPoint

if TYPE_CHECKING:  # avoid an import cycle: datagen imports core types
    from repro.datagen.workload import Workload
    from repro.obs.registry import MetricsRegistry, NullMetrics
    from repro.obs.trace import RequestTracer
    from repro.obs.tracer import StageTracer
    from repro.qos.controller import QosController


class ContextAwareRecommender:
    """High-level entry point for the whole system."""

    def __init__(self, engine: AdEngine) -> None:
        self.engine = engine

    @classmethod
    def from_workload(
        cls,
        workload: "Workload",
        config: EngineConfig | None = None,
        *,
        tracer: "StageTracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        qos: "QosController | None" = None,
        request_tracer: "RequestTracer | None" = None,
    ) -> "ContextAwareRecommender":
        """Wire an engine over a generated workload's corpus, graph, users
        and fitted vectorizer. ``tracer`` opts the engine into per-stage
        observability; ``metrics`` into live windowed telemetry (see
        :mod:`repro.obs`); ``qos`` attaches the QoS control plane (see
        :mod:`repro.qos`); ``request_tracer`` into distributed request
        tracing (see :mod:`repro.obs.trace`)."""
        engine = AdEngine(
            corpus=workload.corpus,
            graph=workload.graph,
            vectorizer=workload.vectorizer,
            config=config,
            tokenizer=workload.tokenizer,
            tracer=tracer,
            metrics=metrics,
            qos=qos,
            request_tracer=request_tracer,
        )
        for user in workload.users:
            engine.register_user(user.user_id, user.home)
        return cls(engine)

    # -- delegation --------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        return self.engine.config

    @property
    def stats(self) -> EngineStats:
        return self.engine.stats

    @property
    def tracer(self) -> "StageTracer":
        return self.engine.tracer

    @property
    def metrics(self) -> "MetricsRegistry | NullMetrics":
        return self.engine.metrics

    def post(
        self, author_id: int, text: str, timestamp: float, *, msg_id: int | None = None
    ) -> PostResult:
        """Publish one message through the engine."""
        return self.engine.post(author_id, text, timestamp, msg_id=msg_id)

    def post_batch(self, posts) -> list[PostResult]:
        """Publish a timestamp-ordered batch of posts in one call."""
        return self.engine.post_batch(posts)

    def checkin(self, user_id: int, point: GeoPoint, timestamp: float) -> None:
        self.engine.checkin(user_id, point, timestamp)

    def slate_for_message(
        self, user_id: int, text: str, timestamp: float
    ) -> Slate:
        return self.engine.slate_for_message(user_id, text, timestamp)

    def standing_slate(self, user_id: int) -> Slate:
        return self.engine.standing_slate(user_id)

    def explain(self, scored: ScoredAd) -> str:
        """Human-readable one-liner for a slate entry."""
        ad = self.engine.corpus.get(scored.ad_id)
        keywords = ", ".join(ad.keywords[:4])
        return (
            f"ad {scored.ad_id} ({ad.advertiser!r}: {keywords}) "
            f"score={scored.score:.3f} "
            f"[content={scored.content:.3f}, static={scored.static:.3f}]"
        )
