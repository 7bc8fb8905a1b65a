"""Shared engine services: the single context object behind the pipeline.

Every delivery stage — vectorization, the shared probe, the three
personalisation strategies, GSP charging, CTR feedback — used to reach for
a loose bag of attributes threaded ad-hoc through ``AdEngine``
(``corpus``/``index``/``budget``/``scoring``/``ctr``/clock).
:class:`EngineServices` names that bag once so stages, the checkpoint
layer and the facade all share one wiring point.

Only ``config``/``corpus``/``index``/``scoring`` are mandatory: the
ranking layer (:class:`~repro.core.rerank.Personalizer` and the
reference's personalizer and incremental maintainer) runs off those four,
which is how the baseline adapter and the unit tests build partial stacks
without a graph, budgets or a clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import EngineConfig
from repro.errors import UnknownUserError
from repro.geo.point import GeoPoint
from repro.obs.registry import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.trace import NOOP_REQUEST_TRACER, NoopRequestTracer, RequestTracer
from repro.obs.tracer import NoopTracer, Seam, StageTracer
from repro.profiles.context import FeedContext
from repro.profiles.profile import UserProfile

if TYPE_CHECKING:  # heavyweight imports only needed for annotations
    from repro.ads.budget import BudgetManager
    from repro.ads.corpus import AdCorpus
    from repro.ads.ctr import CtrEstimator
    from repro.core.scoring import ScoringModel
    from repro.graph.social import SocialGraph
    from repro.learn.linucb import LinUcbLearner
    from repro.qos.controller import QosController
    from repro.stream.clock import SimClock


@dataclass
class EngineStats:
    """Cumulative engine counters (the F6/F7 instrumentation)."""

    posts: int = 0
    deliveries: int = 0
    impressions: int = 0
    revenue: float = 0.0
    shared_probes: int = 0
    # Sum of probe depths (the configured K′) across all shared probes —
    # divide by shared_probes for the mean depth the T3
    # probe-vs-personalize attribution reports.
    probe_depth_total: int = 0
    certified_deliveries: int = 0
    fallback_deliveries: int = 0
    approximate_deliveries: int = 0
    exact_deliveries: int = 0
    incremental_refreshes: int = 0
    retired_ads: int = 0
    # QoS control plane (zero unless a QosController is attached).
    deliveries_shed: int = 0
    deliveries_degraded: int = 0
    revenue_shed_upper_bound: float = 0.0

    @property
    def attempted_deliveries(self) -> int:
        """Fan-out size before admission control: admitted + shed."""
        return self.deliveries + self.deliveries_shed

    def fallback_rate(self) -> float:
        if self.deliveries == 0:
            return 0.0
        return self.fallback_deliveries / self.deliveries

    def refresh_rate(self) -> float:
        if self.deliveries == 0:
            return 0.0
        return self.incremental_refreshes / self.deliveries


@dataclass
class UserState:
    """Everything the engine remembers about one user: one record, so a
    follower's profile, location and feed context resolve in one lookup."""

    profile: UserProfile
    location: GeoPoint | None = None
    context: FeedContext | None = None
    # INCREMENTAL's standing slate (the reference's ``IncrementalTopK``).
    incremental: object | None = None


class UserStateStore:
    """Per-user mutable state, keyed by user id and guarded by the graph.
    A state is created with an empty profile of ``profile_half_life_s``."""

    def __init__(
        self, graph: "SocialGraph", profile_half_life_s: float | None
    ) -> None:
        self._graph = graph
        self._half_life_s = profile_half_life_s
        self._states: dict[int, UserState] = {}

    def register(self, user_id: int) -> UserState:
        """Create (or fetch) a state slot without a graph membership check."""
        state = self._states.get(user_id)
        if state is None:
            state = self._states[user_id] = UserState(UserProfile(self._half_life_s))
        return state

    def state(self, user_id: int) -> UserState:
        """The user's state; unknown users (absent from the graph) raise."""
        state = self._states.get(user_id)
        if state is None:
            if not self._graph.has_user(user_id):
                raise UnknownUserError(user_id)
            state = self.register(user_id)
        return state

    def items(self):
        return self._states.items()

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._states


@dataclass
class EngineServices:
    """The wired substrate every pipeline stage draws from."""

    config: EngineConfig
    corpus: "AdCorpus"
    # The engine's one index, of ``config.searcher``'s kind
    # (``index.factory.make_index``): the posting-list dict on ``ta``, the
    # compact arrays on ``vector``.
    index: object
    scoring: "ScoringModel"
    graph: "SocialGraph | None" = None
    budget: "BudgetManager | None" = None
    ctr: "CtrEstimator | None" = None
    clock: "SimClock | None" = None
    users: UserStateStore | None = None
    stats: EngineStats = field(default_factory=EngineStats)
    # The three span sinks, all disabled by default; stages reach them
    # only through ``seam``, built from them once.
    tracer: StageTracer = field(default_factory=NoopTracer)
    metrics: "MetricsRegistry | NullMetrics" = NULL_METRICS
    request_tracer: "RequestTracer | NoopRequestTracer" = NOOP_REQUEST_TRACER
    # QoS control plane. None by default: with no controller attached the
    # delivery path is byte-identical to a pre-QoS engine (one None check
    # per batch); a QosController gates admission and degradation rungs.
    qos: "QosController | None" = None
    # Online-learning rerank. None unless config.personalize == "linucb";
    # when set, the engine's wiring wraps the mode's stage with the
    # LinUCB rerank and record_click() routes rewards here.
    learner: "LinUcbLearner | None" = None
    # The instrumentation seam: one ``emit`` per span, to every sink above
    # that is enabled; with none, the hot path pays one attribute check.
    seam: Seam = field(init=False)

    def __post_init__(self) -> None:
        self.seam = Seam(self.tracer, self.metrics, self.request_tracer)

    # -- per-user helpers ---------------------------------------------------

    def context_of(self, state: UserState) -> FeedContext:
        """The user's feed context, created lazily with the config knobs."""
        if state.context is None:
            state.context = FeedContext(
                window_size=self.config.window_size,
                half_life_s=self.config.context_half_life_s,
                max_age_s=self.config.context_max_age_s,
            )
        return state.context
