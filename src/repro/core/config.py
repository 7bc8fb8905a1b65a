"""Engine configuration: scoring weights and pipeline knobs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.index.factory import SEARCHER_KINDS


@dataclass(frozen=True, slots=True)
class ScoringWeights:
    """Weights of the four ranking components.

    ``score(a | u, m, t) = alpha·content + beta·profile + gamma·geo + delta·bid``

    where content is the cosine between the ad and the message (shared mode)
    or the raw dot with the decayed feed context (incremental mode), profile
    is the cosine with the user's interest vector, geo is targeting
    proximity in [0, 1], and bid is the pacing-adjusted normalised bid.
    """

    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 0.25
    delta: float = 0.25

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            value = getattr(self, name)
            if value < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.alpha <= 0.0:
            raise ConfigError(
                "alpha must be positive: a context-aware engine with no "
                "content term is one of the baselines, not the system"
            )

    @property
    def max_static(self) -> float:
        """Upper bound on the per-user static part (each component <= 1)."""
        return self.beta + self.gamma + self.delta

    @property
    def max_probe_static(self) -> float:
        """Upper bound on the static part inside an exact index probe, where
        the profile term is folded into the query vector instead."""
        return self.gamma + self.delta


class EngineMode(enum.Enum):
    """How the engine turns a post into per-user slates."""

    SHARED = "shared"  # per-message shared candidates + cheap personalisation
    INCREMENTAL = "incremental"  # standing per-user top-k over the feed window
    EXACT = "exact"  # one exact index probe per delivery (baseline)


@dataclass(frozen=True)
class EngineConfig:
    """All pipeline knobs with validated defaults (Table T2)."""

    k: int = 10
    weights: ScoringWeights = field(default_factory=ScoringWeights)
    mode: EngineMode = EngineMode.SHARED
    # Index strategy for every probe (one of SEARCHER_KINDS: "vector" |
    # "ta"). Both are exact. "vector", the default, serves every fan-out
    # through the compact numpy kernel, which cuts the exact top-k
    # directly (no union, certificate or fallback). "ta" is the
    # pure-Python reference oracle the kernel is tested against.
    searcher: str = "vector"
    # Shared mode: how many candidates the per-message probe over-fetches.
    # Depths are tuned by experiment F6: shallow lists certify almost
    # nothing (constant fallbacks), ~80 drives the fallback rate near zero.
    # On the vector SHARED kernel it shapes only the candidates-only slate.
    overfetch: int = 80
    # Depth of the cached per-user profile candidate probe (second source).
    # Read by the pure-Python reference and INCREMENTAL, not by the kernel.
    profile_candidates: int = 50
    # Depth of the global bid/geo candidate prefix (third source). Read by
    # the pure-Python reference and INCREMENTAL, not by the kernel.
    static_candidates: int = 50
    # Incremental mode: depth of the per-user content shadow set.
    shadow_size: int = 50
    # Feed-context window (incremental mode).
    window_size: int = 20
    context_half_life_s: float | None = 1800.0
    context_max_age_s: float | None = None
    # Interest profiles.
    profile_half_life_s: float | None = 6 * 3600.0
    # Exactness: fall back to an exact probe when certification fails.
    # Read by the pure-Python reference and INCREMENTAL; the vector SHARED
    # kernel serves the exact top-k either way.
    exact_fallback: bool = True
    # Monetisation.
    reserve_price: float = 0.01
    pacing_enabled: bool = True
    charge_impressions: bool = True
    campaign_duration_s: float = 86_400.0
    # Click feedback: when on, the engine keeps a CTR estimator, records an
    # impression per served slate entry, and the bid term becomes
    # quality-adjusted (see repro.ads.ctr). Clicks arrive via
    # AdEngine.record_click().
    ctr_feedback: bool = False
    ctr_prior: float = 0.05
    ctr_prior_strength: float = 20.0
    # Online-learning rerank ("static" | "linucb"). "linucb" wraps the
    # mode's personalize stage with the hybrid LinUCB model updated from
    # record_click() and negative impressions (see repro.learn.linucb for
    # the sync-epoch consistency model).
    personalize: str = "static"
    # LinUCB exploration width (alpha = 0 disables the confidence bonus).
    alpha_ucb: float = 0.5
    # Ridge regularisation of the shared design matrix (A init = λI).
    linucb_lambda: float = 1.0
    # Stream-time epoch length between model folds (and, in clusters, the
    # merged cross-shard syncs).
    linucb_sync_interval_s: float = 300.0
    # Freeze the model: serve UCB scores but record no updates. With
    # alpha_ucb = 0 this is the differential oracle's byte-identical
    # equivalent of the static stage.
    linucb_frozen: bool = False
    # Whether post() materialises per-delivery slates in its result
    # (perf harnesses switch this off to measure engine cost alone).
    collect_deliveries: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.searcher not in SEARCHER_KINDS:
            raise ConfigError(
                f"searcher must be one of {SEARCHER_KINDS}; "
                f"got {self.searcher!r}"
            )
        if self.overfetch < self.k:
            raise ConfigError(
                f"overfetch ({self.overfetch}) must be >= k ({self.k})"
            )
        if self.profile_candidates < 1:
            raise ConfigError(
                f"profile_candidates must be >= 1, got {self.profile_candidates}"
            )
        if self.static_candidates < 1:
            raise ConfigError(
                f"static_candidates must be >= 1, got {self.static_candidates}"
            )
        if self.shadow_size < self.k:
            raise ConfigError(
                f"shadow_size ({self.shadow_size}) must be >= k ({self.k})"
            )
        if self.window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {self.window_size}")
        if self.reserve_price < 0.0:
            raise ConfigError(
                f"reserve_price must be >= 0, got {self.reserve_price}"
            )
        if self.campaign_duration_s <= 0.0:
            raise ConfigError(
                f"campaign_duration_s must be positive, got {self.campaign_duration_s}"
            )
        if not 0.0 < self.ctr_prior < 1.0:
            raise ConfigError(f"ctr_prior must be in (0, 1), got {self.ctr_prior}")
        if self.ctr_prior_strength <= 0.0:
            raise ConfigError(
                f"ctr_prior_strength must be positive, got {self.ctr_prior_strength}"
            )
        if self.personalize not in ("static", "linucb"):
            raise ConfigError(
                f"personalize must be one of 'static', 'linucb'; "
                f"got {self.personalize!r}"
            )
        if self.alpha_ucb < 0.0:
            raise ConfigError(
                f"alpha_ucb must be >= 0, got {self.alpha_ucb}"
            )
        if self.linucb_lambda <= 0.0:
            raise ConfigError(
                f"linucb_lambda must be positive, got {self.linucb_lambda}"
            )
        if self.linucb_sync_interval_s <= 0.0:
            raise ConfigError(
                f"linucb_sync_interval_s must be positive, "
                f"got {self.linucb_sync_interval_s}"
            )

    def describe(self) -> dict[str, object]:
        """Flat parameter table for reports (Table T2)."""
        return {
            "k": self.k,
            "mode": self.mode.value,
            "searcher": self.searcher,
            "alpha": self.weights.alpha,
            "beta": self.weights.beta,
            "gamma": self.weights.gamma,
            "delta": self.weights.delta,
            "overfetch": self.overfetch,
            "profile_candidates": self.profile_candidates,
            "static_candidates": self.static_candidates,
            "shadow_size": self.shadow_size,
            "window_size": self.window_size,
            "context_half_life_s": self.context_half_life_s,
            "profile_half_life_s": self.profile_half_life_s,
            "exact_fallback": self.exact_fallback,
            "reserve_price": self.reserve_price,
            "pacing_enabled": self.pacing_enabled,
            "personalize": self.personalize,
            "alpha_ucb": self.alpha_ucb,
        }
