"""Per-ad LinUCB models and the learning rerank stage.

Each ad (arm) keeps a ridge-regression design matrix ``A = λI + Σ x·xᵀ``
and reward vector ``b = Σ r·x`` over a small dense feature vector built
from the delivery's already-computed context scores. The served score is
the classic LinUCB upper confidence bound ``θ·x + α·√(xᵀ A⁻¹ x)`` with
``θ = A⁻¹ b``; ``A⁻¹`` is maintained incrementally by Sherman–Morrison
rank-1 updates (verified against ``np.linalg.inv`` by the property suite).

Consistency model — sync epochs
-------------------------------

Serving **always** reads an immutable model snapshot; online updates
(negative impressions from served slates, positive rewards from
``record_click``) accumulate as *pending records*. When the stream clock
crosses an epoch boundary (``epoch = ⌊t / sync_interval_s⌋``), the pending
records are folded into the snapshot **in canonical order** — sorted by
``(msg_id, user_id, slot, kind, ad_id)`` — so the posterior is invariant
to the order updates arrived in within the epoch.

That one rule is what makes the sharded deployments exact replicas of the
single engine: every shard serves the same snapshot, each shard only
records updates for deliveries it made (clicks are broadcast, but only the
follower's home shard holds the serving context, so exactly one shard
records the reward), and at each boundary the router concatenates all
shards' pending records and has every shard fold the identical sorted
list. The fold is a deterministic float program, so N workers end the
epoch with bit-identical models — "sum of A/b deltas" with a fixed
summation order.

QoS interaction: while the degradation ladder is on any rung
(``qos.degrading``), the stage passes the static slate through untouched
and records **no** updates — the bandit neither serves nor learns from
degraded traffic.
"""

from __future__ import annotations

import math
from dataclasses import replace
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.obs.registry import NULL_METRICS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.pipeline import PersonalizedDelivery
    from repro.core.services import EngineServices

__all__ = [
    "FEATURE_DIM",
    "KIND_CLICK",
    "KIND_IMPRESSION",
    "POSITION_DECAY",
    "ArmModel",
    "LinUcbLearner",
    "LinUcbRerankStage",
    "features_for",
    "merge_learn_states",
    "partition_learn_state",
    "sort_records",
]

#: Dense feature layout: (bias, content score, static score, position).
#: ``content`` carries the topic/context match, ``static`` blends the
#: profile-affinity, geo and bid components the scoring model already
#: computed — so the bandit conditions on the same context signals
#: (topic mixture, geo, recency, profile affinity) as the static stage.
FEATURE_DIM = 4

KIND_IMPRESSION = 0
KIND_CLICK = 1

#: Position feature at update time: ``POSITION_DECAY ** slot``. Matches the
#: ClickSimulator's examination decay so the discount tracks the synthetic
#: examination model; serving scores use slot 0 ("if placed on top").
POSITION_DECAY = 0.7

#: One pending update: ``(msg_id, user_id, slot, kind, ad_id, x)`` with
#: ``x`` a tuple of floats. The first five fields are the canonical sort
#: key (unique per record: one delivery per (msg, user), one click per
#: served (user, ad) context).
Record = tuple


def sort_records(records: Iterable[Record]) -> list[Record]:
    """Canonical fold order: sorted by ``(msg_id, user_id, slot, kind, ad_id)``."""
    return sorted(records, key=lambda rec: rec[:5])


def features_for(content: float, static: float, slot: int = 0) -> tuple:
    """The dense feature vector for one (delivery, ad, position) triple."""
    return (1.0, float(content), float(static), POSITION_DECAY**slot)


class ArmModel:
    """One ad's ridge model: ``A = λI + Σ x xᵀ``, ``b = Σ r x``.

    ``A_inv`` is maintained by Sherman–Morrison rank-1 updates — never
    recomputed from ``A`` — so serialised state must round-trip all three
    matrices to keep restored runs bit-identical to uninterrupted ones.
    """

    __slots__ = ("A", "b", "A_inv")

    def __init__(self, dim: int = FEATURE_DIM, ridge_lambda: float = 1.0) -> None:
        self.A = np.eye(dim) * ridge_lambda
        self.A_inv = np.eye(dim) / ridge_lambda
        self.b = np.zeros(dim)

    def add_impression(self, x: np.ndarray) -> None:
        """Rank-1 design update for one (served, not clicked-yet) exposure."""
        self.A += np.outer(x, x)
        # Sherman–Morrison: (A + x xᵀ)⁻¹ = A⁻¹ - (A⁻¹x)(A⁻¹x)ᵀ / (1 + xᵀA⁻¹x)
        ax = self.A_inv @ x
        self.A_inv -= np.outer(ax, ax) / (1.0 + float(x @ ax))

    def add_click(self, x: np.ndarray) -> None:
        """Reward update (r = 1) for a previously recorded exposure."""
        self.b += x

    def theta(self) -> np.ndarray:
        return self.A_inv @ self.b

    def ucb(self, x: np.ndarray, alpha: float) -> float:
        """``θ·x + α·√(xᵀ A⁻¹ x)`` (variance clamped at 0 against drift)."""
        ax = self.A_inv @ x
        exploit = float((self.A_inv @ self.b) @ x)
        if alpha == 0.0:
            return exploit
        return exploit + alpha * math.sqrt(max(float(x @ ax), 0.0))

    def to_state(self) -> dict:
        return {
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "A_inv": self.A_inv.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ArmModel":
        arm = cls.__new__(cls)
        arm.A = np.asarray(state["A"], dtype=np.float64)
        arm.b = np.asarray(state["b"], dtype=np.float64)
        arm.A_inv = np.asarray(state["A_inv"], dtype=np.float64)
        return arm


class LinUcbLearner:
    """The per-engine bandit: snapshot models + pending epoch records."""

    def __init__(
        self,
        *,
        alpha: float = 0.5,
        ridge_lambda: float = 1.0,
        sync_interval_s: float = 300.0,
        frozen: bool = False,
        dim: int = FEATURE_DIM,
        metrics=NULL_METRICS,
    ) -> None:
        if alpha < 0.0:
            raise ConfigError(f"alpha_ucb must be non-negative, got {alpha}")
        if ridge_lambda <= 0.0:
            raise ConfigError(
                f"linucb_lambda must be positive, got {ridge_lambda}"
            )
        if sync_interval_s <= 0.0:
            raise ConfigError(
                f"linucb_sync_interval_s must be positive, got {sync_interval_s}"
            )
        self.alpha = float(alpha)
        self.ridge_lambda = float(ridge_lambda)
        self.sync_interval_s = float(sync_interval_s)
        self.frozen = bool(frozen)
        self.dim = int(dim)
        self.metrics = metrics
        #: Routers flip this off: shard engines never self-fold, the
        #: router coordinates one cluster-wide fold per epoch boundary.
        self.auto_sync = True
        self._epoch = 0
        self._arms: dict[int, ArmModel] = {}
        self._pending: list[Record] = []
        # (user_id, ad_id) -> (msg_id, slot, x): the serving context a
        # later click resolves against (latest exposure wins).
        self._contexts: dict[tuple[int, int], tuple[int, int, tuple]] = {}

    # -- serving ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def num_arms(self) -> int:
        return len(self._arms)

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    def epoch_of(self, timestamp: float) -> int:
        return int(float(timestamp) // self.sync_interval_s)

    def bonus(self, ad_id: int, x: Sequence[float]) -> float:
        """The UCB score adjustment for one slate entry (snapshot read)."""
        arm = self._arms.get(ad_id)
        xv = np.asarray(x, dtype=np.float64)
        if arm is None:
            # Unexplored arm: θ = 0, A⁻¹ = I/λ — pure exploration bonus.
            if self.alpha == 0.0:
                return 0.0
            return self.alpha * math.sqrt(float(xv @ xv) / self.ridge_lambda)
        return arm.ucb(xv, self.alpha)

    def rerank(self, slate):
        """Blend UCB bonuses into a served slate.

        Returns ``(slate, changed)``. When every bonus is exactly ``0.0``
        (zero models and ``alpha = 0``) the input is returned untouched —
        the byte-identity the differential oracle relies on.
        """
        bonuses = [
            self.bonus(entry.ad_id, features_for(entry.content, entry.static))
            for entry in slate
        ]
        if not any(bonus != 0.0 for bonus in bonuses):
            return slate, False
        rescored = sorted(
            (
                replace(entry, score=entry.score + bonus)
                for entry, bonus in zip(slate, bonuses)
            ),
            key=lambda entry: (-entry.score, entry.ad_id),
        )
        return type(slate)(rescored), True

    # -- online updates --------------------------------------------------

    def observe_slate(self, msg_id: int, user_id: int, slate) -> None:
        """Record negative impressions + click contexts for a served slate."""
        if self.frozen:
            return
        msg = int(msg_id)
        user = int(user_id)
        for slot, entry in enumerate(slate):
            x = features_for(entry.content, entry.static, slot)
            self._pending.append(
                (msg, user, slot, KIND_IMPRESSION, int(entry.ad_id), x)
            )
            self._contexts[(user, int(entry.ad_id))] = (msg, slot, x)

    def record_click(
        self,
        ad_id: int,
        *,
        user_id: int | None = None,
        slot_index: int | None = None,
    ) -> bool:
        """Attribute a click to its serving context (reward r = 1).

        The stored context (from the slate actually served) is
        authoritative for position and features; ``slot_index`` is the
        caller-observed slate position and is accepted for API symmetry.
        Legacy calls without ``user_id`` update nothing here (the CTR
        estimator still sees them) — there is no context to resolve.
        """
        if self.frozen or user_id is None:
            return False
        ctx = self._contexts.pop((int(user_id), int(ad_id)), None)
        if ctx is None:
            return False
        msg_id, slot, x = ctx
        self._pending.append(
            (msg_id, int(user_id), slot, KIND_CLICK, int(ad_id), x)
        )
        return True

    # -- epoch sync ------------------------------------------------------

    def maybe_sync(self, now: float) -> bool:
        """Fold pending records when ``now`` crossed an epoch boundary.

        Only the single (un-sharded) engine calls this; routers set
        ``auto_sync = False`` and drive :meth:`drain_pending` /
        :meth:`apply_sync` so every shard folds the same record list.
        """
        epoch = self.epoch_of(now)
        if epoch <= self._epoch:
            return False
        self.apply_sync(epoch, sort_records(self.drain_pending()))
        return True

    def drain_pending(self) -> list[Record]:
        pending, self._pending = self._pending, []
        return pending

    def apply_sync(self, epoch: int, records: Sequence[Record]) -> None:
        """Fold canonically-sorted ``records`` and advance to ``epoch``."""
        started = perf_counter()
        arms = self._arms
        for _msg_id, _user_id, _slot, kind, ad_id, x in records:
            arm = arms.get(ad_id)
            if arm is None:
                arm = arms[ad_id] = ArmModel(self.dim, self.ridge_lambda)
            xv = np.asarray(x, dtype=np.float64)
            if kind == KIND_CLICK:
                arm.add_click(xv)
            else:
                arm.add_impression(xv)
        self._epoch = int(epoch)
        metrics = self.metrics
        if metrics.enabled:
            at = float(epoch) * self.sync_interval_s
            metrics.inc("linucb_updates", float(len(records)))
            metrics.inc("linucb_syncs")
            metrics.set_gauge("linucb_model_norm", self.model_norm())
            metrics.set_gauge("linucb_arms", float(len(arms)))
            metrics.observe_stage("linucb_sync", perf_counter() - started, at)

    def model_norm(self) -> float:
        """Σ‖θ_a‖₂ over all arms — the drift gauge exported per sync."""
        return float(
            sum(np.linalg.norm(arm.theta()) for arm in self._arms.values())
        )

    # -- state -----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe state; deterministic (sorted) layout.

        ``models``/``epoch`` are the serving snapshot — identical on every
        shard of a cluster. ``pending``/``contexts`` are the per-shard
        residue of the open epoch; merged cluster payloads concatenate
        them, and restores re-partition them by the follower's home shard.
        """
        models = {
            str(ad_id): self._arms[ad_id].to_state()
            for ad_id in sorted(self._arms)
        }
        pending = [
            [msg, user, slot, kind, ad_id, list(x)]
            for msg, user, slot, kind, ad_id, x in sort_records(self._pending)
        ]
        contexts: dict[str, dict[str, list]] = {}
        for (user, ad_id), (msg, slot, x) in sorted(self._contexts.items()):
            contexts.setdefault(str(user), {})[str(ad_id)] = [
                msg,
                slot,
                list(x),
            ]
        return {
            "epoch": self._epoch,
            "models": models,
            "pending": pending,
            "contexts": contexts,
        }

    def load_state(self, payload: dict) -> None:
        self._epoch = int(payload["epoch"])
        self._arms = {
            int(ad_id): ArmModel.from_state(state)
            for ad_id, state in payload["models"].items()
        }
        self._pending = [
            (
                int(msg),
                int(user),
                int(slot),
                int(kind),
                int(ad_id),
                tuple(float(value) for value in x),
            )
            for msg, user, slot, kind, ad_id, x in payload["pending"]
        ]
        self._contexts = {
            (int(user), int(ad_id)): (
                int(msg),
                int(slot),
                tuple(float(value) for value in x),
            )
            for user, per_user in payload["contexts"].items()
            for ad_id, (msg, slot, x) in per_user.items()
        }


def partition_learn_state(payload: dict, shard: int, shard_of) -> dict:
    """The slice of a merged learner payload owned by one shard.

    The snapshot (``models``/``epoch``) replicates everywhere; the open
    epoch's ``pending`` records and click ``contexts`` go to the follower's
    home shard — exactly where an uninterrupted run would have produced
    them, for any worker count.
    """
    return {
        "epoch": payload["epoch"],
        "models": payload["models"],
        "pending": [
            record
            for record in payload["pending"]
            if shard_of(int(record[1])) == shard
        ],
        "contexts": {
            user: per_user
            for user, per_user in payload["contexts"].items()
            if shard_of(int(user)) == shard
        },
    }


def merge_learn_states(states: Sequence[dict | None]) -> dict | None:
    """Merge per-shard learner payloads into the logical single-engine one.

    Snapshots are bit-identical across shards by construction (every shard
    folds the same sorted record list each epoch), so the first shard's
    ``models``/``epoch`` stand for all; pending records concatenate into
    canonical order and contexts union (home shards are disjoint).
    """
    present = [state for state in states if state is not None]
    if not present:
        return None
    pending = [
        tuple(record[:5]) + (tuple(record[5]),)
        for state in present
        for record in state["pending"]
    ]
    contexts: dict[str, dict[str, list]] = {}
    for state in present:
        for user, per_user in state["contexts"].items():
            contexts.setdefault(user, {}).update(per_user)
    return {
        "epoch": present[0]["epoch"],
        "models": present[0]["models"],
        "pending": [list(rec[:5]) + [list(rec[5])] for rec in sort_records(pending)],
        "contexts": {
            user: dict(sorted(contexts[user].items(), key=lambda kv: int(kv[0])))
            for user in sorted(contexts, key=int)
        },
    }


class LinUcbRerankStage:
    """Wraps a mode's personalize stage with the LinUCB rerank + updates.

    Composition keeps the base stage's candidate/certificate machinery
    untouched: the wrapper re-scores the *served slate* with each ad's UCB
    bonus, re-sorts by the engine-wide ``(-score, ad_id)`` tie rule, then
    records the exposure as pending updates — per follower, between the
    base stage cutting the slate and the pipeline charging it, on the
    scalar and the fan-out entry point alike.
    """

    span_name = "personalize[linucb]"

    def __init__(self, services: "EngineServices", base) -> None:
        self._services = services
        self._base = base
        self._learner = services.learner

    @property
    def base(self):
        return self._base

    def personalize(
        self, event, candidates, user_id, state, profile, profile_vec
    ) -> "PersonalizedDelivery":
        return self._reranked(
            event,
            user_id,
            self._base.personalize(
                event, candidates, user_id, state, profile, profile_vec
            ),
        )

    def personalize_batch(
        self, event, candidates, resolved, served, *, cut=None
    ) -> None:
        self._base.personalize_batch(
            event,
            candidates,
            resolved,
            lambda position, delivered: served(
                position,
                self._reranked(event, resolved[position][0], delivered),
            ),
            cut=cut,
        )

    def _reranked(
        self, event, user_id: int, delivered: "PersonalizedDelivery"
    ) -> "PersonalizedDelivery":
        qos = self._services.qos
        if qos is not None and qos.degrading:
            # Ladder rung active: serve the static CTR slate untouched and
            # learn nothing from degraded traffic.
            return delivered
        slate = delivered.slate
        if not slate:
            return delivered
        learner = self._learner
        reranked, changed = learner.rerank(slate)
        if changed:
            delivered = delivered._replace(slate=reranked)
        learner.observe_slate(event.msg_id, user_id, reranked)
        return delivered
