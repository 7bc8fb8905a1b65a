"""The hybrid LinUCB model and the learning rerank stage.

One ridge regression is shared by every ad (Li et al.'s hybrid form):
``A = λI + Σ x·xᵀ`` and ``b = Σ r·x`` over the feature row
``x = (1, content, static, arm CTR)`` built from the delivery's
already-computed context scores. *Arm CTR* — the only per-ad term — is the
Beta-smoothed posterior mean of a :class:`~repro.ads.ctr.CtrEstimator` the
learner owns, folded from the same epoch records as ``A`` and ``b``. (Not
``services.ctr``: that one is per-shard serving state, so a feature read
from it would differ between a single engine and a cluster.) The served
score is the LinUCB upper confidence bound ``θ·x + α·√(xᵀ A⁻¹ x)`` with
``θ = A⁻¹ b``; a slate's bounds are one ``(k × 4)`` product. ``A⁻¹`` is
re-factorised from ``A`` once per fold — never updated in place — so it
cannot drift, and a checkpoint holds ``A`` and ``b`` only.

Consistency model — sync epochs
-------------------------------

Serving **always** reads an immutable snapshot (``A⁻¹``, ``θ`` and the arm
counts as of the last fold); online updates (negative impressions from
served slates, positive rewards from ``record_click``) accumulate as
*pending records*. When the stream clock crosses an epoch boundary
(``epoch = ⌊t / sync_interval_s⌋``), the pending records are folded into
the snapshot **in canonical order** — sorted by
``(msg_id, user_id, slot, kind, ad_id)`` — so the posterior is invariant
to the order updates arrived in within the epoch.

That one rule is what makes the sharded deployments exact replicas of the
single engine: every shard serves the same snapshot, each shard only
records updates for deliveries it made (clicks are broadcast, but only the
follower's home shard holds the serving context, so exactly one shard
records the reward), and at each boundary the router concatenates all
shards' pending records and has every shard fold the identical sorted
list. The fold is a deterministic float program, so N workers end the
epoch with bit-identical models.

QoS interaction: while the degradation ladder is on any rung
(``qos.degrading``), the stage passes the static slate through untouched
and records **no** updates — the bandit neither serves nor learns from
degraded traffic.
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.ads.ctr import CtrEstimator
from repro.core.scoring import Slate
from repro.errors import ConfigError
from repro.obs.tracer import NO_SEAM

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.pipeline import PersonalizedDelivery, PersonalizedFanOut
    from repro.core.services import EngineServices

__all__ = [
    "KIND_CLICK",
    "KIND_IMPRESSION",
    "LinUcbLearner",
    "LinUcbRerankStage",
    "merge_learn_states",
    "partition_learn_state",
    "sort_records",
]

KIND_IMPRESSION = 0
KIND_CLICK = 1

#: One pending update: ``(msg_id, user_id, slot, kind, ad_id, x)`` with
#: ``x`` the feature row served, a tuple of floats. The first five fields
#: are the canonical sort key (unique per record: one delivery per
#: (msg, user), one click per served (user, ad) context).
Record = tuple


def sort_records(records: Iterable[Record]) -> list[Record]:
    """Canonical fold order: sorted by ``(msg_id, user_id, slot, kind, ad_id)``."""
    return sorted(records, key=lambda rec: rec[:5])


class LinUcbLearner:
    """The per-engine bandit: the snapshot model + pending epoch records."""

    def __init__(
        self,
        *,
        alpha: float = 0.5,
        ridge_lambda: float = 1.0,
        sync_interval_s: float = 300.0,
        frozen: bool = False,
        seam=NO_SEAM,
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
        self.seam = seam  # the engine's: each fold emits a ``linucb_sync`` span
        self.syncs = self.updates = 0  # folds, and records folded
        #: Routers flip this off: shard engines never self-fold, the
        #: router coordinates one cluster-wide fold per epoch boundary.
        self.auto_sync = True
        self._epoch = 0
        self._A = np.eye(4) * self.ridge_lambda
        self._b = np.zeros(4)
        self._ctr = CtrEstimator()
        # ad_id -> the arm CTR feature as of the last fold, for exactly
        # the ads with evidence (any other ad reads the prior mean): what
        # a slate looks up, so serving never gathers from the estimator.
        self._arm_ctr: dict[int, float] = {}
        self._unseen_ctr = self._ctr.estimate(0)
        self._refactorise()
        self._pending: list[Record] = []
        # (user_id, ad_id) -> (msg_id, slot, x): the serving context a
        # later click resolves against (latest exposure wins).
        self._contexts: dict[tuple[int, int], tuple[int, int, tuple]] = {}

    def _refactorise(self) -> None:
        self._A_inv = np.linalg.inv(self._A)
        self._theta = self._A_inv @ self._b

    # -- serving ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def num_arms(self) -> int:
        """Ads with folded evidence."""
        return len(self._arm_ctr)

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    def epoch_of(self, timestamp: float) -> int:
        return int(float(timestamp) // self.sync_interval_s)

    def features(self, slate: Slate) -> list[tuple]:
        """The slate's feature rows ``(1, content, static, arm CTR)``,
        read from its columns."""
        return list(
            zip(
                repeat(1.0),
                slate.contents.tolist(),
                slate.statics.tolist(),
                map(self._arm_ctr.get, slate.ad_ids.tolist(), repeat(self._unseen_ctr)),
            )
        )

    def bonus(self, X: np.ndarray) -> np.ndarray:
        """The UCB score adjustment per feature row (snapshot read)."""
        bonus = X @ self._theta
        if self.alpha:
            # x[0] = 1 and A ⪰ λI keep xᵀA⁻¹x well above rounding error.
            bonus += self.alpha * np.sqrt(((X @ self._A_inv) * X).sum(axis=1))
        return bonus

    def rerank(
        self, slate: Slate
    ) -> tuple[Slate, list[tuple], np.ndarray | None]:
        """Blend UCB bonuses into a served slate, in its columns.

        Returns ``(slate, rows, order)``: the re-scored slate under the
        engine's ``(-score, ad_id)`` order, its feature rows in that order
        (for :meth:`observe_slate`) and the permutation that took the
        input there, so a caller can carry its own per-entry columns
        along. When every bonus is exactly ``0.0`` (``θ = 0`` and ``alpha
        = 0``) the input object is returned untouched with ``order`` None
        — the byte-identity the differential oracle relies on.
        """
        rows = self.features(slate)
        bonus = self.bonus(np.array(rows))
        if not bonus.any():
            return slate, rows, None
        # The same IEEE add per entry as ``entry.score + extra``.
        scores = slate.scores + bonus
        order = np.lexsort((slate.ad_ids, -scores))
        return (
            Slate(
                slate.ad_ids[order],
                scores[order],
                slate.contents[order],
                slate.statics[order],
            ),
            list(map(rows.__getitem__, order.tolist())),
            order,
        )

    # -- online updates --------------------------------------------------

    def observe_slate(
        self, msg_id: int, user_id: int, slate: Slate, rows=None
    ) -> None:
        """Record negative impressions + click contexts for a served slate.

        ``rows`` are the slate's feature rows as :meth:`rerank` returned
        them; built here when the slate did not come through it.
        """
        if self.frozen:
            return
        if rows is None:
            rows = self.features(slate)
        msg = int(msg_id)
        user = int(user_id)
        for slot, (ad_id, x) in enumerate(zip(slate.ad_ids.tolist(), rows)):
            self._pending.append((msg, user, slot, KIND_IMPRESSION, ad_id, x))
            self._contexts[(user, ad_id)] = (msg, slot, x)

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
        if records:
            ctr = self._ctr
            _msg, _user, _slot, kinds, ad_ids, rows = zip(*records)
            X = np.array(rows)
            slots = np.fromiter(map(ctr.slot_of, ad_ids), np.intp, len(ad_ids))
            clicked = np.array(kinds) == KIND_CLICK
            shown = X[~clicked]
            self._A += shown.T @ shown
            self._b += X[clicked].sum(axis=0)
            ctr.record_block(slots[~clicked], slots[clicked])
            self._arm_ctr.update(zip(ad_ids, ctr.estimate_block(slots).tolist()))
            self._refactorise()
        self._epoch = int(epoch)
        self.syncs += 1
        self.updates += len(records)
        if self.seam.enabled:
            at = float(epoch) * self.sync_interval_s
            self.seam.emit("linucb_sync", perf_counter() - started, at)

    def telemetry(self) -> tuple[dict[str, float], dict[str, float]]:
        """Registry ``(counters, gauges)`` of replicated state — every
        shard folds the same records — so a cluster reads one shard's."""
        norm = float(np.linalg.norm(self._theta))
        return (
            {"linucb_updates": float(self.updates), "linucb_syncs": float(self.syncs)},
            {"linucb_model_norm": norm, "linucb_arms": float(self.num_arms)},
        )

    # -- state -----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe state; deterministic (sorted) layout.

        ``shared``/``arms``/``epoch`` are the serving snapshot — identical
        on every shard of a cluster; ``A⁻¹`` and ``θ`` are re-derived on
        load. ``pending``/``contexts`` are the per-shard residue of the
        open epoch; merged cluster payloads concatenate them, and restores
        re-partition them by the follower's home shard.
        """
        ctr = self._ctr
        arms = {
            str(ad_id): [ctr.impressions_of(ad_id), ctr.clicks_of(ad_id)]
            for ad_id in ctr.observed_ads()
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
            "shared": {"A": self._A.tolist(), "b": self._b.tolist()},
            "arms": arms,
            "pending": pending,
            "contexts": contexts,
        }

    def load_state(self, payload: dict) -> None:
        if "models" in payload:
            raise ConfigError(
                "learner state is in the per-ad 'models' layout of an older "
                "build; this one reads {'shared': {A, b}, 'arms': "
                "{ad_id: [impressions, clicks]}}"
            )
        self._epoch = int(payload["epoch"])
        self._A = np.asarray(payload["shared"]["A"], dtype=np.float64)
        self._b = np.asarray(payload["shared"]["b"], dtype=np.float64)
        self._refactorise()
        self._ctr = ctr = CtrEstimator()
        self._arm_ctr = {}
        for ad_id, (impressions, clicks) in payload["arms"].items():
            ctr.restore(int(ad_id), float(impressions), float(clicks))
            self._arm_ctr[int(ad_id)] = ctr.estimate(int(ad_id))
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

    The snapshot (``shared``/``arms``/``epoch``) replicates everywhere; the open
    epoch's ``pending`` records and click ``contexts`` go to the follower's
    home shard — exactly where an uninterrupted run would have produced
    them, for any worker count.
    """
    return {
        "epoch": payload["epoch"],
        "shared": payload["shared"],
        "arms": payload["arms"],
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
    ``shared``/``arms``/``epoch`` stand for all; pending records concatenate into
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
        "shared": present[0]["shared"],
        "arms": present[0]["arms"],
        "pending": [list(rec[:5]) + [list(rec[5])] for rec in sort_records(pending)],
        "contexts": {
            user: dict(sorted(contexts[user].items(), key=lambda kv: int(kv[0])))
            for user in sorted(contexts, key=int)
        },
    }


class LinUcbRerankStage:
    """Wraps a mode's personalize stage with the LinUCB rerank + updates.

    Composition keeps the base stage's candidate/certificate machinery
    untouched: the wrapper re-scores the *served slate* with the shared model's
    UCB bonus, re-sorts by the engine-wide ``(-score, ad_id)`` tie rule
    (the kernel's slate rows with it), then
    records the exposure as pending updates — per follower, between the
    base stage cutting the slate and the pipeline charging it, on the
    scalar and the fan-out entry point alike. Recording an exposure is a
    write, so the base stage's fan-out always gets the wrapper's own
    ``write``, which passes each re-scored slate on to the pipeline's
    (if any); the returned fan-out carries the re-scored slates.
    """

    span_name = "personalize[linucb]"

    def __init__(self, services: "EngineServices", base) -> None:
        self._services = services
        self._base = base
        self._learner = services.learner

    def personalize(
        self, event, candidates, user_id, state
    ) -> "PersonalizedDelivery":
        delivery = self._base.personalize(event, candidates, user_id, state)
        slate, _ = self._reranked(event, user_id, delivery.slate, None)
        return delivery._replace(slate=slate)

    def personalize_batch(
        self, event, candidates, resolved, write=None, *, cut=None
    ) -> "PersonalizedFanOut":
        slates = []

        def reranked(position: int, slate: Slate, rows) -> None:
            slate, rows = self._reranked(event, resolved[position][0], slate, rows)
            slates.append(slate)
            if write is not None:
                write(position, slate, rows)

        fan_out = self._base.personalize_batch(
            event, candidates, resolved, reranked, cut=cut
        )
        return fan_out._replace(slates=slates)

    def _reranked(
        self, event, user_id: int, slate: Slate, rows: np.ndarray | None
    ) -> tuple[Slate, np.ndarray | None]:
        """``slate`` re-scored and its exposure recorded, with its index
        rows (None without the kernel) following its entries."""
        qos = self._services.qos
        if qos is not None and qos.degrading:
            # Ladder rung active: serve the static CTR slate untouched and
            # learn nothing from degraded traffic.
            return slate, rows
        if not slate:
            return slate, rows
        learner = self._learner
        reranked, features, order = learner.rerank(slate)
        if order is not None and rows is not None:
            # The kernel's rows follow their entries through the re-sort.
            rows = rows[order]
        learner.observe_slate(event.msg_id, user_id, reranked, features)
        return reranked, rows
