"""Online-learning rerank layer: LinUCB contextual bandits on click feedback.

The package adds a learning :class:`PersonalizeStage` variant on top of the
static CTR pipeline (`Li, Chu, Langford & Schapire, WWW 2010
<https://arxiv.org/abs/1003.0146>`_):

* :mod:`repro.learn.linucb` — the hybrid model (one shared ridge over
  context features plus a smoothed per-ad CTR, its inverse re-factorised
  once per fold), the epoch-synchronised update machinery that keeps
  sharded deployments bit-identical, and the rerank stage wrapper.
* :mod:`repro.learn.replay` — the unbiased off-policy replay estimator that
  grades that same learner against the static CTR model (benchmark T8).
"""

from repro.learn.linucb import (
    LinUcbLearner,
    LinUcbRerankStage,
    merge_learn_states,
    partition_learn_state,
    sort_records,
)
from repro.learn.replay import (
    LinUcbPolicy,
    LoggedEvent,
    ReplayResult,
    StaticCtrPolicy,
    build_logged_stream,
    replay_estimate,
)

__all__ = [
    "LinUcbLearner",
    "LinUcbRerankStage",
    "LinUcbPolicy",
    "LoggedEvent",
    "ReplayResult",
    "StaticCtrPolicy",
    "build_logged_stream",
    "merge_learn_states",
    "partition_learn_state",
    "replay_estimate",
    "sort_records",
]
