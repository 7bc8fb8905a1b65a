"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base type at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied."""


class CorpusError(ReproError):
    """A corpus-level operation failed (duplicate ids, empty corpus, ...)."""


class UnknownAdError(CorpusError, KeyError):
    """An operation referenced an ad id that is not in the corpus."""

    def __init__(self, ad_id: int) -> None:
        super().__init__(f"unknown ad id: {ad_id!r}")
        self.ad_id = ad_id

    def __reduce__(self):
        # Exception pickling replays ``args`` — the formatted message —
        # into ``__init__``; errors cross the worker RPC, so ship the
        # constructor argument instead.
        return type(self), (self.ad_id,)


class UnknownUserError(ReproError, KeyError):
    """An operation referenced a user id that is not registered."""

    def __init__(self, user_id: int) -> None:
        super().__init__(f"unknown user id: {user_id!r}")
        self.user_id = user_id

    def __reduce__(self):
        return type(self), (self.user_id,)


class BudgetError(ReproError):
    """A budget operation was invalid (e.g. charging an exhausted ad)."""


class IndexError_(ReproError):
    """An index-level invariant was violated."""


class StreamError(ReproError):
    """A replayed event stream is inconsistent."""


class WorkerCrashError(StreamError):
    """A cluster worker process died mid-dispatch.

    Subclasses :class:`StreamError` so callers written against the
    router's existing failure contract (retry/failover/abort on
    ``StreamError``) handle real process crashes the same way they handle
    injected shard outages.
    """

    def __init__(self, shard: int, detail: str) -> None:
        super().__init__(f"shard {shard} worker crashed: {detail}")
        self.shard = shard
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.shard, self.detail)


class EvaluationError(ReproError):
    """The evaluation harness received inconsistent inputs."""


class TraceError(ReproError):
    """A scenario record/replay trace was malformed or incompatible."""
