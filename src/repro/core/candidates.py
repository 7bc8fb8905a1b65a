"""Per-message shared candidate generation.

A post that fans out to F followers needs F slates, but the content
affinity between the message and any ad is identical across all of them.
The generator therefore runs **one** content-only probe per message (the
configured searcher: TA, or a gather over the numpy mirror),
over-fetching ``overfetch >= k`` candidates, and every delivery reuses the
result. The probe's cut-off score (the weakest fetched candidate) is what
lets each delivery *certify* that its personalised top-k could not contain
any ad outside the shared set — see :mod:`repro.core.rerank`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.index.compact import CompactIndex
from repro.index.factory import make_searcher
from repro.index.inverted import AdInvertedIndex
from repro.index.vector import topk_order
from repro.util.sparse import SparseVector


@dataclass(frozen=True, slots=True)
class CandidateBlock:
    """The vector probe kept as arrays for the kernel: the message's
    :meth:`CompactIndex.gather`, in the row space of the mirror at ``key``
    = ``(generation, num_rows)``. While the mirror still reads that key no
    row was renumbered or added, so the block minus the rows retired since
    equals a fresh gather; else stale.
    """

    key: tuple[int, int]
    rows: np.ndarray
    dots: np.ndarray


@dataclass(frozen=True, slots=True)
class CandidateSet:
    """Result of one shared probe.

    ``entries`` are (ad_id, content score) pairs, best first. ``cutoff`` is
    an upper bound on the content score of every ad *not* in the set: the
    score of the weakest fetched candidate when the probe filled up, and
    0.0 when it did not (then every content-matching ad is present and
    outsiders have zero content affinity by the relevance floor).
    ``block`` is the vector probe again, as arrays for the kernel (``None``
    from other searchers and on hand-built sets); it restates ``entries``,
    so it takes no part in equality.
    """

    entries: tuple[tuple[int, float], ...]
    cutoff: float
    complete: bool
    block: CandidateBlock | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    def ad_ids(self) -> list[int]:
        return [ad_id for ad_id, _ in self.entries]


class SharedCandidateGenerator:
    """Runs the shared content probe for each posted message."""

    def __init__(
        self, index: AdInvertedIndex, overfetch: int, *, searcher: str = "ta"
    ) -> None:
        if overfetch < 1:
            raise ConfigError(f"overfetch must be >= 1, got {overfetch}")
        # The vector probe reads the mirror itself: it keeps the gather
        # and cuts K′ on arrays, where a searcher would box every entry.
        vector = searcher == "vector"
        self._compact = CompactIndex.shared(index) if vector else None
        self._searcher = None if vector else make_searcher(searcher, index)
        self.kind = searcher
        self.overfetch = overfetch
        self.probes = 0
        # Probe-depth accounting: the last effective depth and the running
        # total, so stage traces/metrics can attribute probe cost per
        # searcher kind instead of reading a bare counter.
        self.last_probe_depth = 0
        self.probe_depth_total = 0

    def generate(
        self, message_vec: SparseVector, *, depth: int | None = None
    ) -> CandidateSet:
        """Content top-``overfetch`` for one message vector. ``depth``
        overrides the configured over-fetch for this probe only (the QoS
        ladder shrinks K′ under load); the cutoff certificate stays sound
        at any depth — a shallower probe just certifies less often."""
        if depth is None:
            depth = self.overfetch
        elif depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth}")
        self.probes += 1
        self.last_probe_depth = depth
        self.probe_depth_total += depth
        compact = self._compact
        if compact is None:
            results = self._searcher.search(message_vec, depth)
            entries = tuple((entry.item, entry.score) for entry in results)
            block = None
        else:
            compact.maybe_compact()
            rows, dots = compact.gather(message_vec)
            matched = compact.ad_ids[rows]
            chosen = topk_order(dots, matched, depth)
            entries = tuple(zip(matched[chosen].tolist(), dots[chosen].tolist()))
            key = (compact.generation, compact.num_rows)
            block = CandidateBlock(key, rows, dots)
        complete = len(entries) < depth
        return CandidateSet(
            entries=entries,
            cutoff=0.0 if complete else entries[-1][1],
            complete=complete,
            block=block,
        )
