"""Per-message shared candidate generation.

A post that fans out to F followers needs F slates, but the content
affinity between the message and any ad is identical across all of them.
The generator therefore runs **one** content-only probe per message (a
gather over the compact arrays, kept for the kernel), over-fetching
``overfetch >= k`` candidates, and every delivery reuses the result. The
probe's cut-off score (the weakest fetched candidate) is what lets the
reference *certify* a personalised top-k (:mod:`repro.reference.rerank`,
whose TA twin of this generator builds the same :class:`CandidateSet`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError
from repro.index.compact import CompactIndex
from repro.index.vector import topk_order
from repro.util.sparse import SparseVector


class CandidateBlock(NamedTuple):
    """The vector probe kept as arrays for the kernel: the message's
    :meth:`CompactIndex.gather`, in the row space of the index at ``key``
    = ``(generation, num_rows)``. While the index still reads that key no
    row was renumbered or added, so the block minus the rows retired since
    equals a fresh gather; else stale. A tuple, like every record a
    fan-out makes: no Python ``__init__`` on the delivery path.
    """

    key: tuple[int, int]
    rows: np.ndarray
    dots: np.ndarray


class CandidateSet:
    """Result of one shared probe.

    ``entries`` are (ad_id, content score) pairs, best first. ``cutoff`` is
    an upper bound on the content score of every ad *not* in the set: the
    score of the weakest fetched candidate when the probe filled up, and
    0.0 when it did not (then every content-matching ad is present and
    outsiders have zero content affinity by the relevance floor).
    ``block`` is the vector probe again, as arrays for the kernel (``None``
    from the TA probe and on hand-built sets: only :meth:`of_block` sets
    one).

    A vector probe (:meth:`of_block`) keeps only the block: the kernel
    reads nothing else, so the K′ cut waits for its first reader: as rows
    (:meth:`top_rows`, admission's value bound) or boxed, as ``entries`` /
    ``cutoff`` / ``complete`` (the candidates-only rung, ``len()``,
    INCREMENTAL), which are then kept.
    Equality compares those three (the block restates them), so ``==``
    forces the cut on both sides.
    """

    __slots__ = ("block", "_cut", "_uncut")

    def __init__(
        self,
        entries: tuple[tuple[int, float], ...],
        cutoff: float,
        complete: bool,
    ) -> None:
        self.block = None
        self._cut = (entries, cutoff, complete)
        self._uncut = None

    @classmethod
    def of_block(
        cls, block: CandidateBlock, ad_ids: np.ndarray, depth: int
    ) -> "CandidateSet":
        """The top-``depth`` of a vector probe, cut when first read.
        ``ad_ids`` is the index's row → ad id view as of the probe: rows
        the index renumbers or appends later never write into it."""
        candidates = cls.__new__(cls)
        candidates.block = block
        candidates._cut = None
        candidates._uncut = (ad_ids, depth)
        return candidates

    def _order(self) -> np.ndarray:
        """A vector probe's K′ cut as positions in its block."""
        ad_ids, depth = self._uncut
        return topk_order(self.block.dots, ad_ids[self.block.rows], depth)

    def top_rows(self) -> np.ndarray:
        """A vector probe's K′ cut as index rows, best first: the rows
        ``entries`` names, in its order, with nothing boxed."""
        return self.block.rows[self._order()]

    def _read(self) -> tuple[tuple[tuple[int, float], ...], float, bool]:
        cut = self._cut
        if cut is None:
            ad_ids, depth = self._uncut
            chosen = self._order()
            dots = self.block.dots
            matched = ad_ids[self.block.rows]
            entries = tuple(zip(matched[chosen].tolist(), dots[chosen].tolist()))
            complete = len(entries) < depth
            cut = self._cut = (
                entries, 0.0 if complete else entries[-1][1], complete
            )
        return cut

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        return self._read()[0]

    @property
    def cutoff(self) -> float:
        return self._read()[1]

    @property
    def complete(self) -> bool:
        return self._read()[2]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidateSet):
            return NotImplemented
        return self._read() == other._read()

    def __repr__(self) -> str:
        entries, cutoff, complete = self._read()
        return (
            f"CandidateSet(entries={entries!r}, cutoff={cutoff!r}, "
            f"complete={complete!r})"
        )

    def __len__(self) -> int:
        return len(self.entries)

    def ad_ids(self) -> list[int]:
        return [ad_id for ad_id, _ in self.entries]


class SharedCandidateGenerator:
    """Runs the shared content probe for each posted message. It reads
    the arrays itself: it keeps the gather and cuts K′ on arrays, where a
    searcher would box every entry."""

    kind = "vector"

    def __init__(self, index: CompactIndex, overfetch: int) -> None:
        if overfetch < 1:
            raise ConfigError(f"overfetch must be >= 1, got {overfetch}")
        self._compact = index
        self.overfetch = overfetch

    def generate(self, message_vec: SparseVector) -> CandidateSet:
        """Content top-``overfetch`` for one message vector."""
        compact = self._compact
        compact.maybe_compact()
        rows, dots = compact.gather(message_vec)
        key = (compact.generation, compact.num_rows)
        return CandidateSet.of_block(
            CandidateBlock(key, rows, dots), compact.ad_ids, self.overfetch
        )
