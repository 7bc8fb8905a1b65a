"""Per-delivery personalisation: the serving kernel's one exact cut.

The message gather and each follower's cached profile gather cover every
row a slate can contain, so :meth:`Personalizer.slate_batch` cuts the
exact top-k of those rows directly: no union, certificate or fallback
(DESIGN.md "Personalize kernel"). :meth:`Personalizer.exact_slate` is
that cut with no shared probe and one anonymous follower. The paper's
CAR-share over TA probes (:mod:`repro.reference.rerank`) is its oracle.

It serves a fan-out in *runs*. While deliveries write (spend, CTR
evidence) a run is one follower, scored over the full row space. While
they do not — no callback, which is how the pipeline calls it when no
stage writes on delivery, or the last delivery left
:meth:`ScoringModel.bid_writes` where it was — every follower left is
cut ahead in blocks (:meth:`Personalizer._cut_block`), each slate a span
of the block's columns: the message is
scored once as every follower without a profile match or a circle there
sees it, each follower only at its own few corrections to that base,
and the profile rows outside the message only where a bound says they
can reach the follower's k-th score. The same arithmetic elementwise,
so the same slates bit for bit, at some hundred and fifty numpy calls
a block (none of them follower × message sized) instead of some
thirty-five per follower.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.scoring import EMPTY_SLATE, Slate, StaticRowCache
from repro.core.services import EngineServices
from repro.errors import IndexError_
from repro.geo.point import GeoPoint
from repro.index.vector import topk_order
from repro.util.sparse import SparseVector

#: Cells one block cut ahead may stack: per follower, ``k`` rows of the
#: shared base plus its profile rows and geo hits (what the block's
#: arrays grow with; nothing in it is followers × message rows). A
#: block's fixed cost is shared by its followers and its working arrays
#: are transient (only its four slate columns outlive it), so this
#: trades speed for peak memory: on ``fanout_batch`` at seed 7, with
#: each slate a span of its block's columns (EXPERIMENTS.md "E2E-44",
#: two runs each), 2¹⁵ reads 93.1 MB peak RSS, 2¹⁶ +1.3 MB, 2¹⁷
#: +4.7 MB and no cap +10.6 MB, for throughput the run-to-run spread
#: does not tell apart.
_BLOCK_CELLS = 1 << 15
_NO_ROWS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))


def _first_k(
    owner: np.ndarray, score: np.ndarray, ad_ids: np.ndarray, count: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``count`` followers' first ``k`` entries under the shared
    tie rule (-score, ad id): their indices, grouped by follower in
    order, and how many each follower has."""
    order = np.lexsort((ad_ids, -score, owner))
    kept = np.bincount(owner, minlength=count)
    rank = np.arange(order.shape[0]) - np.repeat(np.cumsum(kept) - kept, kept)
    return order[rank < k], np.minimum(kept, k)


class Personalizer:
    """Turns a shared probe into every follower's exact slate, on the
    compact index."""

    def __init__(self, services: EngineServices) -> None:
        scoring = services.scoring
        self._scoring = scoring
        self._compact = services.index
        # The row-indexed columns the kernel scores from and a served
        # slate's rows index.
        self.row_cache = StaticRowCache(scoring.corpus, self._compact)
        # Per-user raw profile gathers, keyed by (profile epoch,
        # corpus adds, generation).
        self._profile_gather_cache: dict[int, tuple] = {}
        # Row -> column of the block being built; -1 everywhere
        # outside ``_cut_block``.
        self._column = np.full(0, -1, dtype=np.int64)
        # The δ·bid vector kept between events (``_event_bid``):
        # (key, read at, bid_writes, vector, rows to re-read), checked
        # out while a ``slate_batch`` call runs.
        self._resident: tuple | None = None
        # ``slate_batch`` calls so far: one that sees the count move
        # across its run had another inside it.
        self._calls = 0

    def _profile_gather(
        self,
        user_id: int | None,
        profile_vec: SparseVector,
        profile_epoch: int,
        generation: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw profile gather ``(rows, dots)`` over the full index.

        Cached until the user posts again, ads are added, or the index
        compacts; dead rows are re-masked by the caller at use time, so
        retirements do not invalidate (affinities never change). The
        anonymous follower (``user_id`` None) has no epoch to key on and
        is gathered afresh.
        """
        if user_id is None:
            return self._compact.gather(profile_vec)
        add_epoch = self._scoring.corpus.add_epoch
        cached = self._profile_gather_cache.get(user_id)
        if (
            cached is not None
            and cached[0] == profile_epoch
            and cached[1] == add_epoch
            and cached[2] == generation
        ):
            return cached[3], cached[4]
        rows, dots = self._compact.gather(profile_vec)
        self._profile_gather_cache[user_id] = (
            profile_epoch, add_epoch, generation, rows, dots,
        )
        return rows, dots

    def _alive_only(
        self, rows: np.ndarray, dots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """A cached gather minus the rows retired since it was taken.

        Charging can retire an ad between two followers of one event;
        retirement clears the row's alive bit without recycling the row,
        so one mask keeps a cached gather honest (the oracle path's
        ``corpus.is_active`` check).
        """
        live = self._compact.alive[rows]
        if live.all():
            return rows, dots
        return rows[live], dots[live]

    def _event_bid(
        self, cache: StaticRowCache, timestamp: float, key: tuple
    ) -> tuple[np.ndarray, list[int]]:
        """δ·bid over the row space at ``timestamp``, and the list of the
        rows to re-read at the next event, to extend with the rows this
        one's deliveries write.

        The vector stays resident between events. It is re-read at just
        the listed rows when nothing has moved but them: the same row
        space and ``max_bid`` (``key``), no write since that the list does
        not name (:meth:`ScoringModel.bid_writes`; a click names its row,
        :meth:`clicked`), and no step back in time. The list starts with
        the rows whose pacing can still move with the time alone
        (:meth:`ScoringModel.paced_rows`): on every other unwritten row
        the value stands at any later time. Anything else — a restore, a
        launch, a compaction, an earlier timestamp — rebuilds it. A
        re-read is the full build's arithmetic elementwise, so either way
        the vector equals a rebuild bit for bit.
        """
        scoring = self._scoring
        resident, self._resident = self._resident, None
        if (
            resident is not None
            and resident[0] == key
            and resident[1] <= timestamp
            and resident[2] == scoring.bid_writes()
        ):
            bid, stale = resident[3], resident[4]
            if not stale:
                return bid, stale
            # Distinct and ascending: the list carries what is still paced
            # forward, so a repeat would be carried forever.
            rows = np.array(sorted(set(stale)), dtype=np.int64)
            bid[rows] = scoring.fanout_bid_block(cache, timestamp, rows)
            return bid, scoring.paced_rows(cache, timestamp, rows)
        bid = scoring.fanout_bid_block(cache, timestamp)
        return bid, scoring.paced_rows(cache, timestamp)

    def clicked(self, ad_id: int, writes_before: int, writes_after: int) -> None:
        """A click moved :meth:`ScoringModel.bid_writes` from
        ``writes_before`` to ``writes_after`` by writing ``ad_id``'s CTR
        evidence, outside any fan-out. If the resident δ·bid was current
        before it, name the ad's row for the next event's re-read and
        take the click's count along, so that event re-reads one row
        instead of rebuilding the vector. Otherwise — or when the index
        has no live row for the ad (a retired ad's row is dead and
        unnamed) — nothing changes, and the next event rebuilds."""
        resident = self._resident
        if resident is None or resident[2] != writes_before:
            return
        try:
            row = self._compact.row_of(ad_id)
        except IndexError_:
            return
        key, at, _, bid, stale = resident
        stale.append(row)
        self._resident = (key, at, writes_after, bid, stale)

    def _cut(
        self,
        content: np.ndarray,
        affinity: np.ndarray,
        proximity: np.ndarray,
        bid: np.ndarray,
        kept: np.ndarray,
        k: int,
    ) -> tuple[Slate, np.ndarray]:
        """Top-``k`` of the ``kept`` rows as ``(slate, its rows)``: the
        cut's own arrays, nothing boxed."""
        if not kept.shape[0]:
            return EMPTY_SLATE, kept
        ad_ids = self._compact.ad_ids
        static_kept, score_kept = self._scoring.fanout_scores(
            content[kept], affinity[kept], proximity[kept], bid[kept]
        )
        chosen = topk_order(score_kept, ad_ids[kept], k)
        rows = kept[chosen]
        return (
            Slate(ad_ids[rows], score_kept[chosen], content[rows], static_kept[chosen]),
            rows,
        )

    def slate_batch(
        self,
        candidates: CandidateSet | None,
        message_vec: SparseVector,
        followers: list[tuple[int | None, SparseVector, int, GeoPoint | None]],
        timestamp: float,
        k: int,
        *,
        served: Callable[[int, Slate, np.ndarray], None] | None = None,
        cut: Callable[[int], None] | None = None,
    ) -> list[Slate]:
        """The exact top-``k`` for every follower of one event, in order
        — the one entry point of a fan-out.

        ``followers`` is ``(user_id, profile_vec, profile_epoch,
        location)`` per follower; a ``user_id`` of None is an anonymous
        follower whose profile gather is not cached. The probe's message
        gather (``candidates.block``; gathered here when there was no
        shared probe — ``candidates`` is None — or its block is stale)
        plus one cached profile gather per follower cover every row any
        slate can contain, so the rows an exact combined-query probe would
        walk — message ∪ profile matches under the targeting mask — are
        scored and cut once. Every slate
        is the true top-``k`` by construction — certified, never a
        fallback — so a result is the bare slate, with no flags to carry.

        The fan-out is served in *runs*: a run of one scores a follower
        over the full row space; a block — as many followers as stack
        ``_BLOCK_CELLS`` cells (:meth:`_block`) — is cut ahead by one
        :meth:`_cut_block`, each slate a span of the block's columns.

        Without ``served`` nothing is written in between, so every
        follower, the first included, is cut in blocks (a lone follower
        is a run of one) and the slates are returned; the pipeline calls
        it so when no stage writes on delivery. With it, each slate is
        handed to ``served(position, slate, rows)``, in order, ``rows``
        being the index rows of its entries (what the :attr:`row_cache`
        columns are indexed by): the pipeline charges and feeds back
        inside it, from those columns, and no slate is cut across a
        write. The first follower of an event goes alone — that is how
        the kernel learns whether deliveries write — and when a delivery
        wrote nothing (:meth:`ScoringModel.bid_writes` did not move
        across ``served``) every follower left is cut ahead and handed
        out in order, its rows sliced off the block's as it is served. So
        a result is handed over before the next *run* is cut, not before
        the next follower's slate is. If a delivery inside a block does
        write, the slates cut ahead of it are dropped and the loop goes
        on one follower at a time until a delivery is clean again, so the
        next follower always sees what the last one wrote.
        ``cut(size)`` is told each run's size once it is cut, before its
        first delivery is handed out (the pipeline shares the cut's time
        over the run's spans).

        The row vectors shared by the fan-out (content, time mask, message
        membership) are built once per event, and δ·bid is kept between
        events (:meth:`_event_bid`); a delivery can only write to the rows
        of its own slate (spend, CTR evidence, retirement on exhaustion),
        so when ``served`` wrote anything exactly those rows are re-read
        before the next cut — the values a rebuild would give,
        elementwise — and named for the next event's re-read.
        """
        results: list[Slate] = []
        scoring = self._scoring
        compact = self._compact
        self._calls += 1
        calls = self._calls
        # Between two followers rows must keep their numbers, so a
        # compaction that a retirement makes due waits for the next event.
        compact.maybe_compact()
        generation = compact.generation
        # With β = 0 the combined query is the message alone: a profile
        # match is no reason to be scored.
        profile_rows_join = scoring.weights.beta > 0.0
        cache = self.row_cache

        # The per-event pieces (content, bid, time mask, membership) are
        # vectors over the full row space of the index — scatters and
        # mask writes are direct row indexing, no unions — and so is a
        # run of one: 1-D boolean masks plus float math on the kept
        # subset. Only a block leaves it, for the message's rows, so no
        # (F × rows) matrix is ever materialised. Dead rows sit in no
        # membership (gathers are alive-masked), so no cut can select
        # them.
        size = compact.num_rows
        block = candidates.block if candidates is not None else None
        if block is not None and block.key == (generation, size):
            # The probe's own gather, over this very row space: only
            # retirements can have touched it since.
            message_rows, message_dots = self._alive_only(block.rows, block.dots)
        else:
            message_rows, message_dots = compact.gather(message_vec)
        content = np.zeros(size, dtype=np.float64)
        content[message_rows] = message_dots
        key = (generation, size, scoring.corpus.max_bid)
        bid, stale = self._event_bid(cache, timestamp, key)
        time_keep = cache.time_keep_full(timestamp)
        message_member = np.zeros(size, dtype=bool)
        message_member[message_rows] = True

        position, count = 0, len(followers)
        # Nothing was written since the last cut, as far as the kernel can
        # tell: the followers left may be cut ahead, together.
        clean = served is None
        while position < count:
            if clean and count - position > 1:
                slates, rows, stops = self._cut_block(
                    *self._block(followers, position, generation, k),
                    message_rows[message_member[message_rows]],
                    content,
                    bid,
                    time_keep,
                    k,
                )
            else:
                user_id, profile_vec, profile_epoch, location = followers[position]
                # Alive-masked raw profile gather: every row with affinity > 0.
                affinity = np.zeros(size, dtype=np.float64)
                member = message_member
                if profile_vec:
                    profile_rows, profile_dots = self._alive_only(
                        *self._profile_gather(
                            user_id, profile_vec, profile_epoch, generation
                        )
                    )
                    affinity[profile_rows] = profile_dots
                    if profile_rows_join:
                        member = message_member.copy()
                        member[profile_rows] = True
                # The pair is this follower's own copy: mask it in place.
                targeted, proximity = cache.targeting_full(location)
                targeted &= time_keep
                targeted &= member
                slate, rows = self._cut(
                    content, affinity, proximity, bid, targeted.nonzero()[0], k
                )
                slates, stops = [slate], None
            if cut is not None:
                cut(len(slates))
            if served is None:
                results += slates
                position += len(slates)
                continue
            # A block's rows are sliced per delivery, as it is served: a
            # delivery that writes drops the rest unsliced.
            spans = (
                [rows]
                if stops is None
                else map(rows.__getitem__, map(slice, [0, *stops], stops))
            )
            for slate, slate_rows in zip(slates, spans):
                results.append(slate)
                position += 1
                writes = scoring.bid_writes()
                served(position - 1, slate, slate_rows)
                clean = scoring.bid_writes() == writes
                if clean:
                    continue
                # The delivery wrote, so what was cut ahead of it is stale
                # and dropped. Re-read its slate's rows, the only ones it
                # can have moved (same arithmetic as the full build, so the
                # vectors equal a rebuild's), and drop the rows it retired.
                stale.extend(slate_rows.tolist())
                if position < count:
                    bid[slate_rows] = scoring.fanout_bid_block(
                        cache, timestamp, slate_rows
                    )
                    message_member[slate_rows[~compact.alive[slate_rows]]] = False
                break
        # Kept for the next event unless another call ran inside this one:
        # its deliveries' writes are on rows this call never named.
        if self._calls == calls:
            self._resident = (key, timestamp, scoring.bid_writes(), bid, stale)
        return results

    def _block(
        self,
        followers: list[tuple[int | None, SparseVector, int, GeoPoint | None]],
        position: int,
        generation: int,
        k: int,
    ) -> tuple[list, tuple, tuple]:
        """The followers from ``position`` on that the next block cuts,
        with what the run of one looks up for each — its profile gather
        and its geo hits — stacked as flat ``(follower, rows, values)``
        triples, followers ascending. A follower stacks ``k`` cells of the
        shared base plus its profile rows and hits; a block takes
        followers while they stack at most ``_BLOCK_CELLS`` cells — always
        at least one, and never all but the last, who would be left to a
        run of one."""
        cache = self.row_cache
        profile_rows, profile_dots, profile_counts = [], [], []
        hit_rows, hit_falloffs, hit_counts = [], [], []
        cells = 0
        last = len(followers) - 1
        for index in range(position, last + 1):
            user_id, profile_vec, profile_epoch, location = followers[index]
            rows, dots = (
                self._profile_gather(user_id, profile_vec, profile_epoch, generation)
                if profile_vec
                else _NO_ROWS
            )
            matched, falloff = cache.geo_hits(location)
            cells += k + rows.shape[0] + matched.shape[0]
            if profile_counts and cells > _BLOCK_CELLS and index < last:
                break
            profile_rows.append(rows)
            profile_dots.append(dots)
            profile_counts.append(rows.shape[0])
            hit_rows.append(matched)
            hit_falloffs.append(falloff)
            hit_counts.append(matched.shape[0])
        members = np.arange(len(profile_counts))
        return (
            followers[position : position + members.shape[0]],
            (
                np.repeat(members, profile_counts),
                np.concatenate(profile_rows),
                np.concatenate(profile_dots),
            ),
            (
                np.repeat(members, hit_counts),
                np.concatenate(hit_rows),
                np.concatenate(hit_falloffs),
            ),
        )

    def _cut_block(
        self,
        followers: list[tuple[int | None, SparseVector, int, GeoPoint | None]],
        profiles: tuple[np.ndarray, np.ndarray, np.ndarray],
        hits: tuple[np.ndarray, np.ndarray, np.ndarray],
        message_rows: np.ndarray,
        content: np.ndarray,
        bid: np.ndarray,
        time_keep: np.ndarray,
        k: int,
    ) -> tuple[list[Slate], np.ndarray, list[int]]:
        """The slates of ``followers``, cut together: what the run of one
        serves each of them while nothing is written in between, from
        their stacked profile gathers and geo hits (:meth:`_block`). Each
        slate is one span of the block's columns (:meth:`Slate.spans`);
        the block's ``rows`` column and the spans' ``stops`` come with
        them, so a served delivery's rows are ``rows[start:stop]``.

        A message row scores the same for every follower that has no
        profile match and no circle hit at it, so the message is scored
        once — the *base* — and each follower only at its own few
        *corrections*; the profile rows outside the message (the *tail*)
        are scored only where a bound says they can reach the follower's
        slate. The same elementwise arithmetic as the run of one, and one
        top-``k`` under the shared tie rule."""
        scoring = self._scoring
        weights = scoring.weights
        compact = self._compact
        cache = self.row_cache
        num_rows = compact.num_rows
        ad_ids = compact.ad_ids
        count, width = len(followers), message_rows.shape[0]
        p_owner, p_rows, p_dots = profiles
        # Cached gathers outlive retirements (see ``_alive_only``).
        live = compact.alive[p_rows]
        if not live.all():
            p_owner, p_rows, p_dots = p_owner[live], p_rows[live], p_dots[live]
        h_owner, h_rows, h_falloff = hits
        # Row -> column of the block; back at -1 before anything else can
        # run (a delivery's callback may re-enter the kernel).
        if self._column.shape[0] < num_rows:
            self._column = np.full(num_rows, -1, dtype=np.int64)
        column = self._column
        column[message_rows] = np.arange(width)
        try:
            p_column, h_column = column[p_rows], column[h_rows]
        finally:
            column[message_rows] = -1
        p_in, h_in = p_column >= 0, h_column >= 0

        # The base: the message rows as a follower with no profile match
        # and inside no circle scores them (affinity 0, the no-circle
        # targeting), kept where that targeting and the time window let
        # them through — so never a geo-targeted row — and sorted once by
        # (-score, ad id).
        base_keep, base_proximity = cache.geo_base()
        open_now = time_keep[message_rows]
        m_content, m_bid = content[message_rows], bid[message_rows]
        m_proximity = base_proximity[message_rows]
        m_keep = base_keep[message_rows] & open_now
        base = m_keep.nonzero()[0]
        b_static, b_score = scoring.fanout_scores(
            m_content[base], 0.0, m_proximity[base], m_bid[base]
        )
        order = np.lexsort((ad_ids[message_rows[base]], -b_score))
        base, b_static, b_score = base[order], b_static[order], b_score[order]

        # The corrections: the cells (follower, column) where a follower
        # differs from the base — its profile rows and its hits inside the
        # message. A profile cell scores its affinity; a hit its falloff,
        # and is kept if its time window is open.
        stride = max(width, 1)
        p_keys = p_owner[p_in] * stride + p_column[p_in]
        h_keys = h_owner[h_in] * stride + h_column[h_in]
        keys = np.concatenate([p_keys, h_keys])
        keys.sort()
        if keys.shape[0] > 1:
            # A profile row the follower also has a circle at: one cell.
            distinct = np.ones(keys.shape[0], dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            keys = keys[distinct]
        c_owner, c_column = np.divmod(keys, stride)
        c_affinity = np.zeros(keys.shape[0], dtype=np.float64)
        c_affinity[np.searchsorted(keys, p_keys)] = p_dots[p_in]
        c_proximity, c_keep = m_proximity[c_column], m_keep[c_column]
        at_hit = np.searchsorted(keys, h_keys)
        c_proximity[at_hit] = h_falloff[h_in]
        c_keep[at_hit] = open_now[h_column[h_in]]
        c_static, c_score = scoring.fanout_scores(
            m_content[c_column], c_affinity, c_proximity, m_bid[c_column]
        )

        # A follower's message candidates: its kept corrections and the
        # base's first k rows less the ones it corrects — among them, its
        # best k message rows. A correction never moves a row behind where
        # the base ranks it (a hit is never a base row, and affinity is at
        # least 0: a gather refuses negative weights), so nobody's best k
        # reach past the base's k-th row.
        prefix = min(k, base.shape[0])
        b_owner = np.repeat(np.arange(count), prefix)
        b_at = np.tile(np.arange(prefix), count)
        if keys.shape[0]:
            b_keys = b_owner * stride + base[b_at]
            at = np.searchsorted(keys, b_keys)
            at[at == keys.shape[0]] = 0
            uncorrected = keys[at] != b_keys
            b_owner, b_at = b_owner[uncorrected], b_at[uncorrected]
        owner = np.concatenate([b_owner, c_owner[c_keep]])
        col = np.concatenate([base[b_at], c_column[c_keep]])
        static = np.concatenate([b_static[b_at], c_static[c_keep]])
        score = np.concatenate([b_score[b_at], c_score[c_keep]])
        rows, content = message_rows[col], m_content[col]
        top, taken = _first_k(owner, score, ad_ids[rows], count, k)
        # Each follower's k-th best message-row score bounds its overall
        # k-th from below (-inf under k kept rows): only rows reaching it
        # can make the slate.
        floor = np.full(count, -np.inf)
        full = taken == k
        floor[full] = score[top[(np.cumsum(taken) - 1)[full]]]
        owner, rows, content = owner[top], rows[top], content[top]
        static, score = static[top], score[top]

        if weights.beta > 0.0 and not p_in.all():
            # The tail: profile rows outside the message (content exactly
            # 0, but β·affinity can carry them into a slate). Proximity is
            # at most 1, and IEEE × and + are monotone, so a row whose
            # β·affinity + γ + bid is below the floor scores below it too;
            # only the rows that reach it are joined and scored.
            p_bid = bid[p_rows]
            reach = weights.beta * p_dots + weights.gamma + p_bid >= floor[p_owner]
            reach &= ~p_in
            reach = reach.nonzero()[0]
            if reach.shape[0]:
                t_owner, t_rows = p_owner[reach], p_rows[reach]
                t_dots, t_bid = p_dots[reach], p_bid[reach]
                # Their targeting is read at those rows: the no-circle
                # values, overwritten where the follower's own hits have
                # the row (both key lists ascend; a hit inside the message
                # meets no tail row).
                t_keep, t_proximity = base_keep[t_rows], base_proximity[t_rows]
                if h_rows.shape[0]:
                    hit_keys = h_owner * num_rows + h_rows
                    t_keys = t_owner * num_rows + t_rows
                    at = np.searchsorted(hit_keys, t_keys)
                    at[at == hit_keys.shape[0]] = 0
                    found = hit_keys[at] == t_keys
                    t_keep[found] = True
                    t_proximity[found] = h_falloff[at[found]]
                t_keep &= time_keep[t_rows]
                t_static, t_score = scoring.fanout_scores(
                    0.0, t_dots, t_proximity, t_bid
                )
                t_keep &= t_score >= floor[t_owner]
                if t_keep.any():
                    owner = np.concatenate([owner, t_owner[t_keep]])
                    rows = np.concatenate([rows, t_rows[t_keep]])
                    content = np.concatenate(
                        [content, np.zeros(owner.shape[0] - content.shape[0])]
                    )
                    static = np.concatenate([static, t_static[t_keep]])
                    score = np.concatenate([score, t_score[t_keep]])
                    top, taken = _first_k(owner, score, ad_ids[rows], count, k)
                    rows, content = rows[top], content[top]
                    static, score = static[top], score[top]

        # A follower's slate is its span of the block's columns.
        stops = np.cumsum(taken).tolist()
        return Slate.spans(ad_ids[rows], score, content, static, stops), rows, stops

    def exact_slate(
        self,
        message_vec: SparseVector,
        profile_vec: SparseVector,
        location: GeoPoint | None,
        timestamp: float,
        k: int,
    ) -> Slate:
        """One guaranteed-exact top-k for a (message, profile) pair: the
        kernel with no shared probe and one anonymous follower."""
        return self.slate_batch(
            None, message_vec, [(None, profile_vec, 0, location)], timestamp, k
        )[0]
