"""Tier-4 vectorized bulk-access kernel.

The bulk kernel (:meth:`repro.arch.hierarchy.CacheHierarchy.
access_many`) already batches whole address chunks through inlined
flat-array LRU walks and stops exactly where the cycle budget runs
out, but it still pays interpreted Python per address and has to
price each access as it mutates the hierarchy.

This module removes that cost by splitting the walk in two:

:func:`classify`
    proves, without touching any state, that the batch belongs to the
    *uniform private-miss* class: a leading run of the L1 MRU line
    (the batch boundary may split a repeat run of the previous batch)
    is a guaranteed hit; consecutive duplicates collapse to one walk
    plus guaranteed L1 hits (exactly the scalar kernel's run
    handling); and the collapsed stream must be all-distinct and
    absent from this core's L1 and L2.  Every collapsed access then
    misses both private levels, and its serving level — 3 if the line
    sits in the shared L3, 4 if not — follows from a vectorized tag
    probe.  The per-address cycle costs are therefore known *before*
    anything is updated, which lets the core take large batches, find
    the exact cycle-budget cutoff, and push the unexecuted suffix back
    untouched.  Returns ``None`` (revisits, private-resident lines);
    the caller falls back to the scalar kernel, the same ladder
    ``bulk_kernel_ok`` uses one tier down.

:func:`commit`
    applies the updates for the executed prefix.  The private L1/L2
    fills are identical for level-3 and level-4 accesses (both missed
    there), so each is one order-preserving bulk fill over the
    ``array('q')``-backed tag arrays: per set, the first ``max(0,
    fill + k - assoc)`` evictions pop pre-batch lines from the LRU
    head of the circular window, and the last ``min(k, assoc)``
    inserted lines survive in insertion order at the MRU end — which
    the closed-form slot formula ``base + (head + fill + occurrence)
    % assoc`` scatters in one fancy-indexing pass.  A *consecutive*
    collapsed run (the streaming steady state) skips even the
    argsort-based set grouping: element ``i`` of a consecutive run is
    its set's ``i // num_sets``-th insertion, so every per-set
    quantity reduces to positional arithmetic.  The shared L3
    partitions by set into three strata: sets receiving only misses
    use the bulk fill; sets receiving exactly one access, a hit, get
    a vectorized move-to-tail rotation; the rare sets mixing hits and
    misses (or taking several hits) are replayed sequentially on
    extracted copies, which both *validates* the predicted hit levels
    (an earlier in-batch fill could have evicted a predicted-hit
    line) and yields the exact final window.  Nothing is mutated
    until every stratum validates, no L3 set receives more lines than
    it has ways (so every L3 victim is a pre-batch line with an exact
    owner record), and — on an inclusive L3 — no victim lives in this
    core's own L1/L2.  On any failure ``commit`` returns ``False``
    with no state mutated and the caller re-routes the untouched
    batch through the scalar kernel.  Owner records and counter/stat
    deltas are flushed once per batch: when every evicted line was
    solely ours, the popped ``{core}`` singletons are recycled as the
    owner records of the newly inserted lines — the same object reuse
    the scalar walk performs one line at a time.
"""

from __future__ import annotations

from itertools import repeat as _it_repeat

import numpy as np

__all__ = ["classify", "commit"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Shared 0..n-1 scratch, grown on demand (batches are a few thousand).
_AR_CACHE = np.arange(8192, dtype=np.int64)


def _ar(n: int) -> np.ndarray:
    global _AR_CACHE
    if n > _AR_CACHE.shape[0]:
        _AR_CACHE = np.arange(max(n, 2 * _AR_CACHE.shape[0]),
                              dtype=np.int64)
    return _AR_CACHE[:n]


class BatchPlan:
    """The no-mutation classification of one address batch."""

    __slots__ = ("addrs", "levels", "keep_raw", "c", "hit", "consec",
                 "c_list")

    def __init__(self, addrs, levels, keep_raw, c, hit, consec,
                 c_list=None):
        self.addrs = addrs
        #: per-address serving level (1, 3 or 4).  Exact for any
        #: executed prefix :func:`commit` accepts: miss predictions
        #: are unconditional (distinct + absent lines stay absent),
        #: and hit predictions are validated during commit.
        self.levels = levels
        #: raw batch positions of the collapsed (walking) accesses
        self.keep_raw = keep_raw
        #: the collapsed stream itself (distinct, L1/L2-absent)
        self.c = c
        #: per-collapsed-access predicted L3 residency; ``None`` when
        #: the whole stream misses the L3 (the streaming fast path)
        self.hit = hit
        #: the collapsed stream is consecutive ascending (c[i]=c[0]+i)
        self.consec = consec
        #: ``c`` as a Python list when classification already paid the
        #: conversion (a membership scan); lets commit skip its own
        self.c_list = c_list


def classify(hierarchy, core: int, addrs: np.ndarray):
    """Prove the batch uniform and return its :class:`BatchPlan`.

    Pure read.  Returns ``None`` when the batch is not provably in the
    uniform private-miss class, in which case the caller must run it
    through the scalar kernel.
    """
    n = addrs.shape[0]
    l1 = hierarchy.l1[core]
    levels = np.ones(n, dtype=np.int64)
    lead = 0
    a0 = int(addrs[0])
    if l1._mru[a0 & l1._set_mask] == a0:
        # The previous batch ended mid-repeat-run: its line is this
        # core's L1 MRU, so the leading repeats are guaranteed hits.
        neq = np.nonzero(addrs != a0)[0]
        lead = int(neq[0]) if neq.size else n
        if lead == n:
            return BatchPlan(addrs, levels, _EMPTY_I64, _EMPTY_I64,
                             None, False)
    work = addrs[lead:]
    keep = np.empty(work.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(work[1:], work[:-1], out=keep[1:])
    keep_raw = lead + np.nonzero(keep)[0]
    c = addrs[keep_raw]
    m = c.shape[0]
    consec = False
    asc = m == 1
    if m > 1:
        # Revisits inside the batch would hit lines the batch itself
        # filled; the sequential order then matters and the scalar
        # kernel must run.  Ascending streams settle this in one pass
        # (and an ascending distinct run is consecutive exactly when
        # it spans m lines).
        if (c[1:] > c[:-1]).all():
            asc = True
            consec = int(c[-1]) - int(c[0]) == m - 1
        else:
            s = np.sort(c)
            if (s[1:] == s[:-1]).any():
                return None
    lo = int(c[0]) if asc else int(c.min())
    c_list = None
    l2 = hierarchy.l2[core]
    # A monotone stream moves past every line it ever filled, so one
    # comparison against the cache's fill bound proves disjointness
    # without hashing the batch (see SetAssociativeCache._max_tag).
    if l1._max_tag >= lo:
        c_list = c.tolist()
        if not l1._resident.isdisjoint(c_list):
            return None
    if l2._max_tag >= lo:
        if c_list is None:
            c_list = c.tolist()
        if not l2._resident.isdisjoint(c_list):
            return None
    l3 = hierarchy.l3
    l3_absent = l3._max_tag < lo
    if not l3_absent:
        if c_list is None:
            c_list = c.tolist()
        l3_absent = l3._resident.isdisjoint(c_list)
    if l3_absent:
        levels[keep_raw] = 4
        return BatchPlan(addrs, levels, keep_raw, c, None, consec,
                         c_list)
    # Some lines sit in the shared L3: predict hit levels with a
    # masked tag probe (slots past a partial set's fill are stale).
    a = l3._assoc
    si = c & l3._set_mask
    tags_np, fill_np, _heads_np = l3._vector_views()
    rows = tags_np.reshape(-1, a)[si]
    ways = _ar(a)
    hit = ((rows == c[:, None])
           & (ways[None, :] < fill_np[si][:, None])).any(axis=1)
    levels[keep_raw] = np.where(hit, 3, 4)
    return BatchPlan(addrs, levels, keep_raw, c, hit, False, c_list)


def _plan_fill_g(cache, c: np.ndarray, views):
    """Plan one level's bulk fill of miss stream ``c`` (no mutation).

    The general, argsort-grouped form.  Returns ``(cs, u, f, h,
    counts, starts, slots, surv_mask, victims, total, evictions,
    vslots)`` where ``cs`` are the accesses stably sorted by set (so
    each set's insertions keep batch order), ``slots`` each
    insertion's physical slot, ``surv_mask`` the insertions still
    resident at batch end (``None`` means all survive), ``victims``
    the pre-batch lines evicted, and ``vslots`` the slots those
    victims occupied (where the owner-bitmask tier finds their masks).
    """
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    si = c & cache._set_mask
    order = si.argsort(kind="stable")
    ss = si[order]
    cs = c[order]
    nn = ss.shape[0]
    first = np.empty(nn, dtype=bool)
    first[0] = True
    np.not_equal(ss[1:], ss[:-1], out=first[1:])
    starts = np.nonzero(first)[0]
    u = ss[starts]
    g = starts.shape[0]
    counts = np.empty(g, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:g - 1])
    counts[g - 1] = nn - starts[g - 1]
    # Occurrence rank of each insertion within its set's sub-stream.
    occ = _ar(nn) - np.repeat(starts, counts)
    f = fill_np[u]
    h = heads_np[u]
    occf = np.repeat(f, counts) + occ
    # Insertion ``occ`` of a set lands at the circular-window slot the
    # sequential evolution would use: the window advances one slot per
    # evict-and-insert, so slot = base + (head + fill + occ) % assoc.
    slots = ss * a + (np.repeat(h, counts) + occf) % a
    # Pre-batch victims: insertions that overwrite an occupied slot
    # (fill + occ >= assoc) before the window laps itself (occ <
    # assoc).  Later overwrites (occ >= assoc) evict lines inserted by
    # this very batch, which never reach the resident set.
    victim_mask = (occf >= a) & (occ < a)
    vslots = slots[victim_mask]
    victims = tags_np[vslots]
    total = f + counts
    if int(counts[counts.argmax()]) <= a:
        # Every insertion survives the batch (the committed-L3 case).
        surv_mask = None
    else:
        surv_mask = occ >= (np.repeat(counts, counts) - a)
    evictions = int(np.maximum(0, total - a).sum())
    return cs, u, f, h, counts, starts, slots, surv_mask, victims, \
        total, evictions, vslots


def _apply_fill_g(cache, plan, views) -> int:
    """Commit a :func:`_plan_fill_g` plan; return the eviction delta."""
    cs, u, f, h, counts, starts, slots, surv_mask, victims, total, \
        evictions, _vslots = plan
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    if surv_mask is None:
        surv = cs
        tags_np[slots] = cs
    else:
        surv = cs[surv_mask]
        tags_np[slots[surv_mask]] = surv
    # A set that wrapped keeps rotating (head advances once per
    # eviction); one that stayed partial keeps the head-0 invariant.
    heads_np[u] = np.where(total >= a, (h + total) % a, 0)
    fill_np[u] = np.minimum(a, total)
    mru = cache._mru
    for s, addr in zip(u.tolist(), cs[starts + counts - 1].tolist()):
        mru[s] = addr
    resident = cache._resident
    resident.difference_update(victims.tolist())
    resident.update(surv.tolist())
    return evictions


def _fill_replace_py(cache, c_list: list, m: int) -> int:
    """Full-replacement fill of a private level by a consecutive run.

    Requires ``m >= num_sets * assoc``: every set then receives at
    least ``assoc`` insertions, so every pre-batch line is evicted and
    the survivors are exactly the last ``num_sets * assoc`` elements
    (any window of that many consecutive elements holds exactly
    ``assoc`` per set).  Only the surviving tail is written — ``m``
    can be arbitrarily large, the work is bounded by the capacity.
    Scalar on purpose: the private levels are list-backed and small,
    so item writes beat numpy's per-ufunc dispatch overhead.
    """
    a = cache._assoc
    nsets = cache._num_sets
    mask = cache._set_mask
    cap = nsets * a
    tags = cache._tags
    fills = cache._fill_counts
    heads = cache._heads
    mru = cache._mru
    c0 = c_list[0]
    evictions = sum(fills) + m - cap
    tail = c_list[m - cap:]
    i = m - cap
    for addr in tail:
        s = addr & mask
        tags[s * a + (heads[s] + fills[s] + i // nsets) % a] = addr
        i += 1
    kbase = m // nsets
    rem = m - kbase * nsets
    for s in range(nsets):
        k = kbase + 1 if (s - c0) % nsets < rem else kbase
        total = fills[s] + k
        heads[s] = (heads[s] + total) % a
        fills[s] = a
        mru[s] = c_list[(s - c0) % nsets + (k - 1) * nsets]
    resident = cache._resident
    resident.clear()
    resident.update(tail)
    return evictions


def _fill_scalar(cache, miss_list: list) -> int:
    """Fill a private level with a distinct all-miss stream, scalar.

    The general private-level fill verb: classify proved every element
    absent, so this is the bulk kernel's inlined fill loop without the
    probes.  Bounded by the batch length, which for the non-consecutive
    cases that reach it is at most one budget's worth of accesses —
    small enough that a Python loop over list storage beats the numpy
    plan/apply machinery and its dispatch overhead.  Returns the
    eviction delta.
    """
    a = cache._assoc
    mask = cache._set_mask
    tags = cache._tags
    fills = cache._fill_counts
    heads = cache._heads
    mru = cache._mru
    res_add = cache._resident.add
    res_discard = cache._resident.discard
    evictions = 0
    for addr in miss_list:
        si = addr & mask
        fill = fills[si]
        if fill >= a:
            head = heads[si]
            slot = si * a + head
            res_discard(tags[slot])
            tags[slot] = addr
            heads[si] = head + 1 if head + 1 < a else 0
            evictions += 1
        else:
            tags[si * a + fill] = addr
            fills[si] = fill + 1
        mru[si] = addr
        res_add(addr)
    return evictions


#: Minimum collapsed-stream length for the batched private fill: below
#: this the grouped per-set slice updates lose to the scalar loop
#: (tuned on the pointer-chase shape; see bench_simspeed).  The verb
#: owns the window up to ``2 * capacity`` where :func:`_fill_dense`
#: takes over.
_FILL_BATCH_MIN = 384


def _fill_batch(cache, c: np.ndarray, miss_list: list, m: int) -> int:
    """Batched index-math twin of :func:`_fill_scalar`.

    The private-level gap between :func:`_fill_dense` (wants ``m >=
    2 * capacity``) and the scalar loop: the chase shapes collapse to
    a few hundred distinct misses per batch — too short to replace the
    whole level, long enough that per-address Python costs dominate.
    Numpy index math groups the stream by set; each set is then
    finished with O(1) list-slice operations — one window rotation
    and one row write — instead of ~ten list and set operations per
    address, so the cost scales with the level's *set count*, not
    with ``m``.  Same bit-identical contract as every other fill
    verb; returns the eviction delta.
    """
    a = cache._assoc
    si = c & cache._set_mask
    order = si.argsort(kind="stable")
    ss = si[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(ss[1:], ss[:-1], out=first[1:])
    starts_np = np.nonzero(first)[0]
    u_list = ss[starts_np].tolist()
    starts = starts_np.tolist()
    starts.append(m)
    cs_list = c[order].tolist()
    tags = cache._tags
    fills = cache._fill_counts
    heads = cache._heads
    mru = cache._mru
    vict_list: list = []
    surv_list: list = []
    evictions = 0
    for gi, s in enumerate(u_list):
        seg = cs_list[starts[gi]:starts[gi + 1]]
        k = len(seg)
        fill = fills[s]
        total = fill + k
        base = s * a
        if total <= a:
            # Stays within the ways: partial rows are a plain prefix
            # (head 0), so the insertions append as one slice write.
            tags[base + fill:base + total] = seg
            fills[s] = total
            surv_list += seg
            mru[s] = seg[-1]
            continue
        evictions += total - a
        head = heads[s]
        mru[s] = seg[-1]
        if fill == a and k < a:
            # Steady state: the k oldest lines (the circular run
            # starting at ``head``) are overwritten in place —
            # insertion i lands at slot (head + i) % a.
            end = head + k
            if end <= a:
                vict_list += tags[base + head:base + end]
                tags[base + head:base + end] = seg
            else:
                end -= a
                vict_list += tags[base + head:base + a]
                vict_list += tags[base:base + end]
                split = a - head
                tags[base + head:base + a] = seg[:split]
                tags[base:base + end] = seg[split:]
            surv_list += seg
            heads[s] = end if end < a else 0
        elif k >= a:
            # The whole row is replaced by the last ``a`` insertions.
            vict_list += tags[base:base + a] if fill == a \
                else tags[base:base + fill]
            seg = seg[k - a:]
            surv_list += seg
            hn = (head + total) % a
            # Physical row = survivors rotated so index ``hn`` holds
            # the oldest surviving line.
            tags[base:base + a] = (seg[a - hn:] + seg[:a - hn]
                                   if hn else seg)
            heads[s] = hn
            fills[s] = a
        else:
            # Overflowing partial set (head 0, fill < a, k < a): only
            # during warm-up.  Build the combined window explicitly.
            win = tags[base:base + fill]
            vict_list += win[:total - a]
            surv_list += seg
            new_win = (win + seg)[total - a:]
            hn = total % a
            tags[base:base + a] = (new_win[a - hn:] + new_win[:a - hn]
                                   if hn else new_win)
            heads[s] = hn
            fills[s] = a
    resident = cache._resident
    resident.difference_update(vict_list)
    resident.update(surv_list)
    return evictions


def _fill_dense(cache, c: np.ndarray, miss_list: list, m: int) -> int:
    """Fill a private level from a miss stream much larger than it.

    When ``m`` is a multiple of ``nsets * assoc``, almost every
    insertion of the forward walk is itself evicted by a later one, so
    :func:`_fill_scalar` spends most of its time writing lines that do
    not survive the batch.  This verb derives the final window geometry
    per set from the insertion counts alone (one ``bincount``), then
    walks the stream *backward*, writing only the surviving insertions
    — at most ``assoc`` per set — and rebuilds the resident set from
    the finished windows.  Tags, heads, fills, MRU, resident set and
    the returned eviction delta land bit-identical to the forward
    walk's.
    """
    a = cache._assoc
    nsets = cache._num_sets
    mask = cache._set_mask
    tags = cache._tags
    fills = cache._fill_counts
    heads = cache._heads
    mru = cache._mru
    counts = np.bincount(c & mask, minlength=nsets).tolist()
    evictions = 0
    # Per-set geometry: how many insertions survive (``want``), the
    # slot-formula origin ``offs = head + fill`` frozen before the
    # update, and the finished head/fill values.
    offs = [0] * nsets
    want = [0] * nsets
    remaining = 0
    for s in range(nsets):
        k = counts[s]
        if k == 0:
            continue
        fill = fills[s]
        total = fill + k
        offs[s] = heads[s] + fill
        w = k if k < a else a
        want[s] = w
        remaining += w
        if total >= a:
            evictions += total - a
            heads[s] = (heads[s] + total) % a
            fills[s] = a
        else:
            # Partial sets keep head == 0, so the window stays a
            # contiguous prefix of the row.
            fills[s] = total
    # The last ``want[s]`` insertions into each set are exactly the
    # surviving ones, and the first of them met walking backward is
    # the set's MRU line.  Insertion ``occ`` (its occurrence index
    # within the set's stream) lands at ``(offs + occ) % assoc`` —
    # the same slot the forward walk would have left it in.
    seen = [0] * nsets
    for addr in reversed(miss_list):
        s = addr & mask
        got = seen[s]
        if got < want[s]:
            occ = counts[s] - 1 - got
            tags[s * a + (offs[s] + occ) % a] = addr
            if got == 0:
                mru[s] = addr
            seen[s] = got + 1
            remaining -= 1
            if remaining == 0:
                break
    resident = cache._resident
    resident.clear()
    for s in range(nsets):
        base = s * a
        resident.update(tags[base:base + fills[s]])
    return evictions


def _plan_l3_consec(cache, c: np.ndarray, views):
    """Consecutive-run twin of :func:`_plan_fill_g` for the shared L3.

    Only valid when ``m >= num_sets`` and no set overflows its ways
    (the caller checks ``m // num_sets + 1 <= assoc``), so every
    insertion survives.  Returns ``(slots, victims, total, last_i,
    evictions, vslots)``.
    """
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    nsets = cache._num_sets
    mask = cache._set_mask
    m = c.shape[0]
    c0 = int(c[0])
    si = c & mask
    occ = _ar(m) // nsets
    occf = fill_np[si] + occ
    slots = si * a + (heads_np[si] + occf) % a
    victim_mask = occf >= a
    vslots = slots[victim_mask]
    victims = tags_np[vslots]
    counts = np.full(nsets, m // nsets, dtype=np.int64)
    rem = m - (m // nsets) * nsets
    if rem:
        counts[(c0 + _ar(rem)) & mask] += 1
    total = fill_np + counts
    # With k <= assoc per set (caller-checked), every overwritten slot
    # held a pre-batch line: eviction count == victim count.
    evictions = int(victims.shape[0])
    first_i = (_ar(nsets) - c0) % nsets
    last_i = first_i + (counts - 1) * nsets
    return slots, victims, total, last_i, evictions, vslots


def _apply_l3_consec(cache, c, plan, views, miss_list) -> int:
    """Commit a :func:`_plan_l3_consec` plan; return the evictions."""
    slots, victims, total, last_i, evictions, _vslots = plan
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    tags_np[slots] = c
    cache._mru[:] = c[last_i].tolist()
    heads_np[:] = np.where(total >= a, (heads_np + total) % a, 0)
    fill_np[:] = np.minimum(a, total)
    return evictions


class _MixedL3Plan:
    """Validated per-stratum L3 update for a hit/miss mixed prefix."""

    __slots__ = ("plan_a", "sets_b", "addr_b", "replays", "victims",
                 "evictions")

    def __init__(self, plan_a, sets_b, addr_b, replays, victims,
                 evictions):
        self.plan_a = plan_a
        self.sets_b = sets_b
        self.addr_b = addr_b
        self.replays = replays
        self.victims = victims
        self.evictions = evictions


def _plan_mixed_l3(cache, c: np.ndarray, hit: np.ndarray, views,
                   own_col=None, own_bit: int = 0):
    """Plan and validate an L3 update mixing hits and misses.

    No mutation.  Returns ``None`` when an L3 set receives more lines
    than it has ways, or when a predicted hit fails validation (the
    sequential walk would have evicted the line first) — the caller
    must fall back to the scalar kernel.  With ``own_col`` (the L3
    owner-bitmask view) the stratum-(c) replays also evolve each set's
    owner row in lockstep on extracted copies, recording the victims'
    masks and how many hit lines gained this core's bit.
    """
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    si = c & cache._set_mask
    order = si.argsort(kind="stable")
    ss = si[order]
    cs = c[order]
    hs = hit[order]
    nn = ss.shape[0]
    first = np.empty(nn, dtype=bool)
    first[0] = True
    np.not_equal(ss[1:], ss[:-1], out=first[1:])
    starts = np.nonzero(first)[0]
    u = ss[starts]
    counts = np.diff(np.append(starts, nn))
    if int(counts.max()) > a:
        return None
    hit_counts = np.add.reduceat(hs.astype(np.int64), starts)
    pure = hit_counts == 0
    single_hit = (counts == 1) & (hit_counts == 1)
    # Stratum (a): miss-only sets — the closed-form bulk fill.
    # Stable re-grouping of an already set-sorted subsequence keeps
    # every set's insertions in batch order.
    plan_a = None
    elem_pure = np.repeat(pure, counts)
    c_a = cs[elem_pure]
    if c_a.size:
        plan_a = _plan_fill_g(cache, c_a, views)
    victims: list[int] = plan_a[8].tolist() if plan_a is not None else []
    evictions = plan_a[10] if plan_a is not None else 0
    # Stratum (b): one access, a hit — always valid (the line is
    # pre-resident and nothing else touches the set).
    sets_b = u[single_hit]
    addr_b = cs[starts[single_hit]]
    # Stratum (c): everything else mixes a hit with other accesses;
    # replay each set sequentially on extracted copies, mirroring the
    # scalar kernel's L3 branches exactly.
    replays = []
    for g in np.nonzero(~pure & ~single_hit)[0].tolist():
        s = int(u[g])
        st = int(starts[g])
        cnt = int(counts[g])
        ops_addr = cs[st:st + cnt].tolist()
        ops_hit = hs[st:st + cnt].tolist()
        base = s * a
        fill = int(fill_np[s])
        head = int(heads_np[s])
        mru = cache._mru[s]
        tags = tags_np[base:base + a].tolist()
        own_row = (own_col[base:base + a].tolist()
                   if own_col is not None else None)
        vict: list[int] = []
        vict_masks: list[int] = []
        ev = nh = nm = gained = 0
        for addr, pred in zip(ops_addr, ops_hit):
            if mru == addr:
                if not pred:
                    return None
                nh += 1
                if own_row is not None:
                    # The MRU line sits at the logical tail.
                    t = (fill - 1 if fill < a
                         else (head - 1 if head else a - 1))
                    if not own_row[t] & own_bit:
                        own_row[t] |= own_bit
                        gained += 1
                continue
            try:
                w = tags.index(addr, 0, fill if fill < a else a)
            except ValueError:
                w = -1
            if w >= 0:
                if not pred:
                    return None
                # Move-to-tail, wrap-aware when the window is rotated.
                if fill < a:
                    t = fill - 1
                    if own_row is not None:
                        ob = own_row[w]
                        own_row[w:t] = own_row[w + 1:fill]
                        own_row[t] = ob
                    tags[w:t] = tags[w + 1:fill]
                    tags[t] = addr
                else:
                    tail = head - 1 if head else a - 1
                    t = tail
                    if w <= tail:
                        if own_row is not None:
                            ob = own_row[w]
                            own_row[w:tail] = own_row[w + 1:tail + 1]
                            own_row[tail] = ob
                        tags[w:tail] = tags[w + 1:tail + 1]
                        tags[tail] = addr
                    else:
                        end = a - 1
                        if own_row is not None:
                            ob = own_row[w]
                            own_row[w:end] = own_row[w + 1:end + 1]
                            own_row[end] = own_row[0]
                            own_row[0:tail] = own_row[1:tail + 1]
                            own_row[tail] = ob
                        tags[w:end] = tags[w + 1:end + 1]
                        tags[end] = tags[0]
                        tags[0:tail] = tags[1:tail + 1]
                        tags[tail] = addr
                mru = addr
                nh += 1
                if own_row is not None and not own_row[t] & own_bit:
                    own_row[t] |= own_bit
                    gained += 1
            else:
                if pred:
                    # An earlier in-batch fill evicted this predicted
                    # hit: the candidate pricing is wrong; fall back.
                    return None
                nm += 1
                if fill >= a:
                    vict.append(tags[head])
                    tags[head] = addr
                    if own_row is not None:
                        vict_masks.append(own_row[head])
                        own_row[head] = own_bit
                    head = head + 1 if head + 1 < a else 0
                    ev += 1
                else:
                    tags[fill] = addr
                    if own_row is not None:
                        own_row[fill] = own_bit
                    fill += 1
                mru = addr
        replays.append((s, tags, fill, head, mru, vict, ev, nm,
                        own_row, vict_masks, gained))
        victims.extend(vict)
        evictions += ev
    return _MixedL3Plan(plan_a, sets_b, addr_b, replays, victims,
                        evictions)


def _apply_mixed_l3(cache, mixed: _MixedL3Plan, views,
                    own_col=None, own_bit: int = 0):
    """Commit a validated :class:`_MixedL3Plan`.

    With ``own_col`` the owner-bitmask column is updated in lockstep
    — stratum (a) scatters this core's bit over the inserted slots
    (gathering the victims' masks first), stratum (b) mirrors the
    move-to-tail roll and ORs the bit into each hit line, stratum (c)
    writes back the replayed owner rows.  Returns ``(gained,
    vict_masks)``: how many pre-resident hit lines gained the bit, and
    the victims' owner masks aligned with ``mixed.victims``.
    """
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    resident = cache._resident
    mru_list = cache._mru
    gained = 0
    vict_masks: list[int] = []
    if mixed.plan_a is not None:
        if own_col is not None:
            # Victim masks live in the slots the inserts overwrite:
            # gather before the scatter claims them.  Every insertion
            # survives (set counts are capped at the ways), so the
            # scatter covers all planned slots.
            vict_masks.extend(own_col[mixed.plan_a[11]].tolist())
        _apply_fill_g(cache, mixed.plan_a, views)
        if own_col is not None:
            own_col[mixed.plan_a[6]] = own_bit
    sets_b = mixed.sets_b
    if sets_b.size:
        # Bulk move-to-tail: gather each set's window in LRU order,
        # rotate everything at or after the hit line left by one, drop
        # the line at the logical tail, and scatter back.  Slots past
        # a partial window keep their (stale) contents.
        k = sets_b.shape[0]
        addr_b = mixed.addr_b
        h = heads_np[sets_b]
        length = fill_np[sets_b]
        ways = _ar(a)
        phys = sets_b[:, None] * a + (h[:, None] + ways[None, :]) % a
        logical = tags_np[phys]
        valid = ways[None, :] < length[:, None]
        p = ((logical == addr_b[:, None]) & valid).argmax(axis=1)
        rolled = np.empty_like(logical)
        rolled[:, :-1] = logical[:, 1:]
        rolled[:, -1] = logical[:, -1]
        roll_mask = (ways[None, :] >= p[:, None]) & valid
        out = np.where(roll_mask, rolled, logical)
        rows = _ar(k)
        out[rows, length - 1] = addr_b
        tags_np[phys.ravel()] = out.ravel()
        if own_col is not None:
            ologic = own_col[phys]
            ohit = ologic[rows, p]
            orolled = np.empty_like(ologic)
            orolled[:, :-1] = ologic[:, 1:]
            orolled[:, -1] = ologic[:, -1]
            oout = np.where(roll_mask, orolled, ologic)
            oout[rows, length - 1] = ohit | own_bit
            own_col[phys.ravel()] = oout.ravel()
            gained += int(np.count_nonzero((ohit & own_bit) == 0))
        for s, addr in zip(sets_b.tolist(), addr_b.tolist()):
            mru_list[s] = addr
    for s, tags, fill, head, mru, vict, _ev, _nm, own_row, vmasks, \
            g in mixed.replays:
        base = s * a
        tags_np[base:base + a] = tags
        if own_col is not None:
            own_col[base:base + a] = own_row
            vict_masks.extend(vmasks)
            gained += g
        fill_np[s] = fill
        heads_np[s] = head
        mru_list[s] = mru
        if vict:
            resident.difference_update(vict)
    return gained, vict_masks


def commit(hierarchy, core: int, plan: BatchPlan, n_exec: int) -> bool:
    """Apply the first ``n_exec`` accesses of a classified batch.

    Returns ``False`` — with **no state mutated** — when the bulk
    update cannot replay the sequential walk (an overloaded L3 set, an
    invalidated hit prediction, or an inclusive back-invalidation into
    this core's own L1/L2); the caller must then re-route the whole
    untouched batch through the scalar ladder.  On ``True``, every
    counter, stat, tag array, owner record, and occupancy figure is
    bit-identical to the scalar walk over that same prefix.
    """
    l1 = hierarchy.l1[core]
    counters_all = hierarchy.counters
    # Collapsed accesses whose raw position executed (keep_raw is
    # ascending, so the executable ones are a prefix).
    m = int(np.searchsorted(plan.keep_raw, n_exec, side="left"))
    if m == 0:
        # Only stripped MRU repeats executed: pure L1 hits.
        counters_all[core].l1_hits += n_exec
        l1.stats.hits += n_exec
        return True
    c = plan.c[:m]
    hit = None
    nh3 = 0
    if plan.hit is not None:
        hit = plan.hit[:m]
        nh3 = int(hit.sum())
        if nh3 == 0:
            hit = None
    l2 = hierarchy.l2[core]
    l3 = hierarchy.l3
    a3 = l3._assoc
    # Views are created here and die with this frame: a surviving view
    # would keep the array('q') buffers exported and break the scalar
    # verbs' slice assignments (see SetAssociativeCache._vector_views).
    views3 = l3._vector_views()
    owner_arrays = hierarchy._owner_arrays
    own_bit = 1 << core
    own_col = (np.frombuffer(l3._owner_tags, dtype=np.int64)
               if owner_arrays else None)
    mixed = plan3 = None
    consec3 = False
    miss_list = None
    if hit is None:
        if plan.consec and m >= l3._num_sets:
            if m // l3._num_sets + (1 if m % l3._num_sets else 0) > a3:
                return False
            consec3 = True
            plan3 = _plan_l3_consec(l3, c, views3)
            victims3 = plan3[1]
        else:
            plan3 = _plan_fill_g(l3, c, views3)
            if int(plan3[4][plan3[4].argmax()]) > a3:
                # An L3 set receives more lines than ways: some
                # victims would be batch lines, whose mid-batch
                # eviction the bulk update cannot replay.
                return False
            victims3 = plan3[8]
        victims_list = victims3.tolist()
    else:
        mixed = _plan_mixed_l3(l3, c, hit, views3, own_col, own_bit)
        if mixed is None:
            return False
        victims_list = mixed.victims
    inclusive = hierarchy._inclusive
    if inclusive and victims_list:
        # The L3 evicts its stalest lines while the private caches hold
        # the most recent ones, so in the streaming steady state every
        # victim precedes every private-resident line: two min/max
        # comparisons replace the hash scans.
        res1 = l1._resident
        res2 = l2._resident
        vmax = (int(victims3.max()) if mixed is None
                else max(victims_list))
        if ((res1 and vmax >= min(res1))
                or (res2 and vmax >= min(res2))):
            if not (res1.isdisjoint(victims_list)
                    and res2.isdisjoint(victims_list)):
                # Back-invalidating our own private caches mid-batch
                # would change their evolution; fall back.
                return False
    # -- all checks passed: mutate -------------------------------------
    consec12 = plan.consec
    # The one python-list rendering of the executed collapsed stream,
    # shared by the private-level scalar fills, the resident-set
    # updates, and the owner-record insert below.
    exec_list = plan.c_list
    if exec_list is None:
        exec_list = c.tolist()
    elif len(exec_list) != m:
        exec_list = exec_list[:m]
    miss_list = exec_list if mixed is None else None
    # Private levels are list-backed (see SetAssociativeCache): every
    # executed collapsed access misses them (classify proved the batch
    # disjoint from both resident sets), and their capacities are small
    # enough that scalar fills beat the numpy dispatch overhead.
    vector_fills = hierarchy._vector_fills
    cap1 = l1._num_sets * l1._assoc
    if consec12 and m >= cap1:
        ev1 = _fill_replace_py(l1, exec_list, m)
    elif m >= 2 * cap1:
        ev1 = _fill_dense(l1, c, exec_list, m)
    elif vector_fills and m >= _FILL_BATCH_MIN:
        ev1 = _fill_batch(l1, c, exec_list, m)
    else:
        ev1 = _fill_scalar(l1, exec_list)
    cap2 = l2._num_sets * l2._assoc
    if consec12 and m >= cap2:
        ev2 = _fill_replace_py(l2, exec_list, m)
    elif m >= 2 * cap2:
        ev2 = _fill_dense(l2, c, exec_list, m)
    elif vector_fills and m >= _FILL_BATCH_MIN:
        ev2 = _fill_batch(l2, c, exec_list, m)
    else:
        ev2 = _fill_scalar(l2, exec_list)
    l3_resident = l3._resident
    gained3 = 0
    vmasks3 = None
    vict_masks: list[int] = []
    if mixed is None:
        if own_col is not None:
            # The victims' owner masks sit in the slots the inserts
            # overwrite; gather before the scatter claims them.
            vmasks3 = own_col[plan3[5 if consec3 else 11]]
        if consec3:
            ev3 = _apply_l3_consec(l3, c, plan3, views3, miss_list)
            l3_resident.difference_update(victims_list)
            l3_resident.update(miss_list)
            if own_col is not None:
                own_col[plan3[0]] = own_bit
        else:
            ev3 = _apply_fill_g(l3, plan3, views3)
            if own_col is not None:
                # Every insertion survives (set counts capped at the
                # ways, checked above), so the scatter covers all slots.
                own_col[plan3[6]] = own_bit
    else:
        applied = _apply_mixed_l3(l3, mixed, views3, own_col, own_bit)
        gained3, vict_masks = applied
        ev3 = mixed.evictions
        miss_list = c[~hit].tolist()
        l3_resident.update(miss_list)
    del views3
    occupancy = hierarchy._occupancy
    nm3 = m - nh3
    if owner_arrays:
        # Same linearization as the dict walk below: hit sharers
        # first, victim pops second, miss inserts last (every
        # validated hit precedes any eviction of its line).  The bit
        # scatters already happened alongside the tag applies; what is
        # left is the occupancy/steal/back-invalidation fan-out.
        occupancy[core] += gained3
        if victims_list:
            if vmasks3 is not None:
                foreign = bool((vmasks3 & ~own_bit).any())
                vm_list = vmasks3.tolist() if foreign else None
                own_count = int(np.count_nonzero(vmasks3))
            else:
                merged = 0
                for mask in vict_masks:
                    merged |= mask
                foreign = bool(merged & ~own_bit)
                vm_list = vict_masks
                own_count = sum(1 for mask in vict_masks if mask)
            if not foreign:
                # Every victim was solely ours (or untracked): one
                # aggregate occupancy decrement, no steals, and — the
                # inclusive check above proved our own L1/L2 clean —
                # no back-invalidations.
                occupancy[core] -= own_count
            else:
                l1_caches = hierarchy.l1
                l2_caches = hierarchy.l2
                for victim, mask in zip(victims_list, vm_list):
                    owner = 0
                    while mask:
                        if mask & 1:
                            occupancy[owner] -= 1
                            if owner != core:
                                counters_all[owner].lines_stolen += 1
                                if inclusive:
                                    invalidated = (l2_caches[owner]
                                                   .invalidate(victim))
                                    invalidated |= (l1_caches[owner]
                                                    .invalidate(victim))
                                    if invalidated:
                                        counters_all[owner] \
                                            .back_invalidations += 1
                            # owner == core: only the decrement (the
                            # victim is absent from our own L1/L2).
                        mask >>= 1
                        owner += 1
        if miss_list:
            occupancy[core] += nm3
    else:
        owners_map = hierarchy._l3_owners
        if nh3:
            # Hit lines gain this core as a sharer.  Every validated
            # hit precedes any eviction of its line, so sharer updates
            # land before the victim pops below — the scalar
            # chronology.
            owners_get = owners_map.get
            for addr in c[hit].tolist():
                owners = owners_get(addr)
                if owners is not None and core not in owners:
                    owners.add(core)
                    occupancy[core] += 1
        pool: list = []
        if victims_list:
            popped = list(map(owners_map.pop, victims_list,
                              _it_repeat(())))
            merged = set().union(*popped)
            if not merged or merged == {core}:
                # Every victim was solely ours (or untracked): one
                # aggregate occupancy decrement, no steals, and the
                # popped {core} singletons are recycled for the new
                # lines below — the scalar walk's object reuse,
                # batched.  Each non-empty record is the {core}
                # singleton, so the pool length is also the occupancy
                # delta.
                pool = list(filter(None, popped))
                occupancy[core] -= len(pool)
            else:
                l1_caches = hierarchy.l1
                l2_caches = hierarchy.l2
                for victim, owners in zip(victims_list, popped):
                    for owner in owners:
                        occupancy[owner] -= 1
                        if owner != core:
                            counters_all[owner].lines_stolen += 1
                            if inclusive:
                                # The owner's caches are untouched by
                                # this batch, so the scalar
                                # invalidations land on exactly the
                                # state the sequential walk would have
                                # seen.
                                invalidated = (
                                    l2_caches[owner].invalidate(victim))
                                invalidated |= (
                                    l1_caches[owner].invalidate(victim))
                                if invalidated:
                                    counters_all[owner] \
                                        .back_invalidations += 1
                        # owner == core: the inclusive check above
                        # proved the victim is absent from our own
                        # L1/L2, so only the occupancy decrement
                        # applies.
        if miss_list:
            if len(pool) < nm3:
                pool.extend([{core} for _ in range(nm3 - len(pool))])
            owners_map.update(zip(miss_list, pool))
            occupancy[core] += nm3
    # -- flush batch-local deltas --------------------------------------
    nh1 = n_exec - m
    counters_core = counters_all[core]
    counters_core.l1_hits += nh1
    counters_core.l1_misses += m
    counters_core.l2_misses += m
    counters_core.l3_hits += nh3
    counters_core.l3_misses += nm3
    stats = l1.stats
    stats.hits += nh1
    stats.misses += m
    stats.fills += m
    stats.evictions += ev1
    stats = l2.stats
    stats.misses += m
    stats.fills += m
    stats.evictions += ev2
    stats = l3.stats
    stats.hits += nh3
    stats.misses += nm3
    stats.fills += nm3
    stats.evictions += ev3
    # Raise the monotone fill bounds (conservatively over the whole
    # executed stream; see SetAssociativeCache._max_tag).
    mx = exec_list[-1] if consec12 else int(c.max())
    if mx > l1._max_tag:
        l1._max_tag = mx
    if mx > l2._max_tag:
        l2._max_tag = mx
    if mx > l3._max_tag:
        l3._max_tag = mx
    return True
