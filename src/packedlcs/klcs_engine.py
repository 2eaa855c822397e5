"""k-mismatch LCS for constant k.

The driver doubles a length guess ell over [max(1, lcs), (k+1) lcs + k]; each
guess builds anchor sets (synchronizing positions plus misperiod-aligned
positions of highly periodic runs) and evaluates, over the anchored family of
(reversed-prefix, forward-window) pairs,

    max over k' of maxPairLCP_{k', k-k'}(U, V).

maxPairLCP_{k1,k2} reduces to plain maxPairLCP instances over families of
modified strings (a source fragment plus up to k substitutions):  a
k-complete family is generated level by level, guided by the heavy-light
decomposition of per-set compacted tries; pairs of complete families form a
bicomplete family via a budgeted batch product; delta-subset groups with
modification budgets remove double-counted mismatches; per batch the per-set
tries are merged under length-1 edges and solved with the general or the
(alpha, beta)-family solver.

Every reported sum is realized by a genuine pair of substrings at Hamming
distance <= k, so legs never overreport and the maximum over the schedule is
exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .text_core import PackedLcsError
from .suffix_index import SuffixIndex, build_compacted_trie
from .sync_runs import build_sync_set, find_tau_runs, misperiods
from .family_lcp import TwoFamiliesInstance, _RankLcp, max_pair_lcp_general
from .wavelet_lcp import solve_alpha_beta
from .lcs_engine import _Ctx, lcs


K_CAP = 4

# Testing hook: skip the leg cost dispatch and always run the family
# machinery on non-degenerate legs.
FORCE_FAMILY_LEGS = False


@dataclass(frozen=True)
class ModifiedString:
    """A source fragment (0-based start, length) of the reference text plus a
    sorted tuple of (1-based position, letter) substitutions."""

    start: int
    length: int
    delta: tuple = ()

    def validate(self, codes, k=None):
        prev = 0
        for pos, letter in self.delta:
            if not (prev < pos <= self.length):
                raise PackedLcsError(f"substitution position {pos} invalid")
            if int(codes[self.start + pos - 1]) == letter:
                raise PackedLcsError("substitution equals the source letter")
            prev = pos
        if k is not None and len(self.delta) > k:
            raise PackedLcsError("too many substitutions")


@dataclass
class FamilyCounters:
    family_total: int = 0  # total modified pairs across all product sets
    per_set_per_source_max: int = 0
    light_ancestors_max: int = 0
    batch_peak: int = 0  # largest in-flight accumulator (triples or 6-tuples)
    batch_slack: int = 0  # largest single-set addition (allowed overshoot)
    batch_budget: int = 0
    batches: int = 0
    solver_calls: int = 0

    def merge(self, other):
        self.family_total += other.family_total
        self.per_set_per_source_max = max(
            self.per_set_per_source_max, other.per_set_per_source_max
        )
        self.light_ancestors_max = max(
            self.light_ancestors_max, other.light_ancestors_max
        )
        self.batch_peak = max(self.batch_peak, other.batch_peak)
        self.batch_slack = max(self.batch_slack, other.batch_slack)
        self.batch_budget = max(self.batch_budget, other.batch_budget)
        self.batches += other.batches
        self.solver_calls += other.solver_calls


@dataclass
class KPairResult:
    value: int
    witness: tuple | None  # (index into U family, index into V family)
    counters: FamilyCounters = field(default_factory=FamilyCounters)


def _letter(codes, start, delta, pos):
    for p, c in delta:
        if p == pos:
            return c
    return int(codes[start + pos - 1])


def _lcp_k_frag(idx, a0, la, b0, lb, k):
    """Kangaroo lcp_k for fragments (0-based starts) of the indexed text."""
    cur, limit, mism = 0, min(la, lb), 0
    while cur < limit:
        t = min(idx.lce(a0 + cur + 1, b0 + cur + 1), limit - cur)
        cur += t
        if cur >= limit or mism == k:
            break
        mism += 1
        cur += 1
    return cur


def lcp_k(u, v, k):
    """Longest prefix-pair length of two strings at Hamming distance <= k."""
    if k < 0:
        raise PackedLcsError("k must be >= 0")
    a = u.encode() if isinstance(u, str) else bytes(u)
    b = v.encode() if isinstance(v, str) else bytes(v)
    mism = 0
    out = 0
    for x, y in zip(a, b):
        if x != y:
            mism += 1
            if mism > k:
                break
        out += 1
    return out


def is_maxpair(u, v, k, delta, nabla):
    """Check the (U,V)_k-maxpair conditions for modified strings over plain
    strings u, v with (1-based position, letter) substitution sets."""
    a = u.encode() if isinstance(u, str) else bytes(u)
    b = v.encode() if isinstance(v, str) else bytes(v)
    dd, nn = dict(delta), dict(nabla)
    lim = lcp_k(a, b, k)

    def mod(base, subs, i):
        return subs.get(i, base[i - 1] if i <= len(base) else None)

    for i in range(1, max(len(a), len(b)) + 1):
        ua = mod(a, dd, i)
        vb = mod(b, nn, i)
        if i <= lim and i <= min(len(a), len(b)) and a[i - 1] != b[i - 1]:
            if ua != vb:
                return False
        else:
            if i <= len(a) and ua != a[i - 1]:
                return False
            if i <= len(b) and vb != b[i - 1]:
                return False
    return True


def _lcp_modified(idx, codes, f1, d1, f2, d2):
    """LCP of two modified strings; O(k) LCE jumps."""
    (a0, la), (b0, lb) = f1, f2
    limit = min(la, lb)
    events = sorted({p for p, _ in d1} | {p for p, _ in d2})
    cur = 0
    for ev in events:
        if ev > limit:
            break
        span = ev - 1 - cur
        if span > 0:
            t = min(idx.lce(a0 + cur + 1, b0 + cur + 1), span)
            cur += t
            if t < span:
                return cur
        if _letter(codes, a0, d1, ev) != _letter(codes, b0, d2, ev):
            return cur
        cur = ev
    if cur < limit:
        cur += min(idx.lce(a0 + cur + 1, b0 + cur + 1), limit - cur)
    return cur


def _compare_tail(idx, codes, a0, la, b0, lb):
    """Lexicographic comparison of two plain text fragments."""
    t = min(idx.lce(a0 + 1, b0 + 1), la, lb) if la and lb else 0
    if t == min(la, lb):
        return (la > lb) - (la < lb)
    ca, cb = int(codes[a0 + t]), int(codes[b0 + t])
    return (ca > cb) - (ca < cb)


class _CompleteFamily:
    """Streamed k-complete family over source fragments of one text."""

    def __init__(self, idx, codes, fragments, k, counters):
        self.idx = idx
        self.codes = codes
        self.fragments = fragments  # list of (start0, length)
        self.k = k
        self.counters = counters

    # A set is (entries, order, lcps): entries = [(src, delta)], order a
    # permutation sorted lexicographically, lcps adjacent modified LCPs.

    def sets(self):
        base = [(i, ()) for i in range(len(self.fragments))]
        yield from self._levels(base, self.k)

    def _levels(self, entries, d):
        current = self._sort_set(entries)
        if d == 0:
            yield current
            return
        for child_entries in self._split(current):
            yield from self._levels(child_entries, d - 1)

    # -- even level: pivot-split sorting ---------------------------------

    def _sort_set(self, entries):
        m = len(entries)
        if m == 0:
            return entries, [], []
        piv = max(range(m), key=lambda i: (max((p for p, _ in entries[i][1]), default=0), -i))
        pf, pd = self._frag(entries[piv]), entries[piv][1]
        ls = [
            _lcp_modified(self.idx, self.codes, self._frag(e), e[1], pf, pd)
            for e in entries
        ]
        lens = [self._frag(e)[1] for e in entries]
        plen = lens[piv]
        less, equal, greater = [], [], []
        for i, e in enumerate(entries):
            l = ls[i]
            if l == lens[i] == plen:
                equal.append(i)
            elif l == lens[i] and lens[i] < plen:
                less.append(i)
            elif l == plen and plen < lens[i]:
                greater.append(i)
            else:
                a = _letter(self.codes, self._frag(e)[0], e[1], l + 1)
                b = _letter(self.codes, pf[0], pd, l + 1)
                (less if a < b else greater).append(i)

        def tail_cmp(i, j):
            l = min(ls[i], ls[j])
            fa, fb = self._frag(entries[i]), self._frag(entries[j])
            return _compare_tail(
                self.idx, self.codes, fa[0] + l, lens[i] - l, fb[0] + l, lens[j] - l
            )

        less.sort(key=lambda i: (ls[i],))
        greater.sort(key=lambda i: (-ls[i],))
        # Within one LCP bucket the remaining order is the plain-text tails'.
        for bucket_ids, keyfun in ((less, lambda i: ls[i]), (greater, lambda i: -ls[i])):
            start = 0
            while start < len(bucket_ids):
                end = start
                while end < len(bucket_ids) and keyfun(bucket_ids[end]) == keyfun(bucket_ids[start]):
                    end += 1
                chunk = sorted(bucket_ids[start:end], key=functools.cmp_to_key(tail_cmp))
                bucket_ids[start:end] = chunk
                start = end
        order = less + equal + greater
        lcps = [
            _lcp_modified(
                self.idx, self.codes,
                self._frag(entries[order[r]]), entries[order[r]][1],
                self._frag(entries[order[r + 1]]), entries[order[r + 1]][1],
            )
            for r in range(m - 1)
        ]
        return entries, order, lcps

    def _frag(self, entry):
        return self.fragments[entry[0]]

    # -- odd level: heavy-light split -------------------------------------

    def _split(self, current):
        entries, order, lcps = current
        if not entries:
            return
        lens = [self._frag(entries[i])[1] for i in order]
        trie = build_compacted_trie(lens, lcps, order)
        on, parent, end = trie.leaf_of_input, trie.parent, trie.subtree_end
        nc = trie.node_count()
        ids = np.arange(nc)
        # Ids are in preorder and entries sit on nodes in sorted order, so the
        # entries below v are those at sorted positions [below[v], below[end[v]]).
        below = np.zeros(nc + 1, dtype=np.int64)
        np.cumsum(np.bincount(on, minlength=nc), out=below[1:])
        leaf_count = below[end] - below[:-1]
        # Heavy child: the first child with the most entries below it.
        most = np.zeros(nc, dtype=np.int64)
        np.maximum.at(most, parent[1:], leaf_count[1:])
        tops = ids[1:][leaf_count[1:] == most[parent[1:]]]
        heavy = np.full(nc, nc)
        np.minimum.at(heavy, parent[tops], tops)
        light = np.ones(nc, dtype=bool)
        light[heavy[heavy < nc]] = False
        light_nodes = ids[light]

        def ancestors(mask):
            # Nodes of mask on the path from the root to every node.
            return np.cumsum(
                np.bincount(ids[mask], minlength=nc + 1)
                - np.bincount(end[mask], minlength=nc + 1)
            )[:nc]

        # Light-ancestor instrumentation: every leaf has at most
        # min(node height, ceil(log2 leaves)) + 1 light ancestors.
        log_bound = max(0, math.ceil(math.log2(len(entries)))) + 1
        cnt = ancestors(light)[on]
        if (cnt > np.minimum(ancestors(np.ones(nc, dtype=bool))[on], log_bound)).any():
            raise PackedLcsError("internal: heavy-light ancestor bound broken")
        self.counters.light_ancestors_max = max(
            self.counters.light_ancestors_max, int(cnt.max())
        )
        # h(w): deepest leaf on w's heavy path; its first entry gives its string.
        hw = np.where(heavy < nc, heavy, ids)
        while True:
            nxt = hw[hw]
            if np.array_equal(nxt, hw):
                break
            hw = nxt
        hw = hw[light_nodes]
        # The light nodes' position ranges, concatenated, and the LCP of each
        # entry there with h(w), from the leaf-rank LCP table.
        size = below[end[light_nodes]] - below[light_nodes]
        stop = np.cumsum(size)
        pos = np.repeat(below[light_nodes] - (stop - size), size) + np.arange(stop[-1])
        ells = _RankLcp(trie).lcp_many(
            trie.leaf_rank[on[pos]], trie.leaf_rank[np.repeat(hw, size)]
        ).tolist()
        order = np.asarray(order)
        sub, pivots, stop = order[pos].tolist(), order[below[hw]].tolist(), stop.tolist()
        for pivot, a, b in zip(pivots, [0] + stop[:-1], stop):
            pivot_entry = entries[pivot]
            pl = self._frag(pivot_entry)[1]
            child = []
            per_source = {}
            for ei, ell in zip(sub[a:b], ells[a:b]):
                src, delta = entries[ei]
                if delta and max(p for p, _ in delta) > ell:
                    continue
                child.append((src, delta))
                per_source[src] = per_source.get(src, 0) + 1
                flen = self._frag(entries[ei])[1]
                if flen > ell and pl > ell:
                    c = _letter(self.codes, self._frag(pivot_entry)[0], pivot_entry[1], ell + 1)
                    child.append((src, tuple(sorted(delta + ((ell + 1, c),)))))
                    per_source[src] = per_source[src] + 1
            if per_source:
                self.counters.per_set_per_source_max = max(
                    self.counters.per_set_per_source_max, max(per_source.values())
                )
            if child:
                yield child


def _bicomplete_batches(idx, codes, pairs, k1, k2, counters):
    """Stream the (k1,k2)-bicomplete family of `pairs` in budgeted batches.

    Yields lists of product sets; a product set is a list of 6-tuples
    (pair_idx, delta1, rank1, delta2, rank2) sharing one (set1, set2) origin,
    ordered by rank1 (the rank2 order is a stable re-sort away).
    """
    budget = len(codes) + len(pairs)
    counters.batch_budget = budget
    frags1 = [p[0] for p in pairs]
    frags2 = [p[1] for p in pairs]
    by_src1 = {}
    fam1 = _CompleteFamily(idx, codes, frags1, k1, counters)
    fam2 = _CompleteFamily(idx, codes, frags2, k2, counters)

    def flush_product(triples):
        # One batch of F1 triples: run the full F2 stream against it.
        six = []
        set2_id = 0
        for entries2, order2, _l2 in fam2.sets():
            before = len(six)
            for r2, ei in enumerate(order2):
                src, d2 = entries2[ei]
                for (d1, r1, s1) in triples.get(src, ()):
                    six.append((src, d1, r1, s1, d2, r2, set2_id))
            set2_id += 1
            counters.batch_slack = max(counters.batch_slack, len(six) - before)
            counters.batch_peak = max(counters.batch_peak, len(six))
            if len(six) >= budget:
                yield _group_six(six)
                six = []
        if six:
            yield _group_six(six)

    triples = {}
    total = 0
    set1_id = 0
    for entries1, order1, _l1 in fam1.sets():
        for r1, ei in enumerate(order1):
            src, d1 = entries1[ei]
            triples.setdefault(src, []).append((d1, r1, set1_id))
        counters.batch_slack = max(counters.batch_slack, len(order1))
        total += len(order1)
        counters.batch_peak = max(counters.batch_peak, total)
        set1_id += 1
        if total >= budget:
            counters.batches += 1
            yield from flush_product(triples)
            triples, total = {}, 0
    if total:
        counters.batches += 1
        yield from flush_product(triples)


def _group_six(six):
    groups = {}
    for t in six:
        groups.setdefault((t[3], t[6]), []).append(t)
    return list(groups.values())


def max_pair_lcp_k(text, u_pairs, v_pairs, k1, k2, ell, index=None):
    """maxPairLCP_{k1,k2} of two families of fragment pairs of one text.

    text: code array or bytes/str; fragment pairs are ((start, len), (start,
    len)) with 1-based starts.  Returns KPairResult with instrumentation.
    """
    codes = _as_codes(text)
    counters = FamilyCounters()
    if not u_pairs or not v_pairs:
        return KPairResult(0, None, counters)
    if index is None:
        index = SuffixIndex(codes)
    pairs = []
    origins = []
    for fam, tagv in ((u_pairs, 0), (v_pairs, 1)):
        for (s1, l1), (s2, l2) in fam:
            _check_frag(codes, s1, l1)
            _check_frag(codes, s2, l2)
            if l1 > ell or l2 > ell:
                raise PackedLcsError("fragment exceeds the (ell, ell) bound")
            pairs.append(((s1 - 1, l1), (s2 - 1, l2)))
            origins.append(tagv)
    n_u = len(u_pairs)

    best_val, best_wit = -1, None
    pool, pool_size = [], 0
    pool_cap = max(1, len(pairs))

    def flush_pool():
        nonlocal best_val, best_wit, pool, pool_size
        if not pool:
            return
        val, wit = _solve_merged(index, codes, pairs, pool, ell, len(pairs), counters)
        if wit is not None and val > best_val:
            best_val, best_wit = val, wit
        pool, pool_size = [], 0

    for batch in _bicomplete_batches(index, codes, pairs, k1, k2, counters):
        for gset in batch:
            counters.family_total += len(gset)
            for u_set, v_set in _delta_subset_groups(gset, origins, k1, k2):
                pool.append((u_set, v_set))
                pool_size += len(u_set) + len(v_set)
                if pool_size >= pool_cap:
                    flush_pool()
    flush_pool()
    # Defensive floor; the bicomplete guarantee means this never triggers.
    if best_wit is None:
        best_wit = (0, n_u)
        best_val = _direct_value(index, pairs[0], pairs[n_u], k1, k2)
    return KPairResult(best_val, (best_wit[0], best_wit[1] - n_u), counters)


def _direct_value(idx, pu, pv, k1, k2):
    (a1, la1), (a2, la2) = pu
    (b1, lb1), (b2, lb2) = pv
    return _lcp_k_frag(idx, a1, la1, b1, lb1, k1) + _lcp_k_frag(
        idx, a2, la2, b2, lb2, k2
    )


def _as_codes(text):
    if isinstance(text, (str, bytes, bytearray)):
        raw = text.encode() if isinstance(text, str) else bytes(text)
        return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    return np.asarray(text, dtype=np.int64)


def _check_frag(codes, start, length):
    if not (1 <= start and start + length - 1 <= len(codes) and length >= 0):
        raise PackedLcsError(f"fragment ({start}, {length}) out of range")


def _delta_subset_groups(gset, origins, k1, k2):
    """delta-subset grouping with modification budgets d1, d2."""
    subgroups = {}
    for t in gset:
        pair_idx, d1, r1, _s1, d2, r2, _s2 = t
        for m1 in range(1 << len(d1)):
            sub1 = tuple(d1[b] for b in range(len(d1)) if (m1 >> b) & 1)
            for m2 in range(1 << len(d2)):
                sub2 = tuple(d2[b] for b in range(len(d2)) if (m2 >> b) & 1)
                subgroups.setdefault((sub1, sub2), []).append(t)
    for (sub1, sub2), members in subgroups.items():
        for bd1 in range(k1 + 1):
            for bd2 in range(k2 + 1):
                u_set = [
                    t for t in members
                    if origins[t[0]] == 0 and len(t[1]) <= bd1 and len(t[4]) <= bd2
                ]
                v_set = [
                    t for t in members
                    if origins[t[0]] == 1
                    and len(t[1]) <= k1 + len(sub1) - bd1
                    and len(t[4]) <= k2 + len(sub2) - bd2
                ]
                if u_set and v_set:
                    yield u_set, v_set


def _solve_merged(idx, codes, pairs, pool, ell, n_bound, counters):
    """Merge the pooled (U', V') sets under length-1 edges and solve once.

    The per-set sorted orders come from the stored within-set ranks; the
    artificial length-1 edge letters are the pool indices j, so the
    concatenation of the j-sets in j order is itself sorted, with LCP 0 across
    set boundaries and 1 + modified-LCP inside one set."""
    counters.solver_calls += 1
    elems = []  # (j, pair_idx, origin_tag, d1, r1, d2, r2)
    for j, (u_set, v_set) in enumerate(pool):
        for t in u_set:
            elems.append((j, t[0], 0, t[1], t[2], t[4], t[5]))
        for t in v_set:
            elems.append((j, t[0], 1, t[1], t[2], t[4], t[5]))

    def build_side(coord, rank_pos, delta_pos):
        order = sorted(
            range(len(elems)), key=lambda i: (elems[i][0], elems[i][rank_pos], i)
        )
        lengths, lcps = [], []
        for r, i in enumerate(order):
            e = elems[i]
            f = pairs[e[1]][coord]
            lengths.append(f[1] + 1)
            if r:
                p = elems[order[r - 1]]
                if p[0] != e[0]:
                    lcps.append(0)
                else:
                    fp = pairs[p[1]][coord]
                    lcps.append(
                        1 + _lcp_modified(idx, codes, fp, p[delta_pos], f, e[delta_pos])
                    )
        trie = build_compacted_trie(lengths, lcps, order)
        leaf = np.empty(len(elems), dtype=np.int64)
        leaf[order] = trie.leaf_of_input
        return trie, leaf

    trie1, leaf1 = build_side(0, 4, 3)
    trie2, leaf2 = build_side(1, 6, 5)
    in_q = np.array([e[2] for e in elems], dtype=bool)
    pair_of = np.array([e[1] for e in elems])
    p_ids, q_ids = pair_of[~in_q].tolist(), pair_of[in_q].tolist()
    both = np.stack([leaf1, leaf2], axis=1)
    inst = TwoFamiliesInstance(trie1, trie2, both[~in_q], both[in_q])
    if ell > max(1.0, math.log2(max(2, n_bound))) ** 1.5:
        res = max_pair_lcp_general(inst)
    else:
        res = solve_alpha_beta(inst, ell + 1, ell + 1)
    if res.witness is None or res.value < 2:
        return 0, None
    pi, qi = res.witness
    return res.value - 2, (p_ids[pi], q_ids[qi])


def build_complete_family(text, fragments, k, index=None):
    """Stream the sets of a k-complete family for text fragments.

    fragments: list of (start, length) with 1-based starts.  Yields one list
    per set, lexicographically sorted, of (fragment_index, delta) entries.
    """
    codes = _as_codes(text)
    if index is None:
        index = SuffixIndex(codes)
    frags0 = []
    for s, l in fragments:
        _check_frag(codes, s, l)
        frags0.append((s - 1, l))
    counters = FamilyCounters()
    fam = _CompleteFamily(index, codes, frags0, k, counters)
    for entries, order, _lcps in fam.sets():
        yield [entries[i] for i in order]


def build_bicomplete_family(text, pairs, k1, k2, index=None, counters=None):
    """Stream batches of the (k1,k2)-bicomplete family of fragment pairs.

    pairs: ((start, len), (start, len)) with 1-based starts.  Yields batches;
    each batch is a list of sets; each set is a list of
    (pair_index, delta1, rank1, delta2, rank2) tuples ordered by rank1.
    """
    codes = _as_codes(text)
    if index is None:
        index = SuffixIndex(codes)
    pairs0 = []
    for (s1, l1), (s2, l2) in pairs:
        _check_frag(codes, s1, l1)
        _check_frag(codes, s2, l2)
        pairs0.append(((s1 - 1, l1), (s2 - 1, l2)))
    if counters is None:
        counters = FamilyCounters()
    for batch in _bicomplete_batches(index, codes, pairs0, k1, k2, counters):
        yield [
            [(t[0], t[1], t[2], t[4], t[5]) for t in gset] for gset in batch
        ]


# -- anchors -----------------------------------------------------------------


def _y_codes(ctx):
    """#S$T with two distinct below-letter sentinels."""
    return np.concatenate(
        [[0], ctx.s_codes + 2, [1], ctx.t_codes + 2]
    ).astype(np.int64)


def klcs_anchors(s, t, ell, k):
    """Anchor sets (A_S, A_T) of 1-based positions; for any pair of
    substrings at Hamming distance <= k with length in (ell/2, ell], some
    common shift lands in both sets.  Degenerate small ell yields all
    positions (exact dense mode)."""
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    if ell < 1 or k < 0:
        raise PackedLcsError("need ell >= 1 and k >= 0")
    a_s, a_t, _dense = _klcs_anchor_sets(ctx, ell, k)
    return a_s, a_t


def _klcs_anchor_sets(ctx, ell, k):
    tau = ell // (6 * (k + 1))
    y = _y_codes(ctx)
    if tau < 3 or tau > len(y) // 2:
        return (
            np.arange(1, ctx.ns + 1, dtype=np.int64),
            np.arange(1, ctx.nt + 1, dtype=np.int64),
            True,
        )
    positions = set(int(p) for p in build_sync_set(y, tau).positions)
    runs = find_tau_runs(y, tau)
    for start, p, q in zip(runs.start.tolist(), runs.period.tolist(), runs.lyndon_start.tolist()):
        mp = misperiods(y, start, start + p, k + 1)
        for x in mp.left:
            r = q % p
            first = x + 1 + ((r - (x + 1)) % p)
            for a in (first, first + p):
                if a <= len(y):
                    positions.add(a)
        for a in mp.left + mp.right:
            positions.add(a)
    a_s = sorted(a - 1 for a in positions if 2 <= a <= ctx.ns + 1)
    a_t = sorted(a - ctx.ns - 2 for a in positions if ctx.ns + 3 <= a <= len(y))
    return (
        np.array(a_s, dtype=np.int64),
        np.array(a_t, dtype=np.int64),
        False,
    )


# -- driver ------------------------------------------------------------------


@dataclass
class KlcsResult:
    length: int
    pos_s: int
    pos_t: int
    mismatches: tuple  # 1-based offsets within the witness
    counters: FamilyCounters = field(default_factory=FamilyCounters)


def _vec_lcp_k(idx, a0, la, b0, lb, k):
    """Vectorized kangaroo lcp_k over fragment arrays (0-based starts)."""
    n = idx.n
    cur = np.zeros(len(a0), dtype=np.int64)
    limit = np.minimum(la, lb)
    for round_no in range(k + 1):
        pa = np.minimum(a0 + cur, n - 1) + 1
        pb = np.minimum(b0 + cur, n - 1) + 1
        step = idx.lce_bulk(pa, pb)
        cur = np.minimum(cur + step, limit)
        if round_no < k:
            cur = np.where(cur < limit, cur + 1, cur)
    return np.minimum(cur, limit)


_BRUTE_CHUNK = 1 << 16


def _brute_pairs_leg(ctx, pos_s, pos_t, ell, k):
    """Brute maxPairLCP over the cross product of anchor positions with
    ell-capped extensions (vectorized kangaroo, chunked)."""
    idx = ctx.index()
    if idx._rank_tables is None:
        idx._rank_tables = idx._build_rank_tables()
    comb = ctx.combined()
    ns, nt = ctx.ns, ctx.nt
    best = (0, 1, 1)
    rows = max(1, _BRUTE_CHUNK // max(1, len(pos_t)))
    for lo in range(0, len(pos_s), rows):
        a = np.repeat(pos_s[lo : lo + rows], len(pos_t))
        b = np.tile(pos_t, len(pos_s[lo : lo + rows]))
        la_back = np.minimum(ell, a - 1)
        lb_back = np.minimum(ell, b - 1)
        la_fwd = np.minimum(ell, ns - a + 1)
        lb_fwd = np.minimum(ell, nt - b + 1)
        rev_s0 = comb.offsets["S_rev"] - 1 + (ns - a + 1)
        rev_t0 = comb.offsets["T_rev"] - 1 + (nt - b + 1)
        fwd_s0 = comb.offsets["S"] - 1 + (a - 1)
        fwd_t0 = comb.offsets["T"] - 1 + (b - 1)
        backs = [
            _vec_lcp_k(idx, rev_s0, la_back, rev_t0, lb_back, kk)
            for kk in range(k + 1)
        ]
        fwds = [
            _vec_lcp_k(idx, fwd_s0, la_fwd, fwd_t0, lb_fwd, kk)
            for kk in range(k + 1)
        ]
        for kk in range(k + 1):
            val = backs[kk] + fwds[k - kk]
            i = int(np.argmax(val))
            v = int(val[i])
            if v > best[0]:
                lam = int(backs[kk][i])
                best = (v, int(a[i]) - lam, int(b[i]) - lam)
    return best


def _dense_leg(ctx, ell, k):
    """Degenerate-anchor leg: all positions, brute maxPairLCP evaluation."""
    return _brute_pairs_leg(
        ctx,
        np.arange(1, ctx.ns + 1, dtype=np.int64),
        np.arange(1, ctx.nt + 1, dtype=np.int64),
        ell,
        k,
    )


def _family_leg(ctx, a_s, a_t, ell, k, counters):
    comb = ctx.combined()
    codes = comb.codes()
    idx = ctx.index()
    ns, nt = ctx.ns, ctx.nt

    def fam(points, n_len, off_fwd, off_rev):
        out = []
        for p in points:
            p = int(p)
            l1 = min(ell, p - 1)
            l2 = min(ell, n_len - p + 1)
            rev0 = off_rev - 1 + (n_len - p + 1)
            fwd0 = off_fwd - 1 + (p - 1)
            out.append(((rev0 + 1, l1), (fwd0 + 1, l2)))
        return out

    u_pairs = fam(a_s, ns, comb.offsets["S"], comb.offsets["S_rev"])
    v_pairs = fam(a_t, nt, comb.offsets["T"], comb.offsets["T_rev"])
    best = None
    for kk in range(k + 1):
        res = max_pair_lcp_k(codes, u_pairs, v_pairs, kk, k - kk, ell, index=idx)
        counters.merge(res.counters)
        if res.witness is not None and (best is None or res.value > best[0]):
            ui, vi = res.witness
            a = int(a_s[ui])
            b = int(a_t[vi])
            (r1, l1), _ = u_pairs[ui]
            (r2, l2), _ = v_pairs[vi]
            lam = _lcp_k_frag(idx, r1 - 1, l1, r2 - 1, l2, kk)
            best = (res.value, a - lam, b - lam)
    return best


def klcs(s, t, k):
    """Exact k-mismatch LCS with witness positions and mismatch offsets."""
    if not 0 <= k <= K_CAP:
        raise PackedLcsError(
            f"k={k} exceeds the supported cap {K_CAP}; use oracles.klcs_dp"
        )
    base = lcs(s, t)
    ctx = _Ctx(s, t)
    counters = FamilyCounters()
    if ctx.ns == 0 or ctx.nt == 0:
        return KlcsResult(0, 1, 1, (), counters)
    if k == 0:
        return KlcsResult(base.length, base.pos_s, base.pos_t, (), counters)
    d = base.length
    lo = max(1, d)
    hi = min((k + 1) * d + k, min(ctx.ns, ctx.nt))
    ells = [lo]
    while ells[-1] < hi:
        ells.append(ells[-1] * 2)
    best = (d, base.pos_s, base.pos_t)
    dense_done = False
    for ell in ells:
        a_s, a_t, dense = _klcs_anchor_sets(ctx, ell, k)
        if dense or len(a_s) == 0 or len(a_t) == 0:
            if dense_done:
                continue
            cand = _dense_leg(ctx, min(ells[-1], min(ctx.ns, ctx.nt)), k)
            dense_done = True
        else:
            # Cost dispatch: the modified-string machinery wins once the
            # family blowup N (2 min(ell, log N))^k undercuts the quadratic
            # anchored brute; at desk sizes with k large the brute evaluation
            # of the same leg value is the faster exact route.
            n_anch = len(a_s) + len(a_t)
            log_n = max(1, math.ceil(math.log2(max(2, n_anch))))
            est_family = n_anch * (2 * min(ell, log_n)) ** k
            if not FORCE_FAMILY_LEGS and est_family * 4 > ctx.ns * ctx.nt:
                cand = _brute_pairs_leg(ctx, a_s, a_t, ell, k)
            else:
                cand = _family_leg(ctx, a_s, a_t, ell, k, counters)
        if cand is not None and cand[0] > best[0]:
            best = cand
    length, ps, pt = best
    mism = tuple(
        off + 1
        for off in range(length)
        if ctx.s_codes[ps - 1 + off] != ctx.t_codes[pt - 1 + off]
    )
    if len(mism) > k:
        raise PackedLcsError("internal: witness exceeds the mismatch budget")
    return KlcsResult(length, ps, pt, mism, counters)
