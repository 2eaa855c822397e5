"""The Two String Families LCP Problem.

Given compacted tries over families F1, F2 and two sets P, Q of pairs whose
components are leaves of those tries, compute

    maxPairLCP(P, Q) = max{ LCP(P1, Q1) + LCP(P2, Q2) :
                            (P1, P2) in P, (Q1, Q2) in Q }.

Two solvers are provided:

* ``max_pair_lcp_general``: small-to-large over the first trie, in batch.
  With the elements ordered by first-component leaf rank, every trie node
  owns a contiguous range of them; its probes are the range's elements
  outside its heaviest child (the elements a smaller-into-larger merge would
  move there).  Each probe takes its nearest other-origin second-component
  rank neighbours within the node's whole range from a merge-sort tree over
  that order (one level at a time, one ``searchsorted`` per level); a
  candidate is the node's string depth plus the LCP of the two second
  components.  O(N log^2 N); the probe count is ``merged_elements``.

* ``max_pair_lcp_prefix``: linear-style solver valid when all first
  components are prefixes of one common string.  P cup Q is ordered by second
  component; elements are processed by non-decreasing first-component length
  while deleted slots skip to their nearest live neighbour (path-compressed),
  so each element sees its nearest other-origin neighbours with first
  component at least as long.

Component LCPs are rank-interval minima over the adjacent-leaf LCP array of a
trie (equivalent to LCA string depths), read from a numpy sparse table one
query or one array of queries at a time.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .text_core import PackedLcsError
from .suffix_index import SparseRmq, build_compacted_trie


@dataclass
class PairLcpResult:
    value: int
    witness: tuple | None  # (index into P, index into Q)
    merged_elements: int = 0


def _int_dtype(bound):
    return np.int32 if bound < 2**31 else np.int64


class _RankLcp:
    """LCP between ranked trie nodes given their ranks: range minima over
    the adjacent-rank LCPs."""

    def __init__(self, trie):
        self.depth = trie.depth[trie.leaf_at_rank]
        self.rmq = SparseRmq(trie.adjacent_leaf_lcp)

    def lcp(self, ra, rb):
        if ra == rb:
            return int(self.depth[ra])
        return self.rmq.query(min(ra, rb), max(ra, rb))

    def lcp_many(self, ra, rb):
        """Element-wise lcp over two rank arrays, in the table's dtype."""
        ra, rb = np.asarray(ra, dtype=np.int64), np.asarray(rb, dtype=np.int64)
        lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
        return np.where(lo == hi, self.depth[lo], self.rmq.query_many(lo, hi))


class TwoFamiliesInstance:
    """Tries of F1 and F2 plus P and Q as (leaf1, leaf2) pairs.

    p_elems and q_elems are int arrays of shape (|P|, 2) and (|Q|, 2); r1 and
    r2 hold the leaf ranks of the first and second components of P's elements
    followed by Q's.
    """

    def __init__(self, trie1, trie2, p_elems, q_elems):
        self.trie1 = trie1
        self.trie2 = trie2
        self.p_elems = np.asarray(p_elems, dtype=np.int64).reshape(-1, 2)
        self.q_elems = np.asarray(q_elems, dtype=np.int64).reshape(-1, 2)
        leaves = np.concatenate([self.p_elems, self.q_elems])
        self.r1 = self._ranks(trie1, leaves[:, 0])
        self.r2 = self._ranks(trie2, leaves[:, 1])

    @staticmethod
    def _ranks(trie, nodes):
        if nodes.size and (nodes.min() < 0 or nodes.max() >= trie.node_count()):
            raise PackedLcsError("pair component is not a trie node")
        # int64: the general solver codes a rank times the element count.
        ranks = trie.leaf_rank[nodes].astype(np.int64)
        if (ranks < 0).any():
            raise PackedLcsError("pair component is not a ranked trie node")
        return ranks

    def first_lcp(self, pi, qi):
        """LCP of the first components of P[pi] and Q[qi]."""
        return self.lcp1.lcp(int(self.r1[pi]), int(self.r1[len(self.p_elems) + qi]))

    @cached_property
    def lcp2(self):
        return _RankLcp(self.trie2)

    @cached_property
    def lcp1(self):
        return self.lcp2 if self.trie1 is self.trie2 else _RankLcp(self.trie1)


def _best_pair(values, a, b, n_p):
    """(largest value, witness) over candidate pairs of element ids a, b of
    different origins; ties go to the smallest (P index, Q index)."""
    if values.size == 0:
        return 0, None
    p, q = np.minimum(a, b), np.maximum(a, b) - n_p
    top = values.max()
    at = np.flatnonzero(values == top)
    k = at[np.lexsort((q[at], p[at]))[0]]
    return int(top), (int(p[k]), int(q[k]))


def _probes(inst, dt):
    """Small-to-large probes over the first trie.

    With the elements in first-rank order, a node owns the range [lo, hi) of
    that order; its probes are the positions outside its heaviest child's
    range (the leftmost heaviest on ties), which covers the elements attached
    at the node itself.  Returns (order, probe positions in order, node of
    each probe, lo, hi).
    """
    trie1 = inst.trie1
    n_nodes = trie1.node_count()
    order = np.argsort(inst.r1, kind="stable")
    r1_sorted = inst.r1[order]
    lo_rank, end_rank = trie1.rank_spans()
    lo = np.searchsorted(r1_sorted, lo_rank, "left").astype(dt)
    hi = np.searchsorted(r1_sorted, end_rank, "left").astype(dt)
    del lo_rank, end_rank, r1_sorted
    # Heaviest child per node: its element count and the start of its range.
    # A node with no elements below any child keeps the empty range [hi, hi).
    count = hi - lo
    parent = trie1.parent[1:]
    heavy = np.zeros_like(count)
    np.maximum.at(heavy, parent, count[1:])
    top = np.flatnonzero((count[1:] == heavy[parent]) & (count[1:] > 0))
    heavy_lo = hi.copy()
    np.minimum.at(heavy_lo, parent[top], lo[top + 1])
    del parent, top, count
    # Segments [lo, heavy_lo) and [heavy_lo + heavy, hi), expanded.
    seg_start = np.concatenate([lo, heavy_lo + heavy])
    seg_len = np.concatenate([heavy_lo - lo, hi - heavy_lo - heavy])
    del heavy, heavy_lo
    live = np.flatnonzero(seg_len)
    seg_start, seg_len = seg_start[live], seg_len[live]
    node = np.repeat((live % n_nodes).astype(dt), seg_len)
    shift = seg_start - (np.cumsum(seg_len, dtype=np.int64) - seg_len)
    pos = np.arange(node.size, dtype=dt) + np.repeat(shift.astype(dt), seg_len)
    return order, pos, node, lo, hi


def max_pair_lcp_general(inst):
    """Exact maxPairLCP by batched small-to-large probes over the first trie."""
    n_p, n_q = len(inst.p_elems), len(inst.q_elems)
    if not n_p or not n_q:
        return PairLcpResult(0, None, 0)
    n_all = n_p + n_q
    dt = _int_dtype(4 * n_all + 4)
    order, pos, node, lo, hi = _probes(inst, dt)
    merged = pos.size

    # Merge-sort tree: Q's elements in rank-1 order at positions [0, n_q), P's
    # at [off, off + n_p), off a power of two > n_q, so no block of any level
    # straddles the two.  A probe of P queries Q's positions and vice versa:
    # ends[:, i] is that query range for probe i.
    levels = max(n_p, n_q).bit_length()
    off = 1 << levels
    in_p = order < n_p
    seen_p = np.zeros(n_all + 1, dtype=dt)
    np.cumsum(in_p, out=seen_p[1:])
    seen_q = np.arange(n_all + 1, dtype=dt) - seen_p
    tree_pos = np.where(in_p, seen_p[:-1] + off, seen_q[:-1]).astype(np.int64)
    probe = order[pos].astype(dt)
    from_p = probe < n_p
    ends = np.empty((2, merged), dtype=dt)
    for row, bound in enumerate((lo, hi)):
        at = bound[node]
        ends[row] = np.where(from_p, seen_q[at], seen_p[at] + off)
    depth = inst.trie1.depth[node]
    # Arrays go as soon as they are used: probes number O(N log N).
    del pos, node, lo, hi, from_p, at, seen_p, seen_q, in_p
    # Longest query ranges first: a range covers a whole level-L block only if
    # it holds at least 2^L positions, so each level works on a prefix.
    neg_span = ends[0] - ends[1]
    by_span = np.argsort(neg_span)
    neg_span, ends, probe, depth = (
        neg_span[by_span], ends[:, by_span], probe[by_span], depth[by_span]
    )
    del by_span

    r2 = inst.r2
    r2_probe = r2[probe]
    width = int(r2.max()) + 1
    none = width * n_all
    # Best r2 * n_all + element id strictly below / at or above the probe's r2.
    pred = np.full(merged, -1, dtype=np.int64)
    succ = np.full(merged, none, dtype=np.int64)
    tree = np.argsort(tree_pos)
    r2_tree = r2[order]
    code_tree = r2_tree * n_all + order
    for level in range(levels + 1):
        act = int(np.searchsorted(neg_span, -(1 << level), "right"))
        if not act:
            break
        # Blocks of 2^level positions, each sorted by r2: the previous
        # level's order is a run of sorted pairs of blocks, merged stably.
        keys = (tree_pos[tree] >> level) * width + r2_tree[tree]
        step = np.argsort(keys, kind="stable")
        tree, keys = tree[step], keys[step]
        codes = code_tree[tree]
        a, b = -(-ends[0, :act] >> level), ends[1, :act] >> level
        inside = a < b
        for sel, block in (
            (np.flatnonzero(inside & (a & 1 == 1)), a),
            (np.flatnonzero(inside & (b & 1 == 1)), b - 1),
        ):
            base = block[sel].astype(np.int64) * width
            target = base + r2_probe[sel]
            # Sorted queries search several times faster than scattered ones.
            by_target = np.argsort(target)
            q = np.empty_like(by_target)
            q[by_target] = np.searchsorted(keys, target[by_target])
            at = np.minimum(q, keys.size - 1)
            ok = (q < keys.size) & (keys[at] < base + width)
            succ[sel] = np.minimum(succ[sel], np.where(ok, codes[at], none))
            at = np.maximum(q - 1, 0)
            ok = (q > 0) & (keys[at] >= base)
            pred[sel] = np.maximum(pred[sel], np.where(ok, codes[at], -1))
    del ends, neg_span, tree_pos, tree, keys, codes, step

    best_value, best_witness = -1, None
    for code in (pred, succ):
        hit = np.flatnonzero((code >= 0) & (code < none))
        if not hit.size:
            continue
        values = inst.lcp2.lcp_many(r2_probe[hit], code[hit] // n_all)
        values = depth[hit].astype(np.int64) + values
        top = values == values.max()
        hit = hit[top]
        value, witness = _best_pair(values[top], probe[hit], code[hit] % n_all, n_p)
        if value > best_value or (value == best_value and witness < best_witness):
            best_value, best_witness = value, witness
    return PairLcpResult(best_value, best_witness, merged)


class _SkipList:
    """Live-position predecessor/successor over a fixed sorted position list,
    with deleted slots skipping to their nearest live neighbour."""

    def __init__(self, positions):
        self.positions = positions
        n = len(positions)
        self.left = list(range(n))  # left[i] = nearest live index <= i (approx)
        self.right = list(range(n))
        self.alive = [True] * n

    def _find_left(self, i):
        path = []
        while i >= 0 and not self.alive[i]:
            path.append(i)
            i = self.left[i]
        for p in path:
            self.left[p] = i
        return i

    def _find_right(self, i):
        n = len(self.alive)
        path = []
        while i < n and not self.alive[i]:
            path.append(i)
            i = self.right[i]
        for p in path:
            self.right[p] = i
        return i

    def pred(self, pos):
        i = self._find_left(bisect.bisect_left(self.positions, pos) - 1)
        return self.positions[i] if i >= 0 else None

    def succ(self, pos):
        i = self._find_right(bisect.bisect_left(self.positions, pos))
        return self.positions[i] if i < len(self.alive) else None

    def delete(self, pos):
        i = bisect.bisect_left(self.positions, pos)
        self.alive[i] = False
        self.left[i] = i - 1
        self.right[i] = i + 1


def max_pair_lcp_prefix(inst, spot_check=True):
    """maxPairLCP for instances whose first components form a prefix family."""
    n_p, n_q = len(inst.p_elems), len(inst.q_elems)
    if not n_p or not n_q:
        return PairLcpResult(0, None, 0)
    r1, r2 = inst.r1, inst.r2
    len1 = inst.lcp1.depth[r1]
    if spot_check:
        _assert_prefix_family(inst, len1)
    # R: union ordered by second component (rank2), ties by element id.
    order = np.argsort(r2, kind="stable")
    in_p = order < n_p
    skip = (
        _SkipList(np.flatnonzero(in_p).tolist()),
        _SkipList(np.flatnonzero(~in_p).tolist()),
    )
    pos_of = np.empty_like(order)
    pos_of[order] = np.arange(order.size)
    pos_of, order_list = pos_of.tolist(), order.tolist()

    ours, theirs = [], []
    by_len = np.argsort(len1, kind="stable")
    for group in np.split(by_len, np.flatnonzero(np.diff(len1[by_len])) + 1):
        group = group.tolist()
        for uid in group:
            other = skip[0 if uid >= n_p else 1]
            p = pos_of[uid]
            for zpos in (other.pred(p), other.succ(p)):
                if zpos is not None:
                    ours.append(uid)
                    theirs.append(order_list[zpos])
        for uid in group:
            skip[0 if uid < n_p else 1].delete(pos_of[uid])
    ours, theirs = np.array(ours, dtype=np.int64), np.array(theirs, dtype=np.int64)
    values = inst.lcp1.lcp_many(r1[ours], r1[theirs]) + inst.lcp2.lcp_many(
        r2[ours], r2[theirs]
    )
    value, witness = _best_pair(values, ours, theirs, n_p)
    return PairLcpResult(value, witness, 0)


def _assert_prefix_family(inst, len1):
    import random

    rng = random.Random(0x5EED)
    m = len(len1)
    picks = [(rng.randrange(m), rng.randrange(m)) for _ in range(min(32, m * m))]
    a, b = np.array(picks, dtype=np.int64).T
    got = inst.lcp1.lcp_many(inst.r1[a], inst.r1[b])
    want = np.minimum(len1[a], len1[b])
    bad = np.flatnonzero(got != want)
    if bad.size:
        k = bad[0]
        raise PackedLcsError(
            "first components do not form a prefix family "
            f"(LCP {got[k]} != min length {want[k]})"
        )


# -- plain-string construction (tests, oracles, small instances) -----------


def _naive_lcp(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _trie_over(strings):
    order = sorted(range(len(strings)), key=lambda i: strings[i])
    lengths = [len(strings[i]) for i in order]
    lcps = [
        _naive_lcp(strings[order[r]], strings[order[r + 1]])
        for r in range(len(order) - 1)
    ]
    trie = build_compacted_trie(lengths, lcps, payload_ids=order)
    leaf_by_elem = np.empty(len(strings), dtype=np.int64)
    leaf_by_elem[order] = trie.leaf_of_input
    return trie, leaf_by_elem


def instance_from_pairs(p_pairs, q_pairs):
    """Build a TwoFamiliesInstance from plain (first, second) string pairs."""
    elems = list(p_pairs) + list(q_pairs)
    trie1, leaf1 = _trie_over([e[0] for e in elems])
    trie2, leaf2 = _trie_over([e[1] for e in elems])
    np_ = len(p_pairs)
    p_elems = [(leaf1[i], leaf2[i]) for i in range(np_)]
    q_elems = [(leaf1[np_ + i], leaf2[np_ + i]) for i in range(len(q_pairs))]
    return TwoFamiliesInstance(trie1, trie2, p_elems, q_elems)
