"""The Two String Families LCP Problem.

Given compacted tries over families F1, F2 and two sets P, Q of pairs whose
components are leaves of those tries, compute

    maxPairLCP(P, Q) = max{ LCP(P1, Q1) + LCP(P2, Q2) :
                            (P1, P2) in P, (Q1, Q2) in Q }.

Two solvers are provided:

* ``max_pair_lcp_general``: bottom-up traversal of the first trie keeping,
  per node, ordered per-origin element sets keyed by second-component leaf
  rank, merged smaller-into-larger.  Each insertion probes its other-origin
  rank neighbours; a candidate is the node's string depth plus the LCP of the
  probed second components.  O(N log^2 N) with an instrumented merge counter.

* ``max_pair_lcp_prefix``: linear-style solver valid when all first
  components are prefixes of one common string.  P cup Q is ordered by second
  component; elements are processed by non-decreasing first-component length
  while deleted slots skip to their nearest live neighbour (path-compressed),
  so each element sees its nearest other-origin neighbours with first
  component at least as long.

Second-component LCPs are evaluated through rank-interval minima over the
adjacent-leaf LCP array of the trie (equivalent to LCA string depths).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .text_core import PackedLcsError
from .suffix_index import build_compacted_trie


@dataclass
class PairLcpResult:
    value: int
    witness: tuple | None  # (index into P, index into Q)
    merged_elements: int = 0


def _build_sparse(values):
    tables = [list(values)]
    j = 1
    n = len(values)
    while (1 << j) <= n:
        prev = tables[-1]
        half = 1 << (j - 1)
        tables.append(
            [min(prev[i], prev[i + half]) for i in range(n - (1 << j) + 1)]
        )
        j += 1
    return tables


class _RankLcp:
    """LCP between leaves given their ranks, via adjacent-leaf minima."""

    def __init__(self, trie):
        self.depth = [trie.depth[leaf] for leaf in trie.leaf_at_rank]
        self.tables = _build_sparse(trie.adjacent_leaf_lcp)

    def lcp(self, ra, rb):
        if ra == rb:
            return self.depth[ra]
        if ra > rb:
            ra, rb = rb, ra
        j = (rb - ra).bit_length() - 1
        t = self.tables[j]
        a = t[ra]
        b = t[rb - (1 << j)]
        return a if a < b else b


class TwoFamiliesInstance:
    """Tries of F1 and F2 plus P and Q as (leaf1, leaf2) pairs."""

    def __init__(self, trie1, trie2, p_elems, q_elems):
        self.trie1 = trie1
        self.trie2 = trie2
        self.p_elems = list(p_elems)
        self.q_elems = list(q_elems)
        for leaf1, leaf2 in self.p_elems + self.q_elems:
            if not 0 <= leaf1 < trie1.node_count() or not 0 <= leaf2 < trie2.node_count():
                raise PackedLcsError("pair component is not a trie node")
        self.n_bound = max(
            len(self.p_elems), len(self.q_elems),
            len(trie1.leaf_at_rank), len(trie2.leaf_at_rank),
        )
        self.lcp1 = _RankLcp(trie1)
        self.lcp2 = _RankLcp(trie2)

    def elements(self):
        """Uniform element records: (uid, origin, index, leaf1, leaf2)."""
        out = []
        for i, (l1, l2) in enumerate(self.p_elems):
            out.append((len(out), 0, i, l1, l2))
        for i, (l1, l2) in enumerate(self.q_elems):
            out.append((len(out), 1, i, l1, l2))
        return out


def _ordered_witness(origin_a, idx_a, origin_b, idx_b):
    if origin_a == origin_b:
        return None
    return (idx_a, idx_b) if origin_a == 0 else (idx_b, idx_a)


class _Best:
    __slots__ = ("value", "witness")

    def __init__(self):
        self.value = 0
        self.witness = None

    def offer(self, value, witness):
        if witness is None:
            return
        if value > self.value or (
            value == self.value
            and (self.witness is None or witness < self.witness)
        ):
            self.value = value
            self.witness = witness


def max_pair_lcp_general(inst):
    """Exact maxPairLCP by mergeable ordered sets over the first trie."""
    if not inst.p_elems or not inst.q_elems:
        return PairLcpResult(0, None, 0)
    trie1 = inst.trie1
    lcp2 = inst.lcp2

    m_total = len(inst.p_elems) + len(inst.q_elems)
    by_leaf = {}
    # Encoded element key: rank2 * m_total + uid (unique, rank-ordered).
    meta = []  # uid -> (origin, index, rank2)
    for uid, origin, idx, _l1, l2 in inst.elements():
        r2 = inst.trie2.leaf_rank[l2]
        meta.append((origin, idx, r2))
        leaf1 = (inst.p_elems if origin == 0 else inst.q_elems)[idx][0]
        by_leaf.setdefault(leaf1, []).append(uid)

    best = _Best()
    merged = 0

    def probe(lists, origin, idx, r2, code, depth):
        other = lists[1 - origin]
        pos = bisect.bisect_left(other, code)
        for z in (other[pos - 1] if pos else None,
                  other[pos] if pos < len(other) else None):
            if z is None:
                continue
            zu = z % m_total
            zo, zi, zr2 = meta[zu]
            best.offer(depth + lcp2.lcp(r2, zr2),
                       _ordered_witness(origin, idx, zo, zi))

    def insert_all(lists, uids, depth):
        nonlocal merged
        for uid in uids:
            origin, idx, r2 = meta[uid]
            code = r2 * m_total + uid
            probe(lists, origin, idx, r2, code, depth)
            bisect.insort(lists[origin], code)
            merged += 1

    # Iterative post-order over trie1.
    states = {}
    stack = [(0, False)]
    while stack:
        node, done = stack.pop()
        if not done:
            stack.append((node, True))
            for ch in trie1.children[node]:
                stack.append((ch, False))
            continue
        depth = trie1.depth[node]
        kids = [states.pop(ch) for ch in trie1.children[node]]
        if kids:
            base = max(range(len(kids)), key=lambda i: len(kids[i][0]) + len(kids[i][1]))
            lists = kids[base]
            for i, other in enumerate(kids):
                if i == base:
                    continue
                insert_all(lists, [c % m_total for c in other[0] + other[1]], depth)
        else:
            lists = ([], [])
        insert_all(lists, by_leaf.get(node, ()), depth)
        states[node] = lists
    return PairLcpResult(best.value, best.witness, merged)


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
    if not inst.p_elems or not inst.q_elems:
        return PairLcpResult(0, None, 0)
    trie1, trie2 = inst.trie1, inst.trie2
    elems = inst.elements()
    recs = []
    for uid, origin, idx, l1, l2 in elems:
        recs.append(
            (uid, origin, idx, trie1.leaf_rank[l1], trie1.depth[l1], trie2.leaf_rank[l2])
        )
    if spot_check:
        _assert_prefix_family(inst, recs)
    # R: union ordered by second component (rank2), ties by uid.
    order = sorted(range(len(recs)), key=lambda u: (recs[u][5], u))
    pos_of = {u: p for p, u in enumerate(order)}
    skip = (
        _SkipList([p for p in range(len(order)) if recs[order[p]][1] == 0]),
        _SkipList([p for p in range(len(order)) if recs[order[p]][1] == 1]),
    )

    best = _Best()
    lcp1, lcp2 = inst.lcp1, inst.lcp2

    by_len = {}
    for uid, origin, idx, r1, len1, r2 in recs:
        by_len.setdefault(len1, []).append(uid)

    for length in sorted(by_len):
        group = by_len[length]
        for uid in group:
            _, origin, idx, r1, len1, r2 = recs[uid]
            other = skip[1 - origin]
            p = pos_of[uid]
            for zpos in (other.pred(p), other.succ(p)):
                if zpos is None:
                    continue
                zu = order[zpos]
                _, zo, zi, zr1, zlen1, zr2 = recs[zu]
                val = lcp1.lcp(r1, zr1) + lcp2.lcp(r2, zr2)
                best.offer(val, _ordered_witness(origin, idx, zo, zi))
        for uid in group:
            _, origin, _, _, _, _ = recs[uid]
            skip[origin].delete(pos_of[uid])
    return PairLcpResult(best.value, best.witness, 0)


def _assert_prefix_family(inst, recs):
    import random

    rng = random.Random(0x5EED)
    m = len(recs)
    for _ in range(min(32, m * m)):
        a, b = recs[rng.randrange(m)], recs[rng.randrange(m)]
        got = inst.lcp1.lcp(a[3], b[3])
        if got != min(a[4], b[4]):
            raise PackedLcsError(
                "first components do not form a prefix family "
                f"(LCP {got} != min length {min(a[4], b[4])})"
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
    trie = build_compacted_trie(lengths, lcps, payload_ids=list(order))
    leaf_by_elem = [None] * len(strings)
    for r, elem in enumerate(order):
        leaf_by_elem[elem] = trie.leaf_of_input[r]
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
