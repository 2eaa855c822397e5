"""Suffix-array backed LCE queries, fragment comparison, and compacted tries.

The suffix array is built by numpy prefix doubling (one int64 key sort per
round, early exit once ranks are distinct), the LCP array is read from that
doubling's rank tables level by level, and range minima come from a sparse
table.  Compacted tries are built in one left-to-right pass from a sorted
list with adjacent LCPs and answer LCA queries through an Euler tour.
"""

from __future__ import annotations

import numpy as np

from .text_core import PackedLcsError


def _prefix_doubling(codes, keep_ranks=False):
    """(suffix array, rank tables) of an int code sequence by prefix doubling.

    ranks[level][i] is the dense rank of the length-2^level prefix of suffix i
    (a prefix running past the end is padded below every letter).  Doubling
    stops at the first level whose ranks are all distinct, so two distinct
    suffixes share fewer than 2^(len(ranks) - 1) symbols.  Without keep_ranks
    only that last level is returned.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.size
    if n == 0:
        return np.empty(0, dtype=np.int64), [np.empty(0, dtype=np.int64)]
    dtype = np.int32 if n < 2**31 else np.int64
    _, rank = np.unique(codes, return_inverse=True)
    rank = rank.astype(dtype)
    ranks = [rank]
    order = np.argsort(rank, kind="stable")
    k = 1
    while int(rank[order[-1]]) < n - 1:
        # Sort by (rank, rank of the suffix k further or -1 past the end) as
        # one int64 key; ties need no order, since the final ranks are distinct.
        key = rank.astype(np.int64) * (n + 1)
        if k < n:
            key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        changed = np.diff(key[order]) != 0
        rank = np.empty(n, dtype=dtype)
        rank[order[0]] = 0
        rank[order[1:]] = np.cumsum(changed)
        if keep_ranks:
            ranks.append(rank)
        else:
            ranks[0] = rank
        k *= 2
    return order, ranks


def suffix_array(codes):
    """Suffix array (0-based) of an int code sequence via prefix doubling."""
    return _prefix_doubling(codes)[0]


def _lcp_from_ranks(sa, ranks):
    """lcp[r] = LCP(suffix sa[r-1], suffix sa[r]), lcp[0] = 0, read from the
    prefix-doubling rank tables by descending the levels."""
    n = len(sa)
    lcp = np.zeros(n, dtype=np.int32 if n < 2**31 else np.int64)
    if n < 2:
        return lcp
    i, j = sa[:-1].copy(), sa[1:].copy()
    h = lcp[1:]
    # The last level's ranks are all distinct: no pair matches there.
    for level in range(len(ranks) - 2, -1, -1):
        step = 1 << level
        tab = ranks[level]
        # Equal ranks of distinct suffixes imply 2^level symbols on both.
        live = np.flatnonzero((i < n) & (j < n))
        hit = live[tab[i[live]] == tab[j[live]]]
        h[hit] += step
        i[hit] += step
        j[hit] += step
    return lcp


def kasai_lcp(codes, sa):
    """lcp[r] = LCP(suffix sa[r-1], suffix sa[r]); lcp[0] = 0.

    Read from prefix-doubling rank tables (no per-position scan)."""
    return _lcp_from_ranks(sa, _prefix_doubling(codes, keep_ranks=True)[1])


class SparseRmq:
    """O(n log n) sparse table in the values' integer dtype; query(l, r) =
    min over [l, r)."""

    def __init__(self, values):
        values = np.asarray(values)
        n = len(values)
        self.table = [values]
        j = 1
        while (1 << j) <= n:
            prev = self.table[-1]
            half = 1 << (j - 1)
            self.table.append(np.minimum(prev[: n - (1 << j) + 1], prev[half : n - (1 << j) + 1 + half]))
            j += 1

    def query(self, l, r):
        if l >= r:
            return np.iinfo(np.int64).max
        j = (r - l).bit_length() - 1
        t = self.table[j]
        return int(min(t[l], t[r - (1 << j)]))


class SuffixIndex:
    """Suffix array + inverse + LCP + RMQ over a code sequence.

    Exposes O(1) longest-common-extension queries between suffixes and
    fragment-level LCP/ordering for fragments of a combined text.
    """

    def __init__(self, codes, keep_rank_tables=False):
        self.codes = np.asarray(codes, dtype=np.int64)
        self.n = int(self.codes.size)
        self.sa, ranks = _prefix_doubling(self.codes, keep_ranks=True)
        self.isa = np.empty(self.n, dtype=np.int64)
        if self.n:
            self.isa[self.sa] = np.arange(self.n)
        self.lcp = _lcp_from_ranks(self.sa, ranks)
        self.rmq = SparseRmq(self.lcp)
        self._rank_tables = ranks if keep_rank_tables else None

    # -- suffix-level queries (1-based positions) --

    def lce(self, i, j):
        """LCP of suffixes starting at 1-based positions i and j."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise PackedLcsError(f"suffix position out of range: {i}, {j}")
        if i == j:
            return self.n - i + 1
        ri, rj = int(self.isa[i - 1]), int(self.isa[j - 1])
        if ri > rj:
            ri, rj = rj, ri
        return self.rmq.query(ri + 1, rj + 1)

    def _build_rank_tables(self):
        # tables[level][i] = rank of the length-2^level prefix of suffix i.
        return _prefix_doubling(self.codes, keep_ranks=True)[1]

    def lce_bulk(self, i_arr, j_arr):
        """Vectorized lce over 1-based position arrays (needs rank tables)."""
        if self._rank_tables is None:
            self._rank_tables = self._build_rank_tables()
        i = np.asarray(i_arr, dtype=np.int64) - 1
        j = np.asarray(j_arr, dtype=np.int64) - 1
        res = np.zeros(i.shape, dtype=np.int64)
        # Past the last table, whose ranks are all distinct, every level's
        # ranks equal it: only a suffix paired with itself matches there.
        top = len(self._rank_tables) - 1
        for level in range(max(self.n - 1, 0).bit_length(), -1, -1):
            step = 1 << level
            tab = self._rank_tables[min(level, top)]
            ok = (i + step <= self.n) & (j + step <= self.n)
            idx = np.flatnonzero(ok)
            if idx.size:
                same = tab[i[idx]] == tab[j[idx]]
                hit = idx[same]
                res[hit] += step
                i[hit] += step
                j[hit] += step
        return res

    # -- fragment-level queries --

    def _resolve(self, combined, frag):
        lo, hi = combined.to_forward_range(frag)
        length = hi - lo + 1
        seg = frag.text_id if not frag.reversed else (
            "S_rev" if frag.text_id == "S" else "T_rev"
        )
        seg_end = combined.offsets[seg] + combined.seg_len[seg] - 1
        if hi > seg_end:
            raise PackedLcsError("fragment crosses a sentinel")
        return lo, length

    def lce_fragments(self, combined, a, b):
        """min(LCP of underlying suffixes, |a|, |b|) for two fragments."""
        lo_a, len_a = self._resolve(combined, a)
        lo_b, len_b = self._resolve(combined, b)
        if len_a == 0 or len_b == 0:
            return 0
        return min(self.lce(lo_a, lo_b), len_a, len_b)

    def compare_fragments(self, combined, a, b):
        """-1/0/1 lexicographic order of the denoted strings."""
        lo_a, len_a = self._resolve(combined, a)
        lo_b, len_b = self._resolve(combined, b)
        common = 0
        if len_a and len_b:
            common = min(self.lce(lo_a, lo_b), len_a, len_b)
        if common == min(len_a, len_b):
            return (len_a > len_b) - (len_a < len_b)
        ca = int(self.codes[lo_a - 1 + common])
        cb = int(self.codes[lo_b - 1 + common])
        return (ca > cb) - (ca < cb)


def build_index(combined, keep_rank_tables=False):
    """SuffixIndex over a CombinedText's code sequence."""
    return SuffixIndex(combined.codes(), keep_rank_tables=keep_rank_tables)


class CompactedTrie:
    """Compacted trie over a sorted string list, with string-depths and LCA.

    Node 0 is the root.  Leaves carry payload lists (input indices); duplicate
    inputs collapse into one leaf with several payloads.  A node may be both
    internal and terminal (a string that is a proper prefix of another); its
    payloads live on the node itself.  Every children list is in increasing
    node id order, which is also left-to-right order.
    """

    def __init__(self):
        self.parent = [-1]
        self.depth = [0]
        self.children = [[]]
        self.payloads = [[]]
        # Representative input index + depth span of the incoming edge.
        self.edge_rep = [-1]
        self.leaf_of_input = []
        self._euler_node = None
        self._euler_depth = None
        self._first_visit = None
        self._euler_rmq = None
        self.leaf_rank = {}
        self.leaf_at_rank = []
        # adjacent_leaf_lcp[r] = LCP(val(leaf rank r-1), val(leaf rank r)).
        self.adjacent_leaf_lcp = []

    # -- construction ------------------------------------------------------

    def _new_node(self, parent, depth, rep):
        self.parent.append(parent)
        self.depth.append(depth)
        self.children.append([])
        self.payloads.append([])
        self.edge_rep.append(rep)
        node = len(self.parent) - 1
        self.children[parent].append(node)
        return node

    def node_count(self):
        return len(self.parent)

    def is_leaf(self, v):
        return not self.children[v]

    def val_span(self, v):
        """(representative input index, string depth) identifying val(v)."""
        return self.edge_rep[v], self.depth[v]

    # -- LCA ----------------------------------------------------------------

    def _build_euler(self):
        order = []
        depths = []
        first = [-1] * self.node_count()
        stack = [(0, 0, iter(self.children[0]))]
        first[0] = 0
        order.append(0)
        depths.append(0)
        while stack:
            node, d, it = stack[-1]
            child = next(it, None)
            if child is None:
                stack.pop()
                if stack:
                    order.append(stack[-1][0])
                    depths.append(stack[-1][1])
                continue
            order.append(child)
            depths.append(d + 1)
            first[child] = len(order) - 1
            stack.append((child, d + 1, iter(self.children[child])))
        self._euler_node = np.array(order, dtype=np.int64)
        self._euler_depth = np.array(depths, dtype=np.int64)
        self._first_visit = np.array(first, dtype=np.int64)
        enc = self._euler_depth * len(order) + np.arange(len(order))
        self._euler_rmq = SparseRmq(enc)

    def lca(self, u, v):
        if self._euler_rmq is None:
            self._build_euler()
        fu, fv = int(self._first_visit[u]), int(self._first_visit[v])
        if fu > fv:
            fu, fv = fv, fu
        enc = self._euler_rmq.query(fu, fv + 1)
        return int(self._euler_node[enc % len(self._euler_node)])

    def lca_depth(self, u, v):
        """String depth of lca(u, v) = LCP of val(u) and val(v)."""
        return self.depth[self.lca(u, v)]


def build_compacted_trie(lengths, lcps, payload_ids=None):
    """Compacted trie of a lexicographically sorted list.

    lengths[i] is the length of the i-th string; lcps[r] = LCP(string r,
    string r+1) for r in [0, len-2].  Equal adjacent strings (lcp == both
    lengths) collapse into one leaf.  Strings themselves are never touched:
    the caller guarantees the sort and the adjacent LCPs.
    """
    m = len(lengths)
    if lcps is not None and len(lcps) != max(0, m - 1):
        raise PackedLcsError("need exactly len-1 adjacent LCP values")
    trie = CompactedTrie()
    if m == 0:
        return trie
    if payload_ids is None:
        payload_ids = list(range(m))

    def attach(node, idx):
        if trie.depth[node] == lengths[idx]:
            trie.payloads[node].append(payload_ids[idx])
            trie.leaf_of_input.append(node)
        else:
            leaf = trie._new_node(node, lengths[idx], idx)
            trie.payloads[leaf].append(payload_ids[idx])
            trie.leaf_of_input.append(leaf)

    attach(0, 0)
    for r in range(1, m):
        h = lcps[r - 1]
        if h > min(lengths[r - 1], lengths[r]):
            raise PackedLcsError("adjacent LCP exceeds a string length: unsorted input?")
        # Walk up the rightmost path to the attach point.
        node = trie.leaf_of_input[-1]
        prev = -1
        while trie.depth[node] > h:
            prev = node
            node = trie.parent[node]
        if trie.depth[node] < h:
            # Split the edge (node -> prev) at depth h; prev is node's last child.
            trie.parent.append(node)
            trie.depth.append(h)
            trie.children.append([prev])
            trie.payloads.append([])
            trie.edge_rep.append(trie.edge_rep[prev])
            mid = len(trie.parent) - 1
            trie.children[node][-1] = mid
            trie.parent[prev] = mid
            node = mid
        attach(node, r)
    # Leaf ranks in input (sorted) order; adjacent-rank LCPs are running
    # minima of the input lcps between consecutive distinct leaves.
    pending = None
    for idx in range(m):
        leaf = trie.leaf_of_input[idx]
        if idx > 0:
            pending = lcps[idx - 1] if pending is None else min(pending, lcps[idx - 1])
        if leaf not in trie.leaf_rank:
            trie.leaf_rank[leaf] = len(trie.leaf_at_rank)
            trie.leaf_at_rank.append(leaf)
            if len(trie.leaf_at_rank) > 1:
                trie.adjacent_leaf_lcp.append(pending)
            pending = None
    return trie


def trie_lca(trie, u, v):
    return trie.lca(u, v)
