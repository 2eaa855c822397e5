"""Suffix-array backed LCE queries and compacted tries.

The suffix array is built by numpy prefix doubling (one int64 key sort per
round, early exit once ranks are distinct) from a seed: every suffix's first
per = 64 // bits symbols packed into one word and sorted once.  The index
keeps the seed and the doubling's rank tables, and every LCE query is one
batched descent over them, finished below per by a XOR of seed words.  A
compacted trie of a sorted list with adjacent LCPs is its LCP-interval tree,
built with numpy from nearest-smaller-value queries: int arrays by node id,
ids in preorder.
"""

from __future__ import annotations

import numpy as np

from .text_core import PackedLcsError, mismatch_offsets, pack_keys, symbol_bits


def seed_sort(codes):
    """(seed, order): seed[i] packs the first 64 // symbol_bits(codes)
    symbols of suffix i (codes >= 0) into one word, zero past the end, and
    order sorts the words, ties in no fixed order."""
    codes = np.asarray(codes, dtype=np.int64)
    per = 64 // symbol_bits(codes)
    starts = np.arange(codes.size)
    seed = pack_keys(codes, starts, np.minimum(per, codes.size - starts), per)[0]
    return seed, np.argsort(seed)


def _prefix_doubling(seed, order, per):
    """(suffix array, rank tables) by prefix doubling from seed_sort's
    words of per symbols: ranks[level][i] is the dense rank of the length
    per * 2^level prefix of suffix i (a prefix running past the end is padded
    below every letter).  Doubling stops at the first level whose ranks are
    all distinct, so the last table is the inverse suffix array and two
    distinct suffixes share fewer than per * 2^(len(ranks) - 1) symbols."""
    n = seed.size
    if n == 0:
        return np.empty(0, dtype=np.int64), [np.empty(0, dtype=np.int64)]
    dtype = np.int32 if n < 2**31 else np.int64
    ordered, rank = seed[order], np.empty(n, dtype=dtype)
    rank[order[0]] = 0
    rank[order[1:]] = np.cumsum(ordered[1:] != ordered[:-1], dtype=dtype)
    del ordered
    ranks = [rank]
    k = per
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
        ranks.append(rank)
        k *= 2
    return order, ranks


def suffix_array(codes):
    """Suffix array (0-based) of an int code sequence (codes >= 0)."""
    return SuffixIndex(codes).sa


class SparseRmq:
    """Sparse table of range minima in the values' dtype: table[j, i] =
    min(values[i : i + 2^j]), with one spare column that keeps every gather
    in bounds.  query_many(lo, hi) gives the minima over [lo, hi)."""

    def __init__(self, values):
        values = np.asarray(values)
        n = values.size
        table = np.zeros((max(1, n.bit_length()), n + 1), dtype=values.dtype)
        table[0, :n] = values
        for j in range(1, table.shape[0]):
            w, half = n - (1 << j) + 1, 1 << (j - 1)
            np.minimum(table[j - 1, :w], table[j - 1, half : half + w], out=table[j, :w])
        self.table = table

    def query_many(self, lo, hi):
        """Element-wise query over index arrays, in the table's dtype; entries
        with lo >= hi hold no minimum."""
        j = np.frexp(np.maximum(hi - lo, 1))[1] - 1  # floor(log2(hi - lo))
        return np.minimum(self.table[j, lo], self.table[j, hi - (1 << j)])


class SuffixIndex:
    """Suffix array + inverse over a code sequence (codes >= 0), with the
    seed (the codes' seed_sort, sorted here unless given) and the rank
    tables of the prefix doubling that built them.  Longest-common-extension
    queries are batched over position arrays (lce_bulk); lce answers one.
    """

    def __init__(self, codes, seed=None):
        codes = np.asarray(codes, dtype=np.int64)
        self.n = int(codes.size)
        self.bits = symbol_bits(codes)
        self.per = 64 // self.bits
        self.seed, order = seed_sort(codes) if seed is None else seed
        self.sa, self._rank_tables = _prefix_doubling(self.seed, order, self.per)
        self.isa = self._rank_tables[-1]

    def lce(self, i, j):
        """LCP of suffixes starting at 1-based positions i and j."""
        return int(self.lce_bulk([i], [j])[0])

    def lce_bulk(self, i_arr, j_arr):
        """LCPs of the suffixes at 1-based position arrays i_arr and j_arr.

        A suffix paired with itself shares its whole length.  Distinct
        suffixes share fewer symbols than the last rank table's prefix
        length, so one descent from the table below it adds per * 2^level
        wherever the level's ranks agree: equal ranks of distinct suffixes
        imply that many symbols on both.  The rest, below per, is the first
        differing slot of the two seed words."""
        i = np.asarray(i_arr, dtype=np.int64) - 1
        j = np.asarray(j_arr, dtype=np.int64) - 1
        n = self.n
        if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
            raise PackedLcsError(f"suffix position out of range [1, {n}]")
        same = np.flatnonzero(i == j)
        whole = n - i[same]
        res = np.zeros(i.shape, dtype=np.int64)
        for level in range(len(self._rank_tables) - 2, -1, -1):
            step = self.per << level
            tab = self._rank_tables[level]
            live = np.flatnonzero((i < n) & (j < n))
            hit = live[tab[i[live]] == tab[j[live]]]
            res[hit] += step
            i[hit] += step
            j[hit] += step
        live = np.flatnonzero((i < n) & (j < n))
        x = self.seed[i[live]]
        x ^= self.seed[j[live]]
        del i, j  # the XOR's slot search is the peak of a large batch
        res[live] += mismatch_offsets(x[None], self.bits, 0)[0]
        res[same] = whole
        return res


class CompactedTrie:
    """Compacted trie over a sorted string list, as int arrays by node id.

    Ids are in preorder with children left to right: node 0 is the root,
    parent[v] < v, and the subtree of v is the id range [v, subtree_end[v]).
    depth[v] is the string depth of v.  Input i lands on node
    leaf_of_input[i]; equal inputs share a node, and an input that is a proper
    prefix of the next lands on the internal node that spells it.  The nodes
    that carry inputs are ranked in input order, which is also their id
    order: leaf_at_rank[r] is the node of rank r, leaf_rank[v] the rank of v
    (-1 where v carries no input) and adjacent_leaf_lcp[r] the LCP of the
    strings of ranks r and r + 1.
    """

    def __init__(self, parent, depth, subtree_end, leaf_of_input, leaf_at_rank,
                 adjacent_leaf_lcp):
        self.parent = parent
        self.depth = depth
        self.subtree_end = subtree_end
        self.leaf_of_input = leaf_of_input
        self.leaf_at_rank = leaf_at_rank
        self.adjacent_leaf_lcp = adjacent_leaf_lcp
        self.leaf_rank = np.full(parent.size, -1, dtype=parent.dtype)
        self.leaf_rank[leaf_at_rank] = np.arange(leaf_at_rank.size)

    def node_count(self):
        return self.parent.size

    def rank_spans(self):
        """(first, end) arrays: the leaf ranks in the subtree of v are
        [first[v], end[v]).  Ranks follow the preorder ids, so they are those
        of the ranked ids in [v, subtree_end[v])."""
        ranked_before = np.zeros(self.node_count() + 1, dtype=np.int64)
        np.cumsum(self.leaf_rank >= 0, out=ranked_before[1:])
        return ranked_before[:-1], ranked_before[self.subtree_end]

    def lca(self, u, v):
        """Lowest common ancestor: the first node up from u whose subtree
        holds v."""
        u, v = int(u), int(v)
        while not u <= v < self.subtree_end[u]:
            u = int(self.parent[u])
        return u

    def lca_depth(self, u, v):
        """String depth of lca(u, v) = LCP of val(u) and val(v)."""
        return int(self.depth[self.lca(u, v)])


def _nearest_smaller(h):
    """(previous, next) position of a strictly smaller value for every entry
    of h, -1 and len(h) where there is none.  One descent over a sparse table
    of minima: from the widest level down, each position's run of values at
    least its own grows by a whole block whenever the block's minimum allows."""
    b = h.size
    table = SparseRmq(h).table
    lo = np.arange(b, dtype=np.int32 if b < 2**31 else np.int64)
    hi = lo + 1
    for j in range(len(table) - 1, -1, -1):
        w, tab = 1 << j, table[j]
        ok = (lo >= w) & (tab.take(lo - w, mode="clip") >= h)
        np.subtract(lo, w, out=lo, where=ok)
        ok = (hi <= b - w) & (tab.take(hi, mode="clip") >= h)
        np.add(hi, w, out=hi, where=ok)
    return lo - 1, hi


def build_compacted_trie(lengths, lcps):
    """Compacted trie of a lexicographically sorted list.

    lengths[i] is the length of the i-th string; lcps[r] = LCP(string r,
    string r+1) for r in [0, len-2].  Equal adjacent strings collapse into
    one node.  Strings themselves are never touched: the caller guarantees
    the sort and the adjacent LCPs, and a negative LCP, one above a length or
    one that puts a proper prefix after its extension raises PackedLcsError.

    The trie is the LCP-interval tree of the list (Abouelhoda, Kurtz and
    Ohlebusch, 2004), built without a loop over strings: boundary r belongs
    to the interval node (first string after the previous smaller LCP,
    lcps[r]), whose parent is the node of the deeper of its two nearest
    smaller boundaries.  A string longer than both of its adjacent LCPs gets
    a leaf below the deeper one's node; any other string lands on that node
    itself.  Sorting the node keys (first string, depth) numbers the nodes in
    preorder.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    h = np.asarray([] if lcps is None else lcps, dtype=np.int64)
    m = lengths.size
    if h.size != max(0, m - 1):
        raise PackedLcsError("need exactly len-1 adjacent LCP values")
    before, after = lengths[:-1], lengths[1:]
    if ((h < 0) | (h > np.minimum(before, after)) | ((h == after) & (after < before))).any():
        raise PackedLcsError("adjacent LCPs do not fit a sorted list: unsorted input?")
    span = np.int64(lengths.max() + 1 if m else 1)
    dt = np.int32 if max(2 * m + 2, span) < 2**31 else np.int64
    b = h.size
    prev, nxt = _nearest_smaller(h.astype(dt))
    # Each string's boundary on either side, -1 where there is none.
    hp = np.concatenate([[-1], h, [-1]])
    left, right = hp[:m], hp[1 : m + 1]
    leaf = np.flatnonzero(lengths > np.maximum(np.maximum(left, right), 0))
    # Node key = first string * span + depth, for the root, every boundary
    # (depth-0 ones key the root) and every leaf; sorted keys number the nodes.
    keys = np.concatenate([[0], (prev + 1) * span + h, leaf * span + lengths[leaf]])
    by_key = np.argsort(keys)
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = np.diff(keys[by_key]) != 0
    node_of = np.empty(keys.size, dtype=dt)
    node_of[by_key] = np.cumsum(fresh) - 1
    keys = keys[by_key[fresh]]
    n = keys.size
    # Node of boundary q at q + 1, with the root for q = -1 and q = b.
    bnode = np.append(node_of[: b + 1], 0)
    near = np.where(left >= right, bnode[:m], bnode[1 : m + 1])
    parent = np.empty(n, dtype=dt)
    parent[node_of[1 : b + 1]] = np.where(
        hp[prev + 1] >= hp[nxt + 1], bnode[prev + 1], bnode[nxt + 1]
    )
    leaf_node = node_of[b + 1 :]
    parent[leaf_node] = near[leaf]
    parent[0] = -1
    # A subtree ends at the first node whose first string follows its last.
    last = np.empty(n, dtype=np.int64)
    last[node_of[1 : b + 1]] = nxt
    last[leaf_node] = leaf
    last[0] = m
    nodes_before = np.zeros(m + 2, dtype=dt)
    np.cumsum(np.bincount(keys // span, minlength=m + 1), out=nodes_before[1:])
    subtree_end = nodes_before[last + 1]
    near[leaf] = leaf_node
    leaf_of_input = near
    first = np.flatnonzero(np.diff(leaf_of_input, prepend=-1))
    return CompactedTrie(
        parent,
        (keys % span).astype(dt),
        subtree_end,
        leaf_of_input,
        leaf_of_input[first],
        h[first[1:] - 1].astype(dt),
    )
