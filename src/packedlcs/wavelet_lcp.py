"""Level-at-a-time solver for (alpha,beta)-family Two Families LCP instances.

The elements come as a list R sorted by second component, with the LCP of
each adjacent pair of second components (the root list).  For a node v of
the compacted trie of the first components, take the elements below v in R
order: each adjacent pair of different origins in that sublist scores the
string depth of v plus the minimum of the root list between the two R
positions, a lower bound on the pair's true value.  The best pair of
elements of different origins whose first components meet at v is linked
through such adjacent pairs, each scoring at least its value, so the largest
score over all nodes is the answer.

All nodes of one trie level are handled by one array pass: each element is
keyed by its ancestor on the level, one stable argsort of the keys groups the
elements in R order, and the root-list minima come from one sparse table.  A
first component of length at most alpha sits at most alpha levels below the
root, so there are at most alpha + 1 passes.  (The word-RAM version packs a
wavelet tree over a binarized trie instead; with numpy arrays the levels of
the trie itself are cheaper.)
"""

from __future__ import annotations

import numpy as np

from .text_core import PackedLcsError
from .family_lcp import PairLcpResult
from .suffix_index import SparseRmq


def _levels(parent):
    """Number of edges from the root to each node, by pointer jumping."""
    level = np.zeros(parent.size, dtype=parent.dtype)
    up = parent.copy()
    while (up >= 0).any():
        level += up >= 0
        up = np.where(up >= 0, parent[np.maximum(up, 0)], -1)
    return level


def solve_alpha_beta_core(trie1, seq, root_values, origins, beta):
    """Shared solver core over prepared arrays.

    trie1: compacted trie of the distinct first components (symbol s =
    leaf rank s); seq: per-element symbol ids in the order of the R list
    (sorted by second component); root_values: adjacent second-component
    LCPs of R (entry 0 is 0), each at most beta; origins: per-element
    origin bits.

    Returns (value, (position_a, position_b) in R) or (0, None).  On ties the
    shallowest level wins, then the leftmost pair in its grouped order.
    """
    seq = np.asarray(seq, dtype=np.int64)
    root_values = np.asarray(root_values)
    origins = np.asarray(origins, dtype=bool)
    m = root_values.size
    if seq.size != m or origins.size != m:
        raise PackedLcsError("symbol, LCP and origin lists differ in length")
    if m and (root_values.min() < 0 or root_values.max() > beta):
        raise PackedLcsError(f"second-component LCP outside [0, beta={beta}]")
    if m and (seq.min() < 0 or seq.max() >= trie1.leaf_at_rank.size):
        raise PackedLcsError("sequence element is not a trie leaf symbol")
    if m < 2:
        return 0, None
    # min(root_values[a + 1 : b + 1]) = query(a, b) over root_values[1:].
    rmq = SparseRmq(root_values[1:].astype(np.min_scalar_type(beta)))
    level = _levels(trie1.parent)
    pos = np.arange(m)
    node = trie1.leaf_at_rank[seq]
    best_val, best_pair = -1, None
    for lev in range(int(level[node].max()) + 1):
        live = level[node] >= lev
        pos, node = pos[live], node[live]
        if pos.size < 2:
            break
        # The ancestor on this level is the level's last node at or before v
        # in preorder: key each element by that ancestor's rank on the level.
        on_level = level == lev
        rank = np.cumsum(on_level) - 1
        key = rank[node].astype(np.min_scalar_type(rank[-1]))
        by = np.argsort(key, kind="stable")
        key, a, b = key[by], pos[by[:-1]], pos[by[1:]]
        pair = np.flatnonzero((key[:-1] == key[1:]) & (origins[a] != origins[b]))
        if not pair.size:
            continue
        a, b = a[pair], b[pair]
        score = trie1.depth[on_level][key[pair]] + rmq.query_many(a, b)
        k = int(np.argmax(score))
        if score[k] > best_val:
            best_val, best_pair = int(score[k]), (int(a[k]), int(b[k]))
    return (best_val, best_pair) if best_pair else (0, None)


def solve_alpha_beta(inst, alpha, beta):
    """maxPairLCP for (alpha,beta)-families via the level-at-a-time core."""
    n_p = len(inst.p_elems)
    if not n_p or not len(inst.q_elems):
        return PairLcpResult(0, None, 0)
    trie1, trie2 = inst.trie1, inst.trie2
    leaves = np.concatenate([inst.p_elems, inst.q_elems])
    if (trie1.depth[leaves[:, 0]] > alpha).any() or (trie2.depth[leaves[:, 1]] > beta).any():
        raise PackedLcsError(f"family member exceeds the ({alpha},{beta}) bound")
    order = np.argsort(inst.r2, kind="stable")
    r2 = inst.r2[order]
    lvals = np.zeros(order.size, dtype=np.int64)
    lvals[1:] = inst.lcp2.lcp_many(r2[:-1], r2[1:])
    val, positions = solve_alpha_beta_core(
        trie1, inst.r1[order], lvals, order >= n_p, beta
    )
    if positions is None:
        return PairLcpResult(0, None, 0)
    a, b = (int(order[p]) for p in positions)
    if (a < n_p) == (b < n_p):
        return PairLcpResult(val, None, 0)
    return PairLcpResult(val, (min(a, b), max(a, b) - n_p), 0)
