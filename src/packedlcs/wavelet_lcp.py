"""Wavelet-tree solver for (alpha,beta)-family Two Families LCP instances.

Pipeline: binarize the compacted trie of the first components into a
prefix-consistent skeleton (weight-balanced splits keep the height at
O(alpha + log M)), build a wavelet tree of the first-component symbol
sequence, then push lists of adjacent second-component LCP values down
the tree; at every node the candidate answer is the node's string depth plus
the maximum LCP between rank-adjacent elements of different origins.

Strings that are proper prefixes of other family members get a synthetic
pad leaf below their trie node (the pad ranks after every letter); pad leaves
are evaluated at the true string length, never the padded one.

Node lists are plain arrays (int64 LCP values, bool origins) and node bit
vectors are bool arrays: propagation is one segmented minimum
(np.minimum.reduceat) and the cross-origin maximum one masked argmax, with no
lookup tables and no state kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .text_core import PackedLcsError
from .family_lcp import PairLcpResult, _ordered_witness


@dataclass
class SkeletonTree:
    left: list
    right: list
    trie_node: list
    val_depth: list  # clipped string depth used for candidates
    node_depth: list
    leaf_symbol: list  # symbol id at leaves, -1 at internal nodes
    symbol_leaf: list  # symbol id -> skeleton leaf
    path_nodes: list  # symbol id -> tuple of internal nodes, root downward
    path_bits: list  # symbol id -> tuple of 0/1 routing bits
    height: int
    root: int = 0

    def node_count(self):
        return len(self.left)

    def is_leaf(self, v):
        return self.left[v] < 0


def binarize_skeleton(trie):
    """Prefix-consistent skeleton of a compacted trie (one leaf per distinct
    string; strings that are prefixes of others become pad leaves)."""
    nc = trie.node_count()
    weight = [0] * nc
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(trie.children[v])
    for v in reversed(order):
        w = 1 if trie.payloads[v] else 0
        for c in trie.children[v]:
            w += weight[c]
        weight[v] = w
    if weight[0] == 0:
        raise PackedLcsError("empty trie has no skeleton")

    n_symbols = len(trie.leaf_at_rank)
    left, right, tnode, vdepth, ndepth, lsym = [], [], [], [], [], []
    symbol_leaf = [-1] * n_symbols

    def alloc(tn, vd, depth, sym=-1):
        left.append(-1)
        right.append(-1)
        tnode.append(tn)
        vdepth.append(vd)
        ndepth.append(depth)
        lsym.append(sym)
        sid = len(left) - 1
        if sym >= 0:
            symbol_leaf[sym] = sid
        return sid

    def items_of(tn):
        items = [("sub", c) for c in trie.children[tn]]
        if trie.payloads[tn]:
            items.append(("pad", tn))
        return items

    def item_weight(item):
        return 1 if item[0] == "pad" else weight[item[1]]

    # pending: (parent skel id, side, group items, group's parent trie node, depth)
    pending = [(-1, 0, [("sub", 0)], 0, 0)]
    root_id = None
    while pending:
        parent, side, group, ptn, depth = pending.pop()
        # Collapse singleton subtrie chains.
        while len(group) == 1 and group[0][0] == "sub" and not trie.is_leaf(group[0][1]):
            ptn = group[0][1]
            group = items_of(ptn)
        if len(group) == 1:
            kind, tn = group[0]
            sym = trie.leaf_rank[tn]
            sid = alloc(tn, trie.depth[tn], depth, sym)
        else:
            total = sum(item_weight(it) for it in group)
            acc, cut = 0, 1
            for i, it in enumerate(group[:-1]):
                acc += item_weight(it)
                cut = i + 1
                if 2 * acc >= total:
                    break
            sid = alloc(ptn, trie.depth[ptn], depth)
            pending.append((sid, 1, group[cut:], ptn, depth + 1))
            pending.append((sid, 0, group[:cut], ptn, depth + 1))
        if parent < 0:
            root_id = sid
        elif side == 0:
            left[parent] = sid
        else:
            right[parent] = sid

    # Per-symbol routing paths.
    path_nodes = [None] * n_symbols
    path_bits = [None] * n_symbols
    height = 0
    stack = [(root_id, [], [])]
    while stack:
        v, nodes, bits = stack.pop()
        if lsym[v] >= 0:
            path_nodes[lsym[v]] = tuple(nodes)
            path_bits[lsym[v]] = tuple(bits)
            height = max(height, len(bits))
            continue
        stack.append((left[v], nodes + [v], bits + [0]))
        stack.append((right[v], nodes + [v], bits + [1]))

    return SkeletonTree(
        left=left, right=right, trie_node=tnode, val_depth=vdepth,
        node_depth=ndepth, leaf_symbol=lsym, symbol_leaf=symbol_leaf,
        path_nodes=path_nodes, path_bits=path_bits, height=height,
        root=root_id,
    )


class WaveletTree:
    """Bit vectors of a skeleton-shaped wavelet tree over a symbol sequence."""

    def __init__(self, bitvecs, sizes, skel, root):
        self.bitvecs = bitvecs  # node -> bool array of routing bits
        self.sizes = sizes  # node -> routed subsequence length
        self.skel = skel
        self.root = root

    def access(self, i):
        """Symbol of sequence element i, reconstructed by top-down routing."""
        v = self.root
        skel = self.skel
        while skel.leaf_symbol[v] < 0:
            bits = self.bitvecs[v]
            b = bits[i]
            ones = int(np.count_nonzero(bits[:i]))
            i = ones if b else i - ones
            v = skel.right[v] if b else skel.left[v]
        return skel.leaf_symbol[v]

    def lift(self, pos, path):
        """Sequence index of element pos of the node reached by path, a tuple
        of (node, side) routing steps from the root downward."""
        for node, side in reversed(path):
            pos = int(np.flatnonzero(self.bitvecs[node] == side)[pos])
        return pos


def build_wavelet(seq, skel):
    """Wavelet tree of a symbol sequence routed through the skeleton."""
    seq = np.asarray(seq, dtype=np.int64)
    m = int(seq.size)
    n_sym = len(skel.symbol_leaf)
    if m and (seq.min() < 0 or seq.max() >= n_sym):
        raise PackedLcsError("sequence element is not a skeleton leaf symbol")
    height = skel.height
    bit_mat = np.zeros((n_sym, max(height, 1)), dtype=np.uint8)
    for s in range(n_sym):
        for d, b in enumerate(skel.path_bits[s]):
            bit_mat[s, d] = b
    bitvecs = {}
    sizes = {}
    order = np.arange(m)
    stack = [(skel.root, 0, m)]
    while stack:
        v, lo, hi = stack.pop()
        sizes[v] = hi - lo
        if skel.leaf_symbol[v] >= 0 or hi <= lo:
            if skel.leaf_symbol[v] < 0 and hi <= lo:
                bitvecs[v] = np.zeros(0, dtype=bool)
                stack.append((skel.left[v], lo, lo))
                stack.append((skel.right[v], lo, lo))
            continue
        seg = order[lo:hi].copy()
        b = bit_mat[seq[seg], skel.node_depth[v]].astype(bool)
        bitvecs[v] = b
        nl = int((~b).sum())
        order[lo : lo + nl] = seg[~b]
        order[lo + nl : hi] = seg[b]
        stack.append((skel.left[v], lo, lo + nl))
        stack.append((skel.right[v], lo + nl, hi))
    return WaveletTree(bitvecs, sizes, skel, skel.root)


class LcpsList:
    """Adjacent-LCP values over [0, beta] plus per-element origin bits.

    Entry 0 is 0 by construction; entry r (r >= 1) is the LCP of the second
    components of elements r-1 and r of the represented sublist.
    """

    __slots__ = ("values", "origins")

    def __init__(self, values, origins):
        self.values = np.asarray(values, dtype=np.int64)
        self.origins = np.asarray(origins, dtype=bool)
        if self.origins.size != self.values.size:
            raise PackedLcsError("origin bits and LCP list lengths differ")

    def __len__(self):
        return self.values.size


def propagate_lcps(parent, bits, side):
    """LCPs list of the child sublist (elements whose bit equals the side),
    computed from the parent list without materializing the sublist."""
    bits = np.asarray(bits, dtype=bool)
    if bits.size != len(parent):
        raise PackedLcsError("bit vector and LCP list lengths differ")
    keep = np.flatnonzero(bits if side in (1, "right") else ~bits)
    out = np.zeros(keep.size, dtype=np.int64)
    if keep.size > 1:
        # Entry j is the min over the parent entries after kept element j-1
        # up to and including kept element j.
        out[1:] = np.minimum.reduceat(parent.values[: keep[-1] + 1], keep[:-1] + 1)
    return LcpsList(out, parent.origins[keep])


def cross_origin_max(lcps):
    """(value, index) of the max LCP over pairs (i-1, i) with differing
    origin bits (first index on ties), or None."""
    g = lcps.origins
    mask = g[1:] != g[:-1]
    if not mask.any():
        return None
    cand = np.where(mask, lcps.values[1:], -1)
    i = int(np.argmax(cand))
    return int(cand[i]), i + 1


def solve_alpha_beta_core(trie1, seq, root_values, origins, beta):
    """Shared solver core over prepared arrays.

    trie1: compacted trie of the distinct first components (symbol s =
    leaf rank s); seq: per-element symbol ids in the order of the R list
    (sorted by second component); root_values: adjacent second-component
    LCPs of R (entry 0 is 0), each at most beta; origins: per-element
    origin bits.

    Returns (value, (position_a, position_b) in R) or (0, None).
    """
    root_list = LcpsList(root_values, origins)
    if len(root_list) and root_list.values.max() > beta:
        raise PackedLcsError(f"second-component LCP exceeds beta={beta}")
    skel = binarize_skeleton(trie1)
    wt = build_wavelet(np.asarray(seq, dtype=np.int64), skel)

    best_val = -1
    best_loc = None  # (node, index in the node's sublist, path from root)
    stack = [(wt.root, root_list, ())]
    while stack:
        v, lst, path = stack.pop()
        if len(lst) < 2:
            continue
        hit = cross_origin_max(lst)
        if hit is not None:
            val = skel.val_depth[v] + hit[0]
            if val > best_val:
                best_val, best_loc = val, (v, hit[1], path)
        if skel.leaf_symbol[v] >= 0:
            continue
        bits = wt.bitvecs[v]
        stack.append((skel.left[v], propagate_lcps(lst, bits, 0), path + ((v, 0),)))
        stack.append((skel.right[v], propagate_lcps(lst, bits, 1), path + ((v, 1),)))

    if best_loc is None:
        return 0, None
    _node, idx, path = best_loc
    return best_val, (wt.lift(idx - 1, path), wt.lift(idx, path))


def solve_alpha_beta(inst, alpha, beta):
    """maxPairLCP for (alpha,beta)-families via the wavelet machinery."""
    if not inst.p_elems or not inst.q_elems:
        return PairLcpResult(0, None, 0)
    trie1, trie2 = inst.trie1, inst.trie2
    for l1, l2 in inst.p_elems + inst.q_elems:
        if trie1.depth[l1] > alpha or trie2.depth[l2] > beta:
            raise PackedLcsError(
                f"family member exceeds the ({alpha},{beta}) bound"
            )
    elems = inst.elements()
    order = sorted(range(len(elems)), key=lambda u: (trie2.leaf_rank[elems[u][4]], u))
    r2 = [trie2.leaf_rank[elems[u][4]] for u in order]
    m = len(order)
    lvals = [0] * m
    for i in range(1, m):
        lvals[i] = inst.lcp2.lcp(r2[i - 1], r2[i])
    origins = np.array([elems[u][1] == 1 for u in order], dtype=bool)
    seq = [trie1.leaf_rank[elems[u][3]] for u in order]
    val, positions = solve_alpha_beta_core(trie1, seq, lvals, origins, beta)
    if positions is None:
        return PairLcpResult(0, None, 0)
    (o_a, i_a), (o_b, i_b) = (
        (elems[order[p]][1], elems[order[p]][2]) for p in positions
    )
    witness = _ordered_witness(o_a, i_a, o_b, i_b)
    return PairLcpResult(val, witness, 0)
