"""Exact longest common substring via the three-regime anchor strategy.

Regimes, each sound everywhere and exact on its stated range:

* short (tabulation windows): both strings are cut into overlapping windows
  of length 2m at positions 1 mod m, windows are deduplicated and joined with
  unique separators, and the LCS of the two reduced strings is computed with
  a suffix automaton.  Exact whenever the true LCS is at most m.

* medium (synchronizing set + tau-run anchors over S$T): anchor pairs become
  Two String Families LCP instances; the aperiodic case is a (tau, cap)
  family solved by the wavelet solver, the periodic cases are prefix families
  grouped by Lyndon root (and tail) solved in linear style.  Exact for
  true LCS in [3 tau, cap] (periodic cases reach further up).

* long (difference-cover anchors): positions of a d-cover anchor both
  occurrences; reversed prefixes and suffixes form one merged-trie instance
  for the general solver.  Exact whenever the true LCS is at least d.

The dispatcher cascades short -> medium -> long and returns the maximum; no
regime can overreport (every candidate is a genuine common substring), and
the parameter choices make the exactness ranges cover every length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .text_core import (
    CombinedText,
    PackedLcsError,
    PackedText,
    make_alphabet,
)
from .suffix_index import SuffixIndex, build_compacted_trie
from .sync_runs import build_sync_set, find_tau_runs
from .family_lcp import TwoFamiliesInstance, max_pair_lcp_general, max_pair_lcp_prefix
from .wavelet_lcp import solve_alpha_beta


@dataclass
class LcsResult:
    length: int
    pos_s: int  # 1-based witness starts; (1, 1) for an empty LCS
    pos_t: int
    regime: str = ""

    def better_than(self, other):
        return other is None or self.length > other.length


@dataclass(frozen=True)
class DCover:
    d: int
    residues: tuple  # sorted residues modulo d
    pair_for_delta: tuple  # delta -> residue a with a, (a+delta) mod d in set

    def h(self, i, j):
        a = self.pair_for_delta[(j - i) % self.d]
        return (a - i) % self.d

    def positions_in(self, n):
        """Sorted 1-based cover positions within [1, n]."""
        marks = np.zeros(self.d, dtype=bool)
        marks[list(self.residues)] = True
        idx = np.arange(1, n + 1)
        return idx[marks[idx % self.d]]


def build_d_cover(d, verify=None):
    """A d-cover: residues R and h with (i+h) mod d, (j+h) mod d in R."""
    if d < 1:
        raise PackedLcsError("d must be >= 1")
    r = max(1, math.isqrt(d - 1) + 1)
    base = set(range(r)) | {(j * r) % d for j in range(0, (d + r - 1) // r + 1)}
    base = sorted(x % d for x in base)

    def coverage(res_set):
        have = [None] * d
        res = sorted(res_set)
        for a in res:
            for b in res:
                delta = (b - a) % d
                if have[delta] is None:
                    have[delta] = a
        return have

    res = set(base)
    have = coverage(res)
    if any(x is None for x in have):
        raise PackedLcsError(f"internal: base construction missed a residue for d={d}")
    if d <= 4096:
        # Greedy pruning; keeps the documented O(sqrt d) size with a small
        # constant for the moduli the engine actually uses.
        for cand in sorted(res, reverse=True):
            trial = res - {cand}
            if len(trial) >= 1 and not any(x is None for x in coverage(trial)):
                res = trial
        have = coverage(res)
    cover = DCover(d=d, residues=tuple(sorted(res)), pair_for_delta=tuple(have))
    if verify is None:
        verify = d <= 2**14
    if verify:
        _verify_cover(cover)
    return cover


def _verify_cover(cover):
    d = cover.d
    marks = np.zeros(d, dtype=bool)
    marks[list(cover.residues)] = True
    pair = np.array(cover.pair_for_delta, dtype=np.int64)
    deltas = np.arange(d)
    if not marks[pair % d].all() or not marks[(pair + deltas) % d].all():
        raise PackedLcsError(f"d-cover validation failed for d={d}")


# -- suffix automaton (baseline LCS and the short regime's core) ------------


def lcs_suffix_automaton(a, b):
    """LCS of two int sequences; returns (length, end_in_a, end_in_b) with
    0-based inclusive end positions, or (0, -1, -1)."""
    trans = [{}]
    link = [-1]
    length = [0]
    first_end = [-1]
    last = 0
    for i, c in enumerate(a):
        c = int(c)
        cur = len(trans)
        trans.append({})
        length.append(length[last] + 1)
        link.append(-1)
        first_end.append(i)
        p = last
        while p != -1 and c not in trans[p]:
            trans[p][c] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = trans[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(trans)
                trans.append(dict(trans[q]))
                length.append(length[p] + 1)
                link.append(link[q])
                first_end.append(first_end[q])
                while p != -1 and trans[p].get(c) == q:
                    trans[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    best, best_j, best_state = 0, -1, 0
    v, l = 0, 0
    for j, c in enumerate(b):
        c = int(c)
        while v and c not in trans[v]:
            v = link[v]
            l = length[v]
        if c in trans[v]:
            v = trans[v][c]
            l += 1
        else:
            v, l = 0, 0
        if l > best:
            best, best_j, best_state = l, j, v
    if best == 0:
        return 0, -1, -1
    return best, first_end[best_state], best_j


# -- engine context ----------------------------------------------------------


class _Ctx:
    """Shared per-pair state: joint codes, the combined text, lazy indexes."""

    def __init__(self, s_raw, t_raw):
        alphabet = make_alphabet(s_raw, t_raw)
        self.alphabet = alphabet
        self.s_codes = alphabet.encode(_as_bytes(s_raw))
        self.t_codes = alphabet.encode(_as_bytes(t_raw))
        self.sigma = max(1, alphabet.size)
        self.ns, self.nt = len(self.s_codes), len(self.t_codes)
        self._combined = None
        self._index = None
        self._st = None
        self._st_index = None

    def combined(self):
        if self._combined is None:
            bits = max(1, int(np.ceil(np.log2(max(2, self.sigma)))))
            sp = PackedText(self.s_codes, bits, self.alphabet)
            tp = PackedText(self.t_codes, bits, self.alphabet)
            self._combined = CombinedText(sp, tp)
        return self._combined

    def index(self):
        if self._index is None:
            self._index = SuffixIndex(self.combined().codes())
        return self._index

    def st_codes(self):
        """S$T with letters shifted up by one and the separator at 0, so the
        natural suffix order equals fragment order."""
        if self._st is None:
            self._st = np.concatenate(
                [self.s_codes + 1, [0], self.t_codes + 1]
            ).astype(np.int64)
        return self._st

    def st_index(self):
        if self._st_index is None:
            self._st_index = SuffixIndex(self.st_codes())
        return self._st_index

    # fragment helpers in combined coordinates (0-based starts)
    def s_suffix(self, i):
        comb = self.combined()
        return comb.offsets["S"] - 1 + (i - 1), self.ns - i + 1

    def t_suffix(self, j):
        comb = self.combined()
        return comb.offsets["T"] - 1 + (j - 1), self.nt - j + 1

    def s_rev_prefix(self, i):
        """(S[1..i))^R as a combined fragment: start0, length = i - 1."""
        comb = self.combined()
        return comb.offsets["S_rev"] - 1 + (self.ns - i + 1), i - 1

    def t_rev_prefix(self, j):
        comb = self.combined()
        return comb.offsets["T_rev"] - 1 + (self.nt - j + 1), j - 1


def _as_bytes(raw):
    if isinstance(raw, str):
        return raw.encode("utf-8")
    return bytes(raw)


def _bitlen_u64(x):
    """Vectorized bit_length for uint64 arrays."""
    x = x.astype(np.uint64)
    hi = (x >> np.uint64(32)).astype(np.uint32)
    lo = (x & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    out = np.zeros(x.shape, dtype=np.int64)
    mh = hi > 0
    with np.errstate(divide="ignore"):
        out[mh] = 32 + np.floor(np.log2(hi[mh])).astype(np.int64) + 1
        ml = ~mh & (lo > 0)
        out[ml] = np.floor(np.log2(lo[ml])).astype(np.int64) + 1
    return out


def fragment_order_and_lcps(codes, starts0, lens, idx=None, suffix_like=False):
    """Sort fragments (start, length) of one code array lexicographically and
    return (order, adjacent LCPs of the sorted list).

    suffix_like: the fragments run to a below-letter terminator (segment
    suffixes), so raw suffix order is already fragment order.  Without an
    index this path sorts by packed prefix keys and resolves the rare deep
    ties by direct scans.
    """
    starts0 = np.asarray(starts0, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    m = len(starts0)
    if m == 0:
        return np.empty(0, dtype=np.int64), []
    if suffix_like and idx is None:
        order, lce = _suffix_subset_order(codes, starts0)
        out = np.minimum(lce, np.minimum(lens[order][:-1], lens[order][1:]))
        return order, out.tolist()
    if suffix_like:
        ranks = idx.isa[starts0]
        order = np.argsort(ranks, kind="stable")
        lcps = _subset_adjacent_lce(idx, ranks[order])
        out = np.minimum(lcps, np.minimum(lens[order][:-1], lens[order][1:]))
        return order, out.tolist()
    maxc = int(codes.max()) if len(codes) else 0
    bits = max(1, int(maxc + 1).bit_length())
    cap = int(lens.max())
    if cap * bits <= 62:
        keys = np.zeros(m, dtype=np.uint64)
        for t in range(cap):
            sym = np.zeros(m, dtype=np.uint64)
            mask = t < lens
            sym[mask] = codes[starts0[mask] + t].astype(np.uint64) + 1
            keys = (keys << np.uint64(bits)) | sym
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        x = ks[:-1] ^ ks[1:]
        lead = (cap * bits - _bitlen_u64(x)) // bits
        out = np.minimum(lead, np.minimum(lens[order][:-1], lens[order][1:]))
        return order, out.tolist()
    if idx is None:
        raise PackedLcsError("fragments too wide for packed keys; need an index")

    def lce_frag(a, b):
        ia, la = int(starts0[a]), int(lens[a])
        ib, lb = int(starts0[b]), int(lens[b])
        if la == 0 or lb == 0:
            return 0
        return min(idx.lce(ia + 1, ib + 1), la, lb)

    def cmp(a, b):
        t = lce_frag(a, b)
        la, lb = int(lens[a]), int(lens[b])
        if t == min(la, lb):
            return (la > lb) - (la < lb)
        ca, cb = int(codes[starts0[a] + t]), int(codes[starts0[b] + t])
        return (ca > cb) - (ca < cb)

    order = np.array(sorted(range(m), key=cmp_to_key(cmp)), dtype=np.int64)
    lcps = [lce_frag(int(order[r]), int(order[r + 1])) for r in range(m - 1)]
    return order, lcps


def _subset_adjacent_lce(idx, sorted_ranks):
    """LCE between rank-consecutive selected suffixes via segment minima.
    Equal ranks (duplicate positions) yield the full suffix length."""
    if len(sorted_ranks) <= 1:
        return np.empty(0, dtype=np.int64)
    hi = int(sorted_ranks[-1])
    starts = np.minimum(sorted_ranks[:-1] + 1, hi)
    out = np.minimum.reduceat(idx.lcp[: hi + 1], starts)
    same = sorted_ranks[:-1] == sorted_ranks[1:]
    if same.any():
        out[same] = idx.n - idx.sa[sorted_ranks[:-1][same]]
    return out


def _suffix_subset_order(codes, starts0):
    """Sort a position subset by suffix order with packed prefix keys; deep
    ties (equal prefixes of K symbols) resolve by direct scan.  Returns
    (order, adjacent LCE array)."""
    n = len(codes)
    maxc = int(codes.max()) if n else 0
    bits = max(1, int(maxc + 1).bit_length())
    k_sym = max(1, 64 // bits)
    m = len(starts0)
    keys = np.zeros(m, dtype=np.uint64)
    for t in range(k_sym):
        sym = np.zeros(m, dtype=np.uint64)
        pos = starts0 + t
        mask = pos < n
        sym[mask] = codes[pos[mask]].astype(np.uint64) + 1
        keys = (keys << np.uint64(bits)) | sym
    order = np.argsort(keys, kind="stable")
    ks = keys[order]

    def scan_lce(a, b, base):
        i, j = int(starts0[a]) + base, int(starts0[b]) + base
        out = base
        while i < n and j < n and codes[i] == codes[j]:
            i += 1
            j += 1
            out += 1
        return out

    def cmp_from(a, b, base):
        t = scan_lce(a, b, base)
        i, j = int(starts0[a]) + t, int(starts0[b]) + t
        la, lb = n - int(starts0[a]), n - int(starts0[b])
        if t >= min(la, lb):
            return (la > lb) - (la < lb)
        ca, cb = int(codes[i]), int(codes[j])
        return (ca > cb) - (ca < cb)

    # Resolve tie groups (equal packed keys) by full comparison.
    eq = np.flatnonzero(ks[:-1] == ks[1:])
    if eq.size:
        g = 0
        while g < len(eq):
            h = g
            while h + 1 < len(eq) and eq[h + 1] == eq[h] + 1:
                h += 1
            lo, hi = int(eq[g]), int(eq[h]) + 1
            chunk = sorted(
                order[lo : hi + 1].tolist(),
                key=cmp_to_key(lambda a, b: cmp_from(a, b, k_sym)),
            )
            order[lo : hi + 1] = chunk
            g = h + 1
        ks = keys[order]
    if m < 2:
        return order, np.empty(0, dtype=np.int64)
    x = ks[:-1] ^ ks[1:]
    lce = (k_sym * bits - _bitlen_u64(x)) // bits
    rem_a = (len(codes) - starts0[order])[:-1]
    rem_b = (len(codes) - starts0[order])[1:]
    lce = np.minimum(lce, np.minimum(rem_a, rem_b))
    deep = np.flatnonzero(x == 0)
    for r in deep:
        lce[r] = min(
            scan_lce(int(order[r]), int(order[r + 1]), k_sym),
            int(rem_a[r]),
            int(rem_b[r]),
        )
    return order, lce


def _trie_from_sorted(lens_sorted, lcps, ids_sorted):
    return build_compacted_trie(list(map(int, lens_sorted)), list(map(int, lcps)), list(map(int, ids_sorted)))


def _component_trie(codes, starts0, lens, idx=None, suffix_like=False):
    order, lcps = fragment_order_and_lcps(codes, starts0, lens, idx, suffix_like)
    lens = np.asarray(lens, dtype=np.int64)
    trie = _trie_from_sorted(lens[order], lcps, order)
    leaf_by_comp = [None] * len(order)
    for r, comp in enumerate(order):
        leaf_by_comp[int(comp)] = trie.leaf_of_input[r]
    return trie, leaf_by_comp


# -- short regime ------------------------------------------------------------


def lcs_short(s, t, m):
    """LCS via window tabulation; exact whenever the true LCS is <= m."""
    if m < 1:
        raise PackedLcsError("window size m must be >= 1")
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    return _lcs_short(ctx, m)


def _windows(codes, m, sep_start, xpos_base=None):
    out = []
    pos_map = []
    seen = {}
    sep = sep_start
    n = len(codes)
    for w in range(0, n, m):
        win = codes[w : w + 2 * m]
        key = win.tobytes()
        if key in seen:
            continue
        seen[key] = w
        for off, c in enumerate(win):
            out.append(int(c))
            pos_map.append(w + off + 1)
        out.append(sep)
        pos_map.append(-1)
        sep += 1
    return out, pos_map, sep


def _lcs_short(ctx, m):
    if ctx.ns == 0 or ctx.nt == 0:
        return LcsResult(0, 1, 1, "short")
    x, xpos, sep = _windows(ctx.s_codes, m, ctx.sigma)
    y, ypos, _ = _windows(ctx.t_codes, m, sep)
    ln, end_x, end_y = lcs_suffix_automaton(x, y)
    if ln == 0:
        return LcsResult(0, 1, 1, "short")
    return LcsResult(ln, xpos[end_x - ln + 1], ypos[end_y - ln + 1], "short")


# -- long regime -------------------------------------------------------------


def lcs_long(s, t, d):
    """LCS via d-cover anchors; exact whenever the true LCS is >= d."""
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    if d < 1:
        raise PackedLcsError("d must be >= 1")
    return _lcs_long(ctx, d)


def _lcs_long(ctx, d):
    if ctx.ns == 0 or ctx.nt == 0:
        return LcsResult(0, 1, 1, "long")
    cover = build_d_cover(d, verify=d <= 4096)
    idx = ctx.index()
    anchors_s = cover.positions_in(ctx.ns)
    anchors_t = cover.positions_in(ctx.nt)
    if len(anchors_s) == 0 or len(anchors_t) == 0:
        return LcsResult(0, 1, 1, "long")
    # Components: reversed prefixes and suffixes for both strings, merged into
    # one family F with a single trie (F1 = F2 = F).
    starts, lens, tag = [], [], []
    for a in anchors_s:
        p0, ln = ctx.s_rev_prefix(int(a))
        starts.append(p0); lens.append(ln); tag.append(("S", int(a), "rev"))
        p0, ln = ctx.s_suffix(int(a))
        starts.append(p0); lens.append(ln); tag.append(("S", int(a), "fwd"))
    for b in anchors_t:
        p0, ln = ctx.t_rev_prefix(int(b))
        starts.append(p0); lens.append(ln); tag.append(("T", int(b), "rev"))
        p0, ln = ctx.t_suffix(int(b))
        starts.append(p0); lens.append(ln); tag.append(("T", int(b), "fwd"))
    codes = ctx.combined().codes()
    trie, leaf = _component_trie(codes, starts, lens, idx, suffix_like=True)
    p_elems, q_elems, p_anchor, q_anchor = [], [], [], []
    for k in range(0, len(tag), 2):
        which, a, _ = tag[k]
        pair = (leaf[k], leaf[k + 1])
        if which == "S":
            p_elems.append(pair)
            p_anchor.append(a)
        else:
            q_elems.append(pair)
            q_anchor.append(a)
    inst = TwoFamiliesInstance(trie, trie, p_elems, q_elems)
    res = max_pair_lcp_general(inst)
    if res.witness is None or res.value == 0:
        return LcsResult(0, 1, 1, "long")
    pi, qi = res.witness
    a, b = p_anchor[pi], q_anchor[qi]
    left = inst.lcp1.lcp(
        trie.leaf_rank[p_elems[pi][0]], trie.leaf_rank[q_elems[qi][0]]
    )
    return LcsResult(res.value, a - left, b - left, "long")


# -- medium regime -----------------------------------------------------------


def regime_parameters(ns, nt, sigma):
    """(tau, short window m, medium/long cap) for the dispatcher."""
    n = max(ns, nt, 1)
    sig = max(2, sigma)
    log_sigma_n = math.log(n, sig) if n > 1 else 0.0
    tau = max(3, int(log_sigma_n // 9))
    m_short = max(1, math.ceil(log_sigma_n / 3), 3 * tau)
    cap = max(1, min(n, int(2 ** math.sqrt(math.log2(n))) if n > 1 else 1))
    return tau, m_short, cap


@dataclass
class MediumAnchors:
    tau: int
    a1_s: np.ndarray  # sync anchors, 1-based positions in S
    a1_t: np.ndarray
    a2: list  # (which, anchor_pos, run) for first two Lyndon occurrences
    a3: list  # (which, anchor_pos, run) for run ends


def build_anchors_medium(s, t, tau):
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    return _build_anchors_medium(ctx, tau)


def _split_st(ctx, pos):
    """Map a 1-based S$T position to ('S'|'T', in-string position)."""
    if pos <= ctx.ns:
        return "S", pos
    if pos == ctx.ns + 1:
        return None, None
    return "T", pos - ctx.ns - 1


def _build_anchors_medium(ctx, tau):
    st = ctx.st_codes()
    sync = build_sync_set(st, tau)
    a1_s = sync.positions[sync.positions <= ctx.ns]
    a1_t = sync.positions[sync.positions > ctx.ns + 1] - (ctx.ns + 1)
    runs = find_tau_runs(st, tau)
    a2, a3 = [], []
    for run in runs:
        for a in (run.lyndon_start, run.second_lyndon_start):
            which, p = _split_st(ctx, a)
            if which and a <= run.end:
                a2.append((which, p, run))
        which, p = _split_st(ctx, run.end)
        if which:
            a3.append((which, p, run))
    return MediumAnchors(tau, a1_s, a1_t, a2, a3)


def lcs_medium(s, t, tau=None, cap=None):
    """LCS via sync-set and run anchors; exact for true LCS in [3 tau, cap]
    (the periodic cases stay exact above the cap).  tau and cap default to
    the dispatcher's parameters and are overridable as a testing hook."""
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    d_tau, _, d_cap = regime_parameters(ctx.ns, ctx.nt, ctx.sigma)
    return _lcs_medium(ctx, tau or d_tau, cap or d_cap)


def _lcs_medium(ctx, tau, cap):
    n_st = ctx.ns + ctx.nt + 1
    if ctx.ns == 0 or ctx.nt == 0 or tau > n_st // 2:
        return LcsResult(0, 1, 1, "medium")
    anchors = _build_anchors_medium(ctx, tau)
    best = LcsResult(0, 1, 1, "medium")
    for cand in (
        _medium_case_one(ctx, anchors, tau, cap),
        _medium_case_two(ctx, anchors),
        _medium_case_three(ctx, anchors),
    ):
        if cand is not None and cand.length > best.length:
            best = cand
    return best


_BULK_CASE_ONE = 20000


def _medium_case_one_bulk(ctx, anchors, tau, cap):
    """Vectorized case I: packed window keys, distinct-key trie, array-core
    wavelet solve.  Requires tau and cap windows to fit one word."""
    from .wavelet_lcp import solve_alpha_beta_core

    st = ctx.st_codes()
    n = len(st)
    maxc = int(st.max()) if n else 0
    bits = max(1, int(maxc + 1).bit_length())
    a_all = np.concatenate([anchors.a1_s, anchors.a1_t]).astype(np.int64)
    origin = np.concatenate(
        [np.zeros(len(anchors.a1_s), bool), np.ones(len(anchors.a1_t), bool)]
    )
    if not origin.any() or origin.all():
        return None
    pos0 = np.where(origin, ctx.ns + 1 + a_all - 1, a_all - 1)  # st 0-based
    slen = np.where(origin, ctx.nt, ctx.ns)
    l1 = np.minimum(tau, a_all - 1)
    l2 = np.minimum(cap, slen - a_all + 1)
    key1 = np.zeros(len(a_all), dtype=np.uint64)
    for t in range(tau):
        sym = np.zeros(len(a_all), dtype=np.uint64)
        mask = t < l1
        sym[mask] = st[pos0[mask] - 1 - t].astype(np.uint64) + 1
        key1 = (key1 << np.uint64(bits)) | sym
    key2 = np.zeros(len(a_all), dtype=np.uint64)
    for t in range(cap):
        sym = np.zeros(len(a_all), dtype=np.uint64)
        mask = t < l2
        sym[mask] = st[pos0[mask] + t].astype(np.uint64) + 1
        key2 = (key2 << np.uint64(bits)) | sym
    uniq, inv = np.unique(key1, return_inverse=True)
    # Distinct first components: decode lengths and adjacent LCPs from keys.
    mask_v = np.uint64((1 << bits) - 1)
    symmat = np.empty((len(uniq), tau), dtype=np.int64)
    for t in range(tau):
        symmat[:, t] = ((uniq >> np.uint64(bits * (tau - 1 - t))) & mask_v).astype(np.int64)
    lens_u = (symmat != 0).sum(axis=1)  # pad runs are suffixes of the key
    if len(uniq) > 1:
        x = uniq[:-1] ^ uniq[1:]
        lcp_u = (tau * bits - _bitlen_u64(x)) // bits
        lcp_u = np.minimum(lcp_u, np.minimum(lens_u[:-1], lens_u[1:]))
    else:
        lcp_u = np.empty(0, dtype=np.int64)
    trie1 = _trie_from_sorted(lens_u, lcp_u, np.arange(len(uniq)))
    order = np.argsort(key2, kind="stable")
    k2s = key2[order]
    m = len(order)
    root_vals = np.zeros(m, dtype=np.int64)
    if m > 1:
        x2 = k2s[:-1] ^ k2s[1:]
        lv = (cap * bits - _bitlen_u64(x2)) // bits
        lv = np.minimum(lv, np.minimum(l2[order][:-1], l2[order][1:]))
        root_vals[1:] = lv
    val, positions = solve_alpha_beta_core(
        trie1, inv[order], root_vals, origin[order], cap
    )
    if positions is None:
        return None
    ia, ib = (int(order[p]) for p in positions)
    if origin[ia]:
        ia, ib = ib, ia
    a, b = int(a_all[ia]), int(a_all[ib])
    # Split the value into a genuine backward + forward match.
    lcp1 = 0
    pa, pb = int(pos0[ia]), int(pos0[ib])
    while (
        lcp1 < min(int(l1[ia]), int(l1[ib]))
        and st[pa - 1 - lcp1] == st[pb - 1 - lcp1]
    ):
        lcp1 += 1
    left = min(lcp1, val)
    return LcsResult(val, a - left, b - left, "medium")


def _medium_case_one(ctx, anchors, tau, cap):
    st = ctx.st_codes()
    maxc = int(st.max()) if len(st) else 0
    bits = max(1, int(maxc + 1).bit_length())
    if (
        len(anchors.a1_s) + len(anchors.a1_t) >= _BULK_CASE_ONE
        and tau * bits <= 62
        and cap * bits <= 62
    ):
        return _medium_case_one_bulk(ctx, anchors, tau, cap)
    elems = []  # (origin, anchor, rev_start0, rev_len, fwd_start0, fwd_len)
    for a in anchors.a1_s:
        a = int(a)
        l1 = min(tau, a - 1)
        l2 = min(cap, ctx.ns - a + 1)
        elems.append((0, a, a - 1 - l1, l1, a - 1, l2))
    off_t = ctx.ns + 1
    for b in anchors.a1_t:
        b = int(b)
        l1 = min(tau, b - 1)
        l2 = min(cap, ctx.nt - b + 1)
        elems.append((1, b, off_t + b - 1 - l1, l1, off_t + b - 1, l2))
    if not any(e[0] == 0 for e in elems) or not any(e[0] == 1 for e in elems):
        return None
    # First components are reversed in-place windows; realize them as plain
    # key strings by reading backwards (packed keys handle both sides).
    rev_codes = st[::-1]
    n = len(st)
    rev_starts = [n - (e[2] + e[3]) for e in elems]
    trie1, leaf1 = _component_trie(rev_codes, rev_starts, [e[3] for e in elems])
    st_idx = ctx.st_index() if _needs_index(st, [e[5] for e in elems]) else None
    trie2, leaf2 = _component_trie(st, [e[4] for e in elems], [e[5] for e in elems], st_idx)
    p_elems = [(leaf1[i], leaf2[i]) for i, e in enumerate(elems) if e[0] == 0]
    q_elems = [(leaf1[i], leaf2[i]) for i, e in enumerate(elems) if e[0] == 1]
    p_ids = [i for i, e in enumerate(elems) if e[0] == 0]
    q_ids = [i for i, e in enumerate(elems) if e[0] == 1]
    inst = TwoFamiliesInstance(trie1, trie2, p_elems, q_elems)
    res = solve_alpha_beta(inst, tau, cap)
    if res.witness is None:
        return None
    pi, qi = res.witness
    ea, eb = elems[p_ids[pi]], elems[q_ids[qi]]
    left = inst.lcp1.lcp(
        trie1.leaf_rank[p_elems[pi][0]], trie1.leaf_rank[q_elems[qi][0]]
    )
    return LcsResult(res.value, ea[1] - left, eb[1] - left, "medium")


def _needs_index(codes, lens):
    if not lens:
        return False
    maxc = int(codes.max()) if len(codes) else 0
    bits = max(1, int(maxc + 1).bit_length())
    return max(lens) * bits > 62


def _medium_case_two(ctx, anchors):
    st = ctx.st_codes()
    groups = {}
    for which, pos, run in anchors.a2:
        key = (run.period, tuple(int(c) for c in st[run.lyndon_start - 1 : run.lyndon_start - 1 + run.period]))
        groups.setdefault(key, []).append((which, pos, run))
    return _solve_prefix_groups(ctx, groups, case="II")


def _medium_case_three(ctx, anchors):
    st = ctx.st_codes()
    groups = {}
    for which, pos, run in anchors.a3:
        key = (
            run.period,
            tuple(int(c) for c in st[run.lyndon_start - 1 : run.lyndon_start - 1 + run.period]),
            run.tail,
        )
        groups.setdefault(key, []).append((which, pos, run))
    return _solve_prefix_groups(ctx, groups, case="III")


def _solve_prefix_groups(ctx, groups, case):
    best = None
    st = ctx.st_codes()
    st_idx = None
    for key, members in groups.items():
        if not any(m[0] == "S" for m in members) or not any(m[0] == "T" for m in members):
            continue
        # Element: first = reversed run prefix before the anchor; second =
        # rest of run (case II) or suffix of the string from the run end
        # (case III).
        recs = []
        for which, pos, run in members:
            run_start_in_string = run.start if which == "S" else run.start - ctx.ns - 1
            len1 = pos - run_start_in_string
            # Prefix-family hinge: the anchor must sit on the group's root
            # phase, so backward reads from all anchors spell prefixes of one
            # rotation power.
            st_pos = pos if which == "S" else pos + ctx.ns + 1
            if case == "II":
                off_phase = (st_pos - run.lyndon_start) % run.period != 0
            else:
                off_phase = (run.end + 1 - run.lyndon_start) % run.period != run.tail
            if off_phase:
                raise PackedLcsError(
                    f"case {case} anchor at {which}{pos} is off its run's root phase"
                )
            if case == "II":
                run_end_in_string = run.end if which == "S" else run.end - ctx.ns - 1
                len2 = run_end_in_string - pos + 1
                recs.append((which, pos, len1, len2, None))
            else:
                slen = ctx.ns if which == "S" else ctx.nt
                len2 = slen - pos + 1
                st_pos0 = pos - 1 if which == "S" else ctx.ns + 1 + pos - 1
                recs.append((which, pos, len1, len2, st_pos0))
        # trie1: prefixes of one common periodic string; sort by length.
        order1 = sorted(range(len(recs)), key=lambda i: recs[i][2])
        lens1 = [recs[i][2] for i in order1]
        lcps1 = [min(lens1[r], lens1[r + 1]) for r in range(len(lens1) - 1)]
        trie1 = _trie_from_sorted(lens1, lcps1, order1)
        leaf1 = [None] * len(recs)
        for r, e in enumerate(order1):
            leaf1[int(e)] = trie1.leaf_of_input[r]
        if case == "II":
            order2 = sorted(range(len(recs)), key=lambda i: recs[i][3])
            lens2 = [recs[i][3] for i in order2]
            lcps2 = [min(lens2[r], lens2[r + 1]) for r in range(len(lens2) - 1)]
            trie2 = _trie_from_sorted(lens2, lcps2, order2)
            leaf2 = [None] * len(recs)
            for r, e in enumerate(order2):
                leaf2[int(e)] = trie2.leaf_of_input[r]
        else:
            if st_idx is None and len(st) <= (1 << 17):
                st_idx = ctx.st_index()
            trie2, leaf2 = _component_trie(
                st, [r[4] for r in recs], [r[3] for r in recs], st_idx, suffix_like=True
            )
        p_elems, q_elems, p_ids, q_ids = [], [], [], []
        for i, r in enumerate(recs):
            if r[0] == "S":
                p_elems.append((leaf1[i], leaf2[i]))
                p_ids.append(i)
            else:
                q_elems.append((leaf1[i], leaf2[i]))
                q_ids.append(i)
        inst = TwoFamiliesInstance(trie1, trie2, p_elems, q_elems)
        res = max_pair_lcp_prefix(inst)
        if res.witness is None:
            continue
        pi, qi = res.witness
        ra, rb = recs[p_ids[pi]], recs[q_ids[qi]]
        left = min(ra[2], rb[2])
        cand = LcsResult(res.value, ra[1] - left, rb[1] - left, "medium")
        if best is None or cand.length > best.length:
            best = cand
    return best


# -- dispatcher --------------------------------------------------------------


def lcs(s, t):
    """Exact LCS of two byte strings with witness positions."""
    ctx = _Ctx(s, t)
    if ctx.ns == 0 or ctx.nt == 0:
        return LcsResult(0, 1, 1, "short")
    tau, m_short, cap = regime_parameters(ctx.ns, ctx.nt, ctx.sigma)
    best = _lcs_short(ctx, m_short)
    if best.length <= m_short:
        return best
    med = _lcs_medium(ctx, tau, cap)
    if med.length > best.length:
        best = med
    if best.length >= cap:
        lng = _lcs_long(ctx, cap)
        if lng.length > best.length:
            best = lng
    return best
