"""Exact longest common substring via the three-regime anchor strategy.

Regimes, each sound everywhere and exact on its stated range:

* short (tabulation windows): both strings are cut into overlapping windows
  of length 2m at positions 1 mod m.  Every position p carries the longest
  window suffix that starts there, L(p) = min(2m - p mod m, n - p) symbols,
  as a packed multi-word key; one sort of the S and T keys together finds the
  longest common window substring at an adjacent S-T pair.  Exact whenever
  the true LCS is at most m.

* medium (synchronizing set + tau-run anchors over S$T): anchor pairs become
  Two String Families LCP instances; the aperiodic case is a (tau, cap)
  family solved one trie level at a time, the periodic cases are prefix
  families grouped by Lyndon root (and tail) solved in linear style.  Exact
  for true LCS in [3 tau, cap] (periodic cases reach further up).

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

from . import wavelet_lcp
from .text_core import CombinedText, PackedLcsError, _as_byte_seq, make_alphabet
from .suffix_index import SuffixIndex, build_compacted_trie
from .sync_runs import build_sync_set, find_tau_runs, root_key
from .family_lcp import TwoFamiliesInstance, max_pair_lcp_general, max_pair_lcp_prefix


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


# -- suffix automaton (baseline LCS) -----------------------------------------


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
        self.s_codes = alphabet.encode(_as_byte_seq(s_raw))
        self.t_codes = alphabet.encode(_as_byte_seq(t_raw))
        self.sigma = max(1, alphabet.size)
        self.ns, self.nt = len(self.s_codes), len(self.t_codes)
        self._combined = None
        self._index = None
        self._st = None
        self._st_index = None

    def combined(self):
        if self._combined is None:
            self._combined = CombinedText(self.s_codes, self.t_codes)
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


def fragment_order_and_lcps(codes, starts0, lens, idx=None):
    """Sort suffix components (start, length) of one code array and return
    (order, adjacent LCPs of the sorted list) as int arrays.

    Each component runs from its start to a terminator below every letter
    (a segment end), so suffix order is already component order.  idx, when
    given, is a SuffixIndex over codes that supplies that order; otherwise
    the suffixes are sorted by packed prefix keys with deep ties scanned.
    """
    starts0 = np.asarray(starts0, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    if len(starts0) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if idx is None:
        order, lcps = _suffix_subset_order(codes, starts0)
    else:
        ranks = idx.isa[starts0]
        order = np.argsort(ranks, kind="stable")
        lcps = _subset_adjacent_lce(idx, ranks[order])
    return order, np.minimum(lcps, np.minimum(lens[order][:-1], lens[order][1:]))


def _sort_packed_fragments(codes, starts0, lens, width):
    """Sort fragments of at most width symbols by packed keys; return (order,
    adjacent LCPs of the sorted list).

    A key holds code + 1 per symbol, bits = bit length of (max code + 1)
    wide, 64 // bits symbols per uint64 word, first symbol highest, over
    ceil(width / (64 // bits)) words.  Slots past a fragment's length are
    masked to 0, so a fragment sorts before its extensions.  One stable
    lexsort (word 0 primary) orders the keys, and the first differing word of
    each adjacent pair gives its count of common leading symbols.
    """
    m, n = len(starts0), len(codes)
    bits = max(1, (int(codes.max()) + 1).bit_length()) if n else 1
    per = 64 // bits
    n_words = max(1, -(-width // per))
    src = np.zeros(n + width, dtype=np.uint64)  # zero tail: reads past codes
    src[:n] = codes + 1
    keys = np.zeros((n_words, m), dtype=np.uint64)
    for t in range(width):
        keys[t // per] |= src[t:].take(starts0) << np.uint64(bits * (per - 1 - t % per))
    # keep[v] keeps the top v symbol slots of a word.
    used = (1 << (per * bits)) - 1
    keep = np.array(
        [used ^ ((1 << (bits * (per - v))) - 1) for v in range(per + 1)], dtype=np.uint64
    )
    for w in range(n_words):
        keys[w] &= keep[np.clip(lens - w * per, 0, per)]
    order = np.lexsort(keys[::-1])
    if m < 2:
        return order, np.empty(0, dtype=np.int64)
    ks = keys[:, order]
    x = ks[:, :-1] ^ ks[:, 1:]
    word = np.argmax(x != 0, axis=0)
    xw = x[word, np.arange(m - 1)]
    common = np.where(
        xw == 0, n_words * per, word * per + (per * bits - _bitlen_u64(xw)) // bits
    )
    lo = lens[order]
    return order, np.minimum(common, np.minimum(lo[:-1], lo[1:]))


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


def _sorted_trie(order, lens_sorted, lcps):
    """Compacted trie of a list given in sorted order, and the node of every
    input element (element order[r] has length lens_sorted[r])."""
    trie = build_compacted_trie(lens_sorted, lcps, order)
    leaf_by_comp = np.empty(len(order), dtype=np.int64)
    leaf_by_comp[order] = trie.leaf_of_input
    return trie, leaf_by_comp


def _component_trie(codes, starts0, lens, idx=None):
    order, lcps = fragment_order_and_lcps(codes, starts0, lens, idx)
    return _sorted_trie(order, np.asarray(lens, dtype=np.int64)[order], lcps)


def _prefix_trie(lens):
    """Trie of prefixes of one common string, given their lengths."""
    order = np.argsort(lens, kind="stable")
    lens_sorted = np.asarray(lens, dtype=np.int64)[order]
    return _sorted_trie(order, lens_sorted, np.minimum(lens_sorted[:-1], lens_sorted[1:]))


# -- short regime ------------------------------------------------------------


# Largest packed-key table the short regime builds, in uint64 words (2 GiB).
_SHORT_KEY_WORDS = 1 << 28


def lcs_short(s, t, m):
    """LCS via window tabulation; exact whenever the true LCS is <= m, and
    above m whenever the true LCS is.  Keys take ceil(min(2m, n) / (64 //
    bits)) uint64 words per position of S and T; a call whose keys would
    exceed 2^28 words (2 GiB) raises PackedLcsError before allocating them.
    The dispatcher's m (at most about 10) stays far below that."""
    if m < 1:
        raise PackedLcsError("window size m must be >= 1")
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    return _lcs_short(ctx, m)


def _lcs_short(ctx, m):
    if ctx.ns == 0 or ctx.nt == 0:
        return LcsResult(0, 1, 1, "short")
    width = min(2 * m, max(ctx.ns, ctx.nt))
    bits = (int(max(ctx.s_codes.max(), ctx.t_codes.max())) + 1).bit_length()
    words = (ctx.ns + ctx.nt) * -(-width // (64 // bits))
    if words > _SHORT_KEY_WORDS:
        raise PackedLcsError(
            f"short regime with m={m} needs {words} key words, "
            f"above the budget of {_SHORT_KEY_WORDS}"
        )
    # Windows start at multiples of m and span 2m symbols.  The one starting
    # at m * floor(p / m) holds the longest window suffix from p; the suffix
    # from p in the window before it is a prefix of that one.
    lens = np.concatenate(
        [np.minimum(2 * m - np.arange(n) % m, n - np.arange(n)) for n in (ctx.ns, ctx.nt)]
    )
    codes = np.concatenate([ctx.s_codes, ctx.t_codes])
    starts0 = np.arange(ctx.ns + ctx.nt)
    order, lcps = _sort_packed_fragments(codes, starts0, lens, int(lens.max()))
    from_t = order >= ctx.ns
    vals = np.where(from_t[:-1] != from_t[1:], lcps, 0)
    r = int(np.argmax(vals))
    if vals[r] == 0:
        return LcsResult(0, 1, 1, "short")
    a, b = sorted((int(order[r]), int(order[r + 1])))
    return LcsResult(int(vals[r]), a + 1, b - ctx.ns + 1, "short")


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
    # one family F with a single trie (F1 = F2 = F).  Blocks: reversed
    # prefixes of S, suffixes of S, then the same for T.
    off = ctx.combined().offsets
    starts = np.concatenate([
        off["S_rev"] - 1 + ctx.ns - anchors_s + 1, off["S"] - 2 + anchors_s,
        off["T_rev"] - 1 + ctx.nt - anchors_t + 1, off["T"] - 2 + anchors_t,
    ])
    lens = np.concatenate([
        anchors_s - 1, ctx.ns - anchors_s + 1, anchors_t - 1, ctx.nt - anchors_t + 1,
    ])
    codes = ctx.combined().codes()
    trie, leaf = _component_trie(codes, starts, lens, idx)
    n_s = len(anchors_s)
    leaf_s, leaf_t = leaf[: 2 * n_s].reshape(2, -1), leaf[2 * n_s :].reshape(2, -1)
    inst = TwoFamiliesInstance(trie, trie, leaf_s.T, leaf_t.T)
    res = max_pair_lcp_general(inst)
    if res.witness is None or res.value == 0:
        return LcsResult(0, 1, 1, "long")
    pi, qi = res.witness
    left = inst.first_lcp(pi, qi)
    return LcsResult(res.value, int(anchors_s[pi]) - left, int(anchors_t[qi]) - left, "long")


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


def _medium_case_one(ctx, anchors, tau, cap):
    """Case I: one (tau, cap)-family instance over the sync anchors, solved
    by the (alpha, beta)-family core.  An element's first component is the
    up to tau symbols before its anchor, read backwards; its second the up to
    cap symbols from it.  Both families are sorted by packed keys: the distinct
    first components form trie1 (symbol s = leaf rank s), and the adjacent
    LCPs of the sorted second components are the root list."""
    a_s, a_t = anchors.a1_s, anchors.a1_t
    if not len(a_s) or not len(a_t):
        return None
    st = ctx.st_codes()
    anchor = np.concatenate([a_s, a_t])
    fwd0 = np.concatenate([a_s - 1, ctx.ns + a_t])  # 0-based starts in S$T
    len1 = np.minimum(tau, anchor - 1)
    len2 = np.minimum(cap, np.concatenate([ctx.ns - a_s, ctx.nt - a_t]) + 1)
    order1, lcp1 = _sort_packed_fragments(st[::-1], st.size - fwd0, len1, tau)
    sorted_len1 = len1[order1]
    new = np.ones(anchor.size, dtype=bool)
    new[1:] = (lcp1 < sorted_len1[:-1]) | (lcp1 < sorted_len1[1:])
    sym = np.empty(anchor.size, dtype=np.int64)
    sym[order1] = np.cumsum(new) - 1
    trie1 = build_compacted_trie(sorted_len1[new], lcp1[new[1:]])
    order2, lcp2 = _sort_packed_fragments(st, fwd0, len2, int(len2.max()))
    val, positions = wavelet_lcp.solve_alpha_beta_core(
        trie1, sym[order2], np.concatenate([[0], lcp2]), order2 >= len(a_s), cap
    )
    if positions is None:
        return None
    # The pair differs in origin, so the smaller index is S's anchor.
    i, j = sorted(int(order2[p]) for p in positions)
    leaf = trie1.leaf_at_rank
    left = min(trie1.lca_depth(leaf[sym[i]], leaf[sym[j]]), val)
    return LcsResult(val, int(anchor[i]) - left, int(anchor[j]) - left, "medium")


def _medium_case_two(ctx, anchors):
    st = ctx.st_codes()
    groups = {}
    for which, pos, run in anchors.a2:
        groups.setdefault(root_key(st, run), []).append((which, pos, run))
    return _solve_prefix_groups(ctx, groups, case="II")


def _medium_case_three(ctx, anchors):
    st = ctx.st_codes()
    groups = {}
    for which, pos, run in anchors.a3:
        groups.setdefault(root_key(st, run) + (run.tail,), []).append((which, pos, run))
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
        # trie1: prefixes of one common periodic string; so is case II's trie2.
        trie1, leaf1 = _prefix_trie([r[2] for r in recs])
        if case == "II":
            trie2, leaf2 = _prefix_trie([r[3] for r in recs])
        else:
            if st_idx is None and len(st) <= (1 << 17):
                st_idx = ctx.st_index()
            trie2, leaf2 = _component_trie(
                st, [r[4] for r in recs], [r[3] for r in recs], st_idx
            )
        in_s = np.array([r[0] == "S" for r in recs])
        p_ids, q_ids = np.flatnonzero(in_s), np.flatnonzero(~in_s)
        elems = np.stack([leaf1, leaf2], axis=1)
        inst = TwoFamiliesInstance(trie1, trie2, elems[p_ids], elems[q_ids])
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
