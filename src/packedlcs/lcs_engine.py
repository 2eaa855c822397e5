"""Exact longest common substring: the short regime on the packed seed of
S$T, then one scan of its suffix array.  The paper's three regimes are its
reference path.

lcs() runs the short regime at m + 1 = per = 64 // bit_length(sigma + 1),
one sorted word per suffix (the seed), and returns its answer whenever it
is below per, where it is exact.  Otherwise it doubles the suffix array of
S$T from that sort and scans it once, the classical suffix-tree route
(Weiner 1973, Farach 1997): the longest common prefix of an S suffix and a
T suffix is reached at a pair of suffixes adjacent in the suffix array with
one from each string, so one batched LCE over those pairs is exact at every
length.  The medium and long regimes run only when forced (lcs_medium,
lcs_long, the CLI's --force-regime).  The regimes, each sound everywhere and
exact on its stated range:

* short (S$T suffixes cut at m + 1 symbols): every position of S and T
  keys the first min(m + 1, rest of the text) symbols of its suffix of S$T,
  packed into words; one sort of those keys puts the longest S-T common
  prefix, capped at m + 1, at an adjacent S-T pair, the scan's argument at
  depth m + 1.  An S key may run across the separator, which no T key holds.
  The answer is min(LCS, m + 1): exact whenever the true LCS is at most m.

* medium (synchronizing set + tau-run anchors over S$T): anchor pairs become
  Two String Families LCP instances; the aperiodic case is a (tau, cap)
  family solved one trie level at a time; each periodic case is one
  instance whose first trie holds a chain of prefixes per Lyndon root (and
  tail), solved by the general solver.  Exact
  for true LCS in [3 tau, cap] (periodic cases reach further up).

* long (difference-cover anchors): positions of a d-cover anchor both
  occurrences; the reversed prefixes before the anchors, cut at d - 1
  symbols and sorted by packed keys, form trie 1, and the suffixes from them,
  ordered by the suffix index over S$T, trie 2, for the general solver.
  Exact whenever the true LCS is at least d.

Neither a regime nor the scan can overreport: every candidate is a genuine
common substring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import wavelet_lcp
from .text_core import (
    PackedLcsError,
    _as_byte_seq,
    _sort_packed_fragments,
    make_alphabet,
    mismatch_offsets,
    pack_keys,
    symbol_bits,
)
from .suffix_index import SuffixIndex, build_compacted_trie, seed_sort
from .sync_runs import build_sync_set, find_tau_runs
from .family_lcp import TwoFamiliesInstance, max_pair_lcp_general


@dataclass
class LcsResult:
    length: int
    pos_s: int  # 1-based witness starts; (1, 1) for an empty LCS
    pos_t: int
    regime: str = ""  # "short" (LCS < per) or "scan" from lcs(); else forced


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


def build_d_cover(d):
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
    """Shared per-pair state: joint codes, the one text S$T and its seed.
    Its suffix index is built per call of index(), freed with its caller."""

    def __init__(self, s_raw, t_raw):
        alphabet = make_alphabet(s_raw, t_raw)
        self.s_codes = alphabet.encode(_as_byte_seq(s_raw))
        self.t_codes = alphabet.encode(_as_byte_seq(t_raw))
        self.sigma = max(1, alphabet.size)
        self.ns, self.nt = len(self.s_codes), len(self.t_codes)
        self._st = None

    def st_codes(self):
        """S$T with letters shifted up by one and the separator at 0, so the
        natural suffix order equals fragment order."""
        if self._st is None:
            self._st = np.concatenate(
                [self.s_codes + 1, [0], self.t_codes + 1]
            ).astype(np.int64)
        return self._st

    @cached_property
    def seed(self):
        """seed_sort of S$T, sorted once for the short regime and the index."""
        return seed_sort(self.st_codes())

    def index(self):
        """A new SuffixIndex over S$T; a suffix from a position of S or T
        spells the rest of its string up to a terminator below every letter."""
        return SuffixIndex(self.st_codes(), self.seed)

    def back_starts(self, pos_s, pos_t):
        """0-based starts in (S$T)^R = st_codes()[::-1] of the prefixes
        before the 1-based positions pos_s of S and pos_t of T, read
        backwards as packed keys (pack_keys).  There S[a] sits at
        ns + nt + 1 - a and T[b] at nt - b; S's empty prefix starts one past
        the end, where pack_keys reads its zero tail."""
        return self.ns + self.nt + 2 - pos_s, self.nt + 1 - pos_t


def fragment_order_and_lcps(codes, starts0, lens, index):
    """Sort suffix components (start, length) of one code array and return
    (order, adjacent LCPs of the sorted list) as int arrays.

    Each component runs from its start to a terminator below every letter
    (a segment end), so suffix order is already component order.  The
    components are sorted by their first word of packed symbols.  Only when
    an adjacent pair agrees on that whole word and the longer of the two runs
    past it is the word not enough; then index(), which returns a SuffixIndex
    over codes, orders them all.  (A component of exactly one word's symbols
    ties with its own extension, so it is the longer one that must fit.)
    """
    per = 64 // symbol_bits(codes)
    order, lcps = _sort_packed_fragments(codes, starts0, np.minimum(lens, per), per)
    lo = lens[order]
    if ((lcps == per) & (np.maximum(lo[:-1], lo[1:]) > per)).any():
        return _index_order(index(), starts0, lens)
    return order, lcps


def _index_order(idx, starts0, lens):
    """Order suffix components (start, length) of idx's text by suffix rank;
    return (order, adjacent LCPs capped at the lengths)."""
    order = np.argsort(idx.isa[starts0], kind="stable")
    first = starts0[order] + 1
    lo = lens[order]
    lcps = idx.lce_bulk(first[:-1], first[1:])
    return order, np.minimum(lcps, np.minimum(lo[:-1], lo[1:]))


def _sorted_trie(order, lens_sorted, lcps):
    """Compacted trie of a list given in sorted order, and the node of every
    input element (element order[r] has length lens_sorted[r])."""
    trie = build_compacted_trie(lens_sorted, lcps)
    leaf_by_comp = np.empty(len(order), dtype=np.int64)
    leaf_by_comp[order] = trie.leaf_of_input
    return trie, leaf_by_comp


def _solve_families(trie1, leaf1, trie2, leaf2, anchors_s, anchors_t, regime):
    """Solve the Two String Families instance whose elements are the leaf
    pairs (leaf1[i], leaf2[i]), P's first: one per 1-based anchor of
    anchors_s in S, then Q's, one per anchor of anchors_t in T.  A first
    component reads backwards from its anchor, so the witness starts its
    first-component LCP before the pair's anchors.  Returns the best pair as
    an LcsResult, or None when a family is empty."""
    elems = np.stack([leaf1, leaf2], axis=1)
    n_p = len(anchors_s)
    inst = TwoFamiliesInstance(trie1, trie2, elems[:n_p], elems[n_p:])
    res = max_pair_lcp_general(inst)
    if res.witness is None:
        return None
    pi, qi = res.witness
    left = inst.first_lcp(pi, qi)
    return LcsResult(res.value, int(anchors_s[pi]) - left, int(anchors_t[qi]) - left, regime)


# -- short regime ------------------------------------------------------------


def _best_st_pair(ctx, sa, best_boundary, regime):
    """The best S-T pair of a sorted list sa of 0-based S$T starts (the
    separator's left out): the longest common prefix of an S and a T entry
    is reached at a pair adjacent in sa with one entry from each string.
    best_boundary(r) gives (p, LCP) for a longest pair (sa[p], sa[p + 1])
    among the ranks r where sa crosses between S and T.  Returns it as an
    LcsResult with 1-based witnesses.  S and T must be nonempty."""
    from_t = sa > ctx.ns
    p, length = best_boundary(np.flatnonzero(from_t[:-1] != from_t[1:]))
    if length == 0:
        return LcsResult(0, 1, 1, regime)
    a, b = sorted((int(sa[p]), int(sa[p + 1])))
    return LcsResult(length, a + 1, b - ctx.ns, regime)


def _longest(r, lcps):
    q = int(np.argmax(lcps))
    return int(r[q]), int(lcps[q])


def _seed_boundary(seed, bits, sa, r, lce_bulk=None):
    """best_boundary by seed words: the smallest XOR has the longest common
    prefix, capped at per symbols.  With an index's lce_bulk, the pairs
    whose words agree (XOR 0) get their full LCPs from it."""
    x = seed[sa[r]] ^ seed[sa[r + 1]]
    if lce_bulk is None or x.min():
        q = int(np.argmin(x))
        return int(r[q]), int(mismatch_offsets(x[None, q : q + 1], bits, 0)[0, 0])
    r = r[x == 0]
    del x
    return _longest(r, lce_bulk(sa[r] + 1, sa[r + 1] + 1))


# Largest packed-key table the short regime builds, in uint64 words (2 GiB).
_SHORT_KEY_WORDS = 1 << 28


def lcs_short(s, t, m):
    """LCS from the suffixes of S$T cut at m + 1 symbols: exact whenever the
    true LCS is <= m, and in (m, LCS] otherwise.  Keys take
    ceil(min(m + 1, ns + nt + 1) / (64 // bits)) uint64 words per position of
    S and T, for bits = bit_length(sigma + 1); a call whose keys would exceed
    2^28 words (2 GiB) raises PackedLcsError before allocating them.  The
    dispatcher's m + 1 is one word's 64 // bits symbols."""
    if m < 1:
        raise PackedLcsError("window size m must be >= 1")
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    return _lcs_short(ctx, m)


def _lcs_short(ctx, m):
    if ctx.ns == 0 or ctx.nt == 0:
        return LcsResult(0, 1, 1, "short")
    st = ctx.st_codes()
    bits = symbol_bits(st)
    per, width = 64 // bits, min(m + 1, st.size)
    words = (ctx.ns + ctx.nt) * -(-width // per)
    if words > _SHORT_KEY_WORDS:
        raise PackedLcsError(
            f"short regime with m={m} needs {words} key words, "
            f"above the budget of {_SHORT_KEY_WORDS}"
        )
    if width == min(per, st.size):
        # One word per key: the seed.  The separator's, led by code 0, is first.
        seed, order = ctx.seed
        sa = order[1:]
        return _best_st_pair(ctx, sa, lambda r: _seed_boundary(seed, bits, sa, r), "short")
    # Every position but the separator's keys its suffix of S$T cut at m + 1
    # symbols; an S key may run across the separator, which no T key holds.
    starts0 = np.delete(np.arange(st.size), ctx.ns)
    order, lcps = _sort_packed_fragments(st, starts0, np.minimum(width, st.size - starts0), width)
    return _best_st_pair(ctx, starts0[order], lambda r: _longest(r, lcps[r]), "short")


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
    cover = build_d_cover(d)
    anchors_s = cover.positions_in(ctx.ns)
    anchors_t = cover.positions_in(ctx.nt)
    if len(anchors_s) == 0 or len(anchors_t) == 0:
        return LcsResult(0, 1, 1, "long")
    # Trie 1: the reversed prefixes before the anchors, packed from (S$T)^R
    # and cut at d - 1 symbols (an occurrence of length >= d has an anchor
    # pair at most d - 1 symbols in; a cut LCP only under-reports).  Trie 2:
    # the suffixes from the anchors, in S$T.  S's anchors first.
    back0 = np.concatenate(ctx.back_starts(anchors_s, anchors_t))
    lens1 = np.minimum(np.concatenate([anchors_s, anchors_t]) - 1, d - 1)
    lens2 = np.concatenate([ctx.ns + 1 - anchors_s, ctx.nt + 1 - anchors_t])
    order, lcps = _sort_packed_fragments(ctx.st_codes()[::-1], back0, lens1, d - 1)
    trie1, leaf1 = _sorted_trie(order, lens1[order], lcps)
    order, lcps = _index_order(ctx.index(), ctx.st_codes().size - back0, lens2)
    trie2, leaf2 = _sorted_trie(order, lens2[order], lcps)
    best = _solve_families(trie1, leaf1, trie2, leaf2, anchors_s, anchors_t, "long")
    return best if best and best.length else LcsResult(0, 1, 1, "long")


# -- medium regime -----------------------------------------------------------


def regime_parameters(ns, nt, sigma):
    """(tau, short window m, medium/long cap): the defaults of the forced
    regimes; lcs() cuts its short step at the seed width per instead."""
    if min(ns, nt, sigma) < 0:
        raise PackedLcsError("lengths and sigma must be >= 0")
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
    runs: object  # TauRuns of S$T; each run lies inside S or inside T


def _build_anchors_medium(ctx, tau):
    st = ctx.st_codes()
    sync = build_sync_set(st, tau)
    a1_s = sync.positions[sync.positions <= ctx.ns]
    a1_t = sync.positions[sync.positions > ctx.ns + 1] - (ctx.ns + 1)
    return MediumAnchors(tau, a1_s, a1_t, find_tau_runs(st, tau))


def lcs_medium(s, t, tau=None, cap=None):
    """LCS via sync-set and run anchors; exact for true LCS in [3 tau, cap]
    (the periodic cases stay exact above the cap).  tau and cap default to
    the dispatcher's parameters and are overridable as a testing hook; an
    override needs tau >= 3 (run detection) and cap >= 1."""
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    d_tau, _, d_cap = regime_parameters(ctx.ns, ctx.nt, ctx.sigma)
    tau = d_tau if tau is None else tau
    cap = d_cap if cap is None else cap
    if tau < 3 or cap < 1:
        raise PackedLcsError(f"need tau >= 3 and cap >= 1, got tau={tau}, cap={cap}")
    return _lcs_medium(ctx, tau, cap)


def _lcs_medium(ctx, tau, cap):
    n_st = ctx.ns + ctx.nt + 1
    if ctx.ns == 0 or ctx.nt == 0 or tau > n_st // 2:
        return LcsResult(0, 1, 1, "medium")
    anchors = _build_anchors_medium(ctx, tau)
    best = LcsResult(0, 1, 1, "medium")
    for cand in (
        _medium_case_one(ctx, anchors, tau, cap),
        _medium_periodic(ctx, anchors.runs, "II"),
        _medium_periodic(ctx, anchors.runs, "III"),
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


def _chain_trie(lens, group):
    """Trie of one chain per group: within a group the strings are prefixes
    of one string, across groups they share nothing.  Empty strings go
    first: after a nonempty one, an empty string would be a prefix placed
    after its extension."""
    order = np.lexsort((lens, group, lens > 0))
    lens_sorted, g = lens[order], group[order]
    return _sorted_trie(order, lens_sorted, np.where(g[1:] == g[:-1], lens_sorted[:-1], 0))


def _medium_periodic(ctx, runs, case):
    """Cases II and III: one Two String Families instance over every run
    anchor, P from S and Q from T, solved by the general solver.

    Case II anchors the first two occurrences of each run's Lyndon root
    (both inside the run, which spans more than two periods); case III
    anchors each run's end.  An element's first component is the run's
    text before its anchor, read backwards; its second is the rest of the
    run (II) or of the string (III).  Runs of one group (II), or of one
    group and tail (III), read on one phase of one root, so their first
    components, and case II's seconds, are prefixes of one string each:
    trie 1 (and case II's trie 2) is one chain per group.  A pair across
    groups scores 0 plus at most a genuine forward extension, so it never
    overreports.
    """
    st = ctx.st_codes()
    if case == "II":
        run = np.tile(np.arange(len(runs)), 2)
        anchor = np.concatenate([runs.lyndon_start, runs.lyndon_start + runs.period])
    else:
        run, anchor = np.arange(len(runs)), runs.end
    in_s = anchor <= ctx.ns
    n_p = int(in_s.sum())
    if not n_p or n_p == anchor.size:
        return None
    # P's elements first, then Q's.
    by_side = np.argsort(~in_s, kind="stable")
    run, anchor = run[by_side], anchor[by_side]
    start, end, p, root_group = (
        runs.start[run], runs.end[run], runs.period[run], runs.group[run]
    )
    if case == "II":
        group, phase = root_group, anchor
    else:
        tail = runs.tail[run]
        group, phase = root_group * (int(p.max()) + 1) + tail, end + 1 - tail - p
    # Prefix-family hinge: every anchor's root phase must read its run
    # group's one Lyndon root.
    order = np.argsort(root_group, kind="stable")
    root = pack_keys(st, phase[order] - 1, p[order], int(p.max()))
    same = np.diff(root_group[order]) == 0
    if (same & (root[:, 1:] != root[:, :-1]).any(axis=0)).any():
        raise PackedLcsError(f"case {case} anchor is off its run's root phase")
    trie1, leaf1 = _chain_trie(anchor - start, group)
    if case == "II":
        trie2, leaf2 = _chain_trie(end - anchor + 1, group)
    else:
        starts2 = anchor - 1
        lens2 = np.where(anchor <= ctx.ns, ctx.ns, ctx.ns + ctx.nt + 1) - starts2
        order, lcps = fragment_order_and_lcps(st, starts2, lens2, ctx.index)
        trie2, leaf2 = _sorted_trie(order, lens2[order], lcps)
    return _solve_families(
        trie1, leaf1, trie2, leaf2, anchor[:n_p], anchor[n_p:] - ctx.ns - 1, "medium"
    )


# -- dispatcher --------------------------------------------------------------


def _lcs_scan(ctx):
    """Exact LCS at every length from the suffix array of S$T: the
    separator keeps every S-T LCP inside both strings, and the adjacent S-T
    pairs are scored by _seed_boundary.  S and T must be nonempty."""
    idx = ctx.index()
    # The separator's suffix, the only one that starts with code 0, ranks first.
    sa = idx.sa[1:]
    return _best_st_pair(
        ctx, sa, lambda r: _seed_boundary(idx.seed, idx.bits, sa, r, idx.lce_bulk), "scan"
    )


def lcs(s, t):
    """Exact LCS of two byte strings with witness positions: the short
    regime's at m + 1 = per = 64 // bit_length(sigma + 1) when it is below
    per, else the S$T scan's, whose index doubles from the same seed sort.
    s may instead be a _Ctx, whose codes a caller goes on to share; t is
    then unused."""
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    per = 64 // symbol_bits(ctx.st_codes())
    best = _lcs_short(ctx, per - 1)
    if best.length < per:
        return best
    return _lcs_scan(ctx)
