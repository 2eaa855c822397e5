"""Synchronizing sets, periodic runs with Lyndon-root metadata, misperiods.

A tau-synchronizing set A of a text T satisfies
  1. consistency: T[i..i+2tau) = T[j..j+2tau) implies i in A iff j in A;
  2. density: for i in [1, n-3tau+2], A cap [i, i+tau) is empty iff
     per(T[i..i+3tau-2]) <= tau/3.

Construction: rank every length-tau window by its content (packed-bit key
when it fits a word, otherwise suffix-array grouping), send highly periodic
windows to an infinite tier, and select i when the minimum rank over window
starts [i, i+tau] is attained at the first or the last one.  Both conditions
are exhaustively checkable (see oracles.check_sync_set).

A tau-run is a maximal periodic fragment of length >= 3tau-1 with period
p <= tau/3.  Runs are found by per-period match scans with shortest-period
and maximality filters; Lyndon roots come from Booth's least-rotation scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .text_core import PackedLcsError, PackedText
from .suffix_index import suffix_array, kasai_lcp

_HUGE = np.int64(2**62)


def _as_codes(text):
    if isinstance(text, PackedText):
        return text.to_codes()
    return np.asarray(text, dtype=np.int64)


@dataclass(frozen=True)
class SyncSet:
    tau: int
    n: int
    positions: np.ndarray  # sorted, 1-based

    def __len__(self):
        return len(self.positions)


@dataclass(frozen=True)
class TauRun:
    start: int  # 1-based inclusive
    end: int
    period: int
    lyndon_start: int
    second_lyndon_start: int
    tail: int

    def length(self):
        return self.end - self.start + 1


@dataclass(frozen=True)
class MisperiodSets:
    left: tuple  # up to k maximal misperiods < i, descending
    right: tuple  # up to k minimal misperiods >= j, ascending


def _window_keys_packed(codes, tau, bits):
    n = codes.size
    m = n - tau + 1
    key = np.zeros(m, dtype=np.uint64)
    u = codes.astype(np.uint64)
    for t in range(tau):
        key = (key << np.uint64(bits)) | u[t : t + m]
    return key


def window_ranks(codes, tau):
    """Dense lexicographic rank of every length-tau window (0-based starts)."""
    codes = _as_codes(codes)
    n = codes.size
    m = n - tau + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    maxc = int(codes.max()) if n else 0
    bits = max(1, int(maxc).bit_length())
    if tau * bits <= 62:
        keys = _window_keys_packed(codes, tau, bits)
        _, rank = np.unique(keys, return_inverse=True)
        return rank.astype(np.int64)
    sa = suffix_array(codes)
    lcp = kasai_lcp(codes, sa)
    rank = np.full(m, -1, dtype=np.int64)
    group = -1
    have_prev_window = False
    pending = np.iinfo(np.int64).max
    for r in range(n):
        if r > 0:
            pending = min(pending, int(lcp[r]))
        pos = int(sa[r])
        if pos < m:
            if not have_prev_window or pending < tau:
                group += 1
            rank[pos] = group
            have_prev_window = True
            pending = np.iinfo(np.int64).max
    return rank


def highly_periodic_windows(codes, win_len, max_period):
    """hp[j] for 0-based window starts: per(T[j..j+win_len)) <= max_period."""
    codes = _as_codes(codes)
    n = codes.size
    m = n - win_len + 1
    hp = np.zeros(max(m, 0), dtype=bool)
    if m <= 0 or max_period < 1:
        return hp
    for p in range(1, max_period + 1):
        eq = codes[: n - p] == codes[p:]
        need = win_len - p
        cnt = np.concatenate(([0], np.cumsum(eq)))
        full = cnt[need:] - cnt[: len(cnt) - need] == need
        hp |= full[:m]
    return hp


def _sliding_min(a, width):
    out = a[: len(a) - width + 1].copy()
    for s in range(1, width):
        np.minimum(out, a[s : s + len(out)], out=out)
    return out


def build_sync_set(text, tau):
    """Build a tau-synchronizing set satisfying both conditions exactly."""
    codes = _as_codes(text)
    n = codes.size
    if not 1 <= tau <= n // 2:
        raise PackedLcsError(f"tau={tau} out of range [1, {n // 2}]")
    ranks = window_ranks(codes, tau)
    hp = highly_periodic_windows(codes, tau, tau // 3)
    ids = ranks.copy()
    ids[hp] = _HUGE
    m_count = n - 2 * tau + 1  # candidate positions
    if m_count <= 0:
        return SyncSet(tau, n, np.empty(0, dtype=np.int64))
    mins = _sliding_min(ids, tau + 1)
    sel = (mins < _HUGE) & ((ids[:m_count] == mins) | (ids[tau : tau + m_count] == mins))
    return SyncSet(tau, n, np.flatnonzero(sel).astype(np.int64) + 1)


def succ_sync(sync, i):
    """min{j in A cup {n - 2tau + 2} : j >= i}."""
    fallback = sync.n - 2 * sync.tau + 2
    idx = int(np.searchsorted(sync.positions, i))
    if idx < len(sync.positions):
        return min(int(sync.positions[idx]), fallback)
    return fallback


def _booth_least_rotation(seq):
    s = list(seq) + list(seq)
    n = len(s)
    f = [-1] * n
    k = 0
    for j in range(1, n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def find_tau_runs(text, tau):
    """All maximal runs of length >= 3tau-1 with period <= tau/3, sorted."""
    if tau < 3:
        raise PackedLcsError("tau must be >= 3 for run detection")
    codes = _as_codes(text)
    n = codes.size
    pmax = tau // 3
    min_len = 3 * tau - 1
    if n < min_len or pmax < 1:
        return []
    # Per-period prefix-sum tables of match indicators; cnts[p][x] counts
    # matches codes[t] == codes[t+p] for t < x.
    cnts = {}
    for p in range(1, pmax + 1):
        eq = codes[: n - p] == codes[p:]
        cnts[p] = np.concatenate(([0], np.cumsum(eq)))

    def has_period(start0, length, p):
        need = length - p
        if need <= 0:
            return True
        c = cnts[p]
        return int(c[start0 + need] - c[start0]) == need

    runs = []
    for p in range(1, pmax + 1):
        eq = codes[: n - p] == codes[p:]
        padded = np.concatenate(([False], eq, [False])).astype(np.int8)
        d = np.diff(padded)
        starts = np.flatnonzero(d == 1)
        ends = np.flatnonzero(d == -1)  # exclusive in eq-index space
        for a, b in zip(starts, ends):
            length = int(b - a) + p
            if length < min_len:
                continue
            if any(has_period(int(a), length, q) for q in range(1, p)):
                continue  # shortest period is smaller; found at q
            start0 = int(a)
            root_rot = _booth_least_rotation(codes[start0 : start0 + p])
            start = start0 + 1
            end = start0 + length
            ls = start + root_rot
            runs.append(
                TauRun(
                    start=start,
                    end=end,
                    period=p,
                    lyndon_start=ls,
                    second_lyndon_start=ls + p,
                    tail=(end + 1 - ls) % p,
                )
            )
    runs.sort(key=lambda r: (r.start, r.period))
    return runs


def root_key(codes, run):
    """Canonical Lyndon-root identity of a run (period, root code tuple)."""
    codes = _as_codes(codes)
    ls = run.lyndon_start - 1
    return (run.period, tuple(int(c) for c in codes[ls : ls + run.period]))


def group_runs_by_root(codes, runs):
    groups = {}
    for run in runs:
        groups.setdefault(root_key(codes, run), []).append(run)
    return groups


def group_runs_by_root_and_tail(codes, runs):
    groups = {}
    for run in runs:
        key = root_key(codes, run) + (run.tail,)
        groups.setdefault(key, []).append(run)
    return groups


def misperiods(text, i, j, k):
    """Up to k maximal misperiods < i and k minimal misperiods >= j
    with respect to the fragment X[i..j) (1-based, i < j)."""
    codes = _as_codes(text)
    n = codes.size
    if not (1 <= i < j <= n + 1):
        raise PackedLcsError(f"bad fragment [{i}, {j}) for n={n}")
    p = j - i
    if k < 0:
        raise PackedLcsError("k must be >= 0")

    def is_mis(a):
        b = i + ((a - i) % p)
        return codes[a - 1] != codes[b - 1]

    left = []
    a = i - 1
    while a >= 1 and len(left) < k:
        if is_mis(a):
            left.append(a)
        a -= 1
    right = []
    a = j
    while a <= n and len(right) < k:
        if is_mis(a):
            right.append(a)
        a += 1
    return MisperiodSets(left=tuple(left), right=tuple(right))
