"""Synchronizing sets, periodic runs with Lyndon-root metadata, misperiods.

A tau-synchronizing set A of a text T satisfies
  1. consistency: T[i..i+2tau) = T[j..j+2tau) implies i in A iff j in A;
  2. density: for i in [1, n-3tau+2], A cap [i, i+tau) is empty iff
     per(T[i..i+3tau-2]) <= tau/3.

Construction: rank every length-tau window by its content (its packed key,
text_core.pack_keys, ranked one word at a time), send highly periodic
windows to an infinite tier, and select i when the minimum rank over window
starts [i, i+tau] is attained at the first or the last one.  Both conditions
are exhaustively checkable (see oracles.check_sync_set).

A tau-run is a maximal periodic fragment of length >= 3tau-1 with period
p <= tau/3.  Runs are found by per-period match scans with shortest-period
and maximality filters, over whole arrays of candidates per period.  A run's
Lyndon root is the least of the packed keys of its p rotations, and runs
with equal (period, root) share one dense group id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .text_core import PackedLcsError, pack_keys

_HUGE = np.int64(2**62)


def _as_codes(text):
    return np.asarray(text, dtype=np.int64)


@dataclass(frozen=True)
class SyncSet:
    tau: int
    n: int
    positions: np.ndarray  # sorted, 1-based

    def __len__(self):
        return len(self.positions)


@dataclass(frozen=True)
class TauRuns:
    """Runs as int64 arrays, one entry per run.  start, end and lyndon_start
    (the first occurrence of the Lyndon root) are 1-based and inclusive; tail
    is (end + 1 - lyndon_start) mod period; group is a dense id of (period,
    Lyndon root), shared by exactly the runs with equal roots."""

    start: np.ndarray
    end: np.ndarray
    period: np.ndarray
    lyndon_start: np.ndarray
    tail: np.ndarray
    group: np.ndarray

    def __len__(self):
        return len(self.start)


@dataclass(frozen=True)
class MisperiodSets:
    left: tuple  # up to k maximal misperiods < i, descending
    right: tuple  # up to k minimal misperiods >= j, ascending


def window_ranks(codes, tau):
    """Dense lexicographic rank of every length-tau window (0-based starts).

    The windows are packed into words; each further word refines the rank
    so far by the word's own dense rank."""
    codes = _as_codes(codes)
    m = codes.size - tau + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    # pack_keys needs non-negative codes; a shift keeps their order.
    keys = pack_keys(codes - codes.min(), np.arange(m), np.full(m, tau), tau)
    _, rank = np.unique(keys[0], return_inverse=True)
    for word in keys[1:]:
        _, sub = np.unique(word, return_inverse=True)
        _, rank = np.unique(rank * (int(sub.max()) + 1) + sub, return_inverse=True)
    return rank.astype(np.int64)


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


def find_tau_runs(text, tau):
    """All maximal runs of length >= 3tau-1 with period <= tau/3, as one
    TauRuns record sorted by (start, period)."""
    if tau < 3:
        raise PackedLcsError("tau must be >= 3 for run detection")
    codes = _as_codes(text)
    n = codes.size
    pmax = tau // 3
    min_len = 3 * tau - 1
    # Per-period prefix sums of match indicators; cnts[q][x] counts
    # matches codes[t] == codes[t + q] for t < x.
    cnts = [None]
    found = []
    for p in range(1, pmax + 1 if n >= min_len else 1):
        eq = codes[: n - p] == codes[p:]
        cnts.append(np.concatenate(([0], np.cumsum(eq))))
        d = np.diff(np.concatenate(([False], eq, [False])).astype(np.int8))
        a = np.flatnonzero(d == 1)  # match runs [a, b) in eq-index space
        length = np.flatnonzero(d == -1) - a + p
        keep = length >= min_len
        a, length = a[keep], length[keep]
        for q in range(1, p):  # a shorter period: the run is found at q
            c = cnts[q]
            keep = c[a + length - q] - c[a] != length - q
            a, length = a[keep], length[keep]
        found.append((a, length, np.full(a.size, p)))
    if not sum(f[0].size for f in found):
        return TauRuns(*(np.empty(0, dtype=np.int64) for _ in range(6)))
    start0, length, period = (np.concatenate(col).astype(np.int64) for col in zip(*found))
    # Lyndon root: the least of the p rotations of one period, each read in
    # place (a run spans at least two periods); one lexsort keyed by run.
    first = np.cumsum(period) - period
    run_of = np.repeat(np.arange(start0.size), period)
    shift = np.arange(run_of.size) - first[run_of]
    # pack_keys needs non-negative codes; a shift keeps their order.
    keys = pack_keys(codes - codes.min(), start0[run_of] + shift, period[run_of], pmax)
    least = np.lexsort((*keys[::-1], run_of))[first]
    lyndon0 = start0 + shift[least]
    # A key's zero slots past its length tell periods apart.
    _, group = np.unique(keys[:, least], axis=1, return_inverse=True)
    end = start0 + length
    by_start = np.lexsort((period, start0))
    return TauRuns(
        start=start0[by_start] + 1,
        end=end[by_start],
        period=period[by_start],
        lyndon_start=lyndon0[by_start] + 1,
        tail=((end - lyndon0) % period)[by_start],
        group=group.reshape(-1)[by_start].astype(np.int64),
    )


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
