"""Numpy suffix array + LCP baseline for the longest common substring.

Manber-Myers prefix doubling builds one rank table per doubling round; the
LCP of two suffixes is then read from those tables top-down (the same idea
as the LCP computations of Kasai et al., CPM 2001, but without a per-position
Python loop).  It imports nothing from ``packedlcs``, so it can serve as the
independent reference that the benchmark checks ``packedlcs.lcs`` against.
"""

from __future__ import annotations

import numpy as np


def rank_tables(codes):
    """Rank tables of a code sequence by prefix doubling.

    ``tables[j][i]`` is the dense rank of the length-``2**j`` prefix of
    suffix ``i`` (a prefix running past the end is padded with a value below
    every letter).  Doubling stops once all ranks are distinct, so the last
    table is the inverse suffix array.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.size
    if n == 0:
        return [np.empty(0, dtype=np.int64)]
    _, rank = np.unique(codes, return_inverse=True)
    rank = rank.astype(np.int64)
    tables = [rank]
    step = 1
    while step < n and int(rank.max()) < n - 1:
        nxt = np.zeros(n, dtype=np.int64)
        nxt[: n - step] = rank[step:] + 1
        _, rank = np.unique(rank * (n + 1) + nxt, return_inverse=True)
        rank = rank.astype(np.int64)
        tables.append(rank)
        step *= 2
    return tables


def lce_from_tables(tables, i, j):
    """Longest common extension of suffix pairs (0-based index arrays)."""
    n = tables[0].size
    i = np.array(i, dtype=np.int64)
    j = np.array(j, dtype=np.int64)
    out = np.zeros(i.shape, dtype=np.int64)
    for level in range(len(tables) - 1, -1, -1):
        step = 1 << level
        tab = tables[level]
        live = np.flatnonzero((i + step <= n) & (j + step <= n))
        hit = live[tab[i[live]] == tab[j[live]]]
        out[hit] += step
        i[hit] += step
        j[hit] += step
    return out


def sa_lcp_lcs(s, t):
    """Longest common substring of two byte strings.

    Returns ``(length, pos_s, pos_t)`` with 1-based witness starts, or
    ``(0, 1, 1)`` when the strings share no letter.
    """
    a = np.frombuffer(bytes(s), dtype=np.uint8).astype(np.int64)
    b = np.frombuffer(bytes(t), dtype=np.uint8).astype(np.int64)
    ns = a.size
    if ns == 0 or b.size == 0:
        return 0, 1, 1
    # S $ T with letters shifted above a separator that occurs once, so no
    # common prefix of two distinct suffixes can run across it.
    text = np.concatenate([a + 1, [0], b + 1])
    tables = rank_tables(text)
    sa = np.argsort(tables[-1], kind="stable")
    left, right = sa[:-1], sa[1:]
    cross = (left < ns) != (right < ns)
    cross &= (left != ns) & (right != ns)
    if not cross.any():
        return 0, 1, 1
    lce = np.zeros(left.size, dtype=np.int64)
    sel = np.flatnonzero(cross)
    lce[sel] = lce_from_tables(tables, left[sel], right[sel])
    r = int(np.argmax(lce))
    length = int(lce[r])
    if length == 0:
        return 0, 1, 1
    p, q = int(left[r]), int(right[r])
    if p > q:
        p, q = q, p
    return length, p + 1, q - ns
