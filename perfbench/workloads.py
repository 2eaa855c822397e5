"""Workload definitions: input generation from a seed, and path guards.

Every query pair is drawn from its own seed stream ``(seed, index)``, so a
run never times the same input twice and the checking process can rebuild
any pair without the worker's help.  The warm-up input comes from the
separate stream ``(seed, WARMUP_STREAM)`` and is smaller than every timed
input, so it is never one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WARMUP_STREAM = 2**32 - 1


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "lcs" or "klcs"
    n: int  # length of each side
    sigma: int
    plant: int = 0  # length of one planted common substring, 0 for none
    k: int = 0  # mismatch budget for "klcs"
    path: str = ""  # path the answer must certify; see on_path
    warmup_n: int = 2048

    def pair(self, seed, index):
        return _make_pair(np.random.default_rng([seed, index]), self.n, self.sigma, self.plant)

    def warmup_pair(self, seed):
        return _make_pair(
            np.random.default_rng([seed, WARMUP_STREAM]), self.warmup_n, self.sigma, self.plant
        )

    def context(self):
        return {"n": self.n, "sigma": self.sigma, "plant": self.plant, "k": self.k}


WORKLOADS = {
    w.name: w
    for w in (
        # Binary random text: the true LCS (about 2 log2 n) is far above the
        # medium/long cap, so the dispatcher runs all three regimes and the
        # long regime (d-cover anchors, combined-text index, tries, general
        # family solver) carries most of the time.
        Workload("lcs-bin-long", "lcs", n=1 << 14, sigma=2, path="long"),
        # Large alphabet with one planted common substring strictly between
        # the short window m = 9 and the cap = 11: the medium regime runs and
        # must certify it, the long regime never runs.  With 32 letters the
        # S$T codes need 6 bits, so cap * bits = 66 > 62 already at n = 2^12
        # and medium case I takes its scalar-LCE sort (26 letters would need
        # n >= 13248 for that, at three times the cost per pair).
        Workload("lcs-a32-planted", "lcs", n=1 << 12, sigma=32, plant=10, path="medium"),
        # Large alphabet, random: the LCS is at most m, so the dispatcher
        # stops after the short regime; no index, sync set or solver runs.
        Workload("lcs-a26-short", "lcs", n=1 << 16, sigma=26, path="short"),
        # The k-mismatch driver on binary text: anchor sets, family legs
        # (max_pair_lcp_k) and brute legs (bulk LCE) over a small text.  A
        # pair whose plain LCS reaches 18 runs a second family leg and costs
        # about twice as much; n = 300 keeps that to about one pair in five
        # and times some 35 pairs per 20 s run.
        Workload("klcs-bin-k1", "klcs", n=300, sigma=2, k=1, path="family", warmup_n=200),
    )
}


def _letters(rng, n, sigma):
    return rng.integers(0, sigma, n, dtype=np.uint8) + ord("a")


def _make_pair(rng, n, sigma, plant):
    s = _letters(rng, n, sigma)
    t = _letters(rng, n, sigma)
    if plant:
        piece = _letters(rng, plant, sigma)
        i, j = (int(x) for x in rng.integers(1, n - plant, 2))
        s[i : i + plant] = piece
        t[j : j + plant] = piece
        # Break both flanks so the planted copy cannot extend past `plant`.
        t[j - 1] = ord("a") + (s[i - 1] - ord("a") + 1) % sigma
        t[j + plant] = ord("a") + (s[i + plant] - ord("a") + 1) % sigma
    return s.tobytes(), t.tobytes()


def on_path(workload, answer, params):
    """Whether an answer shows, from public data alone, that the query took
    the workload's intended path.  For LCS the answer length is checked
    against params = regime_parameters(n, n, sigma); for k-LCS the result's
    counters must show that the family leg ran."""
    _tau, m, cap = params
    length = answer["length"]
    if workload.path == "family":
        return answer["solver_calls"] > 0
    if workload.path == "long":
        return length >= cap
    if workload.path == "medium":
        return m < length < cap
    if workload.path == "short":
        return length <= m
    raise ValueError(f"unknown path {workload.path!r}")
