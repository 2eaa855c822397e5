"""Acceptance gates.

One test per acceptance criterion; each prints a PASS/FAIL line with the
measured quantities.  Run with `pytest tests/test_acceptance.py -s` to see
the lines; all tolerances are pinned here.
"""

import math
import time

import numpy as np
import pytest

from packedlcs.lcs_engine import (
    lcs,
    lcs_long,
    lcs_medium,
    lcs_suffix_automaton,
    regime_parameters,
)
from packedlcs.klcs_engine import (
    is_maxpair,
    klcs,
    lcp_k,
    max_pair_lcp_k,
)
from packedlcs.family_lcp import (
    instance_from_pairs,
    max_pair_lcp_general,
)
from packedlcs.wavelet_lcp import solve_alpha_beta
from packedlcs.sync_runs import build_sync_set
from packedlcs.oracles import (
    brute_max_pair_lcp,
    check_sync_set,
    klcs_dp,
    lcs_dp,
)


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def rand_bytes(rng, n, sigma):
    return bytes(rng.integers(97, 97 + sigma, size=n, dtype=np.uint8))


def planted_pair(rng, n, sigma, ell):
    core = rand_bytes(rng, ell, sigma)

    def wrap():
        pre = rand_bytes(rng, int(rng.integers(0, max(1, n - ell + 1))), sigma)
        post = rand_bytes(rng, int(rng.integers(0, max(1, n - ell - len(pre) + 1))), sigma)
        return pre + core + post

    return wrap(), wrap()


def test_acceptance_lcs_oracle_equivalence():
    """1000 random pairs (n in [1,2000], sigma in {2,4,26}) plus 200 planted
    instances spanning the regimes: dispatcher equals the DP oracle exactly
    and every witness byte-verifies."""
    rng = np.random.default_rng(1001)
    t0 = time.time()
    cases = 0
    for trial in range(1000):
        sigma = (2, 4, 26)[trial % 3]
        s = rand_bytes(rng, int(rng.integers(1, 2001)), sigma)
        t = rand_bytes(rng, int(rng.integers(1, 2001)), sigma)
        want, _, _ = lcs_dp(s, t)
        res = lcs(s, t)
        assert res.length == want, (trial, sigma)
        assert (
            s[res.pos_s - 1 : res.pos_s - 1 + res.length]
            == t[res.pos_t - 1 : res.pos_t - 1 + res.length]
        )
        cases += 1
    for trial in range(200):
        sigma = (2, 4, 26)[trial % 3]
        n = int(rng.integers(32, 2001))
        tau, m_short, cap = regime_parameters(n, n, sigma)
        bucket = trial % 3
        if bucket == 0:
            ell = int(rng.integers(1, m_short + 1))
        elif bucket == 1:
            ell = int(rng.integers(m_short + 1, max(m_short + 2, cap + 1)))
        else:
            ell = int(rng.integers(cap, n // 2 + cap + 1))
        ell = max(1, min(ell, n - 1))
        s, t = planted_pair(rng, n, sigma, ell)
        want, _, _ = lcs_dp(s, t)
        res = lcs(s, t)
        assert res.length == want, (trial, sigma, ell)
        assert (
            s[res.pos_s - 1 : res.pos_s - 1 + res.length]
            == t[res.pos_t - 1 : res.pos_t - 1 + res.length]
        )
        cases += 1
    dt = time.time() - t0
    report(
        "lcs-oracle-equivalence",
        cases == 1200 and dt < 300,
        f"{cases} cases exact, witnesses verified, {dt:.1f}s (target < 300s)",
    )


def test_acceptance_forced_regimes_against_dp():
    """lcs() reaches only the short regime and the S$T scan, so the medium
    and long regimes are checked forced, on the planted generator above with
    every length bucket crossed with sigma in {2, 4, 26}: lcs_medium is exact
    for LCS in [3 tau, cap] (and in [3 tau, n] with the cap raised to n),
    lcs_long(s, t, cap) for LCS >= cap; neither reports more than lcs_dp,
    and every witness byte-verifies."""
    rng = np.random.default_rng(1801)
    t0 = time.time()
    exact = {"medium": 0, "medium, cap n": 0, "long": 0}
    for trial in range(180):
        sigma = (2, 4, 26)[trial % 3]
        n = int(rng.integers(32, 2001))
        tau, m_short, cap = regime_parameters(n, n, sigma)
        bucket = trial // 3 % 3
        if bucket == 0:
            ell = int(rng.integers(1, m_short + 1))
        elif bucket == 1:
            ell = int(rng.integers(m_short + 1, max(m_short + 2, cap + 1)))
        else:
            ell = int(rng.integers(cap, n // 2 + cap + 1))
        s, t = planted_pair(rng, n, sigma, max(1, min(ell, n - 1)))
        want, _, _ = lcs_dp(s, t)
        # The regimes' own parameters, from the pair's lengths and alphabet.
        tau, _, cap = regime_parameters(len(s), len(t), len(set(s) | set(t)))
        n_max = max(len(s), len(t))
        for name, res, lo, hi in (
            ("medium", lcs_medium(s, t), 3 * tau, cap),
            ("medium, cap n", lcs_medium(s, t, cap=n_max), 3 * tau, n_max),
            ("long", lcs_long(s, t, cap), cap, n_max),
        ):
            assert res.length <= want, (trial, name, want, res)
            assert (
                s[res.pos_s - 1 : res.pos_s - 1 + res.length]
                == t[res.pos_t - 1 : res.pos_t - 1 + res.length]
            ), (trial, name, res)
            if lo <= want <= hi:
                assert res.length == want, (trial, name, want, res)
                exact[name] += 1
    dt = time.time() - t0
    report(
        "forced-regimes-vs-dp",
        exact["medium, cap n"] >= 100 and exact["long"] >= 100,
        f"exact where in range: {exact}, none over the oracle, {dt:.1f}s",
    )


def test_acceptance_klcs_oracle_equivalence():
    """k in {1,2,3}, 300 random pairs with n <= 512: klcs equals klcs_dp."""
    rng = np.random.default_rng(1002)
    t0 = time.time()
    cases = 0
    for k in (1, 2, 3):
        for trial in range(100):
            sigma = (2, 4, 26)[trial % 3]
            s = rand_bytes(rng, int(rng.integers(1, 513)), sigma)
            t = rand_bytes(rng, int(rng.integers(1, 513)), sigma)
            want, _, _ = klcs_dp(s, t, k)
            res = klcs(s, t, k)
            assert res.length == want, (k, trial, sigma, s, t)
            sub_s = s[res.pos_s - 1 : res.pos_s - 1 + res.length]
            sub_t = t[res.pos_t - 1 : res.pos_t - 1 + res.length]
            assert sum(1 for x, y in zip(sub_s, sub_t) if x != y) <= k
            cases += 1
    dt = time.time() - t0
    report(
        "klcs-oracle-equivalence",
        cases == 300 and dt < 600,
        f"{cases} cases exact (100 per k), {dt:.1f}s (target < 600s)",
    )


def test_acceptance_paper_value():
    """LCP_3(ababbabb, aacbaaab) = 6 and the quoted substitution pair passes
    the maxpair definition checker."""
    got = lcp_k("ababbabb", "aacbaaab", 3)
    delta = [(2, ord("a")), (3, ord("b"))]
    nabla = [(3, ord("b")), (5, ord("b"))]
    ok = got == 6 and is_maxpair("ababbabb", "aacbaaab", 3, delta, nabla)
    report("paper-value-lcp3", ok, f"LCP_3 = {got} (expected 6), maxpair checker ok")


def test_acceptance_sync_set_validity():
    """200 random strings (n <= 5000, tau in 3..64): both conditions hold
    exhaustively and |A| * tau / n <= 8 on every instance."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(200):
        tau = int(rng.integers(3, 65))
        n = int(rng.integers(max(3 * tau, 2 * tau + 1), 5001))
        codes = rng.integers(0, 2, size=n).astype(np.int64)
        sync = build_sync_set(codes, tau)
        rep = check_sync_set(sync.positions, codes, tau)
        assert rep["valid"], rep
        worst = max(worst, rep["density_ratio"])
    report(
        "sync-set-validity",
        worst <= 8.0,
        f"200 instances valid, max |A|*tau/n = {worst:.3f} (<= 8)",
    )


def rand_family(rng, count, len_max, sigma):
    out = []
    for _ in range(count):
        l1 = int(rng.integers(0, len_max + 1))
        l2 = int(rng.integers(0, len_max + 1))
        a = "".join(chr(97 + int(c)) for c in rng.integers(0, sigma, size=l1))
        b = "".join(chr(97 + int(c)) for c in rng.integers(0, sigma, size=l2))
        out.append((a, b))
    return out


def test_acceptance_solver_cross_agreement_and_merge_bound():
    """500 random (alpha,beta)-family instances: brute, general and wavelet
    solvers agree; 500 prefix-family instances: the general solver matches
    brute; its merge counter stays within N ceil(log N)^2, and is exactly N
    on prefix families."""
    rng = np.random.default_rng(1004)
    merge_ok = True
    for _ in range(500):
        alpha = int(rng.integers(1, 65))
        beta = int(rng.integers(1, 65))
        np_ = int(rng.integers(1, 101))
        nq = int(rng.integers(1, 101))
        sigma = int(rng.integers(1, 4))
        p = [(a[:alpha], b[:beta]) for a, b in rand_family(rng, np_, max(alpha, beta), sigma)]
        q = [(a[:alpha], b[:beta]) for a, b in rand_family(rng, nq, max(alpha, beta), sigma)]
        want, _ = brute_max_pair_lcp(p, q)
        inst = instance_from_pairs(p, q)
        gen = max_pair_lcp_general(inst)
        wav = solve_alpha_beta(inst, alpha, beta)
        assert gen.value == want == wav.value, (p, q)
        n_tot = np_ + nq
        log = max(1, math.ceil(math.log2(max(2, n_tot))))
        if gen.merged_elements > n_tot * log * log:
            merge_ok = False
    prefix_cases = 0
    for _ in range(500):
        base_len = int(rng.integers(1, 40))
        sigma = int(rng.integers(1, 3))
        base = "".join(chr(97 + int(c)) for c in rng.integers(0, sigma, size=base_len))

        def pref_pair():
            cut = int(rng.integers(0, base_len + 1))
            l2 = int(rng.integers(0, 12))
            b = "".join(chr(97 + int(c)) for c in rng.integers(0, sigma, size=l2))
            return (base[:cut], b)

        p = [pref_pair() for _ in range(int(rng.integers(1, 40)))]
        q = [pref_pair() for _ in range(int(rng.integers(1, 40)))]
        want, _ = brute_max_pair_lcp(p, q)
        gen = max_pair_lcp_general(instance_from_pairs(p, q))
        assert gen.value == want, (p, q)
        # A prefix family's trie is a chain: one probe per element.
        if gen.merged_elements != len(p) + len(q):
            merge_ok = False
        prefix_cases += 1
    report(
        "solver-cross-agreement",
        prefix_cases == 500,
        "500 (alpha,beta) instances + 500 prefix instances, all solvers exact "
        "(prefix instances through the general solver alone)",
    )
    report(
        "merge-work-bound",
        merge_ok,
        "general-solver merged elements <= N ceil(log2 N)^2 on every instance, "
        "= N on every prefix instance",
    )


def test_acceptance_max_pair_lcp_k_equivalence_and_family_bounds():
    """300 random instances (N <= 60, ell <= 32), splits (1,0) (0,1) (1,1)
    (2,1): max_pair_lcp_k equals the brute oracle; instrumented family
    bounds hold with C_fam <= 64."""
    rng = np.random.default_rng(1005)
    growth_ok = True
    per_set_ok = True
    for trial in range(300):
        n = int(rng.integers(40, 200))
        text = bytes(rng.integers(97, 100, size=n, dtype=np.uint8))
        ell = int(rng.integers(1, 33))
        total = int(rng.integers(2, 61))
        nu = int(rng.integers(1, total))

        def fam(sz):
            out = []
            for _ in range(sz):
                l1 = int(rng.integers(0, min(ell, n) + 1))
                s1 = int(rng.integers(1, n - l1 + 2))
                l2 = int(rng.integers(0, min(ell, n) + 1))
                s2 = int(rng.integers(1, n - l2 + 2))
                out.append(((s1, l1), (s2, l2)))
            return out

        u_pairs, v_pairs = fam(nu), fam(total - nu)
        k1, k2 = ((1, 0), (0, 1), (1, 1), (2, 1))[trial % 4]
        res = max_pair_lcp_k(text, u_pairs, v_pairs, k1, k2, ell)
        bu = [
            (text[s1 - 1 : s1 - 1 + l1], text[s2 - 1 : s2 - 1 + l2])
            for (s1, l1), (s2, l2) in u_pairs
        ]
        bv = [
            (text[s1 - 1 : s1 - 1 + l1], text[s2 - 1 : s2 - 1 + l2])
            for (s1, l1), (s2, l2) in v_pairs
        ]
        want, _ = brute_max_pair_lcp(bu, bv, k1, k2)
        assert res.value == want, (trial, k1, k2)
        c = res.counters
        if c.per_set_per_source_max > 2 ** (k1 + k2):
            per_set_ok = False
        bound = 64 * total * max(1, min(ell, math.ceil(math.log2(max(2, total))))) ** (
            k1 + k2
        )
        if c.family_total > bound:
            growth_ok = False
    report(
        "maxpairlcp-k-equivalence",
        True,
        "300 instances exact across splits (1,0) (0,1) (1,1) (2,1)",
    )
    report(
        "family-growth-bounds",
        growth_ok and per_set_ok,
        "per-set per-source <= 2^k and total <= 64 N min(ell, log N)^(k1+k2)",
    )


def test_acceptance_performance_smoke():
    """Random binary strings with n = 2^22: the packed medium path completes;
    its throughput vs the byte-wise suffix-automaton baseline is reported.
    The 2x threshold is a soft, hardware-dependent gate."""
    rng = np.random.default_rng(1006)
    n = 1 << 22
    s = bytes(rng.integers(97, 99, size=n, dtype=np.uint8))
    t = bytes(rng.integers(97, 99, size=n, dtype=np.uint8))
    t0 = time.time()
    res = lcs_medium(s, t)
    t_med = time.time() - t0
    t0 = time.time()
    base_len, _, _ = lcs_suffix_automaton(
        np.frombuffer(s, dtype=np.uint8), np.frombuffer(t, dtype=np.uint8)
    )
    t_base = time.time() - t0
    ratio = t_base / max(t_med, 1e-9)
    # Sanity: the medium result is a genuine common substring.
    assert (
        s[res.pos_s - 1 : res.pos_s - 1 + res.length]
        == t[res.pos_t - 1 : res.pos_t - 1 + res.length]
    )
    line = (
        f"medium {t_med:.1f}s (len {res.length}), baseline {t_base:.1f}s "
        f"(len {base_len}), speedup {ratio:.2f}x (soft gate 2x)"
    )
    report("performance-smoke", res.length > 0 and ratio >= 2.0, line)
