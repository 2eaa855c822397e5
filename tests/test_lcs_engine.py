import numpy as np
import pytest

from packedlcs.lcs_engine import (
    _Ctx,
    _solve_prefix_groups,
    build_d_cover,
    lcs,
    lcs_long,
    lcs_medium,
    lcs_short,
    lcs_suffix_automaton,
    regime_parameters,
)
from packedlcs.oracles import lcs_dp
from packedlcs.sync_runs import TauRun
from packedlcs.text_core import PackedLcsError


def rand_bytes(rng, n, sigma):
    return bytes(rng.integers(97, 97 + sigma, size=n, dtype=np.uint8))


def check_witness(s, t, res):
    assert s[res.pos_s - 1 : res.pos_s - 1 + res.length] == t[res.pos_t - 1 : res.pos_t - 1 + res.length]


def planted_pair(rng, n, sigma, ell):
    core = rand_bytes(rng, ell, sigma)
    def wrap():
        pre = rand_bytes(rng, int(rng.integers(0, max(1, n - ell + 1))), sigma)
        post = rand_bytes(rng, int(rng.integers(0, max(1, n - ell - len(pre) + 1))), sigma)
        return pre + core + post
    return wrap(), wrap()


# -- d-cover --


def test_d_cover_examples():
    c = build_d_cover(7)
    h = c.h(3, 5)
    assert 0 <= h < 7
    assert (3 + h) % 7 in c.residues and (5 + h) % 7 in c.residues
    c1 = build_d_cover(1)
    assert c1.residues == (0,) and c1.h(17, 4) == 0


def test_d_cover_full_validity_small():
    for d in (4, 9, 16, 64, 256):
        c = build_d_cover(d)
        marks = set(c.residues)
        for i in range(d):
            for j in range(d):
                h = c.h(i, j)
                assert 0 <= h < d
                assert (i + h) % d in marks and (j + h) % d in marks


def test_d_cover_size_near_sqrt():
    for d in (16, 64, 256, 1024):
        c = build_d_cover(d)
        assert len(c.residues) <= 4 * int(np.sqrt(d)) + 2


# -- suffix automaton baseline --


def test_automaton_vs_dp_random():
    rng = np.random.default_rng(50)
    for _ in range(200):
        s = rand_bytes(rng, int(rng.integers(0, 80)), int(rng.integers(1, 5)))
        t = rand_bytes(rng, int(rng.integers(0, 80)), int(rng.integers(1, 5)))
        want, _, _ = lcs_dp(s, t)
        ln, ea, eb = lcs_suffix_automaton(list(s), list(t))
        assert ln == want
        if ln:
            assert s[ea - ln + 1 : ea + 1] == t[eb - ln + 1 : eb + 1]


# -- regimes --


def test_short_identical_strings():
    res = lcs_short("abcd", "abcd", 4)
    assert res.length == 4
    check_witness(b"abcd", b"abcd", res)


def test_short_banana():
    res = lcs_short("banana", "ananas", 8)
    assert res.length == 5
    check_witness(b"banana", b"ananas", res)


def test_short_valid_when_within_m():
    rng = np.random.default_rng(51)
    for _ in range(500):
        s = rand_bytes(rng, int(rng.integers(1, 120)), 2)
        t = rand_bytes(rng, int(rng.integers(1, 120)), 2)
        m = int(rng.integers(1, 12))
        want, _, _ = lcs_dp(s, t)
        res = lcs_short(s, t, m)
        assert res.length <= want
        if want <= m:
            assert res.length == want
        check_witness(s, t, res)


def test_long_identical():
    s = b"xyzw" * 8
    res = lcs_long(s, s, 1)
    assert res.length == len(s)
    check_witness(s, s, res)


def test_long_planted():
    res = lcs_long(b"xxbananaxx", b"qbananaq", 4)
    assert res.length == 6
    check_witness(b"xxbananaxx", b"qbananaq", res)


def test_long_valid_when_at_least_d():
    rng = np.random.default_rng(52)
    for _ in range(300):
        n = int(rng.integers(8, 160))
        sigma = int(rng.integers(2, 5))
        ell = int(rng.integers(1, n))
        s, t = planted_pair(rng, n, sigma, ell)
        want, _, _ = lcs_dp(s, t)
        d = int(rng.integers(1, 16))
        res = lcs_long(s, t, d)
        assert res.length <= want
        if want >= d:
            assert res.length == want, (s, t, d)
        check_witness(s, t, res)


def test_long_exact_where_rank_codes_pass_int32():
    # The general solver codes a second-component rank times the element
    # count; with 2^16 binary letters a side that product passes 2^31.
    from packedlcs.suffix_index import SuffixIndex

    n = 1 << 16
    _, _, cap = regime_parameters(n, n, 2)
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        s, t = rand_bytes(rng, n, 2), rand_bytes(rng, n, 2)
        idx = SuffixIndex(np.frombuffer(s + b"\0" + t, dtype=np.uint8))
        cross = (idx.sa[:-1] < n) != (idx.sa[1:] < n)
        want = int(idx.lcp[1:][cross].max())
        assert want >= cap
        res = lcs_long(s, t, cap)
        assert res.length == want
        check_witness(s, t, res)


def test_medium_periodic_case():
    # Default tau at this size bounds run periods below 2; the case-II family
    # machinery needs tau >= 6 to see the period-2 run, and is uncapped above.
    s = b"ab" * 64
    res = lcs_medium(s, s, tau=6)
    assert res.length == 128
    check_witness(s, s, res)
    # The dispatcher is exact regardless (long regime takes over).
    assert lcs(s, s).length == 128


@pytest.mark.parametrize("case", ["II", "III"])
def test_prefix_groups_reject_anchor_off_root_phase(case):
    # S$T = (ab)^4 $ (ab)^4; both runs have period 2 and Lyndon root "ab".
    ctx = _Ctx(b"abababab", b"abababab")
    run_t = TauRun(start=10, end=17, period=2, lyndon_start=10, second_lyndon_start=12, tail=0)
    if case == "II":
        # Anchor at S[2] sits one letter past the root phase.
        run_s = TauRun(start=1, end=8, period=2, lyndon_start=1, second_lyndon_start=3, tail=0)
        members = [("S", 2, run_s), ("T", 1, run_t)]
    else:
        # A tail of 1 contradicts the run end at a whole number of periods.
        run_s = TauRun(start=1, end=8, period=2, lyndon_start=1, second_lyndon_start=3, tail=1)
        members = [("S", 8, run_s), ("T", 8, run_t)]
    with pytest.raises(PackedLcsError, match="root phase"):
        _solve_prefix_groups(ctx, {"group": members}, case=case)


def test_medium_planted_aperiodic():
    # The [3 tau, cap] window is nonempty for binary strings once n >~ 1100.
    rng = np.random.default_rng(53)
    hits = 0
    for _ in range(60):
        n = int(rng.integers(1100, 3000))
        tau, m_short, cap = regime_parameters(n, n, 26)
        assert 3 * tau <= cap
        ell = int(rng.integers(3 * tau, cap + 1))
        s, t = planted_pair(rng, n, 26, ell)
        want, _, _ = lcs_dp(s, t)
        res = lcs_medium(s, t)
        assert res.length <= want
        check_witness(s, t, res)
        if 3 * tau <= want <= cap:
            assert res.length == want, (s, t, want, res)
            hits += 1
    assert hits > 20


# -- dispatcher --


def test_lcs_trivial():
    assert lcs("abc", "xyz").length == 0
    res = lcs("banana", "ananas")
    assert res.length == 5
    check_witness(b"banana", b"ananas", res)


def test_lcs_empty_inputs():
    assert lcs("", "abc").length == 0
    assert lcs("abc", "").length == 0
    assert lcs("", "").length == 0


def test_lcs_equals_dp_random():
    rng = np.random.default_rng(54)
    for _ in range(250):
        n = int(rng.integers(1, 300))
        sigma = int(rng.integers(1, 27))
        s = rand_bytes(rng, n, sigma)
        t = rand_bytes(rng, int(rng.integers(1, 300)), sigma)
        want, _, _ = lcs_dp(s, t)
        res = lcs(s, t)
        assert res.length == want, (s, t)
        check_witness(s, t, res)


def test_lcs_equals_dp_planted_all_regimes():
    rng = np.random.default_rng(55)
    for _ in range(120):
        n = int(rng.integers(24, 500))
        sigma = int(rng.integers(2, 5))
        tau, m_short, cap = regime_parameters(n, n, sigma)
        bucket = rng.integers(0, 3)
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
        assert res.length == want, (s, t, ell)
        check_witness(s, t, res)


def test_lcs_periodic_structures():
    rng = np.random.default_rng(56)
    for _ in range(60):
        p = int(rng.integers(1, 4))
        unit = rand_bytes(rng, p, 2)
        reps = int(rng.integers(4, 60))
        s = rand_bytes(rng, int(rng.integers(0, 20)), 2) + unit * reps + rand_bytes(rng, int(rng.integers(0, 20)), 2)
        t = rand_bytes(rng, int(rng.integers(0, 20)), 2) + unit * int(rng.integers(4, reps + 1)) + rand_bytes(rng, int(rng.integers(0, 20)), 2)
        want, _, _ = lcs_dp(s, t)
        res = lcs(s, t)
        assert res.length == want, (s, t)
        check_witness(s, t, res)


def test_lcs_unary():
    res = lcs("a" * 50, "a" * 31)
    assert res.length == 31
    res2 = lcs("a" * 5, "b" * 9)
    assert res2.length == 0


def test_medium_bulk_path_agrees_with_object_path():
    import packedlcs.lcs_engine as le

    rng = np.random.default_rng(57)
    old = le._BULK_CASE_ONE
    try:
        for _ in range(25):
            n = int(rng.integers(300, 1500))
            sigma = int(rng.integers(2, 5))
            s = rand_bytes(rng, n, sigma)
            t = rand_bytes(rng, int(rng.integers(300, 1500)), sigma)
            ctx = le._Ctx(s, t)
            tau, _, cap = regime_parameters(ctx.ns, ctx.nt, ctx.sigma)
            an = le._build_anchors_medium(ctx, tau)
            le._BULK_CASE_ONE = 10**9
            obj = le._medium_case_one(ctx, an, tau, cap)
            le._BULK_CASE_ONE = 0
            blk = le._medium_case_one(ctx, an, tau, cap)
            if obj is None or blk is None:
                assert obj is None and blk is None
                continue
            assert obj.length == blk.length, (s, t)
            for r in (obj, blk):
                check_witness(s, t, r)
    finally:
        le._BULK_CASE_ONE = old


def test_suffix_subset_sort_matches_index_path():
    from packedlcs.lcs_engine import fragment_order_and_lcps
    from packedlcs.suffix_index import SuffixIndex

    rng = np.random.default_rng(58)
    for _ in range(40):
        n = int(rng.integers(10, 400))
        codes = rng.integers(0, int(rng.integers(2, 5)), size=n).astype(np.int64)
        m = int(rng.integers(1, 30))
        starts0 = rng.integers(0, n, size=m).astype(np.int64)
        lens = (n - starts0).astype(np.int64)
        idx = SuffixIndex(codes)
        o1, l1 = fragment_order_and_lcps(codes, starts0, lens, idx, suffix_like=True)
        o2, l2 = fragment_order_and_lcps(codes, starts0, lens, None, suffix_like=True)
        # orders may differ only within equal suffixes (identical starts)
        l1, l2 = l1.tolist(), l2.tolist()
        assert [int(starts0[i]) for i in o1] == [int(starts0[i]) for i in o2] or l1 == l2
        assert l1 == l2


def test_short_regime_refuses_keys_over_budget():
    import tracemalloc

    rng = np.random.default_rng(40)
    n = 1 << 16
    s, t = rand_bytes(rng, n, 26), rand_bytes(rng, n, 26)
    tracemalloc.start()
    try:
        with pytest.raises(PackedLcsError, match="budget"):
            lcs_short(s, t, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
