import numpy as np
import pytest

from packedlcs.oracles import (
    OracleConfig,
    OracleSizeError,
    brute_max_pair_lcp,
    check_sync_set,
    klcs_dp,
    lcp_k_naive,
    lcs_dp,
    naive_period,
)


def test_lcs_dp_examples():
    assert lcs_dp("banana", "ananas")[0] == 5
    assert lcs_dp("abcabc", "abcabc")[0] == 6
    assert lcs_dp("a", "b")[0] == 0
    ln, ps, pt = lcs_dp("xxbananaxx", "qbananaq")
    assert ln == 6
    assert b"xxbananaxx"[ps - 1 : ps - 1 + ln] == b"qbananaq"[pt - 1 : pt - 1 + ln]


def test_lcs_dp_size_guard():
    cfg = OracleConfig(max_n=10)
    with pytest.raises(OracleSizeError):
        lcs_dp("a" * 40, "b" * 40, cfg)


@pytest.mark.parametrize("k", [None, 1])
def test_dp_size_guard_edge(k):
    # The guard bounds |s| * |t| by max_n^2: 10 x 10 runs, 10 x 11 does not.
    cfg = OracleConfig(max_n=10)
    if k is None:
        run, want = (lambda s, t: lcs_dp(s, t, cfg)), 4
    else:
        run, want = (lambda s, t: klcs_dp(s, t, k, cfg)), 5
    assert run("abcdefghij", "xxcdefxxxx")[0] == want
    with pytest.raises(OracleSizeError):
        run("abcdefghij", "xxcdefxxxxx")


def test_klcs_dp_examples():
    assert klcs_dp("abcde", "abxde", 1)[0] == 5
    assert klcs_dp("aaaa", "bbbb", 1)[0] == 1
    rng = np.random.default_rng(90)
    for _ in range(40):
        s = bytes(rng.integers(97, 100, size=int(rng.integers(1, 40)), dtype=np.uint8))
        t = bytes(rng.integers(97, 100, size=int(rng.integers(1, 40)), dtype=np.uint8))
        assert klcs_dp(s, t, 0)[0] == lcs_dp(s, t)[0]


def test_klcs_dp_witness():
    rng = np.random.default_rng(91)
    for _ in range(40):
        s = bytes(rng.integers(97, 99, size=30, dtype=np.uint8))
        t = bytes(rng.integers(97, 99, size=30, dtype=np.uint8))
        k = int(rng.integers(0, 3))
        ln, ps, pt = klcs_dp(s, t, k)
        mism = sum(
            1 for x, y in zip(s[ps - 1 : ps - 1 + ln], t[pt - 1 : pt - 1 + ln]) if x != y
        )
        assert mism <= k


def test_brute_max_pair_symmetry():
    rng = np.random.default_rng(92)
    for _ in range(30):
        def fam(k):
            out = []
            for _ in range(k):
                a = "".join(chr(97 + int(c)) for c in rng.integers(0, 2, rng.integers(0, 6)))
                b = "".join(chr(97 + int(c)) for c in rng.integers(0, 2, rng.integers(0, 6)))
                out.append((a, b))
            return out
        p, q = fam(4), fam(4)
        assert brute_max_pair_lcp(p, q, 1, 1)[0] == brute_max_pair_lcp(q, p, 1, 1)[0]


def test_brute_guard():
    cfg = OracleConfig(family_guard=2)
    with pytest.raises(OracleSizeError):
        brute_max_pair_lcp([("a", "b")] * 3, [("a", "b")] * 3, config=cfg)


def test_lcp_k_naive_basics():
    assert lcp_k_naive("abc", "abc", 0) == 3
    assert lcp_k_naive("abc", "axc", 0) == 1
    assert lcp_k_naive("abc", "axc", 1) == 3


def test_naive_period():
    assert naive_period(list(b"ababab"), 0, 6) == 2
    assert naive_period(list(b"aaaa"), 0, 4) == 1
    assert naive_period(list(b"abcd"), 0, 4) == 4


def test_check_sync_set_negative_cases():
    codes = np.zeros(20, dtype=np.int64)
    assert check_sync_set([], codes, 3)["valid"]
    rep = check_sync_set([1], codes, 3)
    assert not rep["valid"]
    # out-of-range position
    rep2 = check_sync_set([19], codes, 3)
    assert not rep2["valid"] and rep2["violation"][0] == "range"
