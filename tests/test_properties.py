"""Property-based oracle checks over adversarial string families: unary,
periodic and near-periodic strings, alphabets of up to 256 byte values, and
length-1 inputs."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from packedlcs.lcs_engine import fragment_order_and_lcps, lcs_short
from packedlcs.oracles import lcs_dp


@st.composite
def string_pairs(draw):
    """Two byte strings of one family over a shared alphabet of sigma values."""
    sigma = draw(st.integers(1, 256))
    letters = st.integers(0, sigma - 1)
    family = draw(st.sampled_from(["random", "unary", "periodic", "near_periodic"]))
    root = draw(st.lists(letters, min_size=1, max_size=1 if family == "unary" else 6))

    def one():
        n = draw(st.integers(1, 60))
        if family == "random":
            return bytes(draw(st.lists(letters, min_size=n, max_size=n)))
        shift = draw(st.integers(0, len(root) - 1))
        out = [root[(shift + i) % len(root)] for i in range(n)]
        if family == "near_periodic":
            for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                out[i] = draw(letters)
        return bytes(out)

    return one(), one()


def _witnessed(s, t, res):
    a, b = res.pos_s - 1, res.pos_t - 1
    return s[a : a + res.length] == t[b : b + res.length]


@given(string_pairs(), st.integers(1, 30))
def test_short_regime_matches_dp_up_to_m(pair, m):
    s, t = pair
    want, _, _ = lcs_dp(s, t)
    res = lcs_short(s, t, m)
    assert _witnessed(s, t, res)
    if want <= m:
        assert res.length == want
    else:
        assert m < res.length <= want


@st.composite
def fragment_sets(draw, max_len):
    """A near-periodic code array over up to 200 letters (199 always present,
    so each symbol takes 8 bits and a key word holds 8 symbols) and fragments
    of it, at least one of them max_len long."""
    root = draw(st.lists(st.integers(0, 199), min_size=1, max_size=4))
    n = draw(st.integers(max_len, 80))
    codes = [root[i % len(root)] for i in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        codes[i] = draw(st.integers(0, 199))
    codes.append(199)
    frags = [(draw(st.integers(0, n - max_len)), max_len)]
    for _ in range(draw(st.integers(0, 30))):
        start = draw(st.integers(0, n))
        frags.append((start, draw(st.integers(0, min(max_len, n - start)))))
    order = draw(st.permutations(range(len(frags))))
    return np.array(codes, dtype=np.int64), [frags[i] for i in order]


def _lcp(a, b):
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


@pytest.mark.parametrize("words", [1, 2, 3])
@given(data=st.data())
def test_fragment_sort_matches_naive_sort(words, data):
    codes, frags = data.draw(fragment_sets(8 * words))
    strings = [bytes(codes[a : a + ln].tolist()) for a, ln in frags]
    want = sorted(range(len(frags)), key=lambda i: strings[i])
    order, lcps = fragment_order_and_lcps(
        codes, [a for a, _ in frags], [ln for _, ln in frags]
    )
    assert order.tolist() == want
    assert lcps == [_lcp(strings[want[r]], strings[want[r + 1]]) for r in range(len(want) - 1)]
