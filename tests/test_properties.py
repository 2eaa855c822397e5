"""Property-based oracle checks over adversarial string families: unary,
periodic and near-periodic strings, alphabets of up to 256 byte values, and
length-1 inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from packedlcs.family_lcp import (
    TwoFamiliesInstance,
    instance_from_pairs,
    max_pair_lcp_general,
)
from packedlcs.lcs_engine import (
    _Ctx,
    _build_anchors_medium,
    _medium_case_one,
    lcs,
    lcs_long,
    lcs_medium,
    lcs_short,
    regime_parameters,
)
from packedlcs import klcs_engine
from packedlcs.klcs_engine import klcs
from packedlcs.oracles import brute_max_pair_lcp, klcs_dp, lcs_dp
from packedlcs.suffix_index import build_compacted_trie
from packedlcs.text_core import PackedLcsError, _sort_packed_fragments


def _family_strings(draw, max_sigma, min_len, max_len):
    """A drawer of byte strings of one family (random, unary, periodic or
    near-periodic) over a shared alphabet of up to max_sigma values."""
    sigma = draw(st.integers(1, max_sigma))
    letters = st.integers(0, sigma - 1)
    family = draw(st.sampled_from(["random", "unary", "periodic", "near_periodic"]))
    root = draw(st.lists(letters, min_size=1, max_size=1 if family == "unary" else 6))

    def one():
        n = draw(st.integers(min_len, max_len))
        if family == "random":
            return bytes(draw(st.lists(letters, min_size=n, max_size=n)))
        shift = draw(st.integers(0, len(root) - 1))
        out = [root[(shift + i) % len(root)] for i in range(n)]
        if family == "near_periodic" and n:
            for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                out[i] = draw(letters)
        return bytes(out)

    return one


@st.composite
def string_pairs(draw, max_len=60):
    """Two byte strings of one family over a shared alphabet of sigma values."""
    one = _family_strings(draw, 256, 1, max_len)
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


@given(string_pairs())
def test_lcs_matches_dp_from_the_regime_it_names(pair):
    s, t = pair
    want, _, _ = lcs_dp(s, t)
    res = lcs(s, t)
    assert res.length == want and _witnessed(s, t, res)
    per = 64 // (len(set(s) | set(t)) + 1).bit_length()
    assert res.regime == ("short" if want < per else "scan")


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
    order, lcps = _sort_packed_fragments(
        codes,
        np.array([a for a, _ in frags]),
        np.array([ln for _, ln in frags]),
        8 * words,
    )
    assert order.tolist() == want
    assert lcps.tolist() == [
        _lcp(strings[want[r]], strings[want[r + 1]]) for r in range(len(want) - 1)
    ]


@st.composite
def medium_pairs(draw):
    """Two byte strings of one family over up to 64 letters (7-bit key
    symbols, so tau or cap above 9 takes more than one key word), with tau
    and cap for medium case I.  Run detection needs tau >= 3, and the medium
    regime runs only for tau <= |S$T| / 2."""
    one = _family_strings(draw, 64, 3, 120)
    return one(), one(), draw(st.integers(3, 20)), draw(st.integers(1, 30))


# Unary and periodic pairs, and short T segments, leave one side without
# anchors; more examples keep enough two-sided instances.
@settings(max_examples=400)
@given(medium_pairs())
def test_medium_case_one_matches_brute_family(case):
    s, t, tau, cap = case
    tau = min(tau, (len(s) + len(t) + 1) // 2)
    ctx = _Ctx(s, t)
    anchors = _build_anchors_medium(ctx, tau)
    pairs = [(a, b) for a in anchors.a1_s.tolist() for b in anchors.a1_t.tolist()]
    res = _medium_case_one(ctx, anchors, tau, cap)
    if not pairs:
        assert res is None
        return
    # The (tau, cap)-family value over the same anchors: up to tau symbols
    # before both anchors (not past a string start) plus up to cap from them.
    want = max(
        min(_lcp(s[: a - 1][::-1], t[: b - 1][::-1]), tau)
        + min(_lcp(s[a - 1 :], t[b - 1 :]), cap)
        for a, b in pairs
    )
    assert res.length == want
    assert res.pos_s >= 1 and res.pos_t >= 1
    assert _witnessed(s, t, res)


@st.composite
def run_dense_pairs(draw):
    """Two byte strings of one-letter runs, 3 to 20 long, each closed by a
    terminator; S and T draw their terminators from two overlapping sets, so
    runs match within a string and across the two up to their ends."""
    letter = draw(st.sampled_from(b"ab"))

    def one(ends):
        out = b""
        for _ in range(draw(st.integers(1, 8))):
            out += bytes([letter]) * draw(st.integers(3, 20)) + bytes([draw(st.sampled_from(ends))])
        return out

    return one(b"cd"), one(b"de")


@settings(max_examples=150)
@given(run_dense_pairs())
def test_run_dense_strings(pair):
    s, t = pair
    want, _, _ = lcs_dp(s, t)
    res = lcs(s, t)
    assert res.length == want and _witnessed(s, t, res)
    for tau in (3, 6):
        if tau > (len(s) + len(t) + 1) // 2:
            continue
        res = lcs_medium(s, t, tau=tau)
        assert res.length <= want and _witnessed(s, t, res)


# -- compacted tries ---------------------------------------------------------


@st.composite
def sorted_families(draw):
    """A sorted list of byte strings of one family, with empty strings and
    duplicates."""
    one = _family_strings(draw, 3, 0, 8)
    pool = [one() for _ in range(draw(st.integers(1, 12)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=24))
    return sorted(pool[i] for i in picks)


def _naive_compacted_trie(strings):
    """{val: parent val} over the nodes of the compacted trie of strings (the
    root, every string and every branching point), by inserting each string
    letter by letter into a dict-of-children trie; and the nodes in preorder
    with children in letter order."""
    kids = {b"": set()}
    for x in strings:
        for i in range(len(x)):
            kids.setdefault(x[:i], set()).add(x[: i + 1])
            kids.setdefault(x[: i + 1], set())
    keep = {b""} | set(strings) | {v for v, c in kids.items() if len(c) > 1}
    parent, preorder, stack = {}, [], [(b"", None)]
    while stack:
        v, up = stack.pop()
        if v in keep:
            parent[v], up = up, v
            preorder.append(v)
        stack.extend((c, up) for c in sorted(kids[v], reverse=True))
    return parent, preorder


def _trie_of_sorted(strings):
    lcps = [_lcp(strings[r], strings[r + 1]) for r in range(len(strings) - 1)]
    return build_compacted_trie([len(x) for x in strings], lcps)


@given(sorted_families())
def test_compacted_trie_matches_naive_trie(strings):
    trie = _trie_of_sorted(strings)
    n = trie.node_count()
    end = trie.subtree_end.tolist()
    # val(v): a prefix of any input on a node of v's subtree.
    on = trie.leaf_of_input.tolist()
    val = [b""] * n
    for v in range(n):
        below = [i for i, u in enumerate(on) if v <= u < end[v]]
        val[v] = strings[below[0]][: int(trie.depth[v])] if below else b""
    parent, preorder = _naive_compacted_trie(strings)
    assert val == preorder
    assert trie.depth.tolist() == [len(x) for x in val]
    assert [None] + [val[p] for p in trie.parent[1:].tolist()] == [parent[x] for x in val]
    assert [[i for i, u in enumerate(on) if u == v] for v in range(n)] == [
        [i for i, x in enumerate(strings) if x == v] for v in val
    ]
    distinct = sorted(set(strings))
    assert [val[v] for v in trie.leaf_at_rank.tolist()] == distinct
    assert trie.adjacent_leaf_lcp.tolist() == [
        _lcp(distinct[r], distinct[r + 1]) for r in range(len(distinct) - 1)
    ]


@given(sorted_families())
def test_compacted_trie_ids_are_preorder(strings):
    trie = _trie_of_sorted(strings)
    parent, end = trie.parent.tolist(), trie.subtree_end.tolist()
    assert parent[0] == -1
    assert all(parent[v] < v for v in range(1, len(parent)))
    for v in range(len(parent)):
        below = []
        for u in range(len(parent)):
            w = u
            while w > v:
                w = parent[w]
            if w == v:
                below.append(u)
        assert below == list(range(v, end[v]))


def test_compacted_trie_of_long_strings():
    # Node keys (first string * (longest length + 1) + depth) pass 2^31 here;
    # lengthening every string past its LCPs keeps the shape.
    lcps = [1, 2, 1, 0, 3]
    short = build_compacted_trie([3, 4, 5, 4, 6, 4], lcps)
    long = build_compacted_trie([(1 << 30) + x for x in (3, 4, 5, 4, 6, 4)], lcps)
    assert long.parent.tolist() == short.parent.tolist()
    assert long.subtree_end.tolist() == short.subtree_end.tolist()
    assert long.leaf_of_input.tolist() == short.leaf_of_input.tolist()
    is_leaf = short.subtree_end == np.arange(short.node_count()) + 1
    assert (long.depth - short.depth).tolist() == np.where(is_leaf, 1 << 30, 0).tolist()


def test_compacted_trie_rejects_bad_input():
    with pytest.raises(PackedLcsError, match="len-1"):
        build_compacted_trie([1, 2, 3], [1])
    with pytest.raises(PackedLcsError, match="len-1"):
        build_compacted_trie([1, 2], [0, 0])
    # "ab" before "a": the LCP fits both lengths, but a proper prefix follows
    # its extension.
    with pytest.raises(PackedLcsError, match="unsorted"):
        build_compacted_trie([2, 1], [1])
    with pytest.raises(PackedLcsError, match="unsorted"):
        build_compacted_trie([1, 1], [2])


# -- Two String Families LCP -------------------------------------------------


@st.composite
def family_instances(draw):
    """P and Q as (first, second) string pairs of one string family, with
    empty strings and duplicates (pairs repeated inside and across P and Q)."""
    one = _family_strings(draw, 3, 0, 12)
    pool = [(one(), one()) for _ in range(draw(st.integers(1, 12)))]
    pick = st.integers(0, len(pool) - 1)
    p = [pool[i] for i in draw(st.lists(pick, min_size=1, max_size=14))]
    q = [pool[i] for i in draw(st.lists(pick, min_size=1, max_size=14))]
    return p, q


def _shared_trie_instance(p, q):
    """One trie over every first and second component (trie1 is trie2)."""
    strings = [x for pair in p + q for x in pair]
    order = sorted(range(len(strings)), key=lambda i: strings[i])
    lcps = [
        _lcp(strings[order[r]], strings[order[r + 1]]) for r in range(len(order) - 1)
    ]
    trie = build_compacted_trie([len(strings[i]) for i in order], lcps)
    leaf = [None] * len(strings)
    for r, i in enumerate(order):
        leaf[i] = trie.leaf_of_input[r]
    pairs = [(leaf[2 * i], leaf[2 * i + 1]) for i in range(len(p) + len(q))]
    return TwoFamiliesInstance(trie, trie, pairs[: len(p)], pairs[len(p) :])


@pytest.mark.parametrize("shared", [False, True])
@given(family_instances())
def test_general_solver_matches_brute(shared, pq):
    p, q = pq
    inst = _shared_trie_instance(p, q) if shared else instance_from_pairs(p, q)
    assert (inst.trie1 is inst.trie2) == shared
    want, _ = brute_max_pair_lcp(p, q)
    res = max_pair_lcp_general(inst)
    assert res.value == want
    pi, qi = res.witness
    assert _lcp(p[pi][0], q[qi][0]) + _lcp(p[pi][1], q[qi][1]) == want
    # Each element is probed where it is attached and then only where its
    # subtree is light, which at least doubles the range: N (1 + log2 N).  For
    # N >= 3 that is within N ceil(log2 N)^2.
    n = len(p) + len(q)
    assert res.merged_elements <= n * (1 + math.floor(math.log2(n)))


@given(family_instances())
def test_batched_rank_lcp_matches_naive_lcp(pq):
    p, q = pq
    inst = instance_from_pairs(p, q)
    seconds = [pair[1] for pair in p + q]
    r2 = inst.r2
    a, b = np.meshgrid(np.arange(r2.size), np.arange(r2.size))
    got = inst.lcp2.lcp_many(r2[a.ravel()], r2[b.ravel()])
    assert got.tolist() == [_lcp(seconds[i], seconds[j]) for i, j in zip(a.ravel(), b.ravel())]


@given(string_pairs(), st.integers(1, 12))
def test_long_regime_matches_dp_from_d(pair, d):
    s, t = pair
    want, _, _ = lcs_dp(s, t)
    res = lcs_long(s, t, d)
    assert _witnessed(s, t, res)
    assert res.length <= want
    if want >= d:
        assert res.length == want


@pytest.mark.parametrize("force_family", [False, True])
@pytest.mark.parametrize("k", [1, 2])
@given(pair=string_pairs(max_len=40))
def test_klcs_matches_dp(force_family, k, pair):
    s, t = pair
    old = klcs_engine.FORCE_FAMILY_LEGS
    klcs_engine.FORCE_FAMILY_LEGS = force_family
    try:
        res = klcs(s, t, k)
    finally:
        klcs_engine.FORCE_FAMILY_LEGS = old
    assert res.length == klcs_dp(s, t, k)[0]
    a = s[res.pos_s - 1 : res.pos_s - 1 + res.length]
    b = t[res.pos_t - 1 : res.pos_t - 1 + res.length]
    assert len(a) == len(b) == res.length
    mism = tuple(i + 1 for i in range(res.length) if a[i] != b[i])
    assert mism == res.mismatches and len(mism) <= k
