import numpy as np
import pytest

from packedlcs.family_lcp import instance_from_pairs, max_pair_lcp_general
from packedlcs.oracles import brute_max_pair_lcp
from packedlcs.suffix_index import build_compacted_trie
from packedlcs.text_core import PackedLcsError
from packedlcs.wavelet_lcp import (
    LcpsList,
    binarize_skeleton,
    build_wavelet,
    cross_origin_max,
    propagate_lcps,
    solve_alpha_beta,
    solve_alpha_beta_core,
)


def naive_lcp(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def trie_of(strings):
    order = sorted(range(len(strings)), key=lambda i: strings[i])
    lengths = [len(strings[i]) for i in order]
    lcps = [naive_lcp(strings[order[r]], strings[order[r + 1]]) for r in range(len(order) - 1)]
    return build_compacted_trie(lengths, lcps, payload_ids=list(order))


def rand_str(rng, max_len, sigma=3, min_len=0):
    n = int(rng.integers(min_len, max_len + 1))
    return "".join(chr(97 + int(c)) for c in rng.integers(0, sigma, size=n))


# -- skeleton --


def test_skeleton_single_leaf():
    skel = binarize_skeleton(trie_of(["abc"]))
    assert skel.node_count() == 1
    assert skel.leaf_symbol[skel.root] == 0
    assert skel.val_depth[skel.root] == 3


def test_skeleton_binary_trie_kept():
    # Two strings branching at the root: skeleton is root + two leaves.
    skel = binarize_skeleton(trie_of(["ax", "bx"]))
    assert skel.node_count() == 3
    assert skel.height == 1


def test_skeleton_prefix_string_gets_pad_leaf():
    strings = ["ab", "abc"]
    skel = binarize_skeleton(trie_of(strings))
    # "ab" must be a leaf evaluated at depth 2, "abc" at depth 3.
    d = {skel.leaf_symbol[v]: skel.val_depth[v]
         for v in range(skel.node_count()) if skel.leaf_symbol[v] >= 0}
    assert d == {0: 2, 1: 3}


def leaf_pairs_lcp_consistent(skel, strings, rng, samples=200):
    strs_by_symbol = strings
    nodes = [v for v in range(skel.node_count()) if skel.leaf_symbol[v] < 0]
    for v in nodes:
        # sample a leaf from each side
        def sample_leaf(u):
            while skel.leaf_symbol[u] < 0:
                u = skel.left[u] if rng.random() < 0.5 else skel.right[u]
            return skel.leaf_symbol[u]
        for _ in range(4):
            a = sample_leaf(skel.left[v])
            b = sample_leaf(skel.right[v])
            want = naive_lcp(strs_by_symbol[a], strs_by_symbol[b])
            assert skel.val_depth[v] == want, (v, a, b)


def test_skeleton_prefix_consistency_random():
    rng = np.random.default_rng(42)
    for _ in range(60):
        alpha = int(rng.integers(1, 7))
        m = int(rng.integers(1, 20))
        strings = sorted({rand_str(rng, alpha, 2) for _ in range(m)} | {"a"})
        trie = trie_of(strings)
        skel = binarize_skeleton(trie)
        leaf_pairs_lcp_consistent(skel, strings, rng)
        # Every symbol has exactly one leaf.
        syms = sorted(
            skel.leaf_symbol[v] for v in range(skel.node_count()) if skel.leaf_symbol[v] >= 0
        )
        assert syms == list(range(len(strings)))


def test_skeleton_height_bound():
    rng = np.random.default_rng(43)
    for _ in range(200):
        alpha = int(rng.integers(1, 10))
        m = int(rng.integers(1, 40))
        strings = sorted({rand_str(rng, alpha, 2, min_len=1) for _ in range(m)})
        if not strings:
            continue
        skel = binarize_skeleton(trie_of(strings))
        bound = 2 * (alpha + int(np.ceil(np.log2(max(2, len(strings)))))) + 2
        assert skel.height <= bound, (alpha, len(strings), skel.height)


# -- wavelet --


def test_wavelet_constant_sequence():
    strings = ["aa", "ab", "bb"]
    skel = binarize_skeleton(trie_of(strings))
    seq = np.zeros(10, dtype=np.int64)
    wt = build_wavelet(seq, skel)
    for bits in wt.bitvecs.values():
        assert len(set(bits.tolist())) <= 1


def test_wavelet_reconstruction_random():
    rng = np.random.default_rng(44)
    for _ in range(60):
        m = int(rng.integers(1, 15))
        strings = sorted({rand_str(rng, 5, 2) for _ in range(m)})
        skel = binarize_skeleton(trie_of(strings))
        n = int(rng.integers(1, 60))
        seq = rng.integers(0, len(strings), size=n).astype(np.int64)
        wt = build_wavelet(seq, skel)
        got = [wt.access(i) for i in range(n)]
        assert got == list(seq)


def test_wavelet_lift_inverts_routing():
    # Route every element down to its leaf by rank, then lift it back up by
    # select; lift must return the element's own sequence index.
    rng = np.random.default_rng(40)
    for _ in range(40):
        m = int(rng.integers(1, 15))
        strings = sorted({rand_str(rng, 5, 2) for _ in range(m)})
        skel = binarize_skeleton(trie_of(strings))
        n = int(rng.integers(1, 600))
        seq = rng.integers(0, len(strings), size=n).astype(np.int64)
        wt = build_wavelet(seq, skel)
        for i in range(0, n, max(1, n // 50)):
            v, pos, path = skel.root, i, ()
            while skel.leaf_symbol[v] < 0:
                bits = wt.bitvecs[v]
                side = int(bits[pos])
                pos = int(np.count_nonzero(bits[:pos] == bits[pos]))
                path += ((v, side),)
                v = skel.right[v] if side else skel.left[v]
            assert skel.leaf_symbol[v] == seq[i]
            assert wt.lift(pos, path) == i


def test_wavelet_rejects_bad_symbol():
    skel = binarize_skeleton(trie_of(["a", "b"]))
    with pytest.raises(PackedLcsError):
        build_wavelet(np.array([5]), skel)


# -- LCP-list propagation --


def test_propagate_identity_filter():
    lst = LcpsList([0, 3, 1, 2], [False, True, False, True])
    out = propagate_lcps(lst, np.zeros(4, dtype=bool), 0)
    assert list(out.values) == [0, 3, 1, 2]
    assert list(out.origins) == [False, True, False, True]


def test_propagate_alternating_min_combination():
    lst = LcpsList([0, 3, 1, 2], [False, False, True, True])
    out = propagate_lcps(lst, np.array([False, True, False, True]), 0)
    # kept positions 0 and 2; entry = min(L[1..2]) = min(3,1) = 1
    assert list(out.values) == [0, 1]


def test_lcps_list_rejects_length_mismatch():
    with pytest.raises(PackedLcsError):
        LcpsList([0, 1, 2], [False, True])
    with pytest.raises(PackedLcsError):
        propagate_lcps(LcpsList([0, 1], [False, True]), np.zeros(3, dtype=bool), 0)


def windowed_min_lcps(vals, keep):
    """Direct recomputation of a child list: entry j is the min of the parent
    entries after kept element j-1 up to and including kept element j."""
    return [0] * min(1, len(keep)) + [
        min(vals[keep[j - 1] + 1 : keep[j] + 1]) for j in range(1, len(keep))
    ]


def test_propagate_matches_recomputation_random():
    rng = np.random.default_rng(45)
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        beta = int(rng.integers(1, 20))
        sublist = [rand_str(rng, beta, 2) for _ in range(n)]
        sublist.sort()
        vals = [0] * min(1, n) + [
            naive_lcp(sublist[i - 1], sublist[i]) for i in range(1, n)
        ]
        orig = rng.random(n) < 0.5
        bits = rng.random(n) < 0.5
        lst = LcpsList(vals, orig)
        for side in (0, 1):
            keep = [i for i in range(n) if bool(bits[i]) == bool(side)]
            filtered = [sublist[i] for i in keep]
            want = [0] * min(1, len(filtered)) + [
                naive_lcp(filtered[i - 1], filtered[i]) for i in range(1, len(filtered))
            ]
            out = propagate_lcps(lst, bits, side)
            assert list(out.values) == want == windowed_min_lcps(vals, keep)
            assert list(out.origins) == [bool(orig[i]) for i in keep]
    # One long list, checked against the windowed-minimum recomputation.
    n, beta = 3000, 9
    vals = [0] + [int(x) for x in rng.integers(0, beta + 1, size=n - 1)]
    orig = rng.random(n) < 0.5
    bits = rng.random(n) < 0.5
    lst = LcpsList(vals, orig)
    for side in (0, 1):
        keep = [i for i in range(n) if bool(bits[i]) == bool(side)]
        out = propagate_lcps(lst, bits, side)
        assert list(out.values) == windowed_min_lcps(vals, keep)
        assert list(out.origins) == [bool(orig[i]) for i in keep]


def test_cross_origin_max_scan():
    rng = np.random.default_rng(47)
    for _ in range(300):
        n = int(rng.integers(0, 30))
        beta = int(rng.integers(1, 16))
        vals = [0] * min(1, n) + [
            int(x) for x in rng.integers(0, beta + 1, size=max(0, n - 1))
        ]
        orig = rng.random(n) < 0.5
        lst = LcpsList(vals, orig)
        want = None
        for i in range(1, n):
            if orig[i] != orig[i - 1] and (want is None or vals[i] > want[0]):
                want = (vals[i], i)
        assert cross_origin_max(lst) == want


# -- the full solver --


def test_solver_matches_general_on_examples():
    p = [("ab", "xy"), ("ac", "xz")]
    q = [("ad", "xy")]
    inst = instance_from_pairs(p, q)
    res = solve_alpha_beta(inst, 2, 2)
    assert res.value == max_pair_lcp_general(inst).value == 3


def test_solver_singleton_shared_pair():
    inst = instance_from_pairs([("uv", "wxy")], [("uv", "wxy")])
    res = solve_alpha_beta(inst, 2, 3)
    assert res.value == 5 and res.witness == (0, 0)


def test_solver_rejects_bound_violation():
    inst = instance_from_pairs([("abc", "x")], [("a", "y")])
    with pytest.raises(PackedLcsError):
        solve_alpha_beta(inst, 2, 4)
    # The core rejects a second-component LCP above beta.
    with pytest.raises(PackedLcsError):
        solve_alpha_beta_core(trie_of(["a"]), [0, 0], [0, 5], [False, True], 4)


def test_solver_vs_brute_random():
    rng = np.random.default_rng(48)
    for _ in range(500):
        alpha = int(rng.integers(1, 9))
        beta = int(rng.integers(1, 12))
        np_, nq = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        sigma = int(rng.integers(1, 4))
        p = [(rand_str(rng, alpha, sigma), rand_str(rng, beta, sigma)) for _ in range(np_)]
        q = [(rand_str(rng, alpha, sigma), rand_str(rng, beta, sigma)) for _ in range(nq)]
        want, _ = brute_max_pair_lcp(p, q)
        inst = instance_from_pairs(p, q)
        res = solve_alpha_beta(inst, alpha, beta)
        gen = max_pair_lcp_general(inst)
        assert res.value == want == gen.value
        if res.witness is not None:
            pi, qi = res.witness
            got = naive_lcp(p[pi][0], q[qi][0]) + naive_lcp(p[pi][1], q[qi][1])
            assert got == res.value


def test_solver_empty_family():
    inst = instance_from_pairs([], [("a", "b")])
    assert solve_alpha_beta(inst, 1, 1).value == 0
