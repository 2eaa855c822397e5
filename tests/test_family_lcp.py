import numpy as np
import pytest

from packedlcs.family_lcp import (
    TwoFamiliesInstance,
    instance_from_pairs,
    max_pair_lcp_general,
)
from packedlcs.oracles import brute_max_pair_lcp
from packedlcs.text_core import PackedLcsError


def rand_str(rng, max_len, sigma=3, min_len=0):
    n = int(rng.integers(min_len, max_len + 1))
    return "".join(chr(97 + int(c)) for c in rng.integers(0, sigma, size=n))


def test_general_trivial_pairs():
    res = max_pair_lcp_general(instance_from_pairs([("a", "bb")], [("a", "bc")]))
    assert res.value == 2 and res.witness == (0, 0)


def test_general_hand_example():
    p = [("ab", "xy"), ("ac", "xz")]
    q = [("ad", "xy")]
    res = max_pair_lcp_general(instance_from_pairs(p, q))
    assert res.value == 3
    assert res.witness == (0, 0)


def test_general_empty_family():
    res = max_pair_lcp_general(instance_from_pairs([], [("a", "b")]))
    assert res.value == 0 and res.witness is None


def test_general_vs_brute_random():
    rng = np.random.default_rng(30)
    for _ in range(300):
        np_, nq = int(rng.integers(1, 14)), int(rng.integers(1, 14))
        sigma = int(rng.integers(1, 4))
        p = [(rand_str(rng, 12, sigma), rand_str(rng, 12, sigma)) for _ in range(np_)]
        q = [(rand_str(rng, 12, sigma), rand_str(rng, 12, sigma)) for _ in range(nq)]
        want, _ = brute_max_pair_lcp(p, q)
        res = max_pair_lcp_general(instance_from_pairs(p, q))
        assert res.value == want
        if res.witness is not None:
            pi, qi = res.witness
            got = sum(
                len_common(a, b) for a, b in zip(p[pi], q[qi])
            )
            assert got == res.value


def len_common(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def test_general_merge_counter_bound():
    rng = np.random.default_rng(31)
    for _ in range(30):
        np_, nq = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        p = [(rand_str(rng, 10, 2), rand_str(rng, 10, 2)) for _ in range(np_)]
        q = [(rand_str(rng, 10, 2), rand_str(rng, 10, 2)) for _ in range(nq)]
        inst = instance_from_pairs(p, q)
        res = max_pair_lcp_general(inst)
        n = max(np_ + nq, 1)
        log = max(1, int(np.ceil(np.log2(max(n, 2)))))
        assert res.merged_elements <= n * log * log


def make_prefix_instance(rng, base_len=20, sigma=2, np_=6, nq=6):
    base = rand_str(rng, base_len, sigma, min_len=base_len)
    def pair():
        cut = int(rng.integers(0, base_len + 1))
        return (base[:cut], rand_str(rng, 10, sigma))
    return [pair() for _ in range(np_)], [pair() for _ in range(nq)]


def test_prefix_examples():
    # On a prefix family the chain trie probes every element once.
    res = max_pair_lcp_general(instance_from_pairs([("aa", "bc")], [("aaa", "bd")]))
    assert res.value == 3 and res.merged_elements == 2
    res2 = max_pair_lcp_general(instance_from_pairs([("ab", "cd")], [("ab", "cd")]))
    assert res2.value == 4 and res2.witness == (0, 0) and res2.merged_elements == 2


def test_prefix_families_vs_brute():
    rng = np.random.default_rng(32)
    for _ in range(300):
        p, q = make_prefix_instance(
            rng,
            base_len=int(rng.integers(1, 24)),
            sigma=int(rng.integers(1, 3)),
            np_=int(rng.integers(1, 10)),
            nq=int(rng.integers(1, 10)),
        )
        want, _ = brute_max_pair_lcp(p, q)
        res = max_pair_lcp_general(instance_from_pairs(p, q))
        assert res.value == want
        assert res.merged_elements == len(p) + len(q)
        if res.witness:
            pi, qi = res.witness
            assert len_common(p[pi][0], q[qi][0]) + len_common(p[pi][1], q[qi][1]) == want


def test_witness_tie_break_deterministic():
    # Ties resolve to the smallest (P index, Q index) among probed candidates,
    # and repeated solves return the identical witness.
    p = [("zz", "ab"), ("zz", "ab")]
    q = [("zz", "ab"), ("zz", "ab")]
    results = [
        max_pair_lcp_general(instance_from_pairs(p, q)).witness for _ in range(3)
    ]
    assert results[0] == results[1] == results[2]
    res = max_pair_lcp_general(instance_from_pairs(p, q))
    assert res.value == 4
    pi, qi = res.witness
    assert p[pi] == ("zz", "ab") and q[qi] == ("zz", "ab")


def test_instance_rejects_components_that_are_not_ranked_leaves():
    inst = instance_from_pairs([("ab", "x"), ("ac", "y")], [("ab", "x")])
    trie1 = inst.trie1
    branch = trie1.parent[int(inst.p_elems[0][0])]  # "a": internal, unranked
    assert branch > 0 and trie1.leaf_rank[branch] == -1
    leaf2 = int(inst.p_elems[0][1])
    with pytest.raises(PackedLcsError, match="ranked"):
        TwoFamiliesInstance(trie1, inst.trie2, [(branch, leaf2)], [(branch, leaf2)])
    with pytest.raises(PackedLcsError, match="not a trie node"):
        TwoFamiliesInstance(trie1, inst.trie2, [(trie1.node_count(), leaf2)], [])
