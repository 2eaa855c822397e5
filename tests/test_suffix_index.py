import numpy as np
import pytest

from packedlcs.text_core import CombinedText, PackedLcsError, make_alphabet
from packedlcs.suffix_index import (
    SparseRmq,
    SuffixIndex,
    build_compacted_trie,
    suffix_array,
)


def naive_sa(s):
    return sorted(range(len(s)), key=lambda i: s[i:])


def naive_lcp(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def codes_of(s):
    return np.array([ord(c) for c in s], dtype=np.int64)


def combined_index(s, t):
    """CombinedText of S and T and a SuffixIndex over its codes."""
    alpha = make_alphabet(s, t)
    comb = CombinedText(alpha.encode(s), alpha.encode(t))
    return comb, SuffixIndex(comb.codes())


def test_suffix_array_random():
    rng = np.random.default_rng(10)
    for _ in range(80):
        n = int(rng.integers(0, 120))
        sigma = int(rng.integers(1, 5))
        s = "".join(chr(97 + int(c)) for c in rng.integers(0, sigma, size=n))
        assert list(suffix_array(codes_of(s))) == naive_sa(s)


def neighbour_lcps(idx):
    """lcp[r] = LCP of the suffixes of suffix ranks r - 1 and r, lcp[0] = 0."""
    sa = idx.sa
    return np.concatenate([[0], idx.lce_bulk(sa[:-1] + 1, sa[1:] + 1)])


def test_lcp_array_banana():
    s = "banana"
    idx = SuffixIndex(codes_of(s))
    sa, lcp = idx.sa, neighbour_lcps(idx)
    for r in range(1, len(s)):
        a, b = s[sa[r - 1]:], s[sa[r]:]
        assert lcp[r] == naive_lcp(a, b)


def test_lce_identity_and_scan():
    # "abaab" embedded as S in a combined text; lce is over the combined codes.
    _, idx = combined_index(b"abaab", b"z")
    n = idx.n
    pos = np.arange(1, n + 1)
    assert idx.lce_bulk(pos, pos).tolist() == (n - pos + 1).tolist()
    # Suffixes 1 and 4 of "abaab": "abaab..." vs "ab#..." share "ab" then diverge
    # at the sentinel, so the in-string lce is still 2.
    assert idx.lce_bulk([1], [4]).tolist() == [2]


def test_lce_random_vs_scan():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        codes = rng.integers(0, 3, size=n).astype(np.int64)
        idx = SuffixIndex(codes)
        s = "".join(chr(97 + int(c)) for c in codes)
        I = rng.integers(1, n + 1, size=30)
        J = rng.integers(1, n + 1, size=30)
        want = [naive_lcp(s[i - 1 :], s[j - 1 :]) for i, j in zip(I, J)]
        assert idx.lce_bulk(I, J).tolist() == want


def test_lce_bulk_rejects_positions_out_of_range():
    idx = SuffixIndex(codes_of("banana"))
    assert idx.lce_bulk([1, 6], [6, 6]).tolist() == [0, 1]
    assert idx.lce_bulk([], []).tolist() == []
    for i, j in (([0], [1]), ([1], [7]), ([2, 7], [1, 1]), ([-3], [2])):
        with pytest.raises(PackedLcsError):
            idx.lce_bulk(i, j)


def test_lce_answers_one_pair_as_lce_bulk():
    rng = np.random.default_rng(12)
    codes = rng.integers(0, 2, size=200).astype(np.int64)
    idx = SuffixIndex(codes)
    I = rng.integers(1, 201, size=50)
    J = rng.integers(1, 201, size=50)
    assert [idx.lce(int(a), int(b)) for a, b in zip(I, J)] == idx.lce_bulk(I, J).tolist()


def test_lce_examples():
    comb, idx = combined_index(b"banana", b"ananas")
    s2 = comb.offsets["S"] + 1  # "anana" #1 ...
    t1 = comb.offsets["T"]  # "ananas" #3 ...
    # S's suffix stops at its sentinel after five shared letters; "nana" #1
    # against "nanas" #3, and "a" #1 against "as" #3.
    i = [s2, t1, s2, s2 + 1, comb.offsets["S"] + 5]
    j = [t1, s2, s2, t1 + 1, t1 + 4]
    assert idx.lce_bulk(i, j).tolist() == [5, 5, len(comb) - s2 + 1, 4, 1]


def test_segment_suffix_order_examples():
    comb, idx = combined_index(b"abxab", b"ab")
    s1, s4, t1 = comb.offsets["S"], comb.offsets["S"] + 3, comb.offsets["T"]
    rank = lambda i: int(idx.isa[i - 1])
    # "ab" #1 sorts before its extension "abxab" #1.
    assert rank(s4) < rank(s1)
    # Equal strings "ab" in S and T: the lower sentinel #1 ranks S's first,
    # and the LCE covers the whole string.
    assert rank(s4) < rank(t1) < rank(s1)
    assert idx.lce_bulk([s4, s4], [s1, t1]).tolist() == [2, 2]


def test_lce_reversed_segments_random():
    # The long regime reads a reversed prefix S[1..i-1]^R as the suffix of
    # the combined text that starts in S^R at offset + ns - i + 1; its LCE
    # with T's stops at the segment sentinels.
    rng = np.random.default_rng(14)
    for _ in range(50):
        ns, nt = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        s = bytes(rng.integers(97, 100, size=ns, dtype=np.uint8))
        t = bytes(rng.integers(97, 100, size=nt, dtype=np.uint8))
        comb, idx = combined_index(s, t)
        off = comb.offsets
        I = rng.integers(1, ns + 1, size=10)
        J = rng.integers(1, nt + 1, size=10)
        want = [naive_lcp(s[: i - 1][::-1], t[: j - 1][::-1]) for i, j in zip(I, J)]
        got = idx.lce_bulk(off["S_rev"] + ns - I + 1, off["T_rev"] + nt - J + 1)
        assert got.tolist() == want


def test_segment_suffix_order_random():
    # Every segment suffix of the combined text runs to a sentinel below
    # every letter, so suffix rank orders the strings the suffixes spell up
    # to their sentinels (the long regime sorts its components this way).
    rng = np.random.default_rng(15)
    for _ in range(40):
        ns, nt = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        s = bytes(rng.integers(97, 100, size=ns, dtype=np.uint8))
        t = bytes(rng.integers(97, 100, size=nt, dtype=np.uint8))
        comb, idx = combined_index(s, t)
        segs = [("S", s), ("S_rev", s[::-1]), ("T", t), ("T_rev", t[::-1])]
        picks = []
        for _ in range(25):
            seg, raw = segs[int(rng.integers(0, 4))]
            k = int(rng.integers(0, len(raw) + 1))
            picks.append((comb.offsets[seg] + k, raw[k:]))
        picks.sort(key=lambda p: int(idx.isa[p[0] - 1]))
        spelled = [x for _, x in picks]
        assert spelled == sorted(spelled)
        lces = idx.lce_bulk([i for i, _ in picks[:-1]], [j for j, _ in picks[1:]])
        for g, (i, a), (j, b) in zip(lces, picks, picks[1:]):
            want = len(a) if i == j else naive_lcp(a, b)
            assert min(g, len(a), len(b)) == want


def test_lcp_min_composition_property():
    rng = np.random.default_rng(16)
    _, idx = combined_index(
        bytes(rng.integers(97, 99, size=60, dtype=np.uint8)),
        bytes(rng.integers(97, 99, size=60, dtype=np.uint8)),
    )
    ranks = np.sort(rng.integers(0, idx.n, size=(300, 3)), axis=1)
    u1, u2, u3 = (idx.sa[ranks[:, c]] + 1 for c in range(3))
    assert (idx.lce_bulk(u1, u3) == np.minimum(idx.lce_bulk(u1, u2), idx.lce_bulk(u2, u3))).all()


# -- compacted tries --


def build_trie_from_strings(strings):
    lengths = [len(s) for s in strings]
    lcps = [naive_lcp(strings[i], strings[i + 1]) for i in range(len(strings) - 1)]
    return build_compacted_trie(lengths, lcps)


def test_trie_hand_example():
    trie = build_trie_from_strings(["ab", "abc", "b"])
    assert trie.node_count() == 4
    leaf_ab, leaf_abc, leaf_b = trie.leaf_of_input
    assert trie.depth[leaf_ab] == 2 and trie.depth[leaf_abc] == 3
    assert trie.parent[leaf_abc] == leaf_ab
    assert trie.parent[leaf_ab] == 0 and trie.parent[leaf_b] == 0
    assert trie.lca(leaf_abc, leaf_b) == 0


def test_trie_single_string():
    trie = build_trie_from_strings(["hello"])
    assert trie.node_count() == 2
    assert trie.depth[trie.leaf_of_input[0]] == 5


def test_trie_duplicates_collapse():
    trie = build_trie_from_strings(["ab", "ab", "cd"])
    assert trie.leaf_of_input[0] == trie.leaf_of_input[1]
    assert np.flatnonzero(trie.leaf_of_input == trie.leaf_of_input[0]).tolist() == [0, 1]


def test_trie_rejects_bad_lcp():
    with pytest.raises(PackedLcsError):
        build_compacted_trie([2, 2], [3])


def test_suffix_trie_leaf_order_is_suffix_array():
    s = "mississippi"
    order = naive_sa(s)
    suffixes = [s[i:] for i in order]
    lcps = [naive_lcp(suffixes[i], suffixes[i + 1]) for i in range(len(suffixes) - 1)]
    trie = build_compacted_trie([len(x) for x in suffixes], lcps)
    # Left-to-right leaves spell the sorted order.
    children = [[] for _ in range(trie.node_count())]
    for v, p in enumerate(trie.parent.tolist()[1:], 1):
        children[p].append(v)
    starts_on = [[] for _ in range(trie.node_count())]
    for start, v in zip(order, trie.leaf_of_input.tolist()):
        starts_on[v].append(start)
    leaves = []
    stack = [0]
    while stack:
        v = stack.pop()
        leaves.extend(starts_on[v])
        stack.extend(reversed(children[v]))
    assert leaves == order
    # Node count bound and strictly increasing depths.
    n_leaves = len(set(map(tuple, [suffixes[i:i+1] for i in range(len(suffixes))])))
    assert trie.node_count() <= 2 * len(suffixes) + 1
    for v in range(1, trie.node_count()):
        assert trie.depth[v] > trie.depth[trie.parent[v]]


def test_trie_lca_depth_is_lcp_random():
    rng = np.random.default_rng(17)
    s = "".join(chr(97 + int(c)) for c in rng.integers(0, 3, size=40))
    order = naive_sa(s)
    suffixes = [s[i:] for i in order]
    lcps = [naive_lcp(suffixes[i], suffixes[i + 1]) for i in range(len(suffixes) - 1)]
    trie = build_compacted_trie([len(x) for x in suffixes], lcps)
    for _ in range(1000):
        a = int(rng.integers(0, len(suffixes)))
        b = int(rng.integers(0, len(suffixes)))
        la, lb = trie.leaf_of_input[a], trie.leaf_of_input[b]
        want = naive_lcp(suffixes[a], suffixes[b])
        assert trie.lca_depth(la, lb) == want
        assert trie.lca(la, la) == la


def test_lcp_array_matches_scan_on_families():
    rng = np.random.default_rng(18)
    texts = ["a" * 70, "ab" * 35, "abc" * 23 + "b", "aab" * 20 + "a" * 9]
    texts += ["".join(chr(97 + int(c)) for c in rng.integers(0, 3, size=90)) for _ in range(5)]
    for s in texts:
        idx = SuffixIndex(codes_of(s))
        sa, lcp = idx.sa, neighbour_lcps(idx)
        assert lcp[0] == 0
        for r in range(1, len(s)):
            assert lcp[r] == naive_lcp(s[sa[r - 1]:], s[sa[r]:])


def test_lce_bulk_self_pairs_span_the_suffix():
    # Random text makes the rank tables stop after a few levels; a suffix
    # paired with itself still shares all of its symbols.
    rng = np.random.default_rng(19)
    codes = rng.integers(0, 4, size=300).astype(np.int64)
    idx = SuffixIndex(codes)
    pos = np.arange(1, 301)
    assert idx.lce_bulk(pos, pos).tolist() == (301 - pos).tolist()


def test_sparse_rmq_matches_scan():
    rng = np.random.default_rng(21)
    for dtype in (np.uint8, np.int32, np.int64):
        for n in list(range(0, 18)) + [63, 64, 65]:
            values = rng.integers(0, 100, size=n).astype(dtype)
            rmq = SparseRmq(values)
            assert rmq.table.dtype == dtype
            lo, hi = np.triu_indices(n + 1, 1)
            want = [int(values[a:b].min()) for a, b in zip(lo.tolist(), hi.tolist())]
            got = rmq.query_many(lo, hi)
            assert got.dtype == dtype and got.tolist() == want
