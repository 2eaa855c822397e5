import numpy as np
import pytest

from packedlcs.lcs_engine import _Ctx
from packedlcs.text_core import PackedLcsError, _sort_packed_fragments, symbol_bits
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


def st_index(s, t):
    """The SuffixIndex over S$T of a pair."""
    return _Ctx(s, t).index()


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
    # "abaab" embedded as S in S$T; lce is over the S$T codes.
    idx = st_index(b"abaab", b"z")
    n = idx.n
    pos = np.arange(1, n + 1)
    assert idx.lce_bulk(pos, pos).tolist() == (n - pos + 1).tolist()
    # Suffixes 1 and 4 of "abaab": "abaab..." vs "ab$..." share "ab" then diverge
    # at the separator, so the in-string lce is still 2.
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
    idx = st_index(b"banana", b"ananas")
    s2, t1 = 2, 6 + 2  # "anana" $ ..., "ananas"
    # S's suffix stops at the separator after five shared letters; "nana" $
    # against "nanas", and "a" $ against "as".
    i = [s2, t1, s2, s2 + 1, 6]
    j = [t1, s2, s2, t1 + 1, t1 + 4]
    assert idx.lce_bulk(i, j).tolist() == [5, 5, idx.n - s2 + 1, 4, 1]


def test_suffix_order_examples():
    idx = st_index(b"abxab", b"ab")
    s1, s4, t1 = 1, 4, 7
    rank = lambda i: int(idx.isa[i - 1])
    # "ab" $ sorts before its extension "abxab" $.
    assert rank(s4) < rank(s1)
    # Equal strings "ab" in S and T: T's ends the text, below the separator
    # that ends S's, and the LCE covers the whole string.
    assert rank(t1) < rank(s4) < rank(s1)
    assert idx.lce_bulk([s4, s4], [s1, t1]).tolist() == [2, 2]


def _check_component_order(idx, starts0, spelled):
    """Suffix rank at the 0-based starts orders the spelled strings, and the
    LCEs of rank neighbours, capped at their lengths, are their LCPs."""
    by_rank = sorted(range(len(starts0)), key=lambda c: int(idx.isa[starts0[c]]))
    got = [spelled[c] for c in by_rank]
    assert got == sorted(spelled)
    first = np.array([starts0[c] for c in by_rank]) + 1
    lces = idx.lce_bulk(first[:-1], first[1:])
    for g, a, b in zip(lces.tolist(), got, got[1:]):
        assert min(g, len(a), len(b)) == naive_lcp(a, b)


def test_reversed_prefixes_and_suffixes_random():
    # The long regime and the k-LCS legs read the prefix before 1-based
    # position a of S (b of T) backwards as packed words of (S$T)^R at
    # back_starts, and the suffix from it as the suffix of S$T at a - 1
    # (ns + b).  The packed reversed prefixes, empty ones included, sort in
    # naive order with their naive adjacent LCPs (capped at the key width);
    # the suffixes sort by suffix rank, and capped LCEs give their LCPs.
    rng = np.random.default_rng(14)
    for _ in range(60):
        ns, nt = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        s = bytes(rng.integers(97, 100, size=ns, dtype=np.uint8))
        t = bytes(rng.integers(97, 100, size=nt, dtype=np.uint8))
        ctx = _Ctx(s, t)
        a, b = np.arange(1, ns + 1), np.arange(1, nt + 1)
        back = np.concatenate(ctx.back_starts(a, b))
        prefixes = [s[: i - 1][::-1] for i in a] + [t[: j - 1][::-1] for j in b]
        width = int(rng.integers(1, max(ns, nt) + 1))
        cut = [p[:width] for p in prefixes]
        lens = np.array([len(p) for p in cut])
        order, lcps = _sort_packed_fragments(ctx.st_codes()[::-1], back, lens, width)
        got = [cut[c] for c in order]
        assert got == sorted(cut)
        assert lcps.tolist() == [naive_lcp(x, y) for x, y in zip(got, got[1:])]
        _check_component_order(
            ctx.index(),
            np.concatenate([a - 1, ns + b]).tolist(),
            [s[i - 1 :] for i in a] + [t[j - 1 :] for j in b],
        )


def test_lcp_min_composition_property():
    rng = np.random.default_rng(16)
    idx = st_index(
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


def _naive_lce(codes, i, j):
    k = 0
    while i + k < len(codes) and j + k < len(codes) and codes[i + k] == codes[j + k]:
        k += 1
    return k


def test_text_shorter_than_the_seed_width_runs_no_doubling_round():
    # Each suffix fits in its seed word, whose zero slots past the end differ
    # from every symbol, so the seed ranks are already the suffix order.
    rng = np.random.default_rng(22)
    for sigma in (1, 2, 4, 26, 200):
        per = 64 // symbol_bits(np.array([sigma - 1]))
        for n in (1, 2, per - 1):
            codes = rng.integers(0, sigma, size=n).astype(np.int64)
            codes[-1] = sigma - 1  # the widest code, which sets per
            if n > 2:
                codes[: n // 2] = codes[0]  # a run, so words share leading symbols
            idx = SuffixIndex(codes)
            assert idx.per == per and len(idx._rank_tables) == 1
            assert idx.sa.tolist() == naive_sa(codes.tolist())
            i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
            want = [_naive_lce(codes, a, b) for a, b in zip(i.tolist(), j.tolist())]
            assert idx.lce_bulk(i + 1, j + 1).tolist() == want


def test_lce_bulk_remainder_reaches_the_end_of_the_text():
    # Periodic and unary texts of per * 2^j - 1, per * 2^j and per * 2^j + 1
    # symbols: a suffix that is a prefix of another ends inside the last seed
    # word read, where the other word still holds symbols.
    for root in ([0], [0, 1], [2, 0, 1], [5, 5, 6, 5, 6]):
        per = 64 // symbol_bits(np.array(root))
        for n in (per - 1, per, per + 1, 2 * per - 1, 2 * per + 1, 4 * per + 1):
            codes = np.array((root * n)[:n], dtype=np.int64)
            idx = SuffixIndex(codes)
            i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
            want = [_naive_lce(codes, a, b) for a, b in zip(i.tolist(), j.tolist())]
            assert idx.lce_bulk(i + 1, j + 1).tolist() == want, (root, n)


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
