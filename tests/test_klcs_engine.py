import numpy as np
import pytest

from packedlcs.klcs_engine import (
    FamilyCounters,
    _CompleteFamily,
    build_bicomplete_family,
    build_complete_family,
    is_maxpair,
    klcs,
    klcs_anchors,
    lcp_k,
    max_pair_lcp_k,
)
from packedlcs.lcs_engine import lcs
from packedlcs.oracles import brute_max_pair_lcp, klcs_dp, lcp_k_naive, lcs_dp
from packedlcs.text_core import PackedLcsError


def rand_bytes(rng, n, sigma):
    return bytes(rng.integers(97, 97 + sigma, size=n, dtype=np.uint8))


def substr(text, frag):
    s, l = frag
    return text[s - 1 : s - 1 + l]


def apply_delta(src, delta):
    out = bytearray(src)
    for pos, letter in delta:
        out[pos - 1] = letter
    return bytes(out)


# -- lcp_k --


def test_lcp_k_identity():
    assert lcp_k("banana", "banana", 0) == 6
    assert lcp_k("banana", "banana", 3) == 6


def test_lcp_k_paper_value():
    assert lcp_k("ababbabb", "aacbaaab", 3) == 6


def test_lcp_k_vs_naive_random():
    rng = np.random.default_rng(70)
    for _ in range(2000):
        u = rand_bytes(rng, int(rng.integers(0, 30)), 2)
        v = rand_bytes(rng, int(rng.integers(0, 30)), 2)
        k = int(rng.integers(0, 5))
        assert lcp_k(u, v, k) == lcp_k_naive(u, v, k)


# -- maxpair definition --


def test_paper_maxpair_example():
    delta = [(2, ord("a")), (3, ord("b"))]
    nabla = [(3, ord("b")), (5, ord("b"))]
    assert is_maxpair("ababbabb", "aacbaaab", 3, delta, nabla)
    # Extra substitution beyond the reconciliation window breaks it.
    assert not is_maxpair(
        "ababbabb", "aacbaaab", 3, delta, nabla + [(7, ord("b"))]
    )


def test_maxpair_facts_random():
    # Fact (a): a maxpair has |delta u nabla| <= k and LCP >= LCP_k.
    # Fact (b): |delta u nabla| <= k implies LCP <= LCP_k.
    rng = np.random.default_rng(71)
    for _ in range(300):
        u = rand_bytes(rng, int(rng.integers(1, 16)), 2)
        v = rand_bytes(rng, int(rng.integers(1, 16)), 2)
        k = int(rng.integers(0, 4))
        # build a canonical maxpair: reconcile mismatches within LCP_k toward u
        lim = lcp_k_naive(u, v, k)
        nabla = tuple(
            (i + 1, u[i]) for i in range(min(lim, len(v), len(u))) if u[i] != v[i]
        )
        delta = ()
        assert is_maxpair(u, v, k, delta, nabla)
        du = len(set(delta) | set(nabla))
        assert du <= k
        lcp_mod = lcp_k_naive(apply_delta(u, delta), apply_delta(v, nabla), 0)
        assert lcp_mod >= lim
        # random small modification sets satisfying (b)
        for _ in range(3):
            positions = sorted(
                set(int(p) for p in rng.integers(1, min(len(u), len(v)) + 1, size=k))
            ) if min(len(u), len(v)) else []
            dd = tuple((p, 97 + int(rng.integers(0, 2))) for p in positions)
            dd = tuple((p, c) for p, c in dd if u[p - 1] != c)
            nn = ()
            if len(set(dd) | set(nn)) <= k:
                got = lcp_k_naive(apply_delta(u, dd), apply_delta(v, nn), 0)
                assert got <= lcp_k_naive(u, v, k)


# -- complete / bicomplete families --


def check_complete(text, fragments, k, sets):
    strings = [substr(text, f) for f in fragments]
    for i, u in enumerate(strings):
        for j, v in enumerate(strings):
            found = False
            for st in sets:
                us = [d for (src, d) in st if src == i]
                vs = [d for (src, d) in st if src == j]
                for du in us:
                    for dv in vs:
                        if is_maxpair(u, v, k, du, dv):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            assert found, (i, j, u, v, k)


def sorted_sets(text, fragments, k):
    """The sets of the k-complete family, each ordered by _sort_set and
    checked against the materialised modified strings: sorted, with the
    adjacent LCPs that _sort_set reports."""
    codes = np.frombuffer(text, dtype=np.uint8).astype(np.int64)
    fam = _CompleteFamily(codes, [(s - 1, l) for s, l in fragments], k, FamilyCounters())
    out = []
    for entries in fam.sets():
        order, lcps = fam._sort_set(entries)
        st = [entries[i] for i in order]
        vals = [apply_delta(substr(text, fragments[src]), d) for src, d in st]
        assert vals == sorted(vals)
        assert lcps.tolist() == [lcp_k_naive(a, b, 0) for a, b in zip(vals, vals[1:])]
        out.append(st)
    return out


def word_text(rng):
    """All 256 byte values, which make 9-bit symbols, 7 to a packed word,
    then a noisy binary repeat of period 13 whose fragments share prefixes
    over several words."""
    tail = bytearray(rand_bytes(rng, 13, 2) * 12)
    for p in rng.integers(0, len(tail), size=12):
        tail[p] ^= 3
    return bytes(range(256)) + bytes(tail)


def word_starts(rng, size):
    """Starts in the repeat of word_text, mostly in phase with each other."""
    return 257 + 13 * rng.integers(0, 9, size=size) + rng.integers(0, 2, size=size)


def test_complete_family_k0():
    text = b"abracadabra"
    frags = [(1, 4), (4, 4), (8, 4)]
    sets = list(build_complete_family(text, frags, 0))
    assert len(sets) == 1
    assert [src for src, _ in sets[0]] == sorted(
        range(3), key=lambda i: substr(text, frags[i])
    )


def test_complete_family_small_example():
    text = b"abcb"
    frags = [(1, 2), (3, 2)]  # "ab", "cb"
    sets = list(build_complete_family(text, frags, 1))
    check_complete(text, frags, 1, sets)


def test_complete_family_random():
    rng = np.random.default_rng(72)
    inputs = []
    for k in (1, 2):
        for _ in range(6):
            n = int(rng.integers(20, 60))
            text = rand_bytes(rng, n, 2)
            m = int(rng.integers(2, 9))
            frags = []
            for _ in range(m):
                l = int(rng.integers(0, min(8, n) + 1))
                s = int(rng.integers(1, n - l + 2))
                frags.append((s, l))
            inputs.append((text, frags, k))
    # One more input: fragments of 16 to 30 9-bit symbols span three to five
    # words, so substitutions fall in different words, and two may share one.
    rng = np.random.default_rng(90)
    text = word_text(rng)
    frags = [(int(a), int(rng.integers(16, 31))) for a in word_starts(rng, 8)]
    inputs += [(text, frags, 1), (text, frags, 2)]
    words, pair_words = set(), []
    for text, frags, k in inputs:
        sets = sorted_sets(text, frags, k)
        assert list(build_complete_family(text, frags, k)) == sets
        check_complete(text, frags, k, sets)
        # per-set per-source multiplicity <= 2^k
        for st in sets:
            per = {}
            for src, d in st:
                per[src] = per.get(src, 0) + 1
                if len(text) > 256:
                    w = {(p - 1) // 7 for p, _ in d}
                    words |= w
                    if len(d) == 2:
                        pair_words.append(len(w))
            assert max(per.values()) <= 2**k
    assert {0, 1, 2} <= words
    assert 1 in pair_words and 2 in pair_words


def test_bicomplete_family_basic():
    rng = np.random.default_rng(73)
    text = rand_bytes(rng, 40, 2)
    pairs = []
    for _ in range(5):
        l1 = int(rng.integers(0, 7)); s1 = int(rng.integers(1, 40 - l1 + 2))
        l2 = int(rng.integers(0, 7)); s2 = int(rng.integers(1, 40 - l2 + 2))
        pairs.append(((s1, l1), (s2, l2)))
    counters = FamilyCounters()
    batches = list(build_bicomplete_family(text, pairs, 1, 1, counters=counters))
    assert counters.batch_peak <= counters.batch_budget + counters.batch_slack
    sets = [st for batch in batches for st in batch]
    # bicompleteness: for every pair of pairs, one set realizes maxpairs on
    # both coordinates simultaneously.
    for i, (f1, f2) in enumerate(pairs):
        for j, (g1, g2) in enumerate(pairs):
            ok = False
            for st in sets:
                es_i = [(d1, d2) for (src, d1, d2) in st if src == i]
                es_j = [(d1, d2) for (src, d1, d2) in st if src == j]
                for d1, d2 in es_i:
                    for n1, n2 in es_j:
                        if is_maxpair(substr(text, f1), substr(text, g1), 1, d1, n1) and is_maxpair(
                            substr(text, f2), substr(text, g2), 1, d2, n2
                        ):
                            ok = True
                            break
                    if ok:
                        break
                if ok:
                    break
            assert ok, (i, j)


def test_bicomplete_k0_is_identity():
    text = b"xyzxyz"
    pairs = [((1, 3), (4, 3)), ((2, 2), (1, 2))]
    batches = list(build_bicomplete_family(text, pairs, 0, 0))
    sets = [st for batch in batches for st in batch]
    assert len(sets) == 1
    assert sorted(src for src, *_ in sets[0]) == [0, 1]


# -- max_pair_lcp_k --


def test_max_pair_k_zero_reduces_to_exact():
    rng = np.random.default_rng(74)
    text = rand_bytes(rng, 50, 3)
    U = [((1, 5), (10, 6)), ((3, 4), (20, 5))]
    V = [((7, 5), (11, 6)), ((30, 4), (41, 5))]
    res = max_pair_lcp_k(text, U, V, 0, 0, 6)
    bu = [(substr(text, a), substr(text, b)) for a, b in U]
    bv = [(substr(text, a), substr(text, b)) for a, b in V]
    want, _ = brute_max_pair_lcp(bu, bv, 0, 0)
    assert res.value == want


def test_max_pair_k_hand_example():
    text = b"abcdxbcyq"
    # U = {("ab","cd")}, V = {("xb","cy")}; LCP1(ab,xb)+LCP1(cd,cy) = 2+2
    U = [((1, 2), (3, 2))]
    V = [((5, 2), (7, 2))]
    res = max_pair_lcp_k(text, U, V, 1, 1, 2)
    assert res.value == 4
    assert res.witness == (0, 0)


def test_max_pair_k_vs_brute_random():
    rng = np.random.default_rng(75)
    inputs = []
    for trial in range(60):
        n = int(rng.integers(16, 60))
        text = rand_bytes(rng, n, int(rng.integers(2, 4)))
        ell = int(rng.integers(1, min(16, n) + 1))

        def fam(sz):
            out = []
            for _ in range(sz):
                l1 = int(rng.integers(0, ell + 1))
                s1 = int(rng.integers(1, n - l1 + 2))
                l2 = int(rng.integers(0, ell + 1))
                s2 = int(rng.integers(1, n - l2 + 2))
                out.append(((s1, l1), (s2, l2)))
            return out

        U = fam(int(rng.integers(1, 8)))
        V = fam(int(rng.integers(1, 8)))
        inputs.append((text, U, V, *[(1, 0), (0, 1), (1, 1), (2, 1)][trial % 4], ell))
    # One more input: 9-bit symbols, 7 to a word, over fragments of 10 to 30.
    rng = np.random.default_rng(87)
    text = word_text(rng)

    def word_fam(sz):
        return [
            ((s1, int(rng.integers(10, 31))), (s2, int(rng.integers(10, 31))))
            for s1, s2 in word_starts(rng, (sz, 2)).tolist()
        ]

    for k1, k2 in ((1, 1), (2, 1), (1, 2)):
        inputs.append((text, word_fam(6), word_fam(6), k1, k2, 30))
    for text, U, V, k1, k2, ell in inputs:
        res = max_pair_lcp_k(text, U, V, k1, k2, ell)
        bu = [(substr(text, a), substr(text, b)) for a, b in U]
        bv = [(substr(text, a), substr(text, b)) for a, b in V]
        want, _ = brute_max_pair_lcp(bu, bv, k1, k2)
        assert res.value == want, (text, k1, k2)
        if res.witness:
            ui, vi = res.witness
            got = lcp_k_naive(bu[ui][0], bv[vi][0], k1) + lcp_k_naive(
                bu[ui][1], bv[vi][1], k2
            )
            assert got == want


def test_families_ignore_a_shift_of_the_codes():
    # Keys hold codes shifted to start at 0; deltas keep the caller's letters.
    rng = np.random.default_rng(84)
    codes = rng.integers(0, 3, size=60).astype(np.int64)
    frags = [(int(s), 9) for s in rng.integers(1, 52, size=6)]
    shifted = [
        [(src, tuple((p, c + 7) for p, c in d)) for src, d in st]
        for st in build_complete_family(codes, frags, 2)
    ]
    assert list(build_complete_family(codes + 7, frags, 2)) == shifted
    pairs = [((int(a), 9), (int(b), 9)) for a, b in rng.integers(1, 52, size=(8, 2))]
    for k1, k2 in ((1, 0), (1, 1), (0, 2)):
        want = max_pair_lcp_k(codes, pairs[:4], pairs[4:], k1, k2, 9)
        got = max_pair_lcp_k(codes - 7, pairs[:4], pairs[4:], k1, k2, 9)
        assert (got.value, got.witness) == (want.value, want.witness)


def test_family_growth_bounds():
    rng = np.random.default_rng(76)
    text = rand_bytes(rng, 64, 2)
    ell = 12
    def fam(sz):
        out = []
        for _ in range(sz):
            l1 = int(rng.integers(0, ell + 1)); s1 = int(rng.integers(1, 64 - l1 + 2))
            l2 = int(rng.integers(0, ell + 1)); s2 = int(rng.integers(1, 64 - l2 + 2))
            out.append(((s1, l1), (s2, l2)))
        return out
    U, V = fam(12), fam(12)
    for (k1, k2) in ((1, 0), (1, 1), (2, 1)):
        res = max_pair_lcp_k(text, U, V, k1, k2, ell)
        c = res.counters
        n_fam = len(U) + len(V)
        bound = 64 * n_fam * max(1, min(ell, int(np.ceil(np.log2(n_fam))))) ** (k1 + k2)
        assert c.per_set_per_source_max <= 2 ** (k1 + k2)
        assert c.family_total <= bound, (k1, k2, c.family_total, bound)
        # Batches close after crossing the budget; the allowed overshoot is
        # one set's addition.
        assert c.batch_peak <= c.batch_budget + c.batch_slack


# -- anchors --


def test_anchors_identical_strings():
    s = b"abcabcadeabc"
    a_s, a_t = klcs_anchors(s, s, 4, 1)
    assert set(a_s) == set(a_t)
    assert len(a_s) > 0


def test_anchor_property_planted():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(120):
        k = int(rng.integers(0, 3))
        ell = int(rng.integers(18 * (k + 1) * 2, 18 * (k + 1) * 4))
        lp = int(rng.integers(ell // 2 + 1, ell + 1))
        core = bytearray(rand_bytes(rng, lp, 3))
        core2 = bytearray(core)
        if k and lp:
            for p in rng.choice(lp, size=min(k, lp), replace=False):
                core2[p] = 97 + (core2[p] - 97 + 1) % 3
        pre_s = rand_bytes(rng, int(rng.integers(0, 30)), 3)
        post_s = rand_bytes(rng, int(rng.integers(0, 30)), 3)
        pre_t = rand_bytes(rng, int(rng.integers(0, 30)), 3)
        post_t = rand_bytes(rng, int(rng.integers(0, 30)), 3)
        s = pre_s + bytes(core) + post_s
        t = pre_t + bytes(core2) + post_t
        i_s, i_t = len(pre_s) + 1, len(pre_t) + 1
        a_s, a_t = klcs_anchors(s, t, ell, k)
        ss, tt = set(int(x) for x in a_s), set(int(x) for x in a_t)
        ok = any(
            (i_s + delta) in ss and (i_t + delta) in tt for delta in range(lp)
        )
        # The guarantee applies to SOME occurrence pair of a k-LCS; the
        # planted pair is one candidate.  Check the property through any
        # occurrence: scan all alignments at Hamming distance <= k of len lp.
        if not ok:
            found = False
            for di in range(len(s) - lp + 1):
                for dj in range(len(t) - lp + 1):
                    mism = sum(
                        1 for x, y in zip(s[di : di + lp], t[dj : dj + lp]) if x != y
                    )
                    if mism <= k and any(
                        (di + 1 + delta) in ss and (dj + 1 + delta) in tt
                        for delta in range(lp)
                    ):
                        found = True
                        break
                if found:
                    break
            ok = found
        assert ok, (s, t, ell, k)
        checked += 1
    assert checked == 120


def test_anchor_size_bound():
    rng = np.random.default_rng(78)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(200, 600))
        k = int(rng.integers(0, 3))
        ell = int(rng.integers(18 * (k + 1), n))
        s = rand_bytes(rng, n, 2)
        t = rand_bytes(rng, n, 2)
        a_s, a_t = klcs_anchors(s, t, ell, k)
        worst = max(worst, len(a_s) * ell / n, len(a_t) * ell / n)
    # documented measured constant; generous assert
    assert worst <= 150.0, worst


# -- driver --


def test_klcs_examples():
    res = klcs("abcde", "abxde", 1)
    assert res.length == 5
    assert len(res.mismatches) == 1
    res2 = klcs("aaaa", "bbbb", 1)
    assert res2.length == 1
    assert klcs("", "abc", 2).length == 0


def test_klcs_rejects_large_k():
    with pytest.raises(PackedLcsError):
        klcs("abc", "abd", 9)


def test_klcs_zero_equals_lcs():
    rng = np.random.default_rng(79)
    for _ in range(50):
        s = rand_bytes(rng, int(rng.integers(1, 120)), 3)
        t = rand_bytes(rng, int(rng.integers(1, 120)), 3)
        assert klcs(s, t, 0).length == lcs(s, t).length


def test_klcs_vs_dp_random():
    rng = np.random.default_rng(80)
    for _ in range(40):
        ns, nt = int(rng.integers(1, 140)), int(rng.integers(1, 140))
        sigma = int(rng.integers(1, 5))
        s, t = rand_bytes(rng, ns, sigma), rand_bytes(rng, nt, sigma)
        k = int(rng.integers(1, 4))
        want, _, _ = klcs_dp(s, t, k)
        res = klcs(s, t, k)
        assert res.length == want, (s, t, k)
        sub_s = s[res.pos_s - 1 : res.pos_s - 1 + res.length]
        sub_t = t[res.pos_t - 1 : res.pos_t - 1 + res.length]
        mism = [i + 1 for i, (x, y) in enumerate(zip(sub_s, sub_t)) if x != y]
        assert mism == list(res.mismatches)
        assert len(mism) <= k


def test_klcs_monotonicity():
    rng = np.random.default_rng(81)
    for _ in range(25):
        s = rand_bytes(rng, int(rng.integers(4, 100)), 2)
        t = rand_bytes(rng, int(rng.integers(4, 100)), 2)
        base = lcs(s, t).length
        prev = base
        for k in (1, 2, 3):
            cur = klcs(s, t, k).length
            assert cur >= prev
            assert cur <= (k + 1) * base + k
            prev = cur


def test_klcs_driver_family_legs_forced():
    # Integration: run the driver with the cost dispatch disabled so every
    # non-degenerate leg exercises the modified-string family machinery.
    import packedlcs.klcs_engine as ke

    rng = np.random.default_rng(83)
    old = ke.FORCE_FAMILY_LEGS
    ke.FORCE_FAMILY_LEGS = True
    try:
        for _ in range(8):
            n = int(rng.integers(120, 260))
            ell = int(rng.integers(n // 3, n // 2))
            k = int(rng.integers(1, 3))
            core = bytearray(rand_bytes(rng, ell, 12))
            core2 = bytearray(core)
            for p in rng.choice(ell, size=k, replace=False):
                core2[p] = 97 + (core2[p] - 97 + 1) % 12
            s = rand_bytes(rng, 20, 12) + bytes(core) + rand_bytes(rng, 20, 12)
            t = rand_bytes(rng, 20, 12) + bytes(core2) + rand_bytes(rng, 20, 12)
            want, _, _ = klcs_dp(s, t, k)
            got = klcs(s, t, k)
            assert got.length == want, (s, t, k)
            assert got.counters.family_total > 0  # machinery actually ran
    finally:
        ke.FORCE_FAMILY_LEGS = old


def _check_klcs_witness(s, t, k, res):
    a = s[res.pos_s - 1 : res.pos_s - 1 + res.length]
    b = t[res.pos_t - 1 : res.pos_t - 1 + res.length]
    assert len(a) == len(b) == res.length
    mism = tuple(i + 1 for i in range(res.length) if a[i] != b[i])
    assert mism == res.mismatches and len(mism) <= k


@pytest.mark.parametrize("force_family", [False, True])
def test_klcs_run_from_first_symbol_of_s(monkeypatch, force_family):
    # S opens with a run whose best 1-mismatch match starts at S[1].  Its
    # anchors come from the run's left misperiod, which only the sentinel #
    # before S supplies; over plain S$T the driver returns 77.
    import packedlcs.klcs_engine as ke

    monkeypatch.setattr(ke, "FORCE_FAMILY_LEGS", force_family)
    s, t = b"c" * 77 + b"acc", b"c" * 116
    res = klcs(s, t, 1)
    assert res.length == klcs_dp(s, t, 1)[0] == 80
    _check_klcs_witness(s, t, 1, res)


def _noisy_periodic(rng, n, root, sigma):
    """n symbols of a periodic text over root, at a random phase, with one
    symbol in 25 changed."""
    off = int(rng.integers(0, len(root)))
    out = np.resize(root, n + len(root))[off : off + n]
    pos = rng.choice(n, size=max(1, n // 25), replace=False)
    out[pos] = (out[pos] + rng.integers(1, sigma, size=pos.size)) % sigma
    return bytes((out + 97).astype(np.uint8))


def test_klcs_family_leg_at_k2_noisy_periodic(monkeypatch):
    # Noisy periodic pairs of 150-400 symbols: the k = 2 legs reach tau >= 3,
    # so the family leg runs and its witness shift comes from packed keys.
    import packedlcs.klcs_engine as ke

    rng = np.random.default_rng(1)
    for _ in range(6):
        sigma, p = int(rng.integers(2, 4)), int(rng.integers(2, 6))
        root = rng.integers(0, sigma, size=p)
        s = _noisy_periodic(rng, int(rng.integers(150, 401)), root, sigma)
        t = _noisy_periodic(rng, int(rng.integers(150, 401)), root, sigma)
        want = klcs_dp(s, t, 2)[0]
        for force_family in (False, True):
            monkeypatch.setattr(ke, "FORCE_FAMILY_LEGS", force_family)
            res = klcs(s, t, 2)
            assert res.length == want, (s, t)
            _check_klcs_witness(s, t, 2, res)
            assert res.counters.solver_calls > 0 or not force_family


def _planted_past_the_seed():
    # Random binary S and T of 300 symbols (LCS about 15) sharing a planted
    # block of 40, above the seed width 32, so lcs reaches the S$T index.
    rng = np.random.default_rng(85)
    s, t = rand_bytes(rng, 300, 2), rand_bytes(rng, 300, 2)
    core = rand_bytes(rng, 40, 2)
    return s[:100] + core + s[140:], t[:180] + core + t[220:]


def test_lcs_and_klcs_index_st_once(monkeypatch):
    # The one suffix index is over S$T, and lcs builds it at most once; the
    # k-LCS legs read reversed prefixes and forward windows as packed words,
    # so klcs builds no index beyond its lcs call.
    from packedlcs.lcs_engine import _Ctx
    from packedlcs.suffix_index import SuffixIndex

    texts = []
    init = SuffixIndex.__init__

    def spy(self, codes, *args, **kwargs):
        texts.append(np.array(codes).tolist())
        init(self, codes, *args, **kwargs)

    monkeypatch.setattr(SuffixIndex, "__init__", spy)
    s, t = _planted_past_the_seed()
    ctx = _Ctx(s, t)
    assert lcs(ctx, None).regime == "scan"
    st = ctx.st_codes().tolist()
    assert len(st) == 300 + 300 + 1
    assert texts == [st]
    texts.clear()
    res = klcs(_Ctx(s, t), None, 1)
    assert res.length == klcs_dp(s, t, 1)[0]
    assert res.counters.solver_calls > 0
    assert texts == [st]


def test_klcs_runs_one_prefix_doubling_per_index(monkeypatch):
    # The index keeps the rank tables of the doubling that built its suffix
    # array, so its LCE queries never run the doubling again.
    from packedlcs import suffix_index

    calls = {"builds": 0, "doublings": 0}
    init, doubling = suffix_index.SuffixIndex.__init__, suffix_index._prefix_doubling

    def spy_init(self, *args, **kwargs):
        calls["builds"] += 1
        init(self, *args, **kwargs)

    def spy_doubling(*args, **kwargs):
        calls["doublings"] += 1
        return doubling(*args, **kwargs)

    monkeypatch.setattr(suffix_index.SuffixIndex, "__init__", spy_init)
    monkeypatch.setattr(suffix_index, "_prefix_doubling", spy_doubling)
    s, t = _planted_past_the_seed()
    assert klcs(s, t, 1).length == klcs_dp(s, t, 1)[0]
    assert calls["builds"] >= 1
    assert calls["doublings"] == calls["builds"]


def test_misperiod_disjointness_claim():
    # If the misperiod sets of two k-equal strings w.r.t. a shared matching
    # window are disjoint, their union is exactly the mismatch-position set.
    rng = np.random.default_rng(82)
    from packedlcs.sync_runs import misperiods

    tried = 0
    for _ in range(600):
        n = int(rng.integers(8, 40))
        u = bytearray(rand_bytes(rng, n, 2))
        v = bytearray(u)
        k = int(rng.integers(0, 3))
        # pick the matching window first, then mutate only outside it
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 2))
        outside = [p for p in range(n) if not (i - 1 <= p < j - 1)]
        if outside and k:
            for p in rng.choice(outside, size=min(k, len(outside)), replace=False):
                v[p] = 97 + (v[p] - 97 + 1) % 2
        if bytes(u[i - 1 : j - 1]) != bytes(v[i - 1 : j - 1]):
            continue
        mu = misperiods(np.frombuffer(bytes(u), dtype=np.uint8).astype(int), i, j, k + 1)
        mv = misperiods(np.frombuffer(bytes(v), dtype=np.uint8).astype(int), i, j, k + 1)
        iu = set(mu.left) | set(mu.right)
        iv = set(mv.left) | set(mv.right)
        if iu & iv:
            continue
        mp = {x + 1 for x in range(n) if u[x] != v[x]}
        assert iu | iv == mp, (bytes(u), bytes(v), i, j, k)
        tried += 1
    assert tried > 15
