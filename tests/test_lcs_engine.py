import os

import numpy as np
import pytest

from packedlcs.lcs_engine import (
    _Ctx,
    _build_anchors_medium,
    _medium_case_one,
    _medium_periodic,
    _lcs_scan,
    build_d_cover,
    lcs,
    lcs_long,
    lcs_medium,
    lcs_short,
    lcs_suffix_automaton,
    regime_parameters,
)
from packedlcs.oracles import lcs_dp
from packedlcs.sync_runs import TauRuns
from packedlcs.text_core import PackedLcsError, _bitlen_u64, _sort_packed_fragments, pack_keys


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
        want = int(idx.lce_bulk(idx.sa[:-1] + 1, idx.sa[1:] + 1)[cross].max())
        assert want >= cap
        res = lcs_long(s, t, cap)
        assert res.length == want
        check_witness(s, t, res)


def test_long_regime_anchor_at_first_position():
    # With 1 among the cover's residues, position 1 of S and of T is an
    # anchor with an empty reversed prefix, an all-zero packed key.  The only
    # common substring of the maximal length starts there.
    rng = np.random.default_rng(58)
    for d in (1, 3, 7, 9):
        assert build_d_cover(d).positions_in(5)[0] == 1
        core = rand_bytes(rng, 3 * d + 2, 2)
        s = core + bytes(rng.integers(99, 101, size=20, dtype=np.uint8))
        t = core + bytes(rng.integers(101, 103, size=20, dtype=np.uint8))
        res = lcs_long(s, t, d)
        assert (res.length, res.pos_s, res.pos_t) == (len(core), 1, 1)
        assert res.length == lcs_dp(s, t)[0]


def test_medium_periodic_case():
    # Default tau at this size bounds run periods below 2; the case-II family
    # machinery needs tau >= 6 to see the period-2 run, and is uncapped above.
    s = b"ab" * 64
    res = lcs_medium(s, s, tau=6)
    assert res.length == 128
    check_witness(s, s, res)
    # The dispatcher is exact regardless (the S$T scan takes over).
    assert lcs(s, s).length == 128


def _runs(*rows):
    """TauRuns from (start, end, period, lyndon_start, tail, group) rows."""
    return TauRuns(*(np.array(col, dtype=np.int64) for col in zip(*rows)))


@pytest.mark.parametrize("case", ["II", "III"])
def test_periodic_cases_reject_anchor_off_root_phase(case):
    # S$T = (ab)^4 $ (ab)^4; both runs have period 2 and Lyndon root "ab".
    ctx = _Ctx(b"abababab", b"abababab")
    run_t = (10, 17, 2, 10, 0, 0)
    on_phase = _runs((1, 8, 2, 1, 0, 0), run_t)
    assert _medium_periodic(ctx, on_phase, case).length == 8
    if case == "II":
        # Anchors at S[2] and S[4] sit one letter past the root phase.
        run_s = (1, 8, 2, 2, 1, 0)
    else:
        # A tail of 1 contradicts the run end at a whole number of periods.
        run_s = (1, 8, 2, 1, 1, 0)
    with pytest.raises(PackedLcsError, match="root phase"):
        _medium_periodic(ctx, _runs(run_s, run_t), case)


def _lce(a, b):
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


def _brute_periodic(s, t, runs, case):
    """Best pair score of case II or III over every (S anchor, T anchor)
    pair: first = the shorter first component inside a group, else 0;
    second = the shorter second component inside a group, else 0 (II), or
    the forward common extension from the two anchors (III)."""
    ns = len(s)
    elems = {True: [], False: []}
    for start, end, p, ls, tail, group in zip(
        *(getattr(runs, f).tolist() for f in ("start", "end", "period", "lyndon_start", "tail", "group"))
    ):
        anchors = (ls, ls + p) if case == "II" else (end,)
        key = group if case == "II" else (group, tail)
        in_s = end <= ns
        shift = 0 if in_s else ns + 1
        for a in anchors:
            elems[in_s].append((key, a - start, end - a + 1, a - shift))
    best = None
    for kp, l1p, l2p, ap in elems[True]:
        for kq, l1q, l2q, aq in elems[False]:
            first = min(l1p, l1q) if kp == kq else 0
            if case == "II":
                second = min(l2p, l2q) if kp == kq else 0
            else:
                second = _lce(s[ap - 1 :], t[aq - 1 :])
            best = first + second if best is None else max(best, first + second)
    return best


def _periodic_inputs(rng, n):
    """Random binary, one periodic string each, one-letter runs, or runs of
    "ab" and "abb" of random phase and length (so that runs of one root end
    on different tails)."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return rand_bytes(rng, n, 2), rand_bytes(rng, n, 2)
    if kind == 1:
        root = rand_bytes(rng, int(rng.integers(1, 4)), 3)
        return (root * n)[: n], (root * n)[int(rng.integers(0, 3)) :][: n - 7]

    def runs(ends):
        out = b""
        while len(out) < n:
            if kind == 2:
                out += b"a" * int(rng.integers(3, 21))
            else:
                root = (b"ab", b"abb")[int(rng.integers(0, 2))] * 20
                cut = int(rng.integers(0, 3))
                out += root[cut : cut + int(rng.integers(10, 31))]
            out += bytes([ends[int(rng.integers(0, len(ends)))]])
        return out[:n]

    return runs(b"cd"), runs(b"ce")


@pytest.mark.parametrize("case", ["II", "III"])
@pytest.mark.parametrize("tau", [3, 6, 9])
def test_periodic_case_matches_brute_pairs(case, tau):
    rng = np.random.default_rng(66 + tau)
    seen = 0
    for _ in range(40):
        s, t = _periodic_inputs(rng, int(rng.integers(20, 120)))
        ctx = _Ctx(s, t)
        runs = _build_anchors_medium(ctx, tau).runs
        want = _brute_periodic(s, t, runs, case)
        res = _medium_periodic(ctx, runs, case)
        if want is None:
            assert res is None
            continue
        assert res.length == want, (s, t)
        check_witness(s, t, res)
        seen += 1
    assert seen >= 10


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


def test_dispatcher_runs_short_then_one_st_scan(monkeypatch):
    # An LCS below the seed width per = 64 // bit_length(sigma + 1) is the
    # short regime's answer, with no index built; from per on the answer is
    # one scan of one index, over S$T.  A planted block of 40 symbols takes
    # the binary pair above per = 32.
    from packedlcs.suffix_index import SuffixIndex

    texts = []
    init = SuffixIndex.__init__

    def spy(self, codes, *args, **kwargs):
        texts.append(np.array(codes).tolist())
        init(self, codes, *args, **kwargs)

    monkeypatch.setattr(SuffixIndex, "__init__", spy)
    rng = np.random.default_rng(18)
    s, t = rand_bytes(rng, 1500, 26), rand_bytes(rng, 1500, 26)
    per = 64 // (26 + 1).bit_length()
    res = lcs(s, t)
    assert res.regime == "short" and res.length == lcs_dp(s, t)[0] < per
    check_witness(s, t, res)
    assert texts == []
    s, t = planted_pair(rng, 1500, 2, 40)
    ctx = _Ctx(s, t)
    res = lcs(ctx, None)
    assert res.regime == "scan" and res.length == lcs_dp(s, t)[0]
    check_witness(s, t, res)
    assert texts == [ctx.st_codes().tolist()]


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("core_letters, s_letters, t_letters", [
    (b"a", b"b", b"c"),
    (b"ab", b"c", b"d"),
    (b"abcdefgh", b"ijklmnopq", b"rstuvwxyz"),
])
def test_lcs_planted_at_per_minus_one_and_per(core_letters, s_letters, t_letters, extra):
    # S and T share only the core's letters, and each holds them in one run,
    # the core, so the LCS is the core's length: per - 1 answers from the
    # short regime's seed, per from the scan.
    rng = np.random.default_rng(20 + extra)

    def pick(letters, n):
        return bytes(rng.choice(np.frombuffer(letters, dtype=np.uint8), size=n))

    n = 300
    sigma = len(core_letters + s_letters + t_letters)
    per = 64 // (sigma + 1).bit_length()
    core = pick(core_letters, per - 1 + extra)
    k = (n - len(core)) // 2
    s = pick(s_letters, k) + core + pick(s_letters, n - k - len(core))
    t = pick(t_letters, n - k - len(core)) + core + pick(t_letters, k)
    assert 64 // (len(set(s) | set(t)) + 1).bit_length() == per
    res = lcs(s, t)
    assert res.length == lcs_dp(s, t)[0] == per - 1 + extra
    assert res.regime == ("short" if extra == 0 else "scan")
    check_witness(s, t, res)


@pytest.mark.parametrize("sigma", [2, 4, 26, 200])
def test_seed_answers_below_per_and_the_scan_from_per(sigma):
    # per = 64 // bit_length(sigma + 1) is 32, 21, 12 and 7 symbols.  The
    # core uses two letters (one at sigma 2) and S and T fill around it with
    # letters of their own, so the LCS is the core's length: per - 1 is the
    # seed's answer, per and per + 1 the scan's.
    rng = np.random.default_rng(sigma)
    per = 64 // (sigma + 1).bit_length()
    core_letters = 1 if sigma == 2 else 2
    s_letters = np.arange(core_letters, (sigma + core_letters + 1) // 2)
    t_letters = np.arange((sigma + core_letters + 1) // 2, sigma)

    def fill(letters, n):
        if not letters.size:
            return b""
        return bytes(np.concatenate([letters, rng.choice(letters, size=n)]).astype(np.uint8))

    for length in (per - 1, per, per + 1):
        core = rng.integers(0, core_letters, size=length)
        core[: core_letters] = np.arange(core_letters)
        core = bytes(core.astype(np.uint8))
        s = fill(s_letters, 120) + core + fill(s_letters, 80)
        t = fill(t_letters, 70) + core + fill(t_letters, 130)
        assert len(set(s) | set(t)) == sigma
        res = lcs(s, t)
        assert res.length == lcs_dp(s, t)[0] == length
        assert res.regime == ("short" if length < per else "scan")
        check_witness(s, t, res)


def test_default_path_sorts_packed_keys_once_per_pair(monkeypatch):
    # lcs() packs and sorts one seed word per suffix of S$T: the short
    # regime reads its answer off that sort, and the scan's index doubles
    # from it, with no other packed-key sort.
    from collections import Counter

    from packedlcs import lcs_engine, suffix_index, text_core

    calls = Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for mod in (text_core, suffix_index, lcs_engine):
        monkeypatch.setattr(mod, "pack_keys", spy("pack_keys", mod.pack_keys))
    for mod in (suffix_index, lcs_engine):
        monkeypatch.setattr(mod, "seed_sort", spy("seed_sort", mod.seed_sort))
    monkeypatch.setattr(text_core, "_sort_keys", spy("_sort_keys", text_core._sort_keys))
    rng = np.random.default_rng(23)
    pairs = [
        ((rand_bytes(rng, 800, 26), rand_bytes(rng, 800, 26)), "short"),
        (planted_pair(rng, 800, 2, 45), "scan"),
        ((b"ab" * 300 + b"x", b"ba" * 300 + b"y"), "scan"),
    ]
    for (s, t), regime in pairs:
        calls.clear()
        res = lcs(s, t)
        assert res.regime == regime and res.length == lcs_dp(s, t)[0]
        assert calls == {"pack_keys": 1, "seed_sort": 1}


def test_lcs_matches_the_automaton_at_2_16():
    # At n = 2^16, against the suffix automaton, which shares neither the
    # seed nor the index: random text, period 5 with substitutions, unary
    # text against another letter and against itself, and blocks planted at
    # per - 1 and per.
    rng = np.random.default_rng(24)
    n = 1 << 16
    pairs = [(rand_bytes(rng, n, sigma), rand_bytes(rng, n, sigma)) for sigma in (2, 4, 26)]
    root = np.frombuffer(rand_bytes(rng, 5, 2), dtype=np.uint8)
    periodic = []
    for shift in (0, 2):
        text = np.tile(root, n // 5 + 2)[shift : shift + n].copy()
        hit = rng.integers(0, n, size=40)
        text[hit] = 97 + (text[hit] - 96) % 2
        periodic.append(bytes(text))
    pairs.append(tuple(periodic))
    pairs += [(b"a" * n, b"b" * n), (b"a" * n, b"a" * (n - 7))]
    for sigma in (4, 26):
        per = 64 // (sigma + 1).bit_length()
        for length in (per - 1, per):
            core = rand_bytes(rng, length, sigma)
            s, t = rand_bytes(rng, n, sigma), rand_bytes(rng, n, sigma)
            s = s[:1000] + core + s[1000 + length :]
            pairs.append((s, t[:5000] + core + t[5000 + length :]))
    for s, t in pairs:
        want = lcs_suffix_automaton(s, t)[0]
        res = lcs(s, t)
        assert res.length == want
        check_witness(s, t, res)


def test_st_scan_exact_at_every_length():
    # The scan alone, also where lcs() would stop at the short regime: no
    # common letter, one-symbol strings, a string inside the other, unary.
    rng = np.random.default_rng(19)
    pairs = [(b"ab", b"cd"), (b"a", b"a"), (b"xbanana", b"banana"), (b"a" * 40, b"a" * 7)]
    for _ in range(150):
        sigma = int(rng.integers(1, 5))
        pairs.append((rand_bytes(rng, int(rng.integers(1, 200)), sigma),
                      rand_bytes(rng, int(rng.integers(1, 200)), sigma)))
    for s, t in pairs:
        res = _lcs_scan(_Ctx(s, t))
        assert res.regime == "scan" and res.length == lcs_dp(s, t)[0], (s, t)
        check_witness(s, t, res)


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


def _brute_case_one(s, t, anchors, tau, cap):
    """The (tau, cap)-family value over the case-I anchors, or None."""
    def lcp(a, b):
        k = 0
        while k < min(len(a), len(b)) and a[k] == b[k]:
            k += 1
        return k

    best = None
    for a in anchors.a1_s.tolist():
        for b in anchors.a1_t.tolist():
            v = min(lcp(s[: a - 1][::-1], t[: b - 1][::-1]), tau) + min(
                lcp(s[a - 1 :], t[b - 1 :]), cap
            )
            best = v if best is None else max(best, v)
    return best


def _check_case_one(s, t, tau, cap):
    ctx = _Ctx(s, t)
    anchors = _build_anchors_medium(ctx, tau)
    want = _brute_case_one(s, t, anchors, tau, cap)
    res = _medium_case_one(ctx, anchors, tau, cap)
    if want is None:
        assert res is None
        return
    assert res.length == want, (s, t, tau, cap)
    check_witness(s, t, res)


def test_medium_case_one_multiword_keys():
    # 40 letters take 6-bit key symbols, 10 to a word: tau = 25 and cap = 30
    # need three words per key on both sides.
    rng = np.random.default_rng(61)
    for trial in range(12):
        n = int(rng.integers(150, 300))
        s, t = planted_pair(rng, n, 40, 80 if trial % 2 else 0)
        _check_case_one(s, t, 25, 30)


def test_medium_case_one_periodic_duplicate_windows():
    # Near-periodic strings repeat most backward windows, so trie 1 is
    # built over far fewer distinct strings than there are anchors.
    rng = np.random.default_rng(62)
    for _ in range(12):
        root = rand_bytes(rng, int(rng.integers(4, 9)), 3)
        s = bytearray(root * 30)
        t = bytearray(root * 25)
        for buf in (s, t):
            for i in rng.integers(0, len(buf), size=int(rng.integers(1, 6))):
                buf[int(i)] = int(rng.integers(97, 101))
        _check_case_one(bytes(s), bytes(t), int(rng.integers(3, 12)), int(rng.integers(5, 40)))


def test_bitlen_u64_matches_int_bit_length():
    vals = [0, 1, 2, 3, (1 << 31) - 1, 1 << 31, (1 << 32) - 1, 1 << 32, (1 << 32) + 1]
    vals += [(1 << k) - 1 for k in range(33, 65)] + [1 << k for k in range(33, 64)]
    rng = np.random.default_rng(63)
    vals += [int(v) for v in rng.integers(0, 1 << 63, size=200, dtype=np.uint64)]
    got = _bitlen_u64(np.array(vals, dtype=np.uint64))
    assert got.tolist() == [v.bit_length() for v in vals]


def _naive_fragment_sort(codes, starts0, lens):
    strings = [tuple(codes[a : a + ln].tolist()) for a, ln in zip(starts0, lens)]
    order = sorted(range(len(strings)), key=lambda i: strings[i])
    lcps = []
    for i, j in zip(order, order[1:]):
        a, b = strings[i], strings[j]
        k = 0
        while k < min(len(a), len(b)) and a[k] == b[k]:
            k += 1
        lcps.append(k)
    return order, lcps


def test_packed_sort_lcp_at_word_boundaries():
    # Codes 0..2 take 2-bit symbols, 32 to a word.  Fragments that first
    # differ at symbol 31, 32 or 33 straddle the boundary of words 0 and 1.
    per = 32
    base = [1, 0, 2] * 40
    codes = []
    starts, lens = [], []
    for d in (per - 1, per, per + 1, 2 * per):
        for tail in (0, 2):
            frag = base[:d] + [tail] + base[d + 1 : 3 * per]
            starts.append(len(codes))
            lens.append(len(frag))
            codes += frag
    # A prefix ending exactly at the word boundary, and an empty fragment.
    starts += [0, 0]
    lens += [per, 0]
    codes = np.array(codes, dtype=np.int64)
    starts, lens = np.array(starts), np.array(lens)
    order, lcps = _sort_packed_fragments(codes, starts, lens, 3 * per)
    want_order, want_lcps = _naive_fragment_sort(codes, starts, lens)
    strings = [tuple(codes[a : a + ln].tolist()) for a, ln in zip(starts, lens)]
    assert [strings[i] for i in order.tolist()] == [strings[i] for i in want_order]
    assert lcps.tolist() == want_lcps


def test_packed_sort_byte_alphabet():
    # Codes up to 255 take 9-bit symbols (code + 1 = 256), 7 to a word, and
    # fragments run past the end of the codes.
    rng = np.random.default_rng(64)
    for _ in range(20):
        n = int(rng.integers(20, 200))
        codes = rng.integers(0, 256, size=n).astype(np.int64)
        codes[rng.integers(0, n, size=n // 2)] = codes[0]  # repeated symbols
        codes[int(rng.integers(0, n))] = 255
        m = int(rng.integers(2, 40))
        width = int(rng.integers(1, 30))
        starts = rng.integers(0, n, size=m).astype(np.int64)
        lens = np.minimum(rng.integers(0, width + 1, size=m), n - starts)
        order, lcps = _sort_packed_fragments(codes, starts, lens, width)
        want_order, want_lcps = _naive_fragment_sort(codes, starts, lens)
        strings = [tuple(codes[a : a + ln].tolist()) for a, ln in zip(starts, lens)]
        assert [strings[i] for i in order.tolist()] == [strings[i] for i in want_order]
        assert lcps.tolist() == want_lcps


def test_pack_keys_rejects_negative_codes():
    # A key holds code + 1 in a uint64 slot: a code below 0 would wrap or
    # read as the end of a fragment.
    codes = np.array([2, 0, 1, 3], dtype=np.int64)
    assert pack_keys(codes, np.array([0]), np.array([4]), 4).shape == (1, 1)
    for bad in (codes - 1, codes - 5):
        with pytest.raises(PackedLcsError):
            pack_keys(bad, np.array([0]), np.array([4]), 4)


class _IndexSpy:
    """The index argument of fragment_order_and_lcps, counting its calls."""

    def __init__(self, codes):
        self.codes, self.calls = codes, 0

    def __call__(self):
        from packedlcs.suffix_index import SuffixIndex

        self.calls += 1
        return SuffixIndex(self.codes)


def _check_component_sort(codes, starts0, lens):
    """fragment_order_and_lcps against a naive sort of the component tuples;
    returns the number of index calls."""
    from packedlcs.lcs_engine import fragment_order_and_lcps

    spy = _IndexSpy(codes)
    order, lcps = fragment_order_and_lcps(codes, starts0, lens, spy)
    want_order, want_lcps = _naive_fragment_sort(codes, starts0, lens)
    strings = [tuple(codes[a : a + ln].tolist()) for a, ln in zip(starts0, lens)]
    # Equal components may come in any order.
    assert [strings[i] for i in order.tolist()] == [strings[i] for i in want_order]
    assert lcps.tolist() == want_lcps
    return spy.calls


def test_component_sort_matches_naive_sort():
    # Components run to the end of the codes, as suffix components do.
    rng = np.random.default_rng(58)
    block = rng.integers(1, 3, size=37)
    texts = [np.zeros(300, dtype=np.int64), np.tile([1, 2, 2], 100), np.tile(block, 8)]
    texts += [rng.integers(0, int(rng.integers(2, 5)), size=int(rng.integers(10, 400))) for _ in range(40)]
    for codes in texts:
        codes = codes.astype(np.int64)
        n = codes.size
        for dup in (False, True):
            m = int(rng.integers(1, 30))
            starts0 = rng.integers(0, n, size=m).astype(np.int64)
            if dup:
                starts0 = np.repeat(starts0, 2)
            _check_component_sort(codes, starts0, n - starts0)


@pytest.mark.parametrize("swap", [False, True])
def test_component_sort_word_long_component_beside_its_extension(swap):
    # A is one packed word long and ends at a terminator; B is A followed by
    # more letters.  Their keys are equal, and B's extra letters put it last.
    from packedlcs.text_core import symbol_bits

    per = 64 // symbol_bits(np.array([3]))
    a = np.tile([1, 3, 2], per)[:per]
    codes = np.concatenate([a, [0], a, [2, 1, 3]]).astype(np.int64)
    starts0 = np.array([0, per + 1])
    lens = np.array([per, per + 3])
    if swap:
        starts0, lens = starts0[::-1].copy(), lens[::-1].copy()
    assert _check_component_sort(codes, starts0, lens) == 1


def test_component_sort_calls_index_only_on_word_ties():
    rng = np.random.default_rng(59)
    codes = rng.integers(0, 2, size=4000).astype(np.int64)
    starts0 = rng.choice(4000, size=60, replace=False).astype(np.int64)
    assert _check_component_sort(codes, starts0, 4000 - starts0) == 0
    block = rng.integers(0, 2, size=100)
    codes = np.tile(block, 20).astype(np.int64)
    starts0 = np.arange(0, 2000, 100) + 7
    assert _check_component_sort(codes, starts0, 2000 - starts0) == 1


def test_index_order_with_repeated_largest_rank():
    # Suffixes 0 and 2 of [1, 1, 2, 0] share nothing; the repeated 2 shares
    # its whole suffix "2 0".
    from packedlcs.lcs_engine import _index_order
    from packedlcs.suffix_index import SuffixIndex

    idx = SuffixIndex(np.array([1, 1, 2, 0]))
    starts0 = np.array([0, 2, 2])
    order, lcps = _index_order(idx, starts0, 4 - starts0)
    assert starts0[order].tolist() == [0, 2, 2]
    assert lcps.tolist() == [0, 2]
    rng = np.random.default_rng(60)
    for _ in range(200):
        codes = rng.integers(0, 3, size=int(rng.integers(2, 30))).astype(np.int64)
        starts0 = rng.integers(0, codes.size, size=int(rng.integers(2, 8)))
        starts0 = np.concatenate([starts0, starts0[rng.integers(0, starts0.size, size=2)]])
        lens = rng.integers(0, codes.size - starts0 + 1)
        idx = SuffixIndex(codes)
        order, lcps = _index_order(idx, starts0, lens)
        sa = starts0[order]
        assert np.diff(idx.isa[sa]).min() >= 0
        want = [
            min(len(os.path.commonprefix([codes[i:].tolist(), codes[j:].tolist()])), a, b)
            for i, j, a, b in zip(sa, sa[1:], lens[order], lens[order][1:])
        ]
        assert lcps.tolist() == want


def _run_block(n, end):
    """n symbols of one block of a-runs of length 8 to 12, each closed by end,
    repeated; the block holds whole runs and about 1024 symbols."""
    rng = np.random.default_rng(5)
    block = bytearray()
    while len(block) < 1024:
        block += b"a" * int(rng.integers(8, 13)) + end
    return (bytes(block) * (n // len(block) + 1))[:n]


@pytest.mark.parametrize("entry", ["lcs_medium", "lcs"])
def test_repeated_run_block_beyond_index_free_sizes(entry):
    # The runs end in b in S and in c in T, so the LCS is the longest a-run:
    # above the short regime's m and below the cap, so the medium regime
    # decides when forced (lcs() answers with the S$T scan).  Case III's components from the run ends then agree for
    # thousands of symbols, past one packed word, and S$T has 2^17 + 1
    # symbols.
    from packedlcs.suffix_index import SuffixIndex

    n = 1 << 16
    s, t = _run_block(n, b"b"), _run_block(n, b"c")
    idx = SuffixIndex(np.frombuffer(s + b"\0" + t, dtype=np.uint8))
    cross = (idx.sa[:-1] < n) != (idx.sa[1:] < n)
    want = int(idx.lce_bulk(idx.sa[:-1] + 1, idx.sa[1:] + 1)[cross].max())
    _, m_short, cap = regime_parameters(n, n, 3)
    assert m_short < want < cap
    res = {"lcs_medium": lcs_medium, "lcs": lcs}[entry](s, t)
    assert res.length == want
    check_witness(s, t, res)


_A26 = b"abcdefghijklmnopqrstuvwxyz"


@pytest.mark.parametrize(
    "s, t, m, budget_words",
    [
        # Ten binary letters a side take 2-bit symbols, 32 to a word; with
        # m = 3 each position needs one word, so the call needs exactly 20.
        pytest.param(b"aabbaabbaa", b"ababababab", 3, 20, id="20"),
        pytest.param(b"aabbaabbaa", b"ababababab", 3, 19, id="19"),
        # 26 letters take 5-bit symbols, 12 to a word: a key of m + 1 symbols
        # fits one word up to m = 11, so 43 positions need exactly 43 words.
        pytest.param(_A26, b"nopqrstuvabcdefgh", 9, 43, id="a26-m9"),
        pytest.param(_A26, b"nopqrstuvabcdefgh", 9, 42, id="a26-m9-over"),
        pytest.param(_A26, b"nopqrstuvabcdefgh", 11, 43, id="a26-m11"),
    ],
)
def test_short_regime_key_budget_edge(monkeypatch, s, t, m, budget_words):
    from packedlcs import lcs_engine

    monkeypatch.setattr(lcs_engine, "_SHORT_KEY_WORDS", budget_words)
    if budget_words >= len(s) + len(t):
        res = lcs_short(s, t, m)
        assert res.length == lcs_dp(s, t)[0]
        check_witness(s, t, res)
    else:
        with pytest.raises(PackedLcsError, match="budget"):
            lcs_short(s, t, m)


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
