import numpy as np
import pytest

from packedlcs.text_core import PackedLcsError
from packedlcs.sync_runs import (
    MisperiodSets,
    SyncSet,
    build_sync_set,
    find_tau_runs,
    misperiods,
    succ_sync,
    window_ranks,
)
from packedlcs.oracles import check_sync_set, naive_period, naive_tau_runs


def codes_of(s):
    return np.array([ord(c) for c in s], dtype=np.int64)


def rand_codes(rng, n, sigma):
    return rng.integers(0, sigma, size=n).astype(np.int64)


def test_sync_forced_empty_on_unary():
    c = codes_of("a" * 20)
    sync = build_sync_set(c, 3)
    assert len(sync) == 0
    assert check_sync_set(sync.positions, c, 3)["valid"]


def test_sync_dense_on_abc():
    c = codes_of("abc" * 10)
    tau = 3
    sync = build_sync_set(c, tau)
    rep = check_sync_set(sync.positions, c, tau)
    assert rep["valid"]
    pos = set(int(p) for p in sync.positions)
    n = len(c)
    for i in range(1, n - 3 * tau + 3):
        assert any(j in pos for j in range(i, i + tau)), i


def test_sync_conditions_random():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(30, 700))
        tau = int(rng.integers(3, min(32, n // 2) + 1))
        c = rand_codes(rng, n, 2)
        sync = build_sync_set(c, tau)
        rep = check_sync_set(sync.positions, c, tau)
        assert rep["valid"], rep
        worst = max(worst, rep["density_ratio"])
    assert worst <= 8.0, worst


def test_sync_rejects_bad_tau():
    with pytest.raises(PackedLcsError):
        build_sync_set(codes_of("ab"), 5)


def _naive_window_ranks(c, tau):
    windows = [tuple(c[i : i + tau].tolist()) for i in range(len(c) - tau + 1)]
    dense = {w: r for r, w in enumerate(sorted(set(windows)))}
    return [dense[w] for w in windows]


@pytest.mark.parametrize("shift", [0, 40])
def test_window_ranks_match_naive_dense_rank(shift):
    # Codes below 3 take 2-bit symbols, 32 to a word: tau up to 40 covers one
    # and two words.  Shifted by 40 bits, a symbol takes a word of its own.
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(10, 200))
        c = rand_codes(rng, n, 3)
        if rng.random() < 0.3:
            c = np.tile(c[: int(rng.integers(1, 6))], n)[:n]
        tau = int(rng.integers(2, min(41, n + 1)))
        c = c << shift
        assert window_ranks(c, tau).tolist() == _naive_window_ranks(c, tau)


def test_window_ranks_ignore_a_shift_of_the_codes():
    # Ranks depend only on the order of the codes, also below 0.
    rng = np.random.default_rng(22)
    c = rand_codes(rng, 200, 3)
    want = window_ranks(c, 6).tolist()
    assert window_ranks(c - 5, 6).tolist() == want
    assert window_ranks(c + 1000, 6).tolist() == want


@pytest.mark.parametrize("tau", [30, 31, 32, 33])
def test_sync_set_around_one_word_windows(tau):
    # Three letters take 2 bits: tau * bits crosses 62 between tau = 31 and
    # 32, and a window outgrows one 32-symbol word between 32 and 33.
    rng = np.random.default_rng(23)
    for c in (rand_codes(rng, 400, 3), np.tile(rand_codes(rng, 7, 3), 60)):
        c[rng.integers(0, c.size, size=4)] = 2
        sync = build_sync_set(c, tau)
        rep = check_sync_set(sync.positions, c, tau)
        assert rep["valid"], rep


def test_succ_sync():
    empty = SyncSet(3, 20, np.empty(0, dtype=np.int64))
    assert succ_sync(empty, 1) == 20 - 6 + 2
    s = SyncSet(3, 20, np.array([4, 9], dtype=np.int64))
    assert succ_sync(s, 4) == 4
    assert succ_sync(s, 5) == 9
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = 40
        tau = 4
        pos = np.flatnonzero(rng.random(n - 2 * tau + 1) < 0.2) + 1
        s = SyncSet(tau, n, pos.astype(np.int64))
        fallback = n - 2 * tau + 2
        for i in range(1, n + 1):
            want = min([p for p in pos if p >= i] + [fallback])
            assert succ_sync(s, i) == want


def run_tuples(runs):
    """(start, end, period, lyndon_start, tail) per run, in record order."""
    return list(
        zip(*(getattr(runs, f).tolist() for f in ("start", "end", "period", "lyndon_start", "tail")))
    )


def test_runs_unary():
    runs = find_tau_runs(codes_of("a" * 20), 6)
    assert len(runs) == 1
    assert run_tuples(runs) == [(1, 20, 1, 1, 0)]
    assert runs.group.tolist() == [0]


def test_runs_ab_power():
    runs = find_tau_runs(codes_of("ab" * 10), 6)
    # tail = (end + 1 - lyndon_start) mod p = 20 mod 2
    assert run_tuples(runs) == [(1, 20, 2, 1, 0)]


def test_runs_lyndon_root_is_least_rotation():
    # Run of "ba" repeated: Lyndon root is "ab", first occurrence at pos 2.
    runs = find_tau_runs(codes_of("ba" * 10), 6)
    assert len(runs) == 1
    assert int(runs.period[0]) == 2
    assert int(runs.lyndon_start[0]) == 2
    assert int(runs.tail[0]) == (int(runs.end[0]) + 1 - 2) % 2


def test_runs_none_found_gives_empty_arrays():
    for text, tau in (("abcab", 3), ("abcabcabcab", 9), ("abcdefghijklmnopqrstuvwxyz", 6)):
        runs = find_tau_runs(codes_of(text), tau)
        assert len(runs) == 0
        for field in ("start", "end", "period", "lyndon_start", "tail", "group"):
            got = getattr(runs, field)
            assert got.dtype == np.int64 and got.size == 0


def test_runs_vs_naive_random():
    rng = np.random.default_rng(23)
    for _ in range(120):
        n = int(rng.integers(20, 900))
        sigma = int(rng.integers(2, 4))
        c = rand_codes(rng, n, sigma)
        tau = int(rng.integers(3, 13))
        runs = find_tau_runs(c, tau)
        got = list(zip(runs.start.tolist(), runs.end.tolist(), runs.period.tolist()))
        assert sorted(got) == naive_tau_runs(c, tau)
        by_start = [(a, p) for a, _, p in got]
        assert by_start == sorted(by_start)


def test_runs_overlap_bound():
    rng = np.random.default_rng(24)
    for _ in range(40):
        c = rand_codes(rng, 400, 2)
        tau = 6
        runs = run_tuples(find_tau_runs(c, tau))
        for i in range(len(runs)):
            for j in range(i + 1, len(runs)):
                a, b = runs[i], runs[j]
                overlap = min(a[1], b[1]) - max(a[0], b[0]) + 1
                assert overlap <= (2 * tau) // 3


def test_runs_weak_periodicity_lemma():
    rng = np.random.default_rng(25)
    for _ in range(30):
        c = rand_codes(rng, 300, 2)
        for start, end, p, _, _ in run_tuples(find_tau_runs(c, 6)):
            length = end - start + 1
            for q in range(p, min(length - p, 2 * p) + 1):
                # q a period and p + q <= length => gcd is a period.
                is_q = all(
                    c[t] == c[t + q] for t in range(start - 1, end - q)
                )
                if is_q and p + q <= length:
                    g = int(np.gcd(p, q))
                    assert all(
                        c[t] == c[t + g] for t in range(start - 1, end - g)
                    )


def test_fact_longest_periodic_prefix():
    # Whenever per(T[i..i+3tau-2]) = p <= tau/3, T[i..succ(i)+2tau-1) is the
    # longest p-periodic prefix of T[i..n].
    rng = np.random.default_rng(26)
    for _ in range(40):
        n = int(rng.integers(40, 400))
        c = rand_codes(rng, n, 2)
        tau = int(rng.integers(3, 10))
        if n < 3 * tau:
            continue
        sync = build_sync_set(c, tau)
        for i in range(1, n - 3 * tau + 3):
            p = naive_period(c, i - 1, i + 3 * tau - 2)
            if p > tau / 3:
                continue
            end = succ_sync(sync, i) + 2 * tau - 1  # exclusive
            # longest p-periodic prefix of T[i..n] by direct extension
            stop = i + p
            while stop <= n and c[stop - 1] == c[stop - 1 - p]:
                stop += 1
            assert end == stop, (i, p, tau)


def test_fact_matching_offsets():
    # Planted duplicate aperiodic substrings get equal succ offsets.
    rng = np.random.default_rng(27)
    planted = 0
    for _ in range(60):
        tau = int(rng.integers(3, 7))
        m = 3 * tau + int(rng.integers(0, 2 * tau))
        u = rand_codes(rng, m, 2)
        if naive_period(u, 0, m) <= tau / 3:
            continue
        pre = rand_codes(rng, int(rng.integers(5, 40)), 2)
        mid = rand_codes(rng, int(rng.integers(5, 40)), 2)
        suf = rand_codes(rng, int(rng.integers(5, 40)), 2)
        c = np.concatenate([pre, u, mid, u, suf])
        i = len(pre) + 1
        j = len(pre) + m + len(mid) + 1
        n = len(c)
        if j + m - 1 > n - 2 * tau + 1 - 1:
            pass  # succ may clip at the fallback; still require equality below
        sync = build_sync_set(c, tau)
        si, sj = succ_sync(sync, i) - i, succ_sync(sync, j) - j
        if si <= m - 2 * tau and sj <= m - 2 * tau:
            assert si == sj
            planted += 1
    assert planted >= 10


def test_misperiods_examples():
    c = codes_of("aaabaaa")
    ms = misperiods(c, 2, 3, 1)
    assert ms.left == () and ms.right == (4,)
    perio = codes_of("ababab")
    ms2 = misperiods(perio, 3, 5, 3)
    assert ms2.left == () and ms2.right == ()
    with pytest.raises(PackedLcsError):
        misperiods(c, 3, 3, 1)


def test_misperiods_vs_naive():
    rng = np.random.default_rng(28)
    for _ in range(300):
        n = int(rng.integers(4, 80))
        c = rand_codes(rng, n, 2)
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 2))
        k = int(rng.integers(0, 4))
        p = j - i
        mis = [
            a
            for a in range(1, n + 1)
            if c[a - 1] != c[i + ((a - i) % p) - 1]
        ]
        want_left = tuple(sorted([a for a in mis if a < i], reverse=True)[:k])
        want_right = tuple(sorted([a for a in mis if a >= j])[:k])
        got = misperiods(c, i, j, k)
        assert got == MisperiodSets(want_left, want_right)


def naive_root(c, start, period):
    """(period, least rotation of the run's first period) as a tuple."""
    word = c[start - 1 : start - 1 + period].tolist()
    return period, min(tuple(word[k:] + word[:k]) for k in range(period))


def assert_groups_match_naive_roots(c, runs):
    roots = [naive_root(c, r[0], r[2]) for r in run_tuples(runs)]
    group = runs.group.tolist()
    for i in range(len(roots)):
        for j in range(len(roots)):
            assert (roots[i] == roots[j]) == (group[i] == group[j])
    assert sorted(set(group)) == list(range(len(set(group))))  # dense ids


def test_groups_partition_runs_by_root_and_tail():
    c = codes_of("ab" * 10 + "c" + "ba" * 10)
    runs = find_tau_runs(c, 6)
    assert len(runs) == 2
    # Both runs share the Lyndon root "ab" whatever their phase.
    assert runs.group.tolist() == [0, 0]
    assert_groups_match_naive_roots(c, runs)
    # Their tails differ, so the (root, tail) key of the medium regime's
    # case III keeps them apart.
    assert len(set(zip(runs.group.tolist(), runs.tail.tolist()))) == 2


@pytest.mark.parametrize("scale, offset", [(1, 0), (37, 200), (-37, 0)])
def test_groups_match_naive_least_rotation_random(scale, offset):
    # The group of a run is its period with its Lyndon root: the minimal
    # rotation of one period, whatever phase the run starts in.  Codes
    # scaled by 37 (plus 200) take 14-bit key symbols; scaled by -37 they
    # are negative.
    rng = np.random.default_rng(65)
    seen = 0
    for _ in range(60):
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            root = rand_codes(rng, int(rng.integers(1, 6)), 3)
            reps = int(rng.integers(4, 20))
            shift = int(rng.integers(0, root.size))
            parts += [rand_codes(rng, 5, 4), np.roll(np.tile(root, reps), -shift)]
        c = np.concatenate(parts + [rand_codes(rng, 5, 4)]) * scale + offset
        runs = find_tau_runs(c, int(rng.integers(3, 19)))
        for start, _, p, ls, _ in run_tuples(runs):
            assert tuple(c[ls - 1 : ls - 1 + p].tolist()) == naive_root(c, start, p)[1]
            assert start <= ls < start + p
        assert_groups_match_naive_roots(c, runs)
        seen += int((runs.period > 1).sum())
    assert seen >= 20
