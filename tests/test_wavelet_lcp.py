import numpy as np
import pytest

from packedlcs import lcs_engine, wavelet_lcp
from packedlcs.family_lcp import (
    TwoFamiliesInstance,
    instance_from_pairs,
    max_pair_lcp_general,
)
from packedlcs.lcs_engine import _build_anchors_medium, _Ctx, _medium_case_one
from packedlcs.oracles import brute_max_pair_lcp
from packedlcs.suffix_index import build_compacted_trie
from packedlcs.text_core import PackedLcsError
from packedlcs.wavelet_lcp import solve_alpha_beta, solve_alpha_beta_core


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


def trie_height(trie):
    """Number of levels of a trie: the longest root-to-node path, plus one."""
    levels = [0] * trie.node_count()
    for v, p in enumerate(trie.parent.tolist()[1:], 1):
        levels[v] = levels[p] + 1
    return max(levels) + 1


def run_core(firsts, seconds, origins):
    """Solve elements (firsts[i], seconds[i], origins[i]) with the core and
    check the answer against the brute force: P holds the elements of
    origin False, Q those of origin True.  Returns (value, trie 1)."""
    n = len(firsts)
    distinct = sorted(set(firsts))
    trie1 = trie_of(distinct)
    order = sorted(range(n), key=lambda i: seconds[i])
    seq = [distinct.index(firsts[i]) for i in order]
    root = [0] * min(1, n) + [
        naive_lcp(seconds[order[r - 1]], seconds[order[r]]) for r in range(1, n)
    ]
    beta = max([1] + [len(x) for x in seconds])
    val, pair = solve_alpha_beta_core(trie1, seq, root, [origins[i] for i in order], beta)
    p = [(firsts[i], seconds[i]) for i in range(n) if not origins[i]]
    q = [(firsts[i], seconds[i]) for i in range(n) if origins[i]]
    want, _ = brute_max_pair_lcp(p, q)
    assert val == want
    if not p or not q:
        assert pair is None
        return val, trie1
    a, b = order[pair[0]], order[pair[1]]
    assert origins[a] != origins[b]
    assert naive_lcp(firsts[a], firsts[b]) + naive_lcp(seconds[a], seconds[b]) == val
    return val, trie1


# -- the level-at-a-time core --


def test_core_prefix_chain_uses_every_level():
    # Every first component is a prefix of the next, so trie 1 is one path
    # of alpha + 1 levels and the answer may sit on any of them.
    rng = np.random.default_rng(40)
    for alpha in range(1, 9):
        chain = ["abcdefghij"[:k] for k in range(alpha + 1)]
        for _ in range(20):
            n = int(rng.integers(2, 30))
            firsts = [chain[int(rng.integers(0, alpha + 1))] for _ in range(n)]
            seconds = [rand_str(rng, 6, 2) for _ in range(n)]
            origins = (rng.random(n) < 0.5).tolist()
            run_core(firsts, seconds, origins)
        # One element per chain string: the deepest pair wins on first
        # components alone.
        firsts = chain + chain
        seconds = ["x"] * len(firsts)
        origins = [False] * len(chain) + [True] * len(chain)
        val, trie1 = run_core(firsts, seconds, origins)
        assert trie_height(trie1) == alpha + 1
        assert val == alpha + 1


def test_core_equal_and_duplicate_first_components():
    rng = np.random.default_rng(41)
    # All first components equal: the answer is its length plus the best
    # cross-origin second-component LCP.
    for _ in range(30):
        n = int(rng.integers(2, 25))
        seconds = [rand_str(rng, 8, 2) for _ in range(n)]
        origins = (rng.random(n) < 0.5).tolist()
        run_core(["abc"] * n, seconds, origins)
    # A few distinct first components, each repeated many times.
    for _ in range(30):
        pool = [rand_str(rng, 4, 2) for _ in range(int(rng.integers(1, 4)))]
        n = int(rng.integers(2, 40))
        firsts = [pool[int(rng.integers(0, len(pool)))] for _ in range(n)]
        seconds = [rand_str(rng, 5, 2) for _ in range(n)]
        origins = (rng.random(n) < 0.5).tolist()
        run_core(firsts, seconds, origins)
    # Identical elements of both origins score both full lengths.
    assert run_core(["ab", "ab"], ["xyz", "xyz"], [False, True])[0] == 5


def test_core_single_element():
    for origin in (False, True):
        assert run_core(["ab"], ["cd"], [origin])[0] == 0
    assert solve_alpha_beta_core(trie_of(["a"]), [], [], [], 1) == (0, None)


def test_core_vs_brute_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        alpha = int(rng.integers(0, 7))
        n = int(rng.integers(1, 30))
        sigma = int(rng.integers(1, 4))
        firsts = [rand_str(rng, alpha, sigma) for _ in range(n)]
        seconds = [rand_str(rng, 8, sigma) for _ in range(n)]
        origins = (rng.random(n) < 0.5).tolist()
        run_core(firsts, seconds, origins)


def check_against_general(trie1, seq, root, origins, beta):
    """Solve prepared core arrays and check the value against the general
    solver and the witness against its own two components.  Trie 2 holds
    the second components in R order as strings one longer than beta: every
    element keeps its own leaf, and the LCP of two elements is the root-list
    minimum between them, as for strings whose adjacent LCPs are the root
    list.  Returns the value."""
    seq, root, origins = np.asarray(seq), np.asarray(root), np.asarray(origins)
    val, (a, b) = solve_alpha_beta_core(trie1, seq, root, origins, beta)
    trie2 = build_compacted_trie(np.full(seq.size, beta + 1), root[1:])
    elems = np.stack([trie1.leaf_at_rank[seq], trie2.leaf_of_input], axis=1)
    inst = TwoFamiliesInstance(trie1, trie2, elems[~origins], elems[origins])
    assert max_pair_lcp_general(inst).value == val
    leaf = trie1.leaf_at_rank
    assert origins[a] != origins[b]
    assert trie1.lca_depth(leaf[seq[a]], leaf[seq[b]]) + int(root[a + 1 : b + 1].min()) == val
    return val


def test_core_on_a_medium_case_one_instance(monkeypatch):
    # The arrays medium case I hands to the core on random binary text.
    rng = np.random.default_rng(43)
    s = rng.integers(0, 2, size=9000).astype(np.uint8).tobytes()
    t = rng.integers(0, 2, size=9000).astype(np.uint8).tobytes()
    ctx = _Ctx(s, t)
    tau, _, cap = lcs_engine.regime_parameters(ctx.ns, ctx.nt, ctx.sigma)
    calls = []

    def spy(*args):
        calls.append(args)
        return solve_alpha_beta_core(*args)

    monkeypatch.setattr(wavelet_lcp, "solve_alpha_beta_core", spy)
    res = _medium_case_one(ctx, _build_anchors_medium(ctx, tau), tau, cap)
    (trie1, seq, root, origins, beta), = calls
    assert seq.size >= 5000 and beta == cap
    assert check_against_general(trie1, seq, root, origins, beta) == res.length


@pytest.mark.parametrize("beta", [255, 256, 65535, 65536])
def test_core_root_values_at_beta(beta):
    # The sparse table takes the smallest dtype that holds beta; values of
    # exactly beta must survive it.
    rng = np.random.default_rng(beta)
    strings = sorted({rand_str(rng, 4, 2) for _ in range(12)})
    trie1 = trie_of(strings)
    m = 400
    seq = rng.integers(0, len(strings), size=m)
    root = rng.integers(beta - 3, beta + 1, size=m)
    root[0] = 0
    check_against_general(trie1, seq, root, rng.random(m) < 0.5, beta)


@pytest.mark.parametrize("width", [256, 257, 65537])
def test_core_many_nodes_on_one_level(width):
    # width distinct one-letter first components: level 1 of trie 1 has
    # width nodes, so the level's keys need more than one byte from 257 on
    # and more than two from 65537 on.  The first two elements, symbols 0
    # and width - 1, are the best pair; a key that wrapped around would put
    # them on one node and score it one higher.
    rng = np.random.default_rng(width)
    trie1 = build_compacted_trie(np.ones(width, dtype=np.int64), np.zeros(width - 1, dtype=np.int64))
    m = 2 * width
    seq = rng.integers(0, width, size=m)
    root = rng.integers(0, 3, size=m)
    origins = rng.random(m) < 0.5
    seq[:2], root[:2], origins[:2] = [0, width - 1], [0, 5], [False, True]
    assert check_against_general(trie1, seq, root, origins, 5) == 5


def test_core_rejects_bad_input():
    trie = trie_of(["a", "b"])
    # Symbols outside the trie's leaf ranks.
    for seq in ([0, 2], [-1, 0]):
        with pytest.raises(PackedLcsError, match="symbol"):
            solve_alpha_beta_core(trie, seq, [0, 1], [False, True], 4)
    # Symbol, LCP and origin lists of different lengths.
    with pytest.raises(PackedLcsError, match="length"):
        solve_alpha_beta_core(trie, [0, 1, 1], [0, 1], [False, True], 4)
    with pytest.raises(PackedLcsError, match="length"):
        solve_alpha_beta_core(trie, [0, 1], [0, 1], [False, True, True], 4)


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
