"""Out-of-range integer arguments of the exported entry points raise
PackedLcsError, never a bare numpy error, a silent fallback to a default or
a runaway recursion."""

import numpy as np
import pytest

import packedlcs as P

S, T = b"abaababaabaababaab", b"babaabaababaabab"
CODES = np.frombuffer(S, dtype=np.uint8).astype(np.int64)
U, V = [((1, 2), (3, 2))], [((5, 2), (7, 2))]


def _instance():
    return P.instance_from_pairs([(b"ab", b"ba")], [(b"ab", b"bb")])


# succ_sync is left out: min{j in A : j >= i} is defined for every integer i.
CALLS = {
    "build_d_cover d=0": lambda: P.build_d_cover(0),
    "build_sync_set tau=0": lambda: P.build_sync_set(CODES, 0),
    "build_sync_set tau>n/2": lambda: P.build_sync_set(CODES, len(CODES) // 2 + 1),
    "find_tau_runs tau=2": lambda: P.find_tau_runs(CODES, 2),
    "misperiods i=0": lambda: P.misperiods(CODES, 0, 3, 1),
    "misperiods k=-1": lambda: P.misperiods(CODES, 1, 3, -1),
    "klcs k=-1": lambda: P.klcs(S, T, -1),
    "klcs k above cap": lambda: P.klcs(S, T, 5),
    "klcs_anchors ell=0": lambda: P.klcs_anchors(S, T, 0, 1),
    "klcs_anchors k=-1": lambda: P.klcs_anchors(S, T, 4, -1),
    "lcp_k k=-1": lambda: P.lcp_k(S, T, -1),
    "is_maxpair k=-1": lambda: P.is_maxpair(S, T, -1, (), ()),
    "lcs_long d=0": lambda: P.lcs_long(S, T, 0),
    "lcs_medium tau=0": lambda: P.lcs_medium(S, T, tau=0),
    "lcs_medium tau=2": lambda: P.lcs_medium(S, T, tau=2),
    "lcs_medium cap=0": lambda: P.lcs_medium(S, T, cap=0),
    "lcs_medium cap=-1": lambda: P.lcs_medium(S, T, cap=-1),
    "lcs_short m=0": lambda: P.lcs_short(S, T, 0),
    "max_pair_lcp_k k1=-1": lambda: P.max_pair_lcp_k(S, U, V, -1, 0, 4),
    "max_pair_lcp_k k2=-1": lambda: P.max_pair_lcp_k(S, U, V, 0, -1, 4),
    "max_pair_lcp_k ell=1": lambda: P.max_pair_lcp_k(S, U, V, 0, 0, 1),
    "regime_parameters ns=-1": lambda: P.regime_parameters(-1, 5, 2),
    "regime_parameters sigma=-1": lambda: P.regime_parameters(5, 5, -1),
    "solve_alpha_beta alpha=-1": lambda: P.solve_alpha_beta(_instance(), -1, 5),
    "solve_alpha_beta beta=-1": lambda: P.solve_alpha_beta(_instance(), 5, -1),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_out_of_range_integers_raise_packed_lcs_error(name):
    with pytest.raises(P.PackedLcsError):
        CALLS[name]()
