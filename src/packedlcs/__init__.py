"""packedlcs: longest common substring and k-mismatch LCS over packed strings.

The package exports the LCS and k-LCS entry points, their regimes and the
solvers the demos call; every other name stays importable from its module.
"""

from .text_core import PackedLcsError
from .sync_runs import build_sync_set, find_tau_runs, misperiods, succ_sync
from .family_lcp import instance_from_pairs, max_pair_lcp_general
from .wavelet_lcp import solve_alpha_beta
from .lcs_engine import (
    LcsResult,
    build_d_cover,
    lcs,
    lcs_long,
    lcs_medium,
    lcs_short,
    regime_parameters,
)
from .klcs_engine import (
    KlcsResult,
    is_maxpair,
    klcs,
    klcs_anchors,
    lcp_k,
    max_pair_lcp_k,
)

__all__ = [
    "KlcsResult",
    "LcsResult",
    "PackedLcsError",
    "build_d_cover",
    "build_sync_set",
    "find_tau_runs",
    "instance_from_pairs",
    "is_maxpair",
    "klcs",
    "klcs_anchors",
    "lcp_k",
    "lcs",
    "lcs_long",
    "lcs_medium",
    "lcs_short",
    "max_pair_lcp_general",
    "max_pair_lcp_k",
    "misperiods",
    "regime_parameters",
    "solve_alpha_beta",
    "succ_sync",
]

__version__ = "0.1.0"
