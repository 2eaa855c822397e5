#!/usr/bin/env python3
"""Walk through the exact LCS pipeline on a small genomic-looking input.

Shows the dispatcher (the short regime, then one scan of the S$T suffix
array), the paper's three regimes as its reference path (S$T suffixes cut
at m + 1 symbols, sync-set anchors, d-cover anchors), and the brute-force
cross check.
"""

import numpy as np

from packedlcs import (
    build_d_cover,
    lcs,
    lcs_long,
    lcs_medium,
    lcs_short,
    regime_parameters,
)
from packedlcs.oracles import lcs_dp

rng = np.random.default_rng(7)

core = bytes(rng.integers(65, 69, size=40, dtype=np.uint8))  # shared substring
s = bytes(rng.integers(65, 69, size=300, dtype=np.uint8)) + core
t = core + bytes(rng.integers(65, 69, size=260, dtype=np.uint8))

sigma = len(set(s) | set(t))
bits = max(1, (sigma - 1).bit_length())
per_word = 64 // bits
print(f"|S| = {len(s)}, |T| = {len(t)}, sigma = {sigma}, {bits} bits/symbol, "
      f"{-(-len(s) // per_word)} machine words for S")

tau, m_short, cap = regime_parameters(len(s), len(t), sigma)
print(f"regime parameters: tau = {tau}, short window m = {m_short}, cap = {cap}")

res = lcs(s, t)
want, _, _ = lcs_dp(s, t)
# The short regime answers when the LCS is at most m; above m, one scan of
# the suffix array of S$T reads the longest common prefix of SA-adjacent
# S and T suffixes, exact at every length.
print(f"dispatcher: length {res.length} via {res.regime} "
      f"(DP oracle says {want})")
print("witness:", s[res.pos_s - 1 : res.pos_s - 1 + res.length].decode())

# The paper's regimes, run forced: each is sound everywhere (it never
# overreports) and exact on its range.  At small n the medium window
# [3 tau, cap] may be empty and the long regime covers cap upward.
print("short regime  :", lcs_short(s, t, m_short).length, f"(exact for l <= {m_short})")
print("medium regime :", lcs_medium(s, t).length,
      f"(exact window [{3 * tau}, {cap}]" + (", empty here)" if 3 * tau > cap else ")"))
print("long regime   :", lcs_long(s, t, cap).length, f"(exact for l >= {cap})")

cover = build_d_cover(cap)
print(f"d-cover for d = {cap}: residues {cover.residues} "
      f"({len(cover.positions_in(len(s)))} anchors in S)")
