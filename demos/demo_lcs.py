#!/usr/bin/env python3
"""Walk through the exact LCS pipeline on a small genomic-looking input.

Shows the dispatcher (one sort of packed seed words, then, when the LCS
reaches the seed width, one scan of the S$T suffix array doubled from that
sort), the paper's three regimes as its reference path (S$T suffixes cut at
m + 1 symbols, sync-set anchors, d-cover anchors), and the brute-force cross
check.
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
# A packed key stores code + 1 per symbol of S$T (the separator is code 0),
# so a symbol takes bit_length(sigma + 1) bits and a word holds per of them.
bits = (sigma + 1).bit_length()
per = 64 // bits
print(f"|S| = {len(s)}, |T| = {len(t)}, sigma = {sigma}, {bits} bits/symbol, "
      f"seed width per = {per} symbols, {-(-len(s) // per)} machine words for S")

tau, m_short, cap = regime_parameters(len(s), len(t), sigma)
print(f"regime parameters: tau = {tau}, short window m = {m_short}, cap = {cap}")

res = lcs(s, t)
want, _, _ = lcs_dp(s, t)
# Every suffix of S$T keys its first per symbols as one word, and the words
# are sorted once.  Adjacent S-T words give min(LCS, per): below per that is
# the answer ("short").  Here the shared core is longer, so the suffix array
# of S$T is doubled from the same sort and scanned once ("scan"): the longest
# common prefix of SA-adjacent S and T suffixes, exact at every length.
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
