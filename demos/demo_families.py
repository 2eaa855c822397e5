#!/usr/bin/env python3
"""The Two String Families LCP problem: the general solver, the (alpha, beta)
solver and the brute-force oracle."""

import numpy as np

from packedlcs import (
    instance_from_pairs,
    max_pair_lcp_general,
    solve_alpha_beta,
)
from packedlcs.oracles import brute_max_pair_lcp

# maxPairLCP(P, Q) = max LCP(P1,Q1) + LCP(P2,Q2) over P x Q.
P = [("ab", "xy"), ("ac", "xz")]
Q = [("ad", "xy"), ("b", "q")]
inst = instance_from_pairs(P, Q)

brute, _ = brute_max_pair_lcp(P, Q)
gen = max_pair_lcp_general(inst)
wav = solve_alpha_beta(inst, alpha=2, beta=2)
print(f"general solver: {gen.value}, (alpha, beta) solver: {wav.value}, brute: {brute}")
print(f"witness pair: P[{gen.witness[0]}] = {P[gen.witness[0]]}, "
      f"Q[{gen.witness[1]}] = {Q[gen.witness[1]]}")
print(f"probe counter: {gen.merged_elements} probes (the moves of a small-into-large merge)")

# Prefix families (all first components prefixes of one string) give a
# chain-shaped first trie, so the general solver probes each element once.
base = "abracadabra"
Pp = [(base[:i], "xy"[: i % 3]) for i in (2, 5, 7)]
Qp = [(base[:i], "xz"[: i % 3]) for i in (3, 7, 11)]
pre = max_pair_lcp_general(instance_from_pairs(Pp, Qp))
print(f"prefix family: {pre.value} (brute {brute_max_pair_lcp(Pp, Qp)[0]}), "
      f"{pre.merged_elements} probes for {len(Pp) + len(Qp)} elements")

# Random agreement sweep.
rng = np.random.default_rng(3)
for trial in range(5):
    def fam(k):
        out = []
        for _ in range(k):
            a = "".join(chr(97 + int(c)) for c in rng.integers(0, 2, rng.integers(0, 7)))
            b = "".join(chr(97 + int(c)) for c in rng.integers(0, 2, rng.integers(0, 7)))
            out.append((a, b))
        return out
    p, q = fam(6), fam(6)
    i = instance_from_pairs(p, q)
    vals = (brute_max_pair_lcp(p, q)[0], max_pair_lcp_general(i).value,
            solve_alpha_beta(i, 6, 6).value)
    assert len(set(vals)) == 1, vals
    print(f"trial {trial}: all solvers agree on {vals[0]}")
