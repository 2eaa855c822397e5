#!/usr/bin/env python3
"""Synchronizing sets and tau-runs: construction plus exhaustive checking."""

import numpy as np

from packedlcs import build_sync_set, find_tau_runs, misperiods, succ_sync
from packedlcs.oracles import check_sync_set

rng = np.random.default_rng(2)
codes = rng.integers(0, 2, size=400).astype(np.int64)
tau = 6

sync = build_sync_set(codes, tau)
rep = check_sync_set(sync.positions, codes, tau)
print(f"tau = {tau}: |A| = {len(sync)} positions, "
      f"density |A| tau / n = {rep['density_ratio']:.2f}, valid = {rep['valid']}")
print("succ from position 1:", succ_sync(sync, 1))

# Highly periodic stretches have no anchors; runs cover them instead.
periodic = np.array([0, 1] * 40 + [1, 0, 0] * 20, dtype=np.int64)
sync_p = build_sync_set(periodic, tau)
runs = find_tau_runs(periodic, tau)
print(f"\nperiodic text: |A| = {len(sync_p)}, {len(runs)} tau-runs")
for start, end, p, ls, tail, group in zip(
    runs.start, runs.end, runs.period, runs.lyndon_start, runs.tail, runs.group
):
    root = periodic[ls - 1 : ls - 1 + p]
    print(f"  run [{start},{end}] period {p} tail {tail}: "
          f"Lyndon root {root.tolist()} at {ls}, root group {group}")

# Misperiods: positions breaking a candidate period around a window.
text = np.frombuffer(b"aaabaaacaaa", dtype=np.uint8).astype(np.int64)
ms = misperiods(text, 5, 6, 2)  # window "a" at position 5, period 1
print(f"\nmisperiods around text[5..6): left {ms.left}, right {ms.right}")
