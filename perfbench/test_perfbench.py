"""Tests of the benchmark's own parts.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random

import pytest

from packedlcs import oracles
from packedlcs import suffix_index as suffix_index_module
from packedlcs.suffix_index import SuffixIndex

from baseline import rank_tables, sa_lcp_lcs
from layertrace import Tracer
from workloads import WORKLOADS, on_path


def _cases():
    rng = random.Random(7)
    for _ in range(60):
        sigma = rng.choice((1, 2, 4, 26))
        s = bytes(rng.randrange(sigma) + 97 for _ in range(rng.randint(0, 60)))
        t = bytes(rng.randrange(sigma) + 97 for _ in range(rng.randint(0, 60)))
        yield s, t
    for n, m in ((1, 1), (1, 40), (37, 64), (128, 3)):
        yield b"a" * n, b"a" * m  # unary
    for period in (b"ab", b"abc", b"aab", b"abaab"):
        yield period * 20, period[1:] + period * 13  # periodic
        yield period * 20 + b"c", b"c" + period * 9  # near-periodic
    yield b"banana", b"ananas"
    yield b"abc", b"xyz"


@pytest.mark.parametrize("s,t", list(_cases()))
def test_sa_lcp_lcs_matches_oracle(s, t):
    length, ps, pt = sa_lcp_lcs(s, t)
    assert length == oracles.lcs_dp(s, t)[0]
    if length:
        assert s[ps - 1 : ps - 1 + length] == t[pt - 1 : pt - 1 + length]
    else:
        assert (ps, pt) == (1, 1)


def test_rank_tables_end_in_the_suffix_order():
    for text in (b"mississippi", b"a" * 33, b"abab" * 9, bytes(range(50, 0, -1))):
        codes = list(text)
        tables = rank_tables(codes)
        order = sorted(range(len(codes)), key=lambda i: codes[i:])
        assert [int(r) for r in tables[-1]] == [order.index(i) for i in range(len(codes))]


def test_tracer_wraps_methods_and_restores_them():
    original = SuffixIndex.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert SuffixIndex.__init__ is not original
        idx = SuffixIndex([1, 0, 1, 1, 0])
        assert isinstance(idx, SuffixIndex)
        assert idx.lce(1, 3) == 1
    finally:
        tracer.uninstall()
    assert SuffixIndex.__init__ is original
    assert tracer.counts["suffix_index.builds"] == 1
    assert tracer.counts["suffix_index.build_symbols"] == 5
    assert tracer.counts["suffix_index.lce_calls"] == 1
    assert tracer.calls["suffix_index.build"] == 1
    assert tracer.self_time["suffix_index.build"] > 0


def test_tracer_self_time_excludes_child_spans():
    import packedlcs

    tracer = Tracer()
    tracer.install()
    try:
        packedlcs.lcs(b"ab" * 300 + b"x", b"ba" * 300 + b"y")
    finally:
        tracer.uninstall()
    total = tracer.incl["lcs_engine.dispatch"]
    assert total > 0
    assert abs(sum(tracer.self_time.values()) - total) < 1e-6 * max(1.0, total) + 1e-9
    assert tracer.counts["lcs_engine.entered.short"] == 1
    assert len(tracer.cascade_ratios) == 1 and 0 <= tracer.cascade_ratios[0] <= 1


def test_tracer_reports_a_missing_target_as_absent():
    targets = (
        ("packedlcs.suffix_index", "no_such_function", "suffix_index.gone", None),
        ("packedlcs.suffix_index:NoSuchClass", "__init__", "suffix_index.gone", None),
        ("packedlcs.suffix_index", "suffix_array", "suffix_index.sa", None),
    )
    tracer = Tracer(targets)
    assert tracer.absent == [
        "packedlcs.suffix_index.no_such_function",
        "packedlcs.suffix_index:NoSuchClass.__init__",
    ]
    tracer.install()
    try:
        suffix_index_module.suffix_array([2, 1, 2])
    finally:
        tracer.uninstall()
    assert tracer.calls == {"suffix_index.sa": 1}


def test_workload_pairs_are_seeded_and_distinct():
    wl = WORKLOADS["lcs-a32-planted"]
    assert wl.pair(3, 0) == wl.pair(3, 0)
    assert wl.pair(3, 0) != wl.pair(3, 1)
    assert wl.pair(3, 0) != wl.pair(4, 0)
    assert len(wl.warmup_pair(3)[0]) < wl.n


def test_planted_pair_has_exactly_the_planted_length():
    wl = WORKLOADS["lcs-a32-planted"]
    for index in range(3):
        s, t = wl.pair(11, index)
        assert sa_lcp_lcs(s, t)[0] == wl.plant


def test_path_guard():
    params = (3, 9, 11)  # (tau, m, cap)
    long_, medium, short = (WORKLOADS[n] for n in ("lcs-bin-long", "lcs-a32-planted", "lcs-a26-short"))
    assert on_path(long_, {"length": 11}, params)
    assert not on_path(long_, {"length": 10}, params)
    assert on_path(medium, {"length": 10}, params)
    assert not on_path(medium, {"length": 9}, params)
    assert not on_path(medium, {"length": 11}, params)
    assert on_path(short, {"length": 9}, params)
    assert not on_path(short, {"length": 10}, params)
    klcs = WORKLOADS["klcs-bin-k1"]
    assert on_path(klcs, {"length": 20, "solver_calls": 3}, params)
    assert not on_path(klcs, {"length": 20, "solver_calls": 0}, params)
