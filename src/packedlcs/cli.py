"""Command-line interface: lcs, klcs, verify, bench.

Reports are JSON on stdout (CSV for bench).  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .text_core import PackedLcsError, read_text_file
from .lcs_engine import (
    _Ctx,
    lcs,
    lcs_long,
    lcs_medium,
    lcs_short,
    lcs_suffix_automaton,
    regime_parameters,
)
from .klcs_engine import klcs, K_CAP
from .sync_runs import build_sync_set
from .oracles import (
    brute_max_pair_lcp,
    check_sync_set,
    klcs_dp,
    lcs_dp,
)
from .family_lcp import instance_from_pairs, max_pair_lcp_general
from .wavelet_lcp import solve_alpha_beta


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _sync_anchor_count(s, t):
    ctx = _Ctx(s, t)
    tau, _, _ = regime_parameters(ctx.ns, ctx.nt, ctx.sigma)
    n_st = ctx.ns + ctx.nt + 1
    if ctx.ns == 0 or ctx.nt == 0 or tau > n_st // 2:
        return 0
    return len(build_sync_set(ctx.st_codes(), tau).positions)


def cmd_lcs(args):
    s = read_text_file(args.file_s, force_raw=args.raw)
    t = read_text_file(args.file_t, force_raw=args.raw)
    ctx = _Ctx(s, t)
    tau, m_short, cap = regime_parameters(ctx.ns, ctx.nt, ctx.sigma)
    t0 = time.perf_counter_ns()
    if args.force_regime == "short":
        res = lcs_short(s, t, m_short)
    elif args.force_regime == "medium":
        res = lcs_medium(s, t)
    elif args.force_regime == "long":
        res = lcs_long(s, t, cap)
    else:
        res = lcs(s, t)
    elapsed = time.perf_counter_ns() - t0
    _emit(
        {
            "algorithm": "lcs",
            "n_s": ctx.ns,
            "n_t": ctx.nt,
            "sigma": ctx.sigma,
            "regime": res.regime,
            "length": res.length,
            "pos_s": res.pos_s,
            "pos_t": res.pos_t,
            "sync_anchors": _sync_anchor_count(s, t),
            "time_ns": 0 if args.no_timing else elapsed,
        }
    )
    return 0


def cmd_klcs(args):
    if not 0 <= args.k <= K_CAP:
        print(
            f"error: k={args.k} exceeds the cap {K_CAP}; use the quadratic "
            "oracle (packedlcs.oracles.klcs_dp) for larger k",
            file=sys.stderr,
        )
        return 2
    s = read_text_file(args.file_s, force_raw=args.raw)
    t = read_text_file(args.file_t, force_raw=args.raw)
    ctx = _Ctx(s, t)
    t0 = time.perf_counter_ns()
    res = klcs(s, t, args.k)
    elapsed = time.perf_counter_ns() - t0
    _emit(
        {
            "algorithm": "klcs",
            "k": args.k,
            "n_s": ctx.ns,
            "n_t": ctx.nt,
            "sigma": ctx.sigma,
            "length": res.length,
            "pos_s": res.pos_s,
            "pos_t": res.pos_t,
            "mismatch_offsets": list(res.mismatches),
            "family_total": res.counters.family_total,
            "sync_anchors": _sync_anchor_count(s, t),
            "time_ns": 0 if args.no_timing else elapsed,
        }
    )
    return 0


# -- verify -------------------------------------------------------------------


def _fail(suite, case):
    _emit({"suite": suite, "status": "fail", "counterexample": case})
    return 1


def _verify_lcs(rng, max_n, inject=False):
    for trial in range(40):
        n = int(rng.integers(1, max_n))
        sigma = int(rng.integers(1, 27))
        s = bytes(rng.integers(97, 97 + sigma, size=n, dtype=np.uint8))
        t = bytes(rng.integers(97, 97 + sigma, size=int(rng.integers(1, max_n)), dtype=np.uint8))
        want, _, _ = lcs_dp(s, t)
        got = lcs(s, t).length
        if inject and trial == 0:
            got += 1
        if got != want:
            return _fail("lcs", {"s": s.decode(), "t": t.decode(), "want": want, "got": got})
    _emit({"suite": "lcs", "status": "ok", "cases": 40})
    return 0


def _verify_klcs(rng, max_n, inject=False):
    for trial in range(12):
        n = min(max_n, 160)
        s = bytes(rng.integers(97, 100, size=int(rng.integers(1, n)), dtype=np.uint8))
        t = bytes(rng.integers(97, 100, size=int(rng.integers(1, n)), dtype=np.uint8))
        k = int(rng.integers(1, 4))
        want, _, _ = klcs_dp(s, t, k)
        got = klcs(s, t, k).length
        if inject and trial == 0:
            got += 1
        if got != want:
            return _fail("klcs", {"s": s.decode(), "t": t.decode(), "k": k, "want": want, "got": got})
    _emit({"suite": "klcs", "status": "ok", "cases": 12})
    return 0


def _verify_sync(rng, max_n, inject=False):
    for trial in range(25):
        if inject and trial == 0:
            # A = {1} over a unary text violates the density condition.
            codes = np.zeros(20, dtype=np.int64)
            tau = 3
            positions = np.array([1], dtype=np.int64)
        else:
            n = int(rng.integers(30, max(31, min(max_n, 2000))))
            tau = int(rng.integers(3, min(33, n // 2) + 1))
            codes = rng.integers(0, 2, size=n).astype(np.int64)
            positions = build_sync_set(codes, tau).positions
        rep = check_sync_set(positions, codes, tau)
        if not rep["valid"] or rep["density_ratio"] > 8.0:
            return _fail(
                "sync",
                {
                    "codes": codes.tolist(),
                    "tau": tau,
                    "violation": rep["violation"],
                    "density_ratio": rep["density_ratio"],
                },
            )
    _emit({"suite": "sync", "status": "ok", "cases": 25})
    return 0


def _rand_family(rng, n_max, len_max, sigma=3):
    def one():
        ln = int(rng.integers(0, len_max + 1))
        return "".join(chr(97 + int(c)) for c in rng.integers(0, sigma, size=ln))

    return [(one(), one()) for _ in range(int(rng.integers(1, n_max + 1)))]


def _verify_families(rng, max_n, inject=False):
    for trial in range(60):
        p = _rand_family(rng, 12, 10)
        q = _rand_family(rng, 12, 10)
        want, _ = brute_max_pair_lcp(p, q)
        got = max_pair_lcp_general(instance_from_pairs(p, q)).value
        if inject and trial == 0:
            got += 1
        if got != want:
            return _fail("families", {"p": p, "q": q, "want": want, "got": got})
    _emit({"suite": "families", "status": "ok", "cases": 60})
    return 0


def _verify_wavelet(rng, max_n, inject=False):
    for trial in range(60):
        alpha = int(rng.integers(1, 9))
        beta = int(rng.integers(1, 12))
        p = [
            (a[: alpha], b[: beta])
            for a, b in _rand_family(rng, 10, max(alpha, beta))
        ]
        q = [
            (a[: alpha], b[: beta])
            for a, b in _rand_family(rng, 10, max(alpha, beta))
        ]
        want, _ = brute_max_pair_lcp(p, q)
        got = solve_alpha_beta(instance_from_pairs(p, q), alpha, beta).value
        if inject and trial == 0:
            got += 1
        if got != want:
            return _fail("wavelet", {"p": p, "q": q, "want": want, "got": got})
    _emit({"suite": "wavelet", "status": "ok", "cases": 60})
    return 0


_SUITES = {
    "lcs": _verify_lcs,
    "klcs": _verify_klcs,
    "sync": _verify_sync,
    "families": _verify_families,
    "wavelet": _verify_wavelet,
}


def cmd_verify(args):
    if args.suite != "all" and args.suite not in _SUITES:
        print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    for name in suites:
        rc = _SUITES[name](rng, args.max_n, inject=args.inject)
        if rc:
            return rc
    return 0


# -- bench --------------------------------------------------------------------


def _gen_input(gen, rng, n, sigma):
    if gen == "random":
        s = bytes(rng.integers(97, 97 + sigma, size=n, dtype=np.uint8))
        t = bytes(rng.integers(97, 97 + sigma, size=n, dtype=np.uint8))
        return s, t, None
    if gen == "periodic":
        p = int(rng.integers(1, 5))
        unit = bytes(rng.integers(97, 97 + sigma, size=p, dtype=np.uint8))
        s = (unit * (n // p + 1))[:n]
        t = (unit * (n // p + 1))[:n]
        return s, t, None
    if gen in ("planted-lcs", "planted-klcs"):
        ell = max(4, n // 4)
        core = bytes(rng.integers(97, 97 + sigma, size=ell, dtype=np.uint8))
        core2 = bytearray(core)
        if gen == "planted-klcs" and ell:
            core2[int(rng.integers(0, ell))] = 97 + int(rng.integers(0, sigma))
        def wrap(c):
            pre = bytes(rng.integers(97, 97 + sigma, size=(n - ell) // 2, dtype=np.uint8))
            post = bytes(rng.integers(97, 97 + sigma, size=n - ell - (n - ell) // 2, dtype=np.uint8))
            return pre + c + post
        return wrap(core), wrap(bytes(core2)), ell
    raise PackedLcsError(f"unknown generator {gen!r}")


def cmd_bench(args):
    if args.generator not in ("random", "periodic", "planted-lcs", "planted-klcs"):
        print(f"error: unknown generator {args.generator!r}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    print("generator,n,sigma,rep,algorithm,regime,length,time_ns,anchors,speedup")
    for rep in range(args.repeats):
        s, t, plant = _gen_input(args.generator, rng, args.n, args.sigma)
        anchors = _sync_anchor_count(s, t)
        t0 = time.perf_counter_ns()
        base_len, _, _ = lcs_suffix_automaton(
            np.frombuffer(s, dtype=np.uint8), np.frombuffer(t, dtype=np.uint8)
        )
        base_ns = max(1, time.perf_counter_ns() - t0)
        t0 = time.perf_counter_ns()
        if args.generator == "planted-klcs":
            res = klcs(s, t, 1)
            regime, length = "klcs", res.length
        elif args.medium_only:
            res = lcs_medium(s, t)
            regime, length = "medium", res.length
        else:
            res = lcs(s, t)
            regime, length = res.regime, res.length
        algo_ns = max(1, time.perf_counter_ns() - t0)
        if plant is not None and length < plant:
            print(
                f"warning: reported length {length} below plant {plant}",
                file=sys.stderr,
            )
        speed = base_ns / algo_ns
        tns = 0 if args.no_timing else algo_ns
        bns = 0 if args.no_timing else base_ns
        sp = 0.0 if args.no_timing else round(speed, 3)
        print(
            f"{args.generator},{len(s)},{args.sigma},{rep},baseline,automaton,"
            f"{base_len},{bns},0,1.0"
        )
        print(
            f"{args.generator},{len(s)},{args.sigma},{rep},packed,{regime},"
            f"{length},{tns},{anchors},{sp}"
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="packedlcs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lcs = sub.add_parser("lcs", help="longest common substring of two files")
    p_lcs.add_argument("file_s")
    p_lcs.add_argument("file_t")
    p_lcs.add_argument("--raw", action="store_true", help="disable FASTA detection")
    p_lcs.add_argument(
        "--force-regime",
        choices=["auto", "short", "medium", "long"],
        default="auto",
    )
    p_lcs.add_argument("--no-timing", action="store_true",
                       help="zero timing fields (reproducible output)")
    p_lcs.set_defaults(func=cmd_lcs)

    p_k = sub.add_parser("klcs", help="k-mismatch LCS of two files")
    p_k.add_argument("file_s")
    p_k.add_argument("file_t")
    p_k.add_argument("-k", type=int, required=True)
    p_k.add_argument("--raw", action="store_true")
    p_k.add_argument("--no-timing", action="store_true")
    p_k.set_defaults(func=cmd_klcs)

    p_v = sub.add_parser("verify", help="run oracle-equivalence suites")
    p_v.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--max-n", type=int, default=300)
    p_v.add_argument("--inject", action="store_true", help=argparse.SUPPRESS)
    p_v.set_defaults(func=cmd_verify)

    p_b = sub.add_parser("bench", help="benchmark against the byte baseline")
    p_b.add_argument("generator")
    p_b.add_argument("n", type=int)
    p_b.add_argument("sigma", type=int)
    p_b.add_argument("repeats", type=int)
    p_b.add_argument("--seed", type=int, default=0)
    p_b.add_argument("--medium-only", action="store_true",
                     help="run only the medium regime (perf smoke)")
    p_b.add_argument("--no-timing", action="store_true")
    p_b.set_defaults(func=cmd_bench)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PackedLcsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
