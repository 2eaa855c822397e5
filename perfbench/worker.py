"""Runs one workload in a fresh process and reports raw per-pair results.

Started by run.py from the root of a checkout; imports ``packedlcs`` from
that checkout's ``src``.  Set-up is the import, the first input pair and one
warm-up call, measured from the launch time run.py passes in ``--t0``.  With
``--setup-only`` it stops there; otherwise it times distinct query pairs for
``--seconds`` seconds.  Either way it prints one JSON line; checking the
answers is left to run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

T_START = time.time()

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import packedlcs  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

MIN_PAIRS = 3
# Bounds the checking that run.py does after the worker, should a pair get
# much faster than it is today.
MAX_PAIRS = 400


def _call(wl, s, t):
    if wl.op == "klcs":
        return packedlcs.klcs(s, t, wl.k)
    return packedlcs.lcs(s, t)


def _answer(wl, res):
    out = {"length": res.length, "pos_s": res.pos_s, "pos_t": res.pos_t}
    if wl.op == "klcs":
        out["mismatches"] = list(res.mismatches)
        out["solver_calls"] = res.counters.solver_calls
        out["family_total"] = res.counters.family_total
    else:
        out["regime"] = res.regime
    return out


def _memo_entries():
    from packedlcs import wavelet_lcp

    tables = [getattr(wavelet_lcp, name, None) for name in ("_prop_tables", "_cross_tables")]
    if any(t is None for t in tables):
        return None
    return sum(len(sub) for t in tables for sub in t.values())


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, default=T_START, help="launch time (time.time())")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    pair = wl.pair(args.seed, 0)
    _call(wl, *wl.warmup_pair(args.seed))
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
    pairs = []
    begin = time.perf_counter()
    index = 0
    while index < MIN_PAIRS + args.trace or (
        time.perf_counter() - begin < args.seconds and index < MAX_PAIRS
    ):
        if index:
            pair = wl.pair(args.seed, index)
        # In a traced run every second pair is traced; the others give the
        # untraced times that the trace overhead is measured against.
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        rec = {"index": index, "traced": traced}
        t0 = time.perf_counter()
        try:
            res = _call(wl, *pair)
        except Exception as exc:  # a failed query is counted, not fatal
            rec["wall_s"] = time.perf_counter() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["wall_s"] = time.perf_counter() - t0
            rec.update(_answer(wl, res))
        finally:
            if traced:
                tracer.uninstall()
        pairs.append(rec)
        index += 1

    report = {
        "setup_s": setup_s,
        "pairs": pairs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["trace"] = {
            "incl": dict(tracer.incl),
            "self": dict(tracer.self_time),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "cascade_ratios": tracer.cascade_ratios,
            "attributed_s": tracer.attributed(),
            "absent": tracer.absent,
            "memo_entries": _memo_entries(),
        }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
