"""packedlcs benchmark: one workload per call, checked against references.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lcs-bin-long --seed 1 --seconds 15 --trace 0

The workload runs in a fresh single-threaded worker process (worker.py) that
times only the public calls ``packedlcs.lcs`` and ``packedlcs.klcs``.  Set-up
is measured in that worker and in separate set-up-only processes, and the
median is reported.  This process then rebuilds every input pair from the
seed and checks each answer against an independent reference: the numpy
suffix array + LCP baseline (baseline.py) for LCS and ``oracles.klcs_dp``
for k-LCS.  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``);
the line before it records the run's context.  See README.md for the metrics.
"""

from __future__ import annotations

import os

# Single-threaded numerics, here and in the workers (which inherit this).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, on_path  # noqa: E402

SETUP_PROBES = 4  # set-up-only processes besides the worker's own set-up
DEADLINE_S = 170  # the whole run, probes and checks included
LAYER_METRICS = (
    ("text_core.encode", ()),
    ("suffix_index.build", ("suffix_index.builds", "suffix_index.build_symbols")),
    ("suffix_index.trie", ("suffix_index.trie_leaves",)),
    ("suffix_index.lce", ("suffix_index.lce_calls",)),
    ("suffix_index.lce_bulk", ("suffix_index.lce_bulk_pairs",)),
    ("sync_runs.sync", ("sync_runs.sync_positions",)),
    ("sync_runs.runs", ("sync_runs.runs",)),
    ("sync_runs.misperiods", ()),
    (
        "family_lcp.general",
        ("family_lcp.general_calls", "family_lcp.general_elements", "family_lcp.merged_elements"),
    ),
    ("family_lcp.prefix", ("family_lcp.prefix_calls",)),
    ("wavelet_lcp.solve", ("wavelet_lcp.solve_calls",)),
    ("lcs_engine.automaton", ()),
    ("lcs_engine.short", ("lcs_engine.entered.short",)),
    ("lcs_engine.medium", ("lcs_engine.entered.medium",)),
    ("lcs_engine.long", ("lcs_engine.entered.long",)),
    ("lcs_engine.dispatch", ()),
    ("klcs_engine.anchors", ()),
    ("klcs_engine.max_pair_lcp_k", ()),
    ("klcs_engine.driver", ()),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _check_checkout():
    init = SRC / "packedlcs" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no packedlcs sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import packedlcs

    if Path(packedlcs.__file__).resolve() != init.resolve():
        raise BenchError(f"imported packedlcs from {packedlcs.__file__}, not {init}")
    return packedlcs


def _child(args, deadline, setup_only):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def _timed(fn, *a):
    t0 = time.perf_counter()
    out = fn(*a)
    return out, time.perf_counter() - t0


def _check(wl, rec, s, t, reference):
    """None if the answer is right, else the reason it failed."""
    if "error" in rec:
        return rec["error"]
    length, ps, pt = rec["length"], rec["pos_s"], rec["pos_t"]
    if length != reference:
        return f"length {length}, reference {reference}"
    if length == 0:
        return None
    if not (1 <= ps and ps - 1 + length <= len(s) and 1 <= pt and pt - 1 + length <= len(t)):
        return f"witness ({ps}, {pt}) out of range"
    a, b = s[ps - 1 : ps - 1 + length], t[pt - 1 : pt - 1 + length]
    if wl.op == "lcs":
        return None if a == b else "witness substrings differ"
    mism = [off + 1 for off in range(length) if a[off] != b[off]]
    if len(mism) > wl.k:
        return f"witness has {len(mism)} mismatches, k = {wl.k}"
    if mism != rec["mismatches"]:
        return "reported mismatch offsets do not match the witness bytes"
    return None


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _layer_metrics(trace, n_traced):
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value / max(1, n_traced), "unit": unit}

    for layer, counts in LAYER_METRICS:
        put(f"{layer}_s", trace["self"].get(layer, 0.0), "s")
        for name in counts:
            put(name, trace["counts"].get(name, 0), "count")
    # The k-LCS driver's call into the plain LCS dispatcher, inclusive; its
    # parts show under lcs_engine.*.
    put("klcs_engine.lcs_s", trace["incl"].get("klcs_engine.lcs", 0.0), "s")
    out["lcs_engine.cascade_useful_ratio"] = {
        "value": _mean(trace["cascade_ratios"]),
        "unit": "ratio",
    }
    memo = trace["memo_entries"]
    out["wavelet_lcp.memo_entries"] = {"value": memo or 0, "unit": "count"}
    return out


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    packedlcs = _check_checkout()
    from packedlcs import oracles
    from packedlcs.lcs_engine import lcs_suffix_automaton
    import numpy as np
    from baseline import sa_lcp_lcs

    setups = [_child(args, deadline, True)["setup_s"] for _ in range(SETUP_PROBES)]
    report = _child(args, deadline, False)
    setups.append(report["setup_s"])

    params = packedlcs.regime_parameters(wl.n, wl.n, wl.sigma)
    pairs = report["pairs"]
    failures, off_path = [], 0
    sa_s, automaton_s, klcs_dp_s = [], [], []
    for rec in pairs:
        s, t = wl.pair(args.seed, rec["index"])
        (reference, _, _), dt = _timed(sa_lcp_lcs, s, t)
        if rec["traced"]:
            sa_s.append(dt)
            automaton_s.append(_timed(lcs_suffix_automaton, s, t)[1])
        if wl.op == "klcs":
            (reference, _, _), dt = _timed(oracles.klcs_dp, s, t, wl.k)
            if rec["traced"]:
                klcs_dp_s.append(dt)
        reason = _check(wl, rec, s, t, reference)
        if reason is not None:
            failures.append({"index": rec["index"], "reason": reason})
        elif not on_path(wl, rec, params):
            off_path += 1
    if time.monotonic() > deadline:
        raise BenchError("checks ran past the deadline")

    attempted = len(pairs)
    untraced = [r["wall_s"] for r in pairs if not r["traced"]]
    traced_recs = [r for r in pairs if r["traced"]]
    traced = [r["wall_s"] for r in traced_recs]
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **wl.context(),
        "tau_m_cap": list(params),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pairs": attempted,
        "off_path": off_path,
        "failures": failures[:5],
        "setup_samples_s": setups,
    }
    if args.trace:
        trace = report["trace"]
        metrics = _layer_metrics(trace, len(traced))
        extra = {
            "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
            "trace.other_s": ((sum(traced) - trace["attributed_s"]) / len(traced), "s"),
            "trace.absent_targets": (len(trace["absent"]) + (trace["memo_entries"] is None), "count"),
            "guard.off_path": (off_path, "count"),
            # FamilyCounters that KlcsResult returns, per traced pair.
            "klcs_engine.family_total": (_mean([r.get("family_total", 0) for r in traced_recs]), "count"),
            "klcs_engine.solver_calls": (_mean([r.get("solver_calls", 0) for r in traced_recs]), "count"),
            "baseline.sa_lcp_s": (_mean(sa_s), "s"),
            "baseline.automaton_s": (_mean(automaton_s), "s"),
            "baseline.klcs_dp_s": (_mean(klcs_dp_s), "s"),
        }
        metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
        context["absent_targets"] = trace["absent"]
        context["layers"] = {
            layer: {
                "calls": trace["calls"].get(layer, 0),
                "total_s": trace["incl"].get(layer, 0.0),
                "self_s": trace["self"].get(layer, 0.0),
            }
            for layer in sorted(trace["incl"])
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.fmean(untraced), "unit": "s"},
            "query_max_s": {"value": max(untraced), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ok_rate": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
        }
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
