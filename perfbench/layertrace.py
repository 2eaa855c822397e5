"""Outside-in layer trace: wraps the cross-module names each layer calls.

Only functions and methods are replaced, never classes, so ``isinstance``
checks inside the package keep working.  Each wrapped call is a span; a
span's self time is its duration minus the time of the wrapped spans it
encloses.  A span nested inside another span of the same layer is passed
through untimed, so a layer is never counted twice.  A target a later
refactor removes is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

REGIMES = ("short", "medium", "long")


def _suffix_index_build(tr, args, res):
    tr.counts["suffix_index.builds"] += 1
    tr.counts["suffix_index.build_symbols"] += args[0].n


def _general(tr, args, res):
    inst = args[0]
    tr.counts["family_lcp.general_calls"] += 1
    tr.counts["family_lcp.general_elements"] += len(inst.p_elems) + len(inst.q_elems)
    tr.counts["family_lcp.merged_elements"] += res.merged_elements


def _count(name, size=None):
    def hook(tr, args, res):
        tr.counts[name] += 1 if size is None else size(args, res)

    return hook


def _regime(name):
    def hook(tr, args, res):
        tr.counts[f"lcs_engine.entered.{name}"] += 1

    return hook


# Spans that run one LCS cascade; cascade_useful_ratio is the time of the
# regime that produced the answer over the time of every regime run.
CASCADES = ("lcs_engine.dispatch", "klcs_engine.lcs")

# (owner, attribute, layer, hook called after a successful call)
TARGETS = (
    ("packedlcs", "lcs", "lcs_engine.dispatch", None),
    ("packedlcs", "klcs", "klcs_engine.driver", None),
    ("packedlcs.lcs_engine", "make_alphabet", "text_core.encode", None),
    ("packedlcs.text_core:Alphabet", "encode", "text_core.encode", None),
    ("packedlcs.text_core:PackedText", "__init__", "text_core.encode", None),
    ("packedlcs.text_core:CombinedText", "__init__", "text_core.encode", None),
    ("packedlcs.suffix_index:SuffixIndex", "__init__", "suffix_index.build", _suffix_index_build),
    ("packedlcs.suffix_index:SuffixIndex", "lce", "suffix_index.lce", _count("suffix_index.lce_calls")),
    (
        "packedlcs.suffix_index:SuffixIndex",
        "lce_bulk",
        "suffix_index.lce_bulk",
        _count("suffix_index.lce_bulk_pairs", lambda a, r: len(a[1])),
    ),
    ("packedlcs.suffix_index:SuffixIndex", "_build_rank_tables", "suffix_index.lce_bulk", None),
    *(
        (
            f"packedlcs.{mod}",
            "build_compacted_trie",
            "suffix_index.trie",
            _count("suffix_index.trie_leaves", lambda a, r: len(a[0])),
        )
        for mod in ("lcs_engine", "klcs_engine")
    ),
    *(
        (
            f"packedlcs.{mod}",
            "build_sync_set",
            "sync_runs.sync",
            _count("sync_runs.sync_positions", lambda a, r: len(r.positions)),
        )
        for mod in ("lcs_engine", "klcs_engine")
    ),
    *(
        (f"packedlcs.{mod}", "find_tau_runs", "sync_runs.runs", _count("sync_runs.runs", lambda a, r: len(r)))
        for mod in ("lcs_engine", "klcs_engine")
    ),
    ("packedlcs.klcs_engine", "misperiods", "sync_runs.misperiods", None),
    ("packedlcs.lcs_engine", "max_pair_lcp_general", "family_lcp.general", _general),
    ("packedlcs.klcs_engine", "max_pair_lcp_general", "family_lcp.general", _general),
    ("packedlcs.lcs_engine", "max_pair_lcp_prefix", "family_lcp.prefix", _count("family_lcp.prefix_calls")),
    ("packedlcs.lcs_engine", "solve_alpha_beta", "wavelet_lcp.solve", _count("wavelet_lcp.solve_calls")),
    ("packedlcs.klcs_engine", "solve_alpha_beta", "wavelet_lcp.solve", _count("wavelet_lcp.solve_calls")),
    ("packedlcs.wavelet_lcp", "solve_alpha_beta_core", "wavelet_lcp.solve", _count("wavelet_lcp.solve_calls")),
    ("packedlcs.lcs_engine", "lcs_suffix_automaton", "lcs_engine.automaton", None),
    *(
        ("packedlcs.lcs_engine", f"_lcs_{name}", f"lcs_engine.{name}", _regime(name))
        for name in REGIMES
    ),
    ("packedlcs.klcs_engine", "lcs", "klcs_engine.lcs", None),
    ("packedlcs.klcs_engine", "_klcs_anchor_sets", "klcs_engine.anchors", None),
    ("packedlcs.klcs_engine", "max_pair_lcp_k", "klcs_engine.max_pair_lcp_k", None),
)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


def _target(owner, attr):
    obj = _resolve(owner)
    return None if obj is None else getattr(obj, attr, None)


class Tracer:
    """Per-layer inclusive time, self time, calls and counts."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.cascade = []
        self.cascade_ratios = []
        self.absent = []
        self._frames = [[0.0]]  # child time of the open spans; [0] is the root
        self._active = set()
        self._saved = []
        for owner, attr, *_ in targets:
            if _target(owner, attr) is None:
                self.absent.append(f"{owner}.{attr}")

    def attributed(self):
        """Time inside top-level spans since the tracer was made."""
        return self._frames[0][0]

    def install(self):
        for owner, attr, layer, hook in self.targets:
            fn = _target(owner, attr)
            if fn is None:
                continue
            obj = _resolve(owner)
            self._saved.append((obj, attr, fn))
            setattr(obj, attr, self._wrap(fn, layer, hook))

    def uninstall(self):
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    def _wrap(self, fn, layer, hook):
        frames, active, cascade = self._frames, self._active, self.cascade
        regime = layer.rpartition(".")[2] if layer.startswith("lcs_engine.") else None
        if regime not in REGIMES:
            regime = None
        opens_cascade = layer in CASCADES

        def span(*args, **kwargs):
            if layer in active:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            active.add(layer)
            if opens_cascade:
                cascade.append(dict.fromkeys(REGIMES, 0.0))
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                active.discard(layer)
                frames[-1][0] += dt
                self.incl[layer] += dt
                self.self_time[layer] += dt - frame[0]
                self.calls[layer] += 1
                if regime is not None and cascade:
                    cascade[-1][regime] += dt
                times = cascade.pop() if opens_cascade else None
            if times is not None and sum(times.values()) > 0:
                self.cascade_ratios.append(times.get(res.regime, 0.0) / sum(times.values()))
            if hook is not None:
                hook(self, args, res)
            return res

        span.__wrapped__ = fn
        return span
