"""Alphabet remapping, the combined sentinel text, and input readers.

Strings are remapped onto a dense code alphabet [0, sigma) and kept as int64
numpy code arrays; the regimes pack symbols into uint64 sort keys where they
need word parallelism (lcs_engine._sort_packed_fragments).  Positions are
1-based throughout the public API; numpy internals are 0-based.

The combined text used by the long-range machinery is

    S #1 S^R #2 T #3 T^R #4

with four distinct sentinel codes.  Sentinels occupy codes 0..3 and letters
are shifted up by 4, so plain integer comparison already ranks every sentinel
below every letter and the trailing sentinel is the unique minimal suffix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SENTINEL_COUNT = 4


class PackedLcsError(ValueError):
    """Raised on contract violations (bad positions, mismatched alphabets...)."""


@dataclass(frozen=True)
class Alphabet:
    """Dense byte-value <-> code mapping."""

    size: int
    forward_map: dict
    inverse_map: tuple

    def encode(self, raw):
        table = np.full(256, -1, dtype=np.int64)
        table[list(self.forward_map)] = list(self.forward_map.values())
        byte_vals = np.frombuffer(bytes(raw), dtype=np.uint8)
        codes = table[byte_vals]
        missing = np.flatnonzero(codes < 0)
        if missing.size:
            raise PackedLcsError(f"byte {int(byte_vals[missing[0]])!r} not in alphabet")
        return codes

    def decode(self, codes):
        return bytes(self.inverse_map[c] for c in codes)


def _as_byte_seq(raw):
    if isinstance(raw, str):
        return raw.encode("utf-8")
    if isinstance(raw, (bytes, bytearray)):
        return bytes(raw)
    raise PackedLcsError(f"unsupported input type {type(raw)!r}")


def make_alphabet(*raws):
    """Joint dense alphabet over the distinct byte values of all inputs."""
    seen = set()
    for raw in raws:
        seen.update(_as_byte_seq(raw))
    values = sorted(seen)
    forward = {v: i for i, v in enumerate(values)}
    return Alphabet(size=len(values), forward_map=forward, inverse_map=tuple(values))


SEG_S, SEG_S_REV, SEG_T, SEG_T_REV = "S", "S_rev", "T", "T_rev"


class CombinedText:
    """S #1 S^R #2 T #3 T^R #4 from the joint codes of S and T, with the
    1-based start offset of each segment."""

    def __init__(self, s_codes, t_codes):
        s = np.asarray(s_codes, dtype=np.int64) + SENTINEL_COUNT
        t = np.asarray(t_codes, dtype=np.int64) + SENTINEL_COUNT
        ns, nt = s.size, t.size
        self._codes = np.concatenate([s, [0], s[::-1], [1], t, [2], t[::-1], [3]])
        self.offsets = {
            SEG_S: 1,
            SEG_S_REV: ns + 2,
            SEG_T: 2 * ns + 3,
            SEG_T_REV: 2 * ns + nt + 4,
        }

    def __len__(self):
        return self._codes.size

    def codes(self):
        return self._codes


def read_text_file(path, force_raw=False):
    """Load raw bytes, or FASTA when the first byte is '>' (headers skipped)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if force_raw or not data.startswith(b">"):
        return data
    lines = [ln for ln in data.splitlines() if not ln.startswith(b">")]
    body = b"".join(lines)
    if not body:
        raise PackedLcsError(f"{path}: FASTA file with no sequence data")
    return body
