"""Alphabet remapping, packed fragment keys, and input readers.

Strings are remapped onto a dense code alphabet [0, sigma) and kept as int64
numpy code arrays.  Where word parallelism pays, fragments of a code array
are packed into uint64 sort keys by one packer, pack_keys: the regimes' fragment
sort (_sort_packed_fragments), the sync set's window ranks and the k-LCS
modified-string keys all read it.  mismatch_offsets reads the first k + 1
differing symbol slots off the XOR of two keys: adjacent LCPs for _sort_keys,
lcp_k values for the k-LCS legs.
Positions are 1-based throughout the public API; numpy internals are 0-based.

The engines read one text per pair, S$T (built by lcs_engine._Ctx), with
letters shifted up by one and the separator at code 0, so every terminator
sorts below every letter.  Only S$T gets a suffix index; reversed prefixes
are packed words of (S$T)^R = T^R $ S^R, cut to the length a caller needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


# -- packed fragment keys ----------------------------------------------------


def symbol_bits(codes):
    """Bits per packed symbol: the bit length of (max code + 1), since a key
    stores code + 1 and keeps 0 for slots past a fragment's end."""
    return max(1, (int(codes.max()) + 1).bit_length()) if len(codes) else 1


def pack_keys(codes, starts0, lens, width):
    """(n_words, m) uint64 keys of the fragments codes[starts0[i] :
    starts0[i] + lens[i]], lens at most width.

    A key holds code + 1 per symbol, symbol_bits(codes) wide, 64 // bits
    symbols per word, first symbol highest, over ceil(width / (64 // bits))
    words.  Slots past a fragment's length are 0, so comparing keys word by
    word orders fragments lexicographically, a prefix before its extensions.
    Codes must be >= 0: a negative code + 1 would wrap or read as an end.
    Dense start sets read their words off _spans, sparse ones are packed
    symbol by symbol.
    """
    n = len(codes)
    if n and int(codes.min()) < 0:
        raise PackedLcsError("pack_keys needs codes >= 0")
    bits = symbol_bits(codes)
    per = 64 // bits
    n_words = max(1, -(-width // per))
    src = np.zeros(n + n_words * per, dtype=np.uint64)  # zero tail: reads past codes
    src[:n] = codes + 1
    if per.bit_length() * src.size < width * len(starts0):
        spans = _spans(src, bits, per)
        keys = np.stack([spans.take(starts0 + w * per) for w in range(n_words)])
    else:
        keys = np.zeros((n_words, len(starts0)), dtype=np.uint64)
        for t in range(width):
            keys[t // per] |= src[t:].take(starts0) << np.uint64(bits * (per - 1 - t % per))
    # keep[v] keeps the top v symbol slots of a word.
    used = (1 << (per * bits)) - 1
    keep = np.array(
        [used ^ ((1 << (bits * (per - v))) - 1) for v in range(per + 1)], dtype=np.uint64
    )
    for w in range(n_words):
        keys[w] &= keep[np.clip(lens - w * per, 0, per)]
    return keys


def _spans(src, bits, per):
    """spans[i] packs src[i : i + per], first symbol highest, in about
    2 log2(per) whole-array shift-and-OR steps: a c-symbol span and the one
    c further make 2c symbols, and one more symbol 2c + 1."""
    spans, c = src, 1
    for digit in bin(per)[3:]:
        for more, w in ((spans, c), (src, 1))[: 1 + (digit == "1")]:
            wide = spans << np.uint64(w * bits)
            wide[:-c] |= more[c:]
            spans, c = wide, c + w
    return spans


def _bitlen_u64(x):
    """Vectorized bit_length for uint64 arrays, by the float64 exponent of
    the top 53 bits (x >> 11), exact in a float64, or else of the low 11."""
    x = x.astype(np.uint64, copy=False)
    hi = np.frexp((x >> np.uint64(11)).astype(np.float64))[1]
    lo = np.frexp((x & np.uint64(2047)).astype(np.float64))[1]
    return np.where(hi > 0, hi + 11, lo)


def _sort_packed_fragments(codes, starts0, lens, width):
    """Sort fragments of at most width symbols by their pack_keys; return
    (order, adjacent LCPs of the sorted list)."""
    keys = pack_keys(codes, starts0, lens, width)
    return _sort_keys(keys, lens, symbol_bits(codes))


def _sort_keys(keys, lens, bits, major=None):
    """(order, adjacent LCPs) of packed keys of bits-wide symbols, one column
    per string of length lens[i].

    One sort orders the keys (word 0 primary, after major if given), equal
    keys in input order, and the first differing symbol slot of each adjacent
    pair gives its count of common leading symbols.  Keys of one word and no
    major whose zero bits below the last symbol slot can hold the column
    index take it there: the keys become distinct, so numpy's unstable
    argsort, several times faster than lexsort, gives the stable order.
    """
    n_words, m = keys.shape
    spare = 64 - bits * int(lens.max(initial=0))
    if major is None and n_words == 1 and (m - 1).bit_length() <= spare:
        order = np.argsort(keys[0] | np.arange(m, dtype=np.uint64))
    else:
        order = np.lexsort(keys[::-1] if major is None else (*keys[::-1], major))
    ks = keys[:, order]
    common = mismatch_offsets(ks[:, :-1] ^ ks[:, 1:], bits, 0)[0]
    lo = lens[order]
    return order, np.minimum(common, np.minimum(lo[:-1], lo[1:]))


def mismatch_offsets(x, bits, k):
    """(k + 1, m) offsets of the first k + 1 nonzero symbol slots of each
    column of x, the XOR of two packed keys of bits-wide symbols: row k' is
    the keys' common prefix length with at most k' mismatches, or the key
    width (n_words * (64 // bits)) where fewer slots differ.  Each row reads
    the top set bit of the first nonzero word (a view of the one word of
    one-word keys) and clears that slot."""
    (n_words, m), per = x.shape, 64 // bits
    x = x.copy() if k else x  # k = 0 (every sort) clears nothing
    cols = slice(None) if n_words == 1 else np.arange(m)
    full = np.uint64((1 << bits) - 1)
    out = np.empty((k + 1, m), dtype=np.int64)
    for row in range(k + 1):
        word = 0 if n_words == 1 else np.argmax(x != 0, axis=0)
        xw = x[word, cols]
        slot = (per * bits - _bitlen_u64(xw)) // bits
        out[row] = np.where(xw == 0, n_words * per, word * per + slot)
        if row < k:
            # A zero column's slot is per; clearing any slot of it is a no-op.
            shift = (bits * (per - 1 - np.minimum(slot, per - 1))).astype(np.uint64)
            x[word, cols] = xw & ~(full << shift)
    return out
