"""Alphabet remapping, bit-packed string storage, and the combined sentinel text.

Strings are remapped onto a dense code alphabet [0, sigma) and stored with a
fixed number of bits per symbol inside 64-bit words (no symbol straddles a
word boundary, so any position is reachable with O(1) word operations).
Positions are 1-based throughout the public API; numpy internals are 0-based.

The combined text used by the long-range machinery is

    S #1 S^R #2 T #3 T^R #4

with four distinct sentinel codes.  Sentinels occupy codes 0..3 and letters
are shifted up by 4, so plain integer comparison already ranks every sentinel
below every letter and the trailing sentinel is the unique minimal suffix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD_BITS = 64

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
        try:
            return np.array([self.forward_map[b] for b in raw], dtype=np.int64)
        except KeyError as exc:
            raise PackedLcsError(f"byte {exc.args[0]!r} not in alphabet") from exc

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


class PackedText:
    """A code sequence stored bits_per_symbol-wide inside 64-bit words.

    The first symbol of each word sits in the highest-order used bits, so the
    packed representation of a window compares like the window itself.
    """

    __slots__ = ("length", "bits_per_symbol", "per_word", "payload", "alphabet")

    def __init__(self, codes, bits_per_symbol, alphabet=None):
        codes = np.asarray(codes, dtype=np.int64)
        if bits_per_symbol < 1:
            raise PackedLcsError("bits_per_symbol must be >= 1")
        if codes.size and int(codes.max()) >= (1 << bits_per_symbol):
            raise PackedLcsError(
                f"code {int(codes.max())} does not fit in {bits_per_symbol} bits"
            )
        if codes.size and int(codes.min()) < 0:
            raise PackedLcsError("negative code")
        self.length = int(codes.size)
        self.bits_per_symbol = int(bits_per_symbol)
        self.per_word = WORD_BITS // self.bits_per_symbol
        self.payload = _pack_codes(codes, self.bits_per_symbol, self.per_word)
        self.alphabet = alphabet

    def __len__(self):
        return self.length

    def get(self, i):
        """Code at 1-based position i."""
        if not 1 <= i <= self.length:
            raise PackedLcsError(f"position {i} out of range [1, {self.length}]")
        w, slot = divmod(i - 1, self.per_word)
        shift = WORD_BITS - self.bits_per_symbol * (slot + 1)
        mask = (1 << self.bits_per_symbol) - 1
        return int(self.payload[w] >> np.uint64(shift)) & mask

    def read_block(self, i, count):
        """Packed bits of positions [i, i+count), right-aligned in one word."""
        b = self.bits_per_symbol
        if count < 0 or count * b > WORD_BITS:
            raise PackedLcsError(f"block of {count} symbols exceeds word capacity")
        if not (1 <= i and i + count - 1 <= self.length):
            raise PackedLcsError(f"block [{i}, {i + count}) out of range")
        if count == 0:
            return 0
        w, slot = divmod(i - 1, self.per_word)
        used = self.per_word * b
        pad = WORD_BITS - used
        # Concatenate the used bits of words w and w+1 into one bitstream.
        hi = int(self.payload[w]) >> pad
        lo = (int(self.payload[w + 1]) >> pad) if w + 1 < len(self.payload) else 0
        window = (hi << used) | lo
        start_bit = slot * b
        return (window >> (2 * used - start_bit - count * b)) & ((1 << (count * b)) - 1)

    def to_codes(self):
        """Unpack into an int64 numpy array (vectorized)."""
        return _unpack_codes(
            self.payload, self.length, self.bits_per_symbol, self.per_word
        )

    def to_bytes(self):
        if self.alphabet is None:
            raise PackedLcsError("no alphabet attached")
        return self.alphabet.decode(self.to_codes())


def _pack_codes(codes, bits, per_word):
    n = codes.size
    nwords = (n + per_word - 1) // per_word if n else 0
    padded = np.zeros(nwords * per_word, dtype=np.uint64)
    if n:
        padded[:n] = codes.astype(np.uint64)
    payload = np.zeros(nwords, dtype=np.uint64)
    for slot in range(per_word):
        shift = np.uint64(WORD_BITS - bits * (slot + 1))
        payload |= padded[slot::per_word] << shift
    return payload

def _unpack_codes(payload, n, bits, per_word):
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mask = np.uint64((1 << bits) - 1)
    out = np.empty(len(payload) * per_word, dtype=np.uint64)
    for slot in range(per_word):
        shift = np.uint64(WORD_BITS - bits * (slot + 1))
        out[slot::per_word] = (payload >> shift) & mask
    return out[:n].astype(np.int64)


def remap_and_pack(raw, bits_override=None, alphabet=None):
    """Remap a byte sequence to dense codes and pack it.

    Returns (PackedText, Alphabet).  sigma is the number of distinct bytes
    unless a wider alphabet is supplied; bits_override must accommodate it.
    """
    raw = _as_byte_seq(raw)
    if alphabet is None:
        alphabet = make_alphabet(raw)
    codes = alphabet.encode(raw)
    need = max(1, int(np.ceil(np.log2(max(2, alphabet.size)))))
    bits = need if bits_override is None else int(bits_override)
    if bits < need:
        raise PackedLcsError(
            f"bits_override={bits} too small for alphabet of size {alphabet.size}"
        )
    return PackedText(codes, bits, alphabet), alphabet


@dataclass(frozen=True)
class Fragment:
    """O(1) handle for a substring: 1-based inclusive [start, end].

    start == end + 1 encodes the empty fragment.  A reversed fragment over
    [i, j] denotes (T[i..j])^R.
    """

    text_id: str
    start: int
    end: int
    reversed: bool = False

    def __len__(self):
        return self.end - self.start + 1

    def check(self, text_length):
        if not (1 <= self.start and self.start <= self.end + 1 <= text_length + 1):
            raise PackedLcsError(f"fragment {self} out of range for n={text_length}")


SEG_S, SEG_S_REV, SEG_T, SEG_T_REV = "S", "S_rev", "T", "T_rev"


class CombinedText:
    """S #1 S^R #2 T #3 T^R #4 over a shared alphabet, with segment offsets."""

    def __init__(self, s_packed, t_packed):
        if s_packed.alphabet != t_packed.alphabet:
            raise PackedLcsError("S and T must be remapped over a joint alphabet")
        self.alphabet = s_packed.alphabet
        self.len_s = len(s_packed)
        self.len_t = len(t_packed)
        sigma = self.alphabet.size
        self.letter_offset = SENTINEL_COUNT
        bits = max(1, int(np.ceil(np.log2(max(2, sigma + SENTINEL_COUNT)))))
        s = s_packed.to_codes() + self.letter_offset
        t = t_packed.to_codes() + self.letter_offset
        parts = [s, [0], s[::-1], [1], t, [2], t[::-1], [3]]
        codes = np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])
        self.payload = PackedText(codes, bits, None)
        self._codes = codes
        # 1-based start offset of each segment.
        self.offsets = {
            SEG_S: 1,
            SEG_S_REV: self.len_s + 2,
            SEG_T: 2 * self.len_s + 3,
            SEG_T_REV: 2 * self.len_s + self.len_t + 4,
        }
        self.seg_len = {
            SEG_S: self.len_s,
            SEG_S_REV: self.len_s,
            SEG_T: self.len_t,
            SEG_T_REV: self.len_t,
        }

    def __len__(self):
        return len(self.payload)

    def codes(self):
        return self._codes

    def segment_length(self, text_id):
        try:
            return self.seg_len[text_id]
        except KeyError:
            raise PackedLcsError(f"unknown text id {text_id!r}") from None

    def to_forward_range(self, frag):
        """Map a Fragment over S/T (optionally reversed) to a forward 1-based
        inclusive range of the combined text."""
        n = self.segment_length(frag.text_id)
        frag.check(n)
        if not frag.reversed:
            seg = frag.text_id
            lo, hi = frag.start, frag.end
        else:
            seg = SEG_S_REV if frag.text_id == SEG_S else SEG_T_REV
            if frag.text_id not in (SEG_S, SEG_T):
                raise PackedLcsError("reversed fragments are relative to S or T")
            lo, hi = n + 1 - frag.end, n + 1 - frag.start
        off = self.offsets[seg]
        return off + lo - 1, off + hi - 1

    def extract_codes(self, frag):
        lo, hi = self.to_forward_range(frag)
        return self._codes[lo - 1 : hi]

    def letter_codes(self, frag):
        """Original (unshifted) codes of a fragment; fails on sentinels."""
        arr = self.extract_codes(frag) - self.letter_offset
        if arr.size and arr.min() < 0:
            raise PackedLcsError("fragment crosses a sentinel")
        return arr


def build_combined(s_packed, t_packed):
    """Combined text of two packed strings sharing one alphabet."""
    return CombinedText(s_packed, t_packed)


def combine_pair(s_raw, t_raw):
    """Jointly remap two byte strings and build their combined text."""
    alphabet = make_alphabet(s_raw, t_raw)
    s_packed, _ = remap_and_pack(s_raw, alphabet=alphabet)
    t_packed, _ = remap_and_pack(t_raw, alphabet=alphabet)
    return CombinedText(s_packed, t_packed)


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
