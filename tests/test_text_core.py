import numpy as np
import pytest

from packedlcs.lcs_engine import _Ctx, lcs
from packedlcs.text_core import (
    CombinedText,
    PackedLcsError,
    _as_byte_seq,
    make_alphabet,
    read_text_file,
)


def test_remap_dense_dna():
    alpha = make_alphabet("ACGT")
    assert alpha.size == 4
    assert list(alpha.encode(b"ACGT")) == [0, 1, 2, 3]


def test_remap_unary():
    alpha = make_alphabet("aaaa")
    assert alpha.size == 1
    assert list(alpha.encode(b"aaaa")) == [0, 0, 0, 0]


def test_round_trip_banana():
    alpha = make_alphabet("banana")
    assert alpha.size == 3
    assert alpha.decode(alpha.encode(b"banana")) == b"banana"


def test_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        sigma = int(rng.integers(1, 30))
        raw = bytes(rng.integers(97, 97 + sigma, size=n, dtype=np.uint8))
        alpha = make_alphabet(raw)
        assert alpha.decode(alpha.encode(raw)) == raw


def test_encode_matches_forward_map_all_bytes():
    raw = bytes(range(256)) + bytes(range(255, -1, -1))
    alpha = make_alphabet(raw)
    codes = alpha.encode(raw)
    assert codes.dtype == np.int64
    assert codes.tolist() == [alpha.forward_map[b] for b in raw]
    assert alpha.encode(b"").size == 0


def test_encode_rejects_byte_outside_alphabet():
    alpha = make_alphabet(b"acgt")
    with pytest.raises(PackedLcsError, match="byte 110 not in alphabet"):
        alpha.encode(b"acgtnacgx")


def test_encode_positions_random():
    # Code i (0-based) of an encoded string decodes to byte i of the input.
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        raw = bytes(rng.integers(97, 123, size=n, dtype=np.uint8))
        alpha = make_alphabet(raw)
        codes = alpha.encode(raw)
        assert codes.dtype == np.int64 and codes.size == n
        for i in rng.integers(0, n, size=10):
            assert alpha.inverse_map[codes[int(i)]] == raw[int(i)]


def test_as_byte_seq_coercion():
    assert _as_byte_seq("a\u00e9") == "a\u00e9".encode("utf-8")
    assert _as_byte_seq(b"ab") == b"ab"
    out = _as_byte_seq(bytearray(b"ab"))
    assert out == b"ab" and type(out) is bytes
    for bad in ([97, 98], 7, None):
        with pytest.raises(PackedLcsError):
            _as_byte_seq(bad)
    # The engine accepts every input type the coercion does.
    assert lcs("xabcy", bytearray(b"zabcz")).length == 3
    with pytest.raises(PackedLcsError):
        lcs([1, 2], b"ab")


def test_joint_alphabet_keeps_letters_apart():
    # S and T are encoded over one joint alphabet, so a letter of S never
    # shares a code with a different letter of T in the combined text.
    ctx = _Ctx(b"ab", b"cd")
    assert ctx.s_codes.tolist() == [0, 1]
    assert ctx.t_codes.tolist() == [2, 3]
    codes, off = ctx.combined().codes(), ctx.combined().offsets
    assert set(codes[off["S"] - 1 : off["S"] + 1].tolist()).isdisjoint(
        codes[off["T"] - 1 : off["T"] + 1].tolist()
    )
    ctx = _Ctx(b"ca", b"ac")
    assert ctx.s_codes.tolist() == ctx.t_codes.tolist()[::-1]


def _combined(s, t):
    alpha = make_alphabet(s, t)
    return alpha, CombinedText(alpha.encode(s), alpha.encode(t))


def test_combined_layout():
    _, comb = _combined(b"ab", b"c")
    # S #1 S^R #2 T #3 T^R #4, letters shifted above the sentinels 0..3.
    assert len(comb) == 2 * 2 + 2 * 1 + 4
    assert comb.codes().tolist() == [4, 5, 0, 5, 4, 1, 6, 2, 6, 3]
    assert comb.offsets == {"S": 1, "S_rev": 4, "T": 7, "T_rev": 9}


def test_combined_reversal_segment():
    alpha, comb = _combined(b"abc", b"zz")
    codes, off = comb.codes(), comb.offsets
    fwd = codes[off["S"] - 1 : off["S"] + 2]
    rev = codes[off["S_rev"] - 1 : off["S_rev"] + 2]
    assert list(rev) == list(fwd)[::-1]
    assert alpha.decode(rev - 4) == b"cba"


def test_fragment_translation_random():
    # Every segment, read at its offset, spells S, S^R, T or T^R and ends at
    # its own sentinel.
    rng = np.random.default_rng(3)
    for _ in range(200):
        ns, nt = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        s = bytes(rng.integers(97, 101, size=ns, dtype=np.uint8))
        t = bytes(rng.integers(97, 101, size=nt, dtype=np.uint8))
        alpha, comb = _combined(s, t)
        codes, off = comb.codes(), comb.offsets
        assert len(comb) == 2 * (ns + nt) + 4
        for sentinel, (seg, raw) in enumerate(
            (("S", s), ("S_rev", s[::-1]), ("T", t), ("T_rev", t[::-1]))
        ):
            lo = off[seg] - 1
            assert alpha.decode(codes[lo : lo + len(raw)] - 4) == raw
            assert codes[lo + len(raw)] == sentinel


def test_sentinels_below_letters_everywhere():
    _, comb = _combined(b"ba", b"ab")
    codes = comb.codes()
    assert sorted(codes[codes < 4].tolist()) == [0, 1, 2, 3]
    assert codes[codes >= 4].min() > 3
    # The trailing sentinel is the unique minimal suffix.
    assert codes[-1] == 3 and (codes[:-1] != 3).all()


def test_fasta_reader(tmp_path):
    p = tmp_path / "x.fa"
    p.write_bytes(b">chr1 desc\nACGT\nAC\n>chr2\nGG\n")
    assert read_text_file(p) == b"ACGTACGG"
    q = tmp_path / "y.txt"
    q.write_bytes(b"plain bytes")
    assert read_text_file(q) == b"plain bytes"
    assert read_text_file(p, force_raw=True).startswith(b">chr1")
