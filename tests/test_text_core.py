import numpy as np
import pytest

from packedlcs.text_core import (
    CombinedText,
    Fragment,
    PackedLcsError,
    combine_pair,
    make_alphabet,
    read_text_file,
    remap_and_pack,
)


def test_remap_dense_dna():
    packed, alpha = remap_and_pack("ACGT")
    assert alpha.size == 4
    assert packed.bits_per_symbol == 2
    assert list(packed.to_codes()) == [0, 1, 2, 3]


def test_remap_unary():
    packed, alpha = remap_and_pack("aaaa")
    assert alpha.size == 1
    assert packed.bits_per_symbol == 1
    assert list(packed.to_codes()) == [0, 0, 0, 0]


def test_round_trip_banana():
    packed, alpha = remap_and_pack("banana")
    assert alpha.size == 3
    assert packed.to_bytes() == b"banana"


def test_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        sigma = int(rng.integers(1, 30))
        raw = bytes(rng.integers(97, 97 + sigma, size=n, dtype=np.uint8))
        packed, _ = remap_and_pack(raw)
        assert packed.to_bytes() == raw


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


def test_bits_override_too_small():
    with pytest.raises(PackedLcsError):
        remap_and_pack("ACGTN", bits_override=2)


def test_get_examples():
    packed, _ = remap_and_pack("abc")
    assert packed.get(2) == 1
    packed, _ = remap_and_pack("aaaa")
    assert packed.get(4) == 0
    with pytest.raises(PackedLcsError):
        packed.get(5)
    with pytest.raises(PackedLcsError):
        packed.get(0)


def test_get_matches_bytes_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        raw = bytes(rng.integers(97, 123, size=n, dtype=np.uint8))
        packed, alpha = remap_and_pack(raw)
        for i in rng.integers(1, n + 1, size=10):
            assert alpha.inverse_map[packed.get(int(i))] == raw[int(i) - 1]


def test_read_block_periodic():
    packed, _ = remap_and_pack("abab")
    assert packed.read_block(1, 2) == packed.read_block(3, 2)


def test_read_block_vs_get_random():
    rng = np.random.default_rng(2)
    packed, _ = remap_and_pack(bytes(rng.integers(97, 105, size=500, dtype=np.uint8)))
    b = packed.bits_per_symbol
    cap = 64 // b
    for _ in range(1000):
        i = int(rng.integers(1, packed.length + 1))
        count = int(rng.integers(0, min(cap, packed.length - i + 1) + 1))
        want = 0
        for t in range(count):
            want = (want << b) | packed.get(i + t)
        assert packed.read_block(i, count) == want


def test_read_block_rejects_oversized():
    packed, _ = remap_and_pack("abcdefgh")
    with pytest.raises(PackedLcsError):
        packed.read_block(1, 64 // packed.bits_per_symbol + 1)


def test_combined_layout():
    comb = combine_pair("ab", "c")
    # S #1 S^R #2 T #3 T^R #4
    assert len(comb) == 2 * 2 + 2 * 1 + 4
    codes = comb.codes()
    sentinels = [c for c in codes if c < comb.letter_offset]
    assert sorted(sentinels) == [0, 1, 2, 3]
    assert all(codes[codes >= comb.letter_offset] >= 4)


def test_combined_reversal_segment():
    comb = combine_pair("abc", "zz")
    rev = comb.extract_codes(Fragment("S", 1, 3, reversed=True))
    fwd = comb.extract_codes(Fragment("S", 1, 3))
    assert list(rev) == list(fwd)[::-1]
    assert comb.alphabet.decode(comb.letter_codes(Fragment("S", 1, 3, reversed=True))) == b"cba"


def test_fragment_translation_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ns, nt = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        s = bytes(rng.integers(97, 101, size=ns, dtype=np.uint8))
        t = bytes(rng.integers(97, 101, size=nt, dtype=np.uint8))
        comb = combine_pair(s, t)
        for _ in range(5):
            which, raw = ("S", s) if rng.random() < 0.5 else ("T", t)
            n = len(raw)
            i = int(rng.integers(1, n + 1))
            j = int(rng.integers(i - 1, n + 1))
            rev = bool(rng.random() < 0.5)
            frag = Fragment(which, i, j, reversed=rev)
            got = comb.alphabet.decode(comb.letter_codes(frag))
            want = raw[i - 1 : j]
            if rev:
                want = want[::-1]
            assert got == want


def test_combined_requires_joint_alphabet():
    a, _ = remap_and_pack("ab")
    b, _ = remap_and_pack("cd")
    with pytest.raises(PackedLcsError):
        CombinedText(a, b)


def test_sentinels_below_letters_everywhere():
    comb = combine_pair("ba", "ab")
    codes = comb.codes()
    letters = codes[codes >= comb.letter_offset]
    assert letters.min() > 3


def test_fasta_reader(tmp_path):
    p = tmp_path / "x.fa"
    p.write_bytes(b">chr1 desc\nACGT\nAC\n>chr2\nGG\n")
    assert read_text_file(p) == b"ACGTACGG"
    q = tmp_path / "y.txt"
    q.write_bytes(b"plain bytes")
    assert read_text_file(q) == b"plain bytes"
    assert read_text_file(p, force_raw=True).startswith(b">chr1")
