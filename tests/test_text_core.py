import numpy as np
import pytest

from packedlcs.lcs_engine import _Ctx, lcs
from packedlcs.text_core import (
    PackedLcsError,
    _as_byte_seq,
    _sort_keys,
    make_alphabet,
    mismatch_offsets,
    pack_keys,
    read_text_file,
    symbol_bits,
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
    # shares a code with a different letter of T in S$T.
    ctx = _Ctx(b"ab", b"cd")
    assert ctx.s_codes.tolist() == [0, 1]
    assert ctx.t_codes.tolist() == [2, 3]
    st = ctx.st_codes()
    assert set(st[:2].tolist()).isdisjoint(st[3:].tolist())
    ctx = _Ctx(b"ca", b"ac")
    assert ctx.s_codes.tolist() == ctx.t_codes.tolist()[::-1]


def test_st_layout():
    # S$T with letters shifted above the separator 0; its reversed view is
    # T^R $ S^R.
    ctx = _Ctx(b"ab", b"c")
    assert ctx.st_codes().tolist() == [1, 2, 0, 3]
    assert ctx.st_codes()[::-1].tolist() == [3, 0, 2, 1]


def test_st_positions_random():
    # Read at the documented 0-based positions, S$T spells S[a] at a - 1 and
    # T[b] at ns + b, and its reversed view S[a] at ns + nt + 1 - a and T[b]
    # at nt - b (1-based a, b); the separator is the one code below every
    # letter.
    rng = np.random.default_rng(3)
    for _ in range(200):
        ns, nt = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        s = bytes(rng.integers(97, 101, size=ns, dtype=np.uint8))
        t = bytes(rng.integers(97, 101, size=nt, dtype=np.uint8))
        ctx = _Ctx(s, t)
        alpha = make_alphabet(s, t)
        st, rev = ctx.st_codes(), ctx.st_codes()[::-1]
        assert st.size == ns + nt + 1
        assert np.flatnonzero(st == 0).tolist() == [ns]
        a, b = np.arange(1, ns + 1), np.arange(1, nt + 1)
        for text, at_s, at_t in ((st, a - 1, ns + b), (rev, ns + nt + 1 - a, nt - b)):
            assert alpha.decode(text[at_s] - 1) == s
            assert alpha.decode(text[at_t] - 1) == t
        assert rev[nt] == 0


def _naive_keys(codes, starts, lens, width):
    bits = symbol_bits(codes)
    per = 64 // bits
    keys = np.zeros((max(1, -(-width // per)), len(starts)), dtype=np.uint64)
    for col, (a, ln) in enumerate(zip(starts.tolist(), lens.tolist())):
        for t in range(ln):
            slot = int(codes[a + t]) + 1 if a + t < len(codes) else 0
            keys[t // per, col] |= np.uint64(slot << (bits * (per - 1 - t % per)))
    return keys


def test_pack_keys_match_naive_packing_on_dense_and_sparse_starts():
    # Every position (read off doubled spans) and three positions (packed
    # symbol by symbol), with widths below, at and above one word.
    rng = np.random.default_rng(16)
    for bits in range(2, 10):
        codes = rng.integers(0, (1 << bits) - 1, size=int(rng.integers(1, 90)))
        codes[0] = (1 << bits) - 2
        per = 64 // bits
        for width in (1, per - 1, per, per + 1, 2 * per + 3):
            n = codes.size
            for starts in (np.arange(n + 1), rng.integers(0, n + 1, size=3)):
                lens = np.minimum(rng.integers(0, width + 1, size=starts.size), n - starts)
                got = pack_keys(codes, starts, lens, width)
                assert got.tolist() == _naive_keys(codes, starts, lens, width).tolist()


def _naive_offsets(x, bits, k):
    """Slot-by-slot scan of XOR keys: offsets of the first k + 1 nonzero
    symbol slots per column, the key width where fewer differ."""
    per = 64 // bits
    n_words, m = x.shape
    out = np.full((k + 1, m), n_words * per, dtype=np.int64)
    for c in range(m):
        slots = [
            (int(x[w, c]) >> (bits * (per - 1 - v))) & ((1 << bits) - 1)
            for w in range(n_words)
            for v in range(per)
        ]
        hits = [o for o, val in enumerate(slots) if val][: k + 1]
        out[: len(hits), c] = hits
    return out


def test_mismatch_offsets_match_naive_scan():
    # Symbol widths of 1-8 bits, keys of 1-3 words, k from 0 to 4; fragments
    # of length 0 and of the full width, and equal keys, which report the
    # full width in every row.
    rng = np.random.default_rng(17)
    for bits in range(1, 9):
        for n_words in (1, 2, 3):
            width = n_words * (64 // bits)
            # Codes reach 2^bits - 2, so a key slot (code + 1) needs all bits.
            codes = rng.integers(0, (1 << bits) - 1, size=200)
            codes[0] = (1 << bits) - 2
            assert symbol_bits(codes) == bits
            m = 40
            starts = rng.integers(0, codes.size - width, size=2 * m)
            lens = rng.integers(0, width + 1, size=2 * m)
            lens[:4] = [0, 0, width, width]
            starts[m : m + 4] = starts[:4]  # equal keys: empty and full width
            lens[m : m + 4] = lens[:4]
            keys = pack_keys(codes, starts, lens, width)
            assert keys.shape == (n_words, 2 * m)
            x = keys[:, :m] ^ keys[:, m:]
            for k in range(5):
                got = mismatch_offsets(x, bits, k)
                assert got.tolist() == _naive_offsets(x, bits, k).tolist()
                assert (got[:, :4] == width).all()
            assert (x == keys[:, :m] ^ keys[:, m:]).all()  # x is left as it was


def test_one_word_key_sort_keeps_ties_in_input_order():
    # Many equal keys of one word: where the index fits below the last
    # symbol slot (short fragments, few bits) and where it does not (a full
    # word of symbols), the order is lexsort's stable one.
    rng = np.random.default_rng(18)
    for bits, width in ((1, 4), (2, 18), (3, 21), (8, 8), (4, 16)):
        codes = rng.integers(0, 2 ** bits - 1, size=300)
        codes[0] = 2 ** bits - 2
        starts = rng.integers(0, codes.size - width, size=2000)
        lens = rng.integers(0, width + 1, size=2000)
        keys = pack_keys(codes, starts, lens, width)
        assert keys.shape[0] == 1
        order, lcps = _sort_keys(keys, lens, bits)
        assert order.tolist() == np.lexsort(keys[::-1]).tolist()
        ks = keys[0, order]
        assert (lcps[ks[1:] == ks[:-1]] == lens[order][1:][ks[1:] == ks[:-1]]).all()


def test_fasta_reader(tmp_path):
    p = tmp_path / "x.fa"
    p.write_bytes(b">chr1 desc\nACGT\nAC\n>chr2\nGG\n")
    assert read_text_file(p) == b"ACGTACGG"
    q = tmp_path / "y.txt"
    q.write_bytes(b"plain bytes")
    assert read_text_file(q) == b"plain bytes"
    assert read_text_file(p, force_raw=True).startswith(b">chr1")
