import gzip
import itertools
import json
import random
import re
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from readprofiler import sequence_db
from readprofiler.cli import main
from readprofiler.experiments import generate_random_db
from readprofiler.mixture_sim import ReadCounts, read_counts_from_reads
from readprofiler.read_matrix import ReadSamplingMatrix, build_matrix
from readprofiler.sequence_db import (
    MAX_CODE_LENGTH,
    AmbiguousBaseError,
    FastaError,
    KmerIndex,
    SequenceDatabase,
    SpeciesRecord,
    base_digits,
    codes_to_keys,
    decimal_to_keys,
    key_words,
    keys_to_codes,
    keys_to_decimal,
    kmer_keys,
    lex_decode,
    lex_encode,
    parse_fasta,
)

DNA = st.text(alphabet="ACGT", min_size=1, max_size=12)


def write_fasta(tmp_path, records, name="db.fasta"):
    path = tmp_path / name
    path.write_text("".join(f">{lab}\n{seq}\n" for lab, seq in records))
    return path


class TestLexCodes:
    def test_all_a_maps_to_one(self):
        for L in (1, 3, 10, 100):
            assert lex_encode("A" * L) == 1

    def test_all_t_maps_to_4_pow_l(self):
        for L in (1, 3, 10, 100):
            assert lex_encode("T" * L) == 4 ** L

    def test_decode_endpoints(self):
        assert lex_decode(1, 3) == "AAA"
        assert lex_decode(64, 3) == "TTT"

    def test_exhaustive_roundtrip_l4(self):
        # enumeration oracle: every length-4 string, both directions
        codes = set()
        for tup in itertools.product("ACGT", repeat=4):
            s = "".join(tup)
            code = lex_encode(s)
            assert lex_decode(code, 4) == s
            codes.add(code)
        assert codes == set(range(1, 257))

    def test_strictly_monotone_in_lexicographic_order(self):
        strings = sorted("".join(t) for t in itertools.product("ACGT", repeat=3))
        codes = [lex_encode(s) for s in strings]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)

    @given(DNA)
    def test_roundtrip_property(self, s):
        assert lex_decode(lex_encode(s), len(s)) == s

    def test_matches_digit_loop_reference(self):
        rng = np.random.default_rng(4)
        for L in [1, 2, 31, 32, 33, 150, MAX_CODE_LENGTH, *rng.integers(1, 513, 20)]:
            s = "".join("ACGT"[d] for d in rng.integers(0, 4, L))
            code = 0
            for ch in s:
                code = code * 4 + "ACGT".index(ch)
            assert lex_encode(s) == code + 1

    def test_invalid_character(self):
        with pytest.raises(ValueError):
            lex_encode("ACGN")
        # characters int(..., 4) would accept must be rejected as well
        for s in ["AC1G", "A_CG", "+ACG", " ACG", "ACG\n", "acgt"]:
            with pytest.raises(ValueError, match="invalid character"):
                lex_encode(s)

    def test_out_of_range_code(self):
        with pytest.raises(ValueError):
            lex_decode(0, 3)
        with pytest.raises(ValueError):
            lex_decode(65, 3)

    def test_window_codes_match_direct_encoding(self):
        # packed keys of every window, and of a sparse choice of windows,
        # against lex_encode; lengths straddle the 32-base word edges
        rng = np.random.default_rng(8)
        for L in (1, 2, 5, 12, 31, 32, 33, 63, 64, 65, 100, 150, MAX_CODE_LENGTH):
            for seq in ("".join("ACGT"[d] for d in rng.integers(0, 4, L + 40)),
                        "A" * (L + 3), "T" * (L + 3)):
                digits = base_digits(seq)
                n = len(seq) - L + 1
                expect = [lex_encode(seq[i:i + L]) for i in range(n)]
                keys = kmer_keys(digits, L, np.arange(n))
                assert keys.shape == (n, -(-L // 32)) and keys.dtype == np.uint64
                assert keys_to_codes(keys) == expect
                some = np.array([n - 1, 0, n // 2])
                assert keys_to_codes(kmer_keys(digits, L, some)) == [expect[i] for i in some]
                np.testing.assert_array_equal(codes_to_keys(expect, L), keys)
                # word-by-word order is lex_encode order
                order = np.lexsort(keys.T[::-1])
                assert [expect[i] for i in order] == sorted(expect)

    @pytest.mark.parametrize("L,order", [*itertools.product((33, 40, 64, 100),
                                                            ("ascending", "shuffled", "repeated")),
                                         (7, "repeated")])
    def test_dense_keys_across_blocks(self, L, order):
        # the dense branch codes one block of positions and gathers one chunk
        # of starts at a time, for starts in any order
        rng = np.random.default_rng(22)
        seq = "".join("ACGT"[d] for d in rng.integers(0, 4, 5 * sequence_db._CACHE_BLOCK // 2))
        n = len(seq) - L + 1
        starts = {"ascending": np.arange(n), "shuffled": rng.permutation(n),
                  "repeated": rng.integers(0, n, 2 * n)}[order]
        assert len(starts) * key_words(L) >= len(seq)       # the dense branch
        keys = kmer_keys(base_digits(seq), L, starts)
        assert keys_to_codes(keys) == [lex_encode(seq[i:i + L]) for i in starts]

    def test_codes_to_keys_rejects_out_of_range(self):
        for bad in (0, 4 ** 3 + 1):
            with pytest.raises(ValueError, match="outside"):
                codes_to_keys([1, bad], 3)
        assert codes_to_keys([], 3).shape == (0, 1)

    def test_base_digits(self):
        np.testing.assert_array_equal(base_digits("ACGTNa-é"),
                                      [0, 1, 2, 3, 255, 255, 255, 255])


DECIMAL_LENGTHS = [*range(1, 71), 95, 96, 97, 127, 128, 129, 150, 255, 256, 511, 512]


def edge_codes(L):
    """Codes at the edges the decimal conversions must carry across: 1 and
    4^L, 10^k - 1, 10^k and 10^k + 1, and keys 2^(16 m) - 1 (every 16-bit
    limb all ones) and 2^(16 m)."""
    top = 4 ** L
    codes = {1, top}
    for k in range(1, len(str(top)) + 1):
        codes.update((10 ** k - 1, 10 ** k, 10 ** k + 1))
    for m in range(1, 2 * L // 16 + 2):
        codes.update((2 ** (16 * m), 2 ** (16 * m) + 1))
    return sorted(c for c in codes if 1 <= c <= top)


def decimal_reference(keys):
    return "\n".join(map(str, keys_to_codes(keys))).encode()


class TestDecimalCodes:
    """keys_to_decimal and decimal_to_keys against the Python-int reference,
    keys_to_codes and codes_to_keys."""

    @pytest.mark.parametrize("L", DECIMAL_LENGTHS)
    def test_matches_python_int_reference(self, L):
        draw = random.Random(L)
        codes = edge_codes(L) + [draw.randint(1, 4 ** L) for _ in range(40)]
        # all-ones words: a key of ones below each word edge, and every word
        # all ones (the largest key again, reached word by word)
        codes += [min(4 ** L, 2 ** (64 * w)) for w in range(1, key_words(L) + 1)]
        keys = codes_to_keys(codes, L)
        blob = b"".join(keys_to_decimal(keys, L))
        assert blob == decimal_reference(keys)
        np.testing.assert_array_equal(decimal_to_keys(blob, L), keys)
        np.testing.assert_array_equal(decimal_to_keys(memoryview(blob), L), keys)

    def test_more_rows_than_one_chunk(self):
        rng = np.random.default_rng(9)
        for L in (20, 150):
            digits = rng.integers(0, 4, 3 * sequence_db._DECIMAL_CHUNK + L + 5).astype(np.uint8)
            keys = kmer_keys(digits, L, np.arange(len(digits) - L + 1))
            parts = keys_to_decimal(keys, L)
            assert len(parts) == 4
            blob = b"".join(parts)
            assert blob == decimal_reference(keys)
            np.testing.assert_array_equal(decimal_to_keys(blob, L), keys)

    def test_short_codes_across_chunks(self):
        # codes of one or two digits, more than three chunks of them; an
        # error in the last row or the first names that row
        draw = random.Random(3)
        codes = [draw.randint(1, 64) for _ in range(3 * sequence_db._DECIMAL_CHUNK + 7)]
        blob = "\n".join(map(str, codes)).encode()
        np.testing.assert_array_equal(decimal_to_keys(blob, 3), codes_to_keys(codes, 3))
        last = len(codes) - 1
        for bad, why in ((b"065", "leading zero"), (b"", "is empty"), (b"6x", "decimal digit"),
                         (b"65", "outside"), (b"1" * 1000, "outside")):
            with pytest.raises(ValueError, match=f"row code {last} .*{why}"):
                decimal_to_keys(blob[:blob.rindex(b"\n") + 1] + bad, 3)
        with pytest.raises(ValueError, match="row code 0 .*outside"):
            decimal_to_keys(b"1" * 1000 + b"\n" + blob, 3)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_line_ends_across_scan_blocks(self, monkeypatch, block):
        # codes of 1 to 3 digits, so line ends fall on every offset of a
        # block; errors still name their row
        monkeypatch.setattr(sequence_db, "_SCAN_BLOCK", block)
        draw = random.Random(block)
        codes = [draw.randint(1, 4 ** 5) for _ in range(200)]
        blob = "\n".join(map(str, codes)).encode()
        np.testing.assert_array_equal(decimal_to_keys(blob, 5), codes_to_keys(codes, 5))
        with pytest.raises(ValueError, match=f"row code {len(codes)} is empty"):
            decimal_to_keys(blob + b"\n", 5)
        with pytest.raises(ValueError, match="row code 1 has a leading zero"):
            decimal_to_keys(b"7\n07\n" + blob, 5)

    def test_empty(self):
        assert keys_to_decimal(np.zeros((0, 2), dtype=np.uint64), 40) == []
        assert decimal_to_keys(b"", 40).shape == (0, 2)

    @pytest.mark.parametrize("blob,row,why", [
        (b"5\n\n7", 1, "is empty"),
        (b"5\n7\n", 2, "is empty"),
        (b"5\n+7", 1, "not a decimal digit"),
        (b"5\n 7", 1, "not a decimal digit"),
        (b"5\n7 ", 1, "not a decimal digit"),
        (b"5\n1_", 1, "not a decimal digit"),
        (b"5\n7\r", 1, "not a decimal digit"),
        (b"5\n07", 1, "leading zero"),
        (b"5\n0", 1, "leading zero"),
        (b"5\n65", 1, r"outside \[1, 4\^3\]"),
        (b"5\n1000", 1, r"outside \[1, 4\^3\]"),
    ])
    def test_rejects_malformed_codes(self, blob, row, why):
        with pytest.raises(ValueError, match=f"row code {row} .*{why}"):
            decimal_to_keys(blob, 3)

    @pytest.mark.parametrize("L", [31, 32, 33, 150, 512])
    def test_rejects_codes_just_past_4_pow_l(self, L):
        rows = [b"1"] * (sequence_db._DECIMAL_CHUNK + 3)
        np.testing.assert_array_equal(decimal_to_keys(b"\n".join(rows), L),
                                      np.zeros((len(rows), key_words(L)), dtype=np.uint64))
        rows[-1] = str(4 ** L + 1).encode()
        with pytest.raises(ValueError, match=f"row code {len(rows) - 1} lies outside"):
            decimal_to_keys(b"\n".join(rows), L)


class TestParseFasta:
    def test_exact_duplicate_collapse(self, tmp_path):
        path = write_fasta(tmp_path, [("a", "ACGT"), ("b", "ACGT"), ("c", "GGGG")])
        db = parse_fasta(path)
        assert len(db) == 2
        assert db.dedup_map == {"b": 1}

    def test_drop_ambiguous_leaves_empty(self, tmp_path):
        path = write_fasta(tmp_path, [("a", "ACNT")])
        db = parse_fasta(path, drop_ambiguous=True)
        assert len(db) == 0
        assert db.dropped_ambiguous == 1

    def test_ambiguous_rejected_by_default(self, tmp_path):
        path = write_fasta(tmp_path, [("a", "ACNT")])
        with pytest.raises(AmbiguousBaseError):
            parse_fasta(path)

    def test_n_and_n_max(self, tmp_path):
        path = write_fasta(tmp_path, [("a", "ACGT"), ("b", "ACGTA"), ("c", "ACGTAC")])
        db = parse_fasta(path)
        assert len(db) == 3
        assert db.n_max == 6
        assert db.lengths == [4, 5, 6]

    def test_lowercase_normalized(self, tmp_path):
        path = write_fasta(tmp_path, [("a", "acgt")])
        db = parse_fasta(path)
        assert db.records[0].sequence == "ACGT"

    def test_multiline_sequences(self, tmp_path):
        path = tmp_path / "db.fasta"
        path.write_text(">a\nACGT\nACGT\n>b\nGGGG\n")
        db = parse_fasta(path)
        assert db.records[0].sequence == "ACGTACGT"
        assert len(db) == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "db.fasta"
        path.write_text("")
        with pytest.raises(FastaError):
            parse_fasta(path)

    def test_idempotent_on_own_output(self, tmp_path):
        path = write_fasta(tmp_path, [("a", "ACGT"), ("dup", "ACGT"), ("b", "GGCC")])
        db = parse_fasta(path)
        out = tmp_path / "norm.fasta"
        db.save(out)
        db2 = parse_fasta(out)
        assert db2.labels == db.labels
        assert [r.sequence for r in db2] == [r.sequence for r in db]
        assert db2.checksum() == db.checksum()

    def test_bad_byte_reported_at_its_offset_in_the_file(self, tmp_path):
        # past the 8 KB chunks a text wrapper decodes in
        path = tmp_path / "db.fasta"
        path.write_bytes(b">a\n" + b"ACGT" * 5001 + b"AC\xffGT\n")
        with pytest.raises(UnicodeDecodeError) as want:
            path.read_text()
        with pytest.raises(UnicodeDecodeError) as got:
            parse_fasta(path)
        assert str(got.value) == str(want.value)
        assert "byte 0xff in position 20009:" in str(got.value)

    def test_gzip_input(self, tmp_path):
        import gzip

        path = tmp_path / "db.fasta.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(">a\nACGT\n")
        db = parse_fasta(path)
        assert len(db) == 1

    def test_no_duplicates_after_dedup(self, tmp_path):
        path = write_fasta(tmp_path, [(f"s{i}", s) for i, s in
                                      enumerate(["AC", "GT", "AC", "GT", "AA"])])
        db = parse_fasta(path)
        seqs = [r.sequence for r in db]
        assert len(seqs) == len(set(seqs)) == 3


def reference_iter_fasta(path):
    """The line reader parse_fasta used before it read through read_bytes:
    (header, sequence) pairs from open() or gzip.open() in text mode."""
    label = None
    chunks: list[str] = []
    with gzip.open(path, "rt") if Path(path).suffix == ".gz" else open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if label is not None:
                    yield label, "".join(chunks)
                label = line[1:].strip()
                chunks = []
            elif label is None:
                raise FastaError(f"{path}: sequence data before first '>' header")
            else:
                chunks.append(line)
    if label is not None:
        yield label, "".join(chunks)


def reference_parse_fasta(path, drop_ambiguous=False):
    """parse_fasta as it was before it read through read_bytes, with its
    own deduplication loop."""
    records: list[SpeciesRecord] = []
    dedup_map: dict[str, int] = {}
    seen: dict[str, int] = {}
    dropped = 0
    n_parsed = 0
    for label, seq in reference_iter_fasta(path):
        n_parsed += 1
        seq = seq.upper()
        if not seq:
            raise FastaError(f"{path}: empty sequence for record {label!r}")
        bad = re.search("[^ACGT]", seq)
        if bad:
            if drop_ambiguous:
                dropped += 1
                continue
            raise AmbiguousBaseError(f"{path}: record {label!r} contains {bad.group()!r}")
        if seq in seen:
            dedup_map[label] = seen[seq]
            continue
        rid = len(records) + 1
        seen[seq] = rid
        records.append(SpeciesRecord(rid, label, seq))
    if n_parsed == 0:
        raise FastaError(f"{path}: no FASTA records found")
    return SequenceDatabase(records, dedup_map, dropped)


def fasta_oracle_bytes(rng):
    """One seeded FASTA file as bytes: mixed line endings, blank and
    whitespace-only lines, whitespace at line ends, lowercase bases,
    wrapped and duplicate sequences, non-ASCII labels; and, in some files,
    ambiguous bases, empty records, data before the first header, no
    record at all or a byte that is not UTF-8."""
    def pad():
        return rng.choice(["", "", " ", "\t", " \t ", "\x0b", "\x0c"])

    lines = [pad() for _ in range(rng.choice([0, 0, 1, 2]))]
    if rng.random() < 0.05:
        lines.append("ACGT")                                  # before the first header
    seqs = []
    for i in range(0 if rng.random() < 0.03 else rng.randint(1, 25)):
        label = rng.choice(["s", "é", "α β", "\u2028x", "🧬", "x\x85", ""]) + str(i)
        lines.append(pad() + ">" + pad() + label + pad())
        if rng.random() < 0.02:
            continue                                          # empty record
        if seqs and rng.random() < 0.2:
            seq = rng.choice(seqs)                            # duplicate
        else:
            seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 90)))
            if rng.random() < 0.08:
                at = rng.randrange(len(seq) + 1)
                seq = seq[:at] + rng.choice("NRn-*") + seq[at:]
            seqs.append(seq)
        seq = "".join(c.lower() if rng.random() < 0.1 else c for c in seq)
        width = rng.randint(1, 70)
        for at in range(0, len(seq), width):
            lines.append(pad() + seq[at:at + width] + pad())
            if rng.random() < 0.05:
                lines.append(pad())
    ends = ["\n", "\r\n", "\r"]
    mixed = rng.random() < 0.3
    end = rng.choice(ends)
    data = bytearray("".join(ln + (rng.choice(ends) if mixed else end) for ln in lines)
                     .encode())
    if data and rng.random() < 0.05:
        data.insert(rng.randrange(len(data)), 0xFF)
    return bytes(data)


def parse_outcome(parse, path, drop_ambiguous):
    try:
        db = parse(path, drop_ambiguous=drop_ambiguous)
    except Exception as exc:            # the type and the message are compared
        return type(exc), str(exc)
    return ([(r.id, r.label, r.sequence) for r in db.records], db.labels, db.dedup_map,
            db.dropped_ambiguous)


class TestParseFastaOracle:
    def test_matches_line_reader(self, tmp_path):
        rng = random.Random(20261019)
        kinds = []
        for case in range(160):
            data = fasta_oracle_bytes(rng)
            for name, blob in (("db.fasta", data), ("db.fasta.gz", gzip.compress(data))):
                path = tmp_path / f"{case}-{name}"
                path.write_bytes(blob)
                for drop in (False, True):
                    want = parse_outcome(reference_parse_fasta, path, drop)
                    assert parse_outcome(parse_fasta, path, drop) == want, (case, name, drop)
                    kinds.append(want[0] if isinstance(want[0], type) else
                                 "dedup" if want[2] else "dropped" if want[3] else "ok")
        # every outcome occurs, and most files parse
        assert kinds.count("ok") + kinds.count("dedup") + kinds.count("dropped") > len(kinds) / 2
        assert {"ok", "dedup", "dropped", AmbiguousBaseError, FastaError,
                UnicodeDecodeError} <= set(kinds)


class TestFingerprint:
    def test_no_cancelling_two_word_xor(self):
        # a difference of 2^62 in one word used to come out of that word's
        # step as 0x4000000200000000, which the same difference in the next
        # word cancelled (half of all such pairs collided)
        rng = np.random.default_rng(15)
        keys = rng.integers(0, 2 ** 63, size=(10_000, 4), dtype=np.int64).view(np.uint64)
        keys <<= np.uint64(1)
        keys |= rng.integers(0, 2, size=keys.shape, dtype=np.int64).view(np.uint64)
        for w in range(keys.shape[1] - 1):
            other = keys.copy()
            other[:, w] ^= np.uint64(0x4000000000000000)
            other[:, w + 1] ^= np.uint64(0x4000000200000000)
            assert not (sequence_db._fingerprint(keys) == sequence_db._fingerprint(other)).any()
            index, rows = KmerIndex.first_seen(np.concatenate([keys, other]))
            np.testing.assert_array_equal(rows, np.arange(2 * len(keys)))

    def test_one_word_keys_never_collide(self):
        keys = np.arange(1 << 16, dtype=np.uint64).reshape(-1, 1) << np.uint64(48)
        assert len(np.unique(sequence_db._fingerprint(keys))) == len(keys)

    def test_matches_word_loop_across_blocks(self):
        # the pass works one block of keys at a time: rows at the block edges
        # and a sample of others against the splitmix64 steps on Python ints
        def mix(words):
            h = 0
            for w in words:
                h ^= int(w)
                h = (h ^ h >> 30) * 0xBF58476D1CE4E5B9 % 2 ** 64
                h = (h ^ h >> 27) * 0x94D049BB133111EB % 2 ** 64
                h ^= h >> 31
            return h

        block = sequence_db._CACHE_BLOCK
        rng = np.random.default_rng(23)
        keys = rng.integers(0, 2 ** 64, size=(5 * block // 2, 3), dtype=np.uint64)
        rows = np.union1d(rng.integers(0, len(keys), 300),
                          [0, block - 1, block, 2 * block - 1, 2 * block, len(keys) - 1])
        fp = sequence_db._fingerprint(keys)
        assert fp[rows].tolist() == [mix(keys[r]) for r in rows]


def reference_first_seen(keys):
    """KmerIndex.first_seen as it was before its linear ranking: a second
    argsort ranks the groups, and any fingerprint shared by two different
    keys sends every key to a lexsort."""
    fp = sequence_db._fingerprint(keys)
    order = np.argsort(fp)
    sorted_fp = fp[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(sorted_fp[1:], sorted_fp[:-1], out=new[1:])
    tie = np.flatnonzero(~new[1:])
    shared = (keys[order[tie]] != keys[order[tie + 1]]).any()
    if shared:
        order = np.lexsort(keys.T[::-1])
        grouped = keys[order]
        new[1:] = (grouped[1:] != grouped[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)
    group_row = np.empty(len(starts), dtype=np.int64)
    group_row[np.argsort(first)] = np.arange(len(starts))
    rows = np.empty(len(keys), dtype=np.int64)
    rows[order] = group_row[np.cumsum(new) - 1]
    distinct = keys if len(starts) == len(keys) else keys[np.sort(first)]
    if shared:
        return KmerIndex(distinct), rows
    index = KmerIndex.__new__(KmerIndex)
    index._adopt(distinct, sorted_fp[starts], group_row)
    return index, rows


def first_seen_cases():
    """pytest params of keys: no key, one key, distinct keys and keys with
    repeats, of one and of five words."""
    rng = np.random.default_rng(18)
    for n_words in (1, 5):
        distinct = np.unique(rng.integers(0, 1 << 62, (3000, n_words)), axis=0)
        cases = {"none": np.zeros((0, n_words), dtype=np.int64),
                 "one": distinct[:1],
                 "distinct": rng.permutation(distinct),
                 # small words: many repeats, and keys that differ in one word
                 "small": rng.integers(0, 20, (3000, n_words))}
        for pool in (3, 40, 2000):
            cases[f"repeats{pool}"] = distinct[rng.integers(0, pool, 3000)]
        for name, keys in cases.items():
            yield pytest.param(keys.astype(np.uint64), id=f"{name}-{n_words}")


class TestFirstSeenOracle:
    """KmerIndex.first_seen against its former implementation, array for
    array, and against a dict of the keys seen so far."""

    @staticmethod
    def check(keys):
        index, rows = KmerIndex.first_seen(keys)
        ref_index, ref_rows = reference_first_seen(keys)
        for got, want in ((rows, ref_rows), (index.keys, ref_index.keys),
                          (index._fp, ref_index._fp), (index._rows, ref_index._rows)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        seen = {}
        dict_rows = [seen.setdefault(k.tobytes(), len(seen)) for k in keys]
        np.testing.assert_array_equal(rows, np.array(dict_rows, dtype=np.int64))
        assert [k.tobytes() for k in index.keys] == list(seen)
        np.testing.assert_array_equal(index.rows_of(keys), rows)

    @pytest.mark.parametrize("keys", list(first_seen_cases()))
    def test_matches_reference(self, keys):
        self.check(keys)

    @pytest.mark.parametrize("keys", list(first_seen_cases()))
    def test_matches_reference_under_weak_hash(self, monkeypatch, keys):
        # eight fingerprints for all keys: nearly every group holds
        # different keys, so the keys are sorted by their words
        monkeypatch.setattr(sequence_db, "_fingerprint", lambda k: k[:, -1] & np.uint64(7))
        self.check(keys)

    @pytest.mark.parametrize("keys", list(first_seen_cases()))
    def test_matches_reference_when_index_bits_decide(self, monkeypatch, keys):
        # fingerprints below 2^16 whose low bits run against index order:
        # where the bits above the packed index tie, one sort leaves them in
        # index order and the stable sort after it must mend that
        def fingerprint(k):
            return ~k[:, -1] & np.uint64(0xFFFF)

        fp = fingerprint(keys)
        high = fp >> np.uint64(max(len(keys) - 1, 0).bit_length())
        by_high = fp[np.lexsort((np.arange(len(keys)), high))]
        assert (by_high[1:] < by_high[:-1]).any() or len(np.unique(fp)) <= 3
        monkeypatch.setattr(sequence_db, "_fingerprint", fingerprint)
        self.check(keys)


@pytest.mark.parametrize("fp", [
    np.zeros(0, dtype=np.uint64),
    np.full(5, 9, dtype=np.uint64),
    np.arange(300, dtype=np.uint64)[::-1].copy(),             # one group, all out of order
    np.array([7, 5, 7, 0, 3], dtype=np.uint64),                # low bits all ones lead the group
    (np.arange(1000, dtype=np.uint64) % np.uint64(7)) << np.uint64(20)
    | (np.uint64(4095) - np.arange(1000, dtype=np.uint64) % np.uint64(4096)),
    np.random.default_rng(3).integers(0, 1 << 14, 2000, dtype=np.uint64),
], ids=["empty", "all_equal", "descending", "top_low_bits", "groups_reversed", "random_14_bits"])
def test_sort_by_fingerprint_matches_stable_argsort(fp):
    # mended groups must keep equal fingerprints in index order and stay
    # where their high bits place them
    order, sorted_fp = sequence_db._sort_by_fingerprint(fp)
    expected = np.argsort(fp, kind="stable")
    assert np.array_equal(order, expected)
    assert np.array_equal(sorted_fp, fp[expected])


#: gzip damage: the bytes of a damaged copy of a compressed file, and the
#: error gzip.decompress raises for them
GZIP_DAMAGE = {
    "truncated": (lambda gz, raw: gz[:len(gz) // 2], EOFError),
    "not_gzip": (lambda gz, raw: raw, gzip.BadGzipFile),
    "bad_crc": (lambda gz, raw: gz[:-8] + bytes([gz[-8] ^ 1]) + gz[-7:], gzip.BadGzipFile),
    "corrupt_deflate": (lambda gz, raw: gz[:10] + b"\xff" * 16 + gz[26:], zlib.error),
}


class TestDamagedGzip:
    @staticmethod
    def damaged(tmp_path, name, raw, damage):
        cut, error = GZIP_DAMAGE[damage]
        blob = cut(gzip.compress(raw), raw)
        with pytest.raises(error):
            gzip.decompress(blob)
        path = tmp_path / name
        path.write_bytes(blob)
        return path

    @staticmethod
    def fasta():
        return generate_random_db(40, 80, seed=3).fasta_text().encode()

    @pytest.mark.parametrize("damage", GZIP_DAMAGE)
    def test_readers_name_the_file(self, tmp_path, damage):
        db = self.damaged(tmp_path, "db.fasta.gz", self.fasta(), damage)
        with pytest.raises(ValueError, match=f"^{re.escape(str(db))}: damaged gzip data"):
            parse_fasta(db)
        raw = b"".join(b"@r\n" + s[:20] + b"\n+\n" + b"I" * 20 + b"\n"
                       for s in self.fasta().split(b"\n")[1::2])
        reads = self.damaged(tmp_path, "reads.fq.gz", raw, damage)
        with pytest.raises(ValueError, match=f"^{re.escape(str(reads))}: damaged gzip data"):
            read_counts_from_reads(reads, 8)

    @pytest.mark.parametrize("damage", GZIP_DAMAGE)
    def test_cli_exits_2(self, tmp_path, capsys, damage):
        plain = tmp_path / "db.fasta"
        plain.write_bytes(self.fasta())
        matrix = tmp_path / "A.rsm"
        assert main(["build-matrix", "--db", str(plain), "--read-len", "8",
                     "--out", str(matrix)]) == 0
        db = self.damaged(tmp_path, "db.fasta.gz", self.fasta(), damage)
        reads = self.damaged(tmp_path, "reads.txt.gz", b"ACGTACGTAA\n" * 50, damage)
        capsys.readouterr()
        assert main(["build-matrix", "--db", str(db), "--read-len", "8",
                     "--out", str(tmp_path / "B.rsm")]) == 2
        err = capsys.readouterr().err
        assert f"{db}: damaged gzip data" in err and "Traceback" not in err
        assert not (tmp_path / "B.rsm").exists()
        assert main(["reconstruct", "--matrix", str(matrix), "--reads", str(reads),
                     "--raw-reads", "--out", str(tmp_path / "est.json")]) == 2
        err = capsys.readouterr().err
        assert f"{reads}: damaged gzip data" in err and "Traceback" not in err
        assert not (tmp_path / "est.json").exists()


class TestReadLengthRule:
    """Every reader of a read or k-mer length applies check_read_length."""

    @pytest.mark.parametrize("L", [0, -1, MAX_CODE_LENGTH + 1])
    def test_every_call_site(self, tmp_path, L):
        message = f"^read length {L} outside \\[1, 512\\]$"
        calls = [lambda: lex_decode(1, L), lambda: decimal_to_keys(b"1", L),
                 lambda: build_matrix(SequenceDatabase.from_sequences(["ACGT"]), L)]
        if L >= 0:
            calls.append(lambda: lex_encode("A" * L))
        reads = tmp_path / "reads.txt"
        reads.write_text("ACGT\n")
        calls.append(lambda: read_counts_from_reads(reads, L))
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
        # the file loaders put the file's name in front
        matrix = tmp_path / "A.rsm"
        build_matrix(SequenceDatabase.from_sequences(["ACGTAC"]), 3).save(matrix)
        line, payload = matrix.read_bytes().split(b"\n", 1)
        matrix.write_bytes(json.dumps(json.loads(line) | {"read_length": L}, sort_keys=True)
                           .encode() + b"\n" + payload)
        counts = tmp_path / "counts.tsv"
        counts.write_text("#" + json.dumps({"read_length": L, "total": 1}) + "\nACG\t1\n")
        for path, load in ((matrix, ReadSamplingMatrix.load), (counts, ReadCounts.load)):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: " + message[1:]):
                load(path)


class TestSequenceDatabase:
    def test_contiguous_ids_enforced(self):
        from readprofiler.sequence_db import SpeciesRecord

        with pytest.raises(ValueError):
            SequenceDatabase([SpeciesRecord(2, "a", "ACGT")])

    def test_duplicate_sequences_rejected(self):
        from readprofiler.sequence_db import SpeciesRecord

        with pytest.raises(ValueError):
            SequenceDatabase([SpeciesRecord(1, "a", "ACGT"),
                              SpeciesRecord(2, "b", "ACGT")])

    def test_manifest_contents(self, tmp_path):
        db = SequenceDatabase.from_sequences(["ACGT", "GG"], ["x", "y"])
        db.save(tmp_path / "db.fasta", tmp_path / "m.json")
        import json

        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["n_species"] == 2
        assert manifest["n_max"] == 4
        assert manifest["labels"] == ["x", "y"]


class TestRandomDatabase:
    @staticmethod
    def per_row_join(n, length, seed):
        """The draws and collision resampling of generate_random_db, one
        string join per drawn row."""
        rng = np.random.default_rng(seed)
        base = np.array(list("ACGT"))
        seqs, seen, batch = [], set(), n
        while len(seqs) < n:
            for row in rng.integers(0, 4, size=(batch, length)):
                if len(seqs) >= n:
                    break
                s = "".join(base[row])
                if s not in seen:
                    seen.add(s)
                    seqs.append(s)
            batch = max(8, n - len(seqs))
        return seqs

    # 16 of the 16 length-2 strings and 60 of 64 length-3 strings need
    # several rounds of resampling
    @pytest.mark.parametrize("n,length", [(1, 1), (16, 2), (60, 3), (300, 7), (50, 120)])
    def test_matches_per_row_join(self, n, length):
        for seed in range(4):
            db = generate_random_db(n, length, seed)
            assert [r.sequence for r in db.records] == self.per_row_join(n, length, seed)
            assert db.labels == [f"rand_{i + 1:06d}" for i in range(n)]

    def test_more_sequences_than_strings_refused(self):
        # 4 strings of length 1 exist, so 5 distinct ones cannot be drawn
        with pytest.raises(ValueError, match="cannot draw 5 distinct sequences of length 1"):
            generate_random_db(5, 1, 0)
