import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from readprofiler.sequence_db import (
    MAX_CODE_LENGTH,
    AmbiguousBaseError,
    FastaError,
    SequenceDatabase,
    base_digits,
    codes_to_keys,
    keys_to_codes,
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

    def test_codes_to_keys_rejects_out_of_range(self):
        for bad in (0, 4 ** 3 + 1):
            with pytest.raises(ValueError, match="outside"):
                codes_to_keys([1, bad], 3)
        assert codes_to_keys([], 3).shape == (0, 1)

    def test_base_digits(self):
        np.testing.assert_array_equal(base_digits("ACGTNa-é"),
                                      [0, 1, 2, 3, 255, 255, 255, 255])


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
