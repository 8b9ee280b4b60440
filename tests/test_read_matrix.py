import hashlib
import itertools
import json
import pickle
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from readprofiler import read_matrix, sequence_db
from readprofiler.cli import main
from readprofiler.experiments import generate_random_db
from readprofiler.metrics import gram_lambda_min
from readprofiler.mixture_sim import empirical_frequencies, sample_power_law_mixture, \
    simulate_reads
from readprofiler.read_matrix import (
    FrequencyVector,
    ReadSamplingMatrix,
    build_matrix,
    reweight_to_dna,
    unweight_from_dna,
)
from readprofiler.reconstruct import DncParams, divide_and_conquer
from readprofiler.mixture_sim import read_counts_from_reads
from readprofiler.sequence_db import KmerIndex, SequenceDatabase, codes_to_keys, \
    keys_to_codes, lex_decode


def db_of(*seqs):
    return SequenceDatabase.from_sequences(list(seqs))


def dense_oracle(db, read_len):
    """Naive dense 4^L x N matrix with exact rational arithmetic.

    Independent route: full itertools window/tail enumeration, base-4 string
    encoding via int(..., 4), Fractions reduced to doubles at the end.
    """
    trans = str.maketrans("ACGT", "0123")
    n = len(db)
    dense = [[Fraction(0)] * n for _ in range(4 ** read_len)]
    for j, rec in enumerate(db.records):
        s = rec.sequence
        if rec.length >= read_len:
            denom = rec.length - read_len + 1
            for k in range(denom):
                idx = int(s[k:k + read_len].translate(trans), 4)
                dense[idx][j] += Fraction(1, denom)
        else:
            prob = Fraction(1, 4 ** (read_len - rec.length))
            for tail in itertools.product("ACGT", repeat=read_len - rec.length):
                idx = int((s + "".join(tail)).translate(trans), 4)
                dense[idx][j] += prob
    return np.array([[float(v) for v in row] for row in dense])


def to_dense_4l(A):
    """Expand a compacted matrix back to 4^L x N."""
    out = np.zeros((4 ** A.read_length, A.n_species))
    compact = A.matrix.toarray()
    for rid, code in enumerate(keys_to_codes(A.index.keys)):
        out[code - 1] = compact[rid]
    return out


class TestBuildMatrix:
    def test_single_sequence_windows(self):
        A = build_matrix(db_of("ACGT"), 2)
        kmers = {lex_decode(c, 2) for c in keys_to_codes(A.index.keys)}
        assert kmers == {"AC", "CG", "GT"}
        np.testing.assert_allclose(A.matrix.toarray().ravel(), [1 / 3] * 3)

    def test_repeated_kmer_single_row(self):
        A = build_matrix(db_of("AAAA"), 2)
        assert A.n_rows == 1
        assert lex_decode(keys_to_codes(A.index.keys)[0], 2) == "AA"
        assert A.matrix.toarray()[0, 0] == 1.0

    def test_short_sequence_uniform_tail(self):
        A = build_matrix(db_of("AC"), 3)
        kmers = {lex_decode(c, 3) for c in keys_to_codes(A.index.keys)}
        assert kmers == {"ACA", "ACC", "ACG", "ACT"}
        np.testing.assert_array_equal(A.matrix.toarray().ravel(), [0.25] * 4)

    def test_columns_sum_to_one_mixed_lengths(self):
        A = build_matrix(db_of("ACGTACGTAC", "GG", "TTTAGC"), 4)
        np.testing.assert_allclose(A.column_sums(), 1.0, atol=1e-12)

    def test_row_count_bound(self):
        db = db_of("ACGTACG", "TTTTTT", "GCGCGC")
        L = 3
        A = build_matrix(db, L)
        assert A.n_rows <= sum(max(1, n - L + 1) for n in db.lengths)

    def test_all_entries_positive(self):
        A = build_matrix(db_of("ACGTACGTAC", "GG"), 4)
        assert np.all(A.matrix.data > 0)

    def test_rejects_empty_db_and_bad_length(self):
        with pytest.raises(ValueError):
            build_matrix(db_of("ACGT"), 0)
        with pytest.raises(ValueError):
            build_matrix(SequenceDatabase([]), 2)

    def test_rejects_huge_tail_expansion(self):
        with pytest.raises(ValueError):
            build_matrix(db_of("AC"), 20)
        # 13 tail bases, one past MAX_TAIL_LENGTH; at 12 the column alone
        # would expand into 4**12 = 16.7M rows
        with pytest.raises(ValueError, match=re.escape(
                "species 2 ('seq_2'): read length exceeds sequence length by 13 > 12; "
                "tail expansion refused")):
            build_matrix(db_of("ACGTACGTACGTACGTACGT", "ACGTA"), 18)

    def test_rejects_tails_past_the_cap_together_before_any_key(self, monkeypatch):
        # each tail of 10 bases is within the cap, but the 20 of them would
        # expand into 20 * 4**10 = 21M rows
        def no_keys(*_):
            raise AssertionError("a k-mer key was built before the tails were checked")
        monkeypatch.setattr(read_matrix, "kmer_keys", no_keys)
        with pytest.raises(ValueError, match=re.escape(
                "20 species shorter than read length 40 expand into 20971520 tail reads "
                "> 4^12; tail expansion refused")):
            build_matrix(generate_random_db(20, 30, seed=5), 40)

    def test_tail_total_refused_only_past_the_cap(self):
        # four tails of 11 bases hold 4**12 reads together, the most allowed
        read_matrix.check_tail_expansion(db_of("AC", "CA", "GT", "TG", "A" * 20), 13)
        with pytest.raises(ValueError, match="5 species shorter than read length 13"):
            read_matrix.check_tail_expansion(db_of("AC", "CA", "GT", "TG", "ACG"), 13)

    def test_oracle_equivalence_random_small(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = rng.integers(1, 8)
            seqs, seen = [], set()
            while len(seqs) < n:
                s = "".join("ACGT"[d] for d in rng.integers(0, 4, rng.integers(3, 20)))
                if s not in seen:
                    seen.add(s)
                    seqs.append(s)
            L = int(rng.integers(2, 7))
            if any(L - len(s) > 8 for s in seqs):
                continue
            A = build_matrix(db_of(*seqs), L)
            np.testing.assert_array_equal(to_dense_4l(A), dense_oracle(A_db(seqs), L))

    def test_deterministic_rebuild(self):
        db = db_of("ACGTACGTAC", "GGCATTGA")
        a1, a2 = build_matrix(db, 3), build_matrix(db, 3)
        np.testing.assert_array_equal(a1.index.keys, a2.index.keys)
        assert (a1.matrix != a2.matrix).nnz == 0


def A_db(seqs):
    return db_of(*seqs)


def entry_twice(rows, cols):
    """``cols`` with the second entry of the first row that holds two moved
    onto the column of the first."""
    i = int(np.flatnonzero(rows[1:] == rows[:-1])[0])
    return np.concatenate([cols[:i + 1], cols[i:i + 1], cols[i + 2:]])


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        A = build_matrix(db_of("ACGTACGTAC", "GG", "TTTAGC"), 4)
        path = tmp_path / "A.rsm"
        A.save(path)
        B = ReadSamplingMatrix.load(path)
        assert B.read_length == A.read_length
        np.testing.assert_array_equal(B.index.keys, A.index.keys)
        np.testing.assert_array_equal(B.col_lengths, A.col_lengths)
        assert (B.matrix != A.matrix).nnz == 0

    def test_serialized_bytes_canonical(self, tmp_path):
        db = db_of("ACGTACGTAC", "GGCATTGA")
        p1, p2 = tmp_path / "a1", tmp_path / "a2"
        build_matrix(db, 3).save(p1)
        build_matrix(db, 3).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("seqs,L", [
        (("ACGTACGTAC", "GGCATTGA", "TTTAGC"), 3),
        (("ACGTACGTAC", "GG", "TTTAGC"), 4),          # uniform-tail column
        (("AACA", "ACAA", "GGGG"), 2),                # duplicated columns
    ])
    def test_row_index_handed_over_intact(self, tmp_path, seqs, L):
        A = build_matrix(db_of(*seqs), L)
        np.testing.assert_array_equal(A.index.rows_of(A.index.keys), np.arange(A.n_rows))
        built, rebuilt = tmp_path / "built", tmp_path / "rebuilt"
        A.save(built)
        ReadSamplingMatrix(A.read_length, A.matrix, KmerIndex(A.index.keys.copy()),
                           A.col_lengths).save(rebuilt)
        assert built.read_bytes() == rebuilt.read_bytes()
        B = ReadSamplingMatrix.load(built)
        np.testing.assert_array_equal(B.index.keys, A.index.keys)
        np.testing.assert_array_equal(B.index.rows_of(A.index.keys), np.arange(A.n_rows))
        B.save(tmp_path / "reloaded")
        assert (tmp_path / "reloaded").read_bytes() == built.read_bytes()

    # (field, index, new value from the fields, what load must say)
    BROKEN_FILES = {
        "repeat": ("codes", 1, lambda f: f["codes"][0], "a row code repeats"),
        "plus": ("codes", 0, lambda f: b"+" + f["codes"][0], "not a decimal digit"),
        "space": ("codes", 0, lambda f: b" " + f["codes"][0], "not a decimal digit"),
        "underscore": ("codes", 0, lambda f: f["codes"][0] + b"_", "not a decimal digit"),
        "leading_zero": ("codes", 0, lambda f: b"0" + f["codes"][0], "leading zero"),
        "empty_line": ("codes", 1, lambda f: b"", "is empty"),
        "past_4_pow_L": ("codes", 1, lambda f: b"65", r"outside \[1, 4\^3\]"),
        "count": ("codes", slice(-1, None), lambda f: [], "row codes for"),
        "codes_bytes": ("header", "codes_bytes", lambda f: len(b"\n".join(f["codes"])) + 1,
                        "bytes of row codes"),
        "nan": ("vals", 0, lambda f: np.nan, "not finite and positive"),
        "inf": ("vals", 0, lambda f: np.inf, "not finite and positive"),
        "zero": ("vals", 0, lambda f: 0.0, "not finite and positive"),
        "negative": ("vals", 0, lambda f: -f["vals"][0], "not finite and positive"),
        "column_sum": ("vals", 0, lambda f: f["vals"][0] * (1 + 1e-9),
                       r"column sums off by more than 1e-12: \[0\]"),
        "order": ("rows", slice(1, 3), lambda f: f["rows"][2:0:-1], "increasing"),
        "same_entry": ("cols", slice(None), lambda f: entry_twice(f["rows"], f["cols"]),
                       "increasing"),
        "col_range": ("cols", -1, lambda f: f["header"]["n_species"], "increasing"),
        "col_length": ("lengths", 0, lambda f: 0, "column length"),
    }

    @pytest.mark.parametrize("case", BROKEN_FILES)
    def test_load_rejects_what_build_never_writes(self, tmp_path, capsys, case):
        # each file keeps a valid checksum and header fields
        field, index, value, why = self.BROKEN_FILES[case]
        A = build_matrix(db_of("ACGTACGTAC", "GGCATTGA", "TTTACG"), 3)
        A.save(tmp_path / "A.rsm")
        line, payload = (tmp_path / "A.rsm").read_bytes().split(b"\n", 1)
        header = json.loads(line)
        del header["codes_bytes"]
        nnz, n = header["nnz"], header["n_species"]
        numbers = np.frombuffer(payload, dtype="<i8", count=3 * nnz + n).copy()
        fields = {"header": header, "rows": numbers[:nnz], "cols": numbers[nnz:2 * nnz],
                  "vals": numbers[2 * nnz:3 * nnz].view("<f8"), "lengths": numbers[3 * nnz:],
                  "codes": payload[8 * len(numbers):].split(b"\n")}
        fields[field][index] = value(fields)
        codes = b"\n".join(fields["codes"])
        header.setdefault("codes_bytes", len(codes))
        edited = numbers.tobytes() + codes
        assert edited != payload or case == "codes_bytes"
        header["checksum"] = hashlib.sha256(edited).hexdigest()
        broken = tmp_path / "broken.rsm"
        broken.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + edited)
        with pytest.raises(ValueError, match=f"^{re.escape(str(broken))}: .*{why}"):
            ReadSamplingMatrix.load(broken)
        reads = tmp_path / "reads.txt"
        reads.write_text("ACG\nGGC\n")
        est = tmp_path / "est.json"
        capsys.readouterr()
        assert main(["reconstruct", "--matrix", str(broken), "--reads", str(reads),
                     "--raw-reads", "--out", str(est)]) == 2
        assert str(broken) in capsys.readouterr().err
        assert not est.exists()

    def test_corruption_detected(self, tmp_path):
        A = build_matrix(db_of("ACGTACGT"), 3)
        path = tmp_path / "A.rsm"
        A.save(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            ReadSamplingMatrix.load(path)


_TRANS = str.maketrans("ACGT", "0123")
_BASE = {"A": 0, "C": 1, "G": 2, "T": 3}


def reference_build(db, read_len):
    """The big-int and dict loop build_matrix ran before packed keys: row
    codes in first-seen order, and the matrix from its COO triplets."""
    code_to_row, rows, cols, vals = {}, [], [], []

    def row_id(code):
        return code_to_row.setdefault(code, len(code_to_row))

    top = 4 ** (read_len - 1)
    for j, rec in enumerate(db.records):
        s, n = rec.sequence, rec.length
        if n >= read_len:
            v = int(s[:read_len].translate(_TRANS), 4)
            counts = {v + 1: 1}
            for k in range(1, n - read_len + 1):
                v = (v - _BASE[s[k - 1]] * top) * 4 + _BASE[s[k + read_len - 1]]
                counts[v + 1] = counts.get(v + 1, 0) + 1
            for code, c in counts.items():
                rows.append(row_id(code))
                cols.append(j)
                vals.append(c / (n - read_len + 1))
        else:
            tail_len = read_len - n
            base = int(s.translate(_TRANS), 4) * 4 ** tail_len
            for t in range(4 ** tail_len):
                rows.append(row_id(base + t + 1))
                cols.append(j)
                vals.append(4.0 ** -tail_len)
    matrix = sp.csc_matrix((np.array(vals), (np.array(rows), np.array(cols))),
                           shape=(len(code_to_row), len(db)))
    return list(code_to_row), matrix.tocsc(), np.array(db.lengths)


def assert_same_matrix(A, ref, tmp_path):
    codes, matrix, lengths = ref
    matrix.sort_indices()
    for attr in ("data", "indices", "indptr"):
        got, want = getattr(A.matrix, attr), getattr(matrix, attr)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert keys_to_codes(A.index.keys) == codes
    A.save(tmp_path / "got")
    ReadSamplingMatrix(A.read_length, matrix, KmerIndex(codes_to_keys(codes, A.read_length)),
                       lengths).save(tmp_path / "want")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


WORD_EDGES = (1, 2, 31, 32, 33, 63, 64, 65, 100, 150, 512)


def oracle_databases():
    """Seeded databases at lengths across the 32-base word edges, with
    uniform-tail species, repeated windows, and all-A and all-T words."""
    rng = np.random.default_rng(20261018)
    for case in range(121):
        L = WORD_EDGES[case % len(WORD_EDGES)]
        seqs = []
        for _ in range(int(rng.integers(1, 6))):
            kind = rng.integers(0, 6)
            n = L + int(rng.integers(0, 40))
            if kind == 0 and L > 4:                     # uniform tail
                n = L - int(rng.integers(1, 5))
            if kind == 1:                               # repeated windows
                motif = "".join("ACGT"[d] for d in rng.integers(0, 4, rng.integers(1, 5)))
                seqs.append((motif * n)[:n])
            elif kind == 2:                             # all-A / all-T words
                seqs.append(str(rng.choice(["A", "T"])) * n)
            elif kind == 3 and seqs:                    # windows shared with a species
                s = seqs[int(rng.integers(0, len(seqs)))]
                cut = int(rng.integers(0, len(s)))
                seqs.append(s[cut:] + "".join("ACGT"[d] for d in rng.integers(0, 4, n)))
            else:
                seqs.append("".join("ACGT"[d] for d in rng.integers(0, 4, n)))
        yield db_of(*dict.fromkeys(seqs)), L


class TestPackedKeyOracle:
    def test_matches_big_int_reference(self, tmp_path):
        cases = list(oracle_databases())
        assert len(cases) >= 100
        tails = 0
        for db, L in cases:
            A = build_matrix(db, L)
            assert_same_matrix(A, reference_build(db, L), tmp_path)
            np.testing.assert_array_equal(A.index.rows_of(A.index.keys), np.arange(A.n_rows))
            tails += any(n < L for n in db.lengths)
        assert tails >= 10

    @pytest.mark.parametrize("L", [40, 70])
    def test_matches_reference_across_blocks(self, tmp_path, L):
        # the key, fingerprint and sort passes work one block at a time:
        # windows over at least three blocks, a uniform-tail species in the
        # middle and a species sharing windows with another
        seqs = [r.sequence for r in generate_random_db(80, 700, seed=21).records]
        seqs[40] = seqs[40][:L - 3]
        seqs[10] = seqs[60][100:] + seqs[10][:100]
        db = db_of(*seqs)
        assert sum(max(n - L + 1, 0) for n in db.lengths) >= 3 * sequence_db._CACHE_BLOCK
        A = build_matrix(db, L)
        assert A.n_rows < A.matrix.nnz          # some rows lie in two columns
        assert_same_matrix(A, reference_build(db, L), tmp_path)
        np.testing.assert_array_equal(A.index.rows_of(A.index.keys), np.arange(A.n_rows))

    @pytest.mark.parametrize("fingerprint", [
        lambda keys: np.zeros(len(keys), dtype=np.uint64),
        lambda keys: keys[:, -1] & np.uint64(3),
    ], ids=["constant", "two_low_bits"])
    def test_forced_fingerprint_collisions(self, tmp_path, monkeypatch, fingerprint):
        monkeypatch.setattr(sequence_db, "_fingerprint", fingerprint)
        rng = np.random.default_rng(5)
        for L in (3, 32, 33, 70):
            seqs = ["".join("ACGT"[d] for d in rng.integers(0, 4, L + 30)) for _ in range(4)]
            db = db_of(*seqs, seqs[0][:L - 2] if L > 2 else "G", "A" * (L + 5))
            A = build_matrix(db, L)
            assert_same_matrix(A, reference_build(db, L), tmp_path)
            np.testing.assert_array_equal(A.index.rows_of(A.index.keys), np.arange(A.n_rows))
            present = set(keys_to_codes(A.index.keys))
            absent = sorted(set(range(1, 4 ** L + 1, max(1, 4 ** L // 997))) - present)
            assert (A.index.rows_of(codes_to_keys(absent[:50], L)) == -1).all()
            loaded = tmp_path / "A.rsm"
            A.save(loaded)
            B = ReadSamplingMatrix.load(loaded)
            np.testing.assert_array_equal(B.index.rows_of(A.index.keys[::-1]),
                                          np.arange(A.n_rows)[::-1])

    # sha256 of save() for fixed databases, computed with the big-int builder;
    # the readprofiler-matrix-v1 bytes must not drift
    PINNED_DB = ("ACGTTGCAAGCTTAGCCGATCGGATACCTTAGGCATGCAATCGTACGGTACCATG",
                 "TTGACCGGTAACGTCAGTCCATGGCATGCTAGCTAGGATCCGTAAGCT",
                 "GGGGCCCCAAAATTTTACGTACGTTGCATGCAAGGCCT",
                 "AC")

    @pytest.mark.parametrize("n_seqs,L,digest", [
        (4, 3, "b36746ead5871b0f67a2cffc0d1f7be27702e59ce44735f66b91b98265923164"),
        (3, 40, "246b881e3d5a7c62bc61c6770ac927f26c0abb4995cf6e8e2a1cd75fa988849e"),
    ])
    def test_pinned_matrix_bytes(self, tmp_path, n_seqs, L, digest):
        db = db_of(*self.PINNED_DB[:n_seqs])
        assert min(db.lengths) < L              # each case has a uniform-tail species
        build_matrix(db, L).save(tmp_path / "A.rsm")
        assert hashlib.sha256((tmp_path / "A.rsm").read_bytes()).hexdigest() == digest

    def test_timed_paths_never_convert_codes(self, tmp_path, monkeypatch):
        # decimal codes are for the matrix file only: the profile and raw-read
        # paths work on packed keys from end to end
        def refuse(*args):
            raise AssertionError("a k-mer code conversion on a timed path")

        for module in list(sys.modules.values()):
            if (module.__name__ or "").startswith("readprofiler"):
                for name in ("keys_to_codes", "codes_to_keys", "keys_to_decimal",
                             "decimal_to_keys"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, refuse)
        db = generate_random_db(300, 200, seed=12)
        A = build_matrix(db, 40)
        gram_lambda_min(A)
        mix = sample_power_law_mixture(300, 10, 1.0, seed=13)
        rc = simulate_reads(A, mix.full_vector(300), 20000, seed=14)
        y = empirical_frequencies(rc, A).y
        divide_and_conquer(A, y, DncParams(seed=15))
        reads = tmp_path / "reads.txt"
        reads.write_text("".join(r.sequence[i:i + 45] + "\n"
                                 for r in db.records[:50] for i in (0, 7, 7, 100)))
        emp = empirical_frequencies(read_counts_from_reads(reads, 40), A)
        assert emp.total == 200 and emp.unmapped_reads == 0

    def test_load_rejects_other_tail_convention(self, tmp_path):
        build_matrix(db_of("ACGTACGT", "AC"), 3).save(tmp_path / "A.rsm")
        header, payload = (tmp_path / "A.rsm").read_bytes().split(b"\n", 1)
        assert json.loads(header)["tail_convention"] == "uniform-tail"
        fields = json.loads(header) | {"tail_convention": "zero-tail"}
        (tmp_path / "B.rsm").write_bytes(json.dumps(fields).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="tail convention 'zero-tail'"):
            ReadSamplingMatrix.load(tmp_path / "B.rsm")


class TestGramCache:
    CASES = [
        (("ACGTACGTAC", "GGCATTGA", "TTTAGC"), 3),
        (("ACGTACGTAC", "GG", "TTTAGC"), 4),          # uniform-tail column
        (("AACA", "ACAA", "GGGG"), 2),                # duplicated columns
    ]

    @pytest.mark.parametrize("seqs,L", CASES)
    def test_gram_is_the_sparse_product(self, seqs, L):
        A = build_matrix(db_of(*seqs), L)
        want = (A.matrix.T @ A.matrix).tocsr()
        got = A.gram
        assert got is A.gram
        for attr in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
        with pytest.raises(AttributeError):
            A.gram = want

    def test_block_gram(self):
        cols = np.array([2, 0])
        # no shared 4-mer: one species per row, A'A takes nnz(A) products
        A = build_matrix(db_of("ACGTACGTAC", "GGCATTGA", "TTTAGC"), 4)
        G = A.block_gram(cols)
        assert A._gram is not None              # formed, cached and sliced
        assert (G != A.gram[cols][:, cols]).nnz == 0
        # every species holds all four 1-mers: 4 * 3**2 products > 2 * 12
        B = build_matrix(db_of("ACGT", "TGCA", "GATC"), 1)
        sub = B.matrix[:, cols]
        for _ in range(2):
            assert (B.block_gram(cols) != sub.T @ sub).nnz == 0
            assert B._gram is None              # declining caches nothing
        B._gram = 2 * B.gram                    # a cached A'A is sliced
        assert (B.block_gram(cols) != 2 * (sub.T @ sub)).nnz == 0

    @pytest.mark.parametrize("seqs,L", CASES)
    def test_cache_never_saved(self, tmp_path, seqs, L):
        A = build_matrix(db_of(*seqs), L)
        before, after = tmp_path / "before", tmp_path / "after"
        A.save(before)
        A.gram
        A.save(after)
        assert before.read_bytes() == after.read_bytes()

    def test_dnc_same_after_load_and_pickle(self, tmp_path):
        A = build_matrix(generate_random_db(40, 30, seed=3), 6)
        mix = sample_power_law_mixture(40, 5, 1.0, seed=4)
        y = empirical_frequencies(simulate_reads(A, mix.full_vector(40), 5000, 5), A).y
        params = DncParams(block_size=7, k_final=3, seed=6)
        A.save(tmp_path / "A.rsm")
        loaded = ReadSamplingMatrix.load(tmp_path / "A.rsm")
        want = divide_and_conquer(A, y, params).to_dict()
        empty = pickle.dumps(loaded)
        A.gram
        # pickled both before and after the cache is filled
        for B in (loaded, pickle.loads(empty), pickle.loads(pickle.dumps(A))):
            assert divide_and_conquer(B, y, params).to_dict() == want


class TestFrequencyConversions:
    def test_equal_lengths_identity(self):
        x = FrequencyVector([0.2, 0.3, 0.5], "species", normalized=True)
        np.testing.assert_allclose(reweight_to_dna(x, [7, 7, 7]).values, x.values,
                                   atol=1e-15)

    def test_reweight_hand_example(self):
        x = FrequencyVector([0.5, 0.5], "species", normalized=True)
        np.testing.assert_allclose(reweight_to_dna(x, [100, 200]).values,
                                   [1 / 3, 2 / 3], atol=1e-15)

    def test_unweight_hand_example(self):
        xp = FrequencyVector([1 / 3, 2 / 3], "dna", normalized=True)
        np.testing.assert_allclose(unweight_from_dna(xp, [100, 200]).values,
                                   [0.5, 0.5], atol=1e-15)

    def test_point_mass_invariant(self):
        x = FrequencyVector([1.0, 0.0, 0.0], "species", normalized=True)
        np.testing.assert_array_equal(reweight_to_dna(x, [10, 20, 30]).values, x.values)

    @settings(max_examples=50)
    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8),
           st.lists(st.integers(1, 5000), min_size=2, max_size=8))
    def test_roundtrip_identity(self, raw, lengths):
        n = min(len(raw), len(lengths))
        v = np.array(raw[:n])
        x = FrequencyVector(v / v.sum(), "species").normalize()
        back = unweight_from_dna(reweight_to_dna(x, lengths[:n]), lengths[:n])
        np.testing.assert_allclose(back.values, x.values, atol=1e-12)

    def test_all_zero_rejected(self):
        x = FrequencyVector([0.0, 0.0], "species")
        with pytest.raises(ValueError):
            reweight_to_dna(x, [5, 5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FrequencyVector([0.5, bad], "species")


class TestExpectedReadDistribution:
    """A @ x', the read distribution of dna-weighted frequencies x'."""

    def test_basis_vector_returns_column(self):
        A = build_matrix(db_of("ACGTACGTAC", "GGCATTGA"), 3)
        e0 = FrequencyVector([1.0, 0.0], "dna", normalized=True)
        np.testing.assert_array_equal(A.matrix @ e0.values, A.matrix.toarray()[:, 0])

    def test_disjoint_windows_hand_example(self):
        A = build_matrix(db_of("ACGT", "TGCA"), 2)
        xp = FrequencyVector([0.5, 0.5], "dna", normalized=True)
        dist = A.matrix @ xp.values
        assert A.n_rows == 6
        np.testing.assert_allclose(dist, 1 / 6, atol=1e-15)

    def test_sums_to_one(self):
        A = build_matrix(db_of("ACGTACGTAC", "GG", "TTTAGC"), 4)
        rng = np.random.default_rng(0)
        xp = FrequencyVector(rng.random(3), "dna").normalize()
        assert abs((A.matrix @ xp.values).sum() - 1.0) <= 1e-12
