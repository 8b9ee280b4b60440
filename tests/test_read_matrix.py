import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from readprofiler.experiments import generate_random_db
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
from readprofiler.sequence_db import SequenceDatabase, lex_decode


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
    for rid, code in enumerate(A.row_codes):
        out[code - 1] = compact[rid]
    return out


class TestBuildMatrix:
    def test_single_sequence_windows(self):
        A = build_matrix(db_of("ACGT"), 2)
        kmers = {lex_decode(c, 2) for c in A.row_codes}
        assert kmers == {"AC", "CG", "GT"}
        np.testing.assert_allclose(A.matrix.toarray().ravel(), [1 / 3] * 3)

    def test_repeated_kmer_single_row(self):
        A = build_matrix(db_of("AAAA"), 2)
        assert A.n_rows == 1
        assert lex_decode(A.row_codes[0], 2) == "AA"
        assert A.matrix.toarray()[0, 0] == 1.0

    def test_short_sequence_uniform_tail(self):
        A = build_matrix(db_of("AC"), 3)
        kmers = {lex_decode(c, 3) for c in A.row_codes}
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
        assert a1.row_codes == a2.row_codes
        assert (a1.matrix != a2.matrix).nnz == 0


def A_db(seqs):
    return db_of(*seqs)


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        A = build_matrix(db_of("ACGTACGTAC", "GG", "TTTAGC"), 4)
        path = tmp_path / "A.rsm"
        A.save(path)
        B = ReadSamplingMatrix.load(path)
        assert B.read_length == A.read_length
        assert B.row_codes == A.row_codes
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
        assert type(A.row_codes) is list
        assert A.code_to_row == {c: i for i, c in enumerate(A.row_codes)}
        built, rebuilt = tmp_path / "built", tmp_path / "rebuilt"
        A.save(built)
        ReadSamplingMatrix(A.read_length, A.matrix, A.row_codes, A.col_lengths,
                           A.tail_convention).save(rebuilt)
        assert built.read_bytes() == rebuilt.read_bytes()
        B = ReadSamplingMatrix.load(built)
        assert B.code_to_row == A.code_to_row
        assert list(B.code_to_row) == list(A.code_to_row)
        B.save(tmp_path / "reloaded")
        assert (tmp_path / "reloaded").read_bytes() == built.read_bytes()

    def test_corruption_detected(self, tmp_path):
        A = build_matrix(db_of("ACGTACGT"), 3)
        path = tmp_path / "A.rsm"
        A.save(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            ReadSamplingMatrix.load(path)


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

    def test_gram_if_cheap(self):
        # no shared 4-mer: one species per row, A'A takes nnz(A) products
        A = build_matrix(db_of("ACGTACGTAC", "GGCATTGA", "TTTAGC"), 4)
        assert A.gram_if_cheap() is A.gram
        # every species holds all four 1-mers: 4 * 3**2 products > 2 * 12
        B = build_matrix(db_of("ACGT", "TGCA", "GATC"), 1)
        assert B.gram_if_cheap() is None
        assert B.gram_if_cheap() is None        # declining caches nothing
        gram = B.gram
        assert B.gram_if_cheap() is gram        # a cached A'A is returned

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
    def test_basis_vector_returns_column(self):
        A = build_matrix(db_of("ACGTACGTAC", "GGCATTGA"), 3)
        e0 = FrequencyVector([1.0, 0.0], "dna", normalized=True)
        np.testing.assert_array_equal(A.expected_read_distribution(e0),
                                      A.matrix.toarray()[:, 0])

    def test_disjoint_windows_hand_example(self):
        A = build_matrix(db_of("ACGT", "TGCA"), 2)
        xp = FrequencyVector([0.5, 0.5], "dna", normalized=True)
        dist = A.expected_read_distribution(xp)
        assert A.n_rows == 6
        np.testing.assert_allclose(dist, 1 / 6, atol=1e-15)

    def test_sums_to_one(self):
        A = build_matrix(db_of("ACGTACGTAC", "GG", "TTTAGC"), 4)
        rng = np.random.default_rng(0)
        xp = FrequencyVector(rng.random(3), "dna").normalize()
        assert abs(A.expected_read_distribution(xp).sum() - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        A = build_matrix(db_of("ACGT"), 2)
        xp = FrequencyVector([0.5, 0.5], "dna", normalized=True)
        with pytest.raises(ValueError):
            A.expected_read_distribution(xp)
