import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from test_identifiability import component_sizes

from readprofiler import identifiability
from readprofiler.experiments import generate_random_db
from readprofiler.identifiability import split_components
from readprofiler.metrics import (
    evaluate,
    gram_lambda_min,
    l2_error_bound,
    l2_metric,
    mahalanobis_error_bound,
    mahalanobis_metric,
)
from readprofiler.mixture_sim import empirical_frequencies, sample_power_law_mixture, \
    simulate_reads
from readprofiler.nnls import euclidean_norm, nnls_solve, residual_norm
from readprofiler.read_matrix import FrequencyVector, build_matrix, reweight_to_dna
from readprofiler.sequence_db import SequenceDatabase


def db_of(*seqs):
    return SequenceDatabase.from_sequences(list(seqs))


class TestL2Metric:
    def test_zero_on_identical(self):
        assert l2_metric([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_orthogonal_point_masses(self):
        assert l2_metric([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.sqrt(2))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.random(6), rng.random(6)
            assert l2_metric(a, b) == l2_metric(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l2_metric([1.0], [0.5, 0.5])


class TestMahalanobisMetric:
    def test_zero_on_identical(self):
        A = build_matrix(db_of("ACGTAC", "GGCATT"), 3)
        assert mahalanobis_metric([0.5, 0.5], [0.5, 0.5], A) == 0.0

    def test_identical_columns_collapse_distance(self):
        # swapping mass between duplicate-column species is invisible
        A = build_matrix(db_of("AACA", "ACAA", "GGGG"), 2)
        x = [0.6, 0.1, 0.3]
        x_hat = [0.1, 0.6, 0.3]
        assert mahalanobis_metric(x, x_hat, A) <= 1e-12
        assert l2_metric(x, x_hat) > 0.5

    def test_orthonormal_columns_equal_l2(self):
        # single-k-mer species with disjoint rows: columns are orthonormal
        A = build_matrix(db_of("AAAA", "GGGG"), 2)
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = rng.random(2), rng.random(2)
            assert mahalanobis_metric(a, b, A) == pytest.approx(l2_metric(a, b))

    def test_never_materializes_gram_identity(self):
        # check the ||A(x - x_hat)|| identity against explicit x' D x
        A = build_matrix(db_of("ACGTACAG", "GGCATTGG", "TTACGGAT"), 3)
        D = (A.matrix.T @ A.matrix).toarray()
        rng = np.random.default_rng(2)
        a, b = rng.random(3), rng.random(3)
        direct = math.sqrt((a - b) @ D @ (a - b))
        assert mahalanobis_metric(a, b, A) == pytest.approx(direct, rel=1e-12)

    def test_sandwiched_by_extreme_eigenvalues(self):
        A = build_matrix(db_of("ACGTACAG", "GGCATTGG", "TTACGGAT", "CCGGAACC"), 3)
        gram = (A.matrix.T @ A.matrix).toarray()
        evals = scipy.linalg.eigvalsh(gram)
        lo, hi = math.sqrt(max(evals[0], 0.0)), math.sqrt(evals[-1])
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.random(4), rng.random(4)
            l2 = l2_metric(a, b)
            ma = mahalanobis_metric(a, b, A)
            assert lo * l2 - 1e-12 <= ma <= hi * l2 + 1e-12

    def test_permutation_equivariance(self):
        seqs = ["ACGTACAG", "GGCATTGG", "TTACGGAT"]
        A = build_matrix(db_of(*seqs), 3)
        perm = [2, 0, 1]
        A_p = build_matrix(db_of(*[seqs[i] for i in perm]), 3)
        rng = np.random.default_rng(4)
        a, b = rng.random(3), rng.random(3)
        assert mahalanobis_metric(a, b, A) == pytest.approx(
            mahalanobis_metric(a[perm], b[perm], A_p), rel=1e-12)


def reference_mahalanobis_metric(x, x_hat, A):
    """The metric before it skipped the columns where x and x_hat agree:
    the product over all N columns."""
    d = np.asarray(x, dtype=float) - np.asarray(x_hat, dtype=float)
    return euclidean_norm(A.matrix @ d)


class TestMahalanobisMatchesReference:
    def test_bit_for_bit(self):
        # family members share most k-mers, so a row sums over many columns
        # and a change of summation order would show
        rng = np.random.default_rng(5)
        founder = "".join("ACGT"[b] for b in rng.integers(0, 4, 60))
        family = [founder[:p] + "ACGT"[(("ACGT".index(founder[p])) + 1) % 4]
                  + founder[p + 1:] for p in range(0, 60, 3)]
        cases = [build_matrix(db_of(*family), 8),
                 build_matrix(generate_random_db(300, 100, seed=6), 12)]
        for A in cases:
            n = A.n_species
            x = sample_power_law_mixture(n, n // 4, 1.0, seed=7).full_vector(n).values
            x_hat = x.copy()
            x_hat[rng.choice(n, n // 3, replace=False)] = rng.random(n // 3) / n
            x_hat[x_hat < 0.5 / n] = 0.0      # zero weight in x, x_hat or both
            for a, b in ((x, x_hat), (x_hat, x), (x, x), (x, np.zeros(n))):
                assert mahalanobis_metric(a, b, A) == reference_mahalanobis_metric(a, b, A)
        assert mahalanobis_metric(x, x, A) == 0.0


class TestBounds:
    def test_mahalanobis_bound_hand_value(self):
        # R=4, delta=1/e: (2 + 1) / 2
        assert mahalanobis_error_bound(4, 1.0 / math.e) == pytest.approx(1.5)

    def test_l2_bound_hand_value(self):
        assert l2_error_bound(10 ** 6, 0.5, 1.0) == pytest.approx(2.8326e-3, rel=1e-4)

    def test_unit_eigenvalue_matches_mahalanobis_bound(self):
        assert l2_error_bound(1234, 0.3, 1.0) == mahalanobis_error_bound(1234, 0.3)

    def test_scales_inverse_sqrt_r(self):
        for r in (100, 10_000):
            assert mahalanobis_error_bound(4 * r, 0.5) == pytest.approx(
                mahalanobis_error_bound(r, 0.5) / 2)

    def test_bound_curve_decreasing_in_r(self):
        grid = [10 ** 4, 10 ** 5, 10 ** 6]
        vals = [mahalanobis_error_bound(r, 0.5) for r in grid]
        assert vals == sorted(vals, reverse=True)

    def test_degenerate_lambda_diverges(self):
        assert l2_error_bound(100, 0.5, 0.0) == math.inf
        assert l2_error_bound(100, 0.5, 1e-15) == math.inf

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            mahalanobis_error_bound(100, 0.0)
        with pytest.raises(ValueError):
            l2_error_bound(100, 1.0, 0.5)


class TestLambdaMin:
    def test_orthonormal_columns_unit(self):
        A = build_matrix(db_of("AAAA", "GGGG"), 2)
        assert gram_lambda_min(A) == pytest.approx(1.0)

    def test_duplicate_columns_zero(self):
        A = build_matrix(db_of("AACA", "ACAA"), 2)
        assert gram_lambda_min(A) <= 1e-12

    def test_nonnegative_and_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            seqs = set()
            while len(seqs) < 6:
                seqs.add("".join("ACGT"[d] for d in rng.integers(0, 4, 9)))
            A = build_matrix(db_of(*sorted(seqs)), 3)
            lam = gram_lambda_min(A)
            assert lam >= 0.0
            sv = scipy.linalg.svdvals(A.matrix.toarray())
            assert lam == pytest.approx(sv[-1] ** 2, abs=1e-10)


def lambda_min_per_component_reference(A):
    """The per-component loop gram_lambda_min ran before it formed A'A once:
    a column slice and a sparse product per component, then a dense eigvalsh."""
    singles, multi = split_components(A.gram)
    lam = math.inf
    for cols in [singles[i:i + 1] for i in range(len(singles))] + multi:
        sub = A.matrix[:, cols]
        gram = np.asarray((sub.T @ sub).todense())
        evals = scipy.linalg.eigvalsh(gram)
        lam = min(lam, float(evals[0]))
    return max(lam, 0.0)


def random_seq(rng, length):
    return "".join("ACGT"[d] for d in rng.integers(0, 4, length))


def random_db(rng, n, lo, hi):
    seqs = set()
    while len(seqs) < n:
        seqs.add(random_seq(rng, int(rng.integers(lo, hi + 1))))
    return db_of(*sorted(seqs))


def rotations_db(rng):
    """Rotations of one cyclic word, each closed with its first L-1 bases,
    share one window multiset: their columns are equal, so lambda_min is 0."""
    L = int(rng.integers(2, 5))
    while True:
        word = random_seq(rng, int(rng.integers(5, 11)))
        if all(word[r:] + word[:r] != word for r in range(1, len(word))):
            break
    shifts = rng.choice(np.arange(1, len(word)), size=int(rng.integers(1, 3)), replace=False)
    rotations = [word[r:] + word[:r] for r in (0, *shifts)]
    seqs = {rot + rot[:L - 1] for rot in rotations}
    while len(seqs) < len(rotations) + 3:
        seqs.add(random_seq(rng, int(rng.integers(L, 10))))
    return db_of(*sorted(seqs)), L


def lambda_oracle_instances():
    rng = np.random.default_rng(20261018)
    for _ in range(40):                          # every component a singleton
        L = int(rng.integers(12, 17))
        yield "singletons", random_db(rng, int(rng.integers(3, 31)), 20, 60), L
    for _ in range(40):                          # multi-column components
        yield "multi", random_db(rng, int(rng.integers(4, 16)), 6, 12), int(rng.integers(2, 5))
    for _ in range(40):                          # duplicated-window columns
        db, L = rotations_db(rng)
        yield "duplicated", db, L
    for _ in range(40):                          # uniform-tail columns
        L = int(rng.integers(4, 8))
        yield "short", random_db(rng, int(rng.integers(3, 12)), L - 3, L + 4), L
    yield "many_singletons", random_db(rng, 600, 40, 40), 20


class TestLambdaMinOracle:
    def test_equals_per_component_loop(self):
        seen = dict.fromkeys(("singletons", "multi", "duplicated", "short"), 0)
        count = 0
        for kind, db, L in lambda_oracle_instances():
            A = build_matrix(db, L)
            sizes = component_sizes(A)
            ref = lambda_min_per_component_reference(A)
            assert gram_lambda_min(A) == ref, (kind, count)
            count += 1
            if kind == "singletons":
                seen[kind] += max(sizes) == 1
            elif kind == "multi":
                seen[kind] += max(sizes) > 1
            elif kind == "duplicated":
                seen[kind] += ref <= 1e-12
            elif kind == "short":
                seen[kind] += any(n < L for n in db.lengths)
            else:
                assert sizes.count(1) >= 500
        assert count >= 150
        assert min(seen.values()) >= 30, seen

    def test_cap_applies_to_largest_multi_column_component(self, monkeypatch):
        db = db_of("AACA", "ACAA", "CAAC", "GGTT", "TTTT", "CGCG")
        A = build_matrix(db, 2)
        sizes = component_sizes(A)
        largest = max(sizes)
        assert 1 < largest < A.n_species and sizes.count(1) >= 1
        ref = lambda_min_per_component_reference(A)
        monkeypatch.setattr(identifiability, "GRAM_CAP", largest)
        assert gram_lambda_min(A) == ref
        monkeypatch.setattr(identifiability, "GRAM_CAP", largest - 1)
        with pytest.raises(ValueError, match=f"cap {largest - 1}"):
            gram_lambda_min(A)

    def test_cap_ignores_singleton_components(self, monkeypatch):
        A = build_matrix(db_of("AAAA", "GGGG", "CCCC", "TTTT"), 2)
        monkeypatch.setattr(identifiability, "GRAM_CAP", 1)
        assert gram_lambda_min(A) == lambda_min_per_component_reference(A) == 1.0


class TestProjectionContraction:
    def test_mahalanobis_error_below_read_noise(self):
        # for the nonnegative l2 estimator, ||A(x_hat - x*)|| <= ||y - y*||
        db = db_of("ACGTACGGTT", "GGCATTGACC", "TTTCGATTAG")
        A = build_matrix(db, 3)
        x_true = FrequencyVector([0.5, 0.3, 0.2], "species", normalized=True)
        y_star = A.matrix @ reweight_to_dna(x_true, A.col_lengths).values
        for seed in range(5):
            emp = empirical_frequencies(simulate_reads(A, x_true, 20000, seed), A)
            sol = nnls_solve(A.matrix, emp.y)
            x_hat = sol.x / sol.x.sum()
            ma = mahalanobis_metric(reweight_to_dna(x_true, A.col_lengths).values,
                                    x_hat, A)
            noise = np.linalg.norm(emp.y - y_star)
            assert ma <= noise + 1e-6


class TestEvaluate:
    def test_bundles_consistent_values(self):
        A = build_matrix(db_of("ACGTACAG", "GGCATTGG"), 3)
        x = FrequencyVector([0.7, 0.3], "species", normalized=True)
        x_hat = FrequencyVector([0.6, 0.4], "species", normalized=True)
        result = evaluate(x, x_hat, A, n_reads=10000, delta=0.5)
        assert result.l2_error == l2_metric(x, x_hat)
        assert result.mahalanobis_error == mahalanobis_metric(x, x_hat, A)
        assert result.mahalanobis_bound == mahalanobis_error_bound(10000, 0.5)
        assert result.lambda_min is not None
        assert result.l2_bound == l2_error_bound(10000, 0.5, result.lambda_min)

    def test_serializes_infinity(self):
        A = build_matrix(db_of("AACA", "ACAA"), 2)
        x = FrequencyVector([0.5, 0.5], "species", normalized=True)
        result = evaluate(x, x, A, n_reads=100)
        assert result.l2_bound == math.inf
        assert result.to_dict()["l2_bound"] == "inf"


def long_vector_norms() -> list[str]:
    """Residual norm, both metrics on a K = 802,000-row matrix, as hex: long
    enough that OpenBLAS splits a BLAS dot product across threads."""
    A = build_matrix(generate_random_db(2000, 500, seed=40), 100)
    rng = np.random.default_rng(41)
    x, x_hat = rng.random(A.n_species), rng.random(A.n_species)
    y = rng.random(A.n_rows)
    return [v.hex() for v in (residual_norm(A.matrix, x, y),
                              mahalanobis_metric(x, x_hat, A), l2_metric(y, 0 * y))]


def test_norms_do_not_depend_on_blas_threads():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_metrics import long_vector_norms; print(long_vector_norms())")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    one_thread = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                                env=env, capture_output=True, text=True, check=True)
    assert one_thread.stdout.strip() == str(long_vector_norms())
