import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from readprofiler import nnls
from readprofiler.nnls import nnls_from_gram, nnls_solve, normalize_simplex


def active_set_oracle(A, y):
    """Brute force: try every subset of columns as the positive support,
    solve the equality-constrained least squares, keep feasible KKT points."""
    n = A.shape[1]
    best_x, best_obj = np.zeros(n), np.inf
    for mask in itertools.product([False, True], repeat=n):
        sel = np.array(mask)
        x = np.zeros(n)
        if sel.any():
            sol, *_ = np.linalg.lstsq(A[:, sel], y, rcond=None)
            if np.any(sol < -1e-12):
                continue
            x[sel] = np.clip(sol, 0.0, None)
        g = A.T @ (A @ x - y)
        if np.any(g < -1e-7):
            continue
        obj = np.linalg.norm(A @ x - y)
        if obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
    return best_x, best_obj


class TestNnlsSolve:
    def test_identity_design(self):
        sol = nnls_solve(np.eye(2), np.array([0.3, 0.7]))
        np.testing.assert_allclose(sol.x, [0.3, 0.7], atol=1e-12)
        assert sol.residual_norm <= 1e-12
        assert sol.converged

    def test_active_constraint_hand_example(self):
        # KKT by hand: x = (0.4, 0), gradient (0, +0.6)
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        sol = nnls_solve(A, np.array([1.0, 0.0]))
        np.testing.assert_allclose(sol.x, [0.4, 0.0], atol=1e-12)
        g = A.T @ (A @ sol.x - np.array([1.0, 0.0]))
        assert g[1] >= 0.59

    def test_consistent_system_recovered(self):
        rng = np.random.default_rng(0)
        A = rng.random((12, 5))
        x_true = np.abs(rng.random(5))
        sol = nnls_solve(A, A @ x_true)
        np.testing.assert_allclose(sol.x, x_true, atol=1e-8)

    def test_kkt_certificate_reported(self):
        rng = np.random.default_rng(1)
        A = rng.random((20, 8))
        y = rng.random(20)
        sol = nnls_solve(A, y)
        assert sol.converged
        assert sol.kkt_residual <= 1e-8
        assert np.all(sol.x >= 0)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            m, n = int(rng.integers(3, 12)), int(rng.integers(2, 7))
            A = rng.random((m, n))
            y = rng.random(m)
            sol = nnls_solve(A, y)
            x_ref, obj_ref = active_set_oracle(A, y)
            assert abs(sol.residual_norm - obj_ref) <= 1e-8
            np.testing.assert_allclose(sol.x, x_ref, atol=1e-6)

    def test_beats_clipped_least_squares(self):
        # cheap feasible competitor: unconstrained LS clipped at zero
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.random((15, 6))
            y = rng.random(15)
            sol = nnls_solve(A, y)
            clipped = np.clip(np.linalg.lstsq(A, y, rcond=None)[0], 0.0, None)
            assert sol.residual_norm <= np.linalg.norm(A @ clipped - y) + 1e-10

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        A = rng.random((10, 5))
        y = rng.random(10)
        perm = rng.permutation(5)
        x1 = nnls_solve(A, y).x
        x2 = nnls_solve(A[:, perm], y).x
        np.testing.assert_allclose(x2, x1[perm], atol=1e-8)

    def test_rank_deficient_flagged_and_valid(self):
        A = np.array([[1.0, 1.0, 2.0], [2.0, 2.0, 1.0], [1.0, 1.0, 0.5]])
        y = np.array([1.0, 0.5, 0.2])
        sol = nnls_solve(A, y)
        g = A.T @ (A @ sol.x - y)
        assert np.all(g >= -1e-7)
        assert np.all(sol.x >= 0)

    def test_sparse_input(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(5)
        A = rng.random((12, 4))
        y = rng.random(12)
        dense = nnls_solve(A, y)
        sparse = nnls_solve(sp.csc_matrix(A), y)
        np.testing.assert_allclose(sparse.x, dense.x, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nnls_solve(np.eye(3), np.ones(2))

    def test_negative_y_rejected(self):
        with pytest.raises(ValueError):
            nnls_solve(np.eye(2), np.array([1.0, -0.1]))

    def test_gram_entry_point_matches(self):
        rng = np.random.default_rng(6)
        A = rng.random((9, 4))
        y = rng.random(9)
        direct = nnls_solve(A, y)
        via_gram = nnls_from_gram(A.T @ A, A.T @ y, yty=float(y @ y))
        np.testing.assert_allclose(via_gram.x, direct.x, atol=1e-12)
        assert abs(via_gram.residual_norm - direct.residual_norm) <= 1e-10

    def test_degenerate_exit_keeps_feasible_point(self, monkeypatch):
        # a passive solve whose z always has a -inf entry never lets the step
        # drop a column, so the inner loop reaches its degenerate-cycling exit
        def never_positive(G, b, passive):
            z = np.ones(int(passive.sum()))
            z[-1] = -np.inf
            return z, False

        monkeypatch.setattr(nnls, "_solve_passive", never_positive)
        rng = np.random.default_rng(8)
        A = rng.random((10, 4))
        with np.errstate(invalid="ignore"):  # the step computes 0 * inf
            sol = nnls_from_gram(A.T @ A, A.T @ rng.random(10))
        assert np.all(np.isfinite(sol.x))
        assert np.all(sol.x >= 0)
        assert not sol.converged


def kkt_certificate(G, b, x):
    """max(-min gradient, |gradient| on the free set), as the solver defines it."""
    g = G @ x - b
    free = x > nnls.X_TOL
    return max(float(max(0.0, -g.min())) if len(b) else 0.0,
               float(np.abs(g[free]).max()) if free.any() else 0.0)


class TestNnlsExitProperties:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
           m=st.integers(1, 12), shape=st.sampled_from(["random", "duplicated", "zero"]),
           scale=st.sampled_from([1e-6, 1.0, 1e3]), signed_y=st.booleans(),
           max_iter=st.sampled_from([None, 1, 2, 5]))
    def test_every_exit_feasible_with_consistent_certificate(
            self, seed, n, m, shape, scale, signed_y, max_iter):
        rng = np.random.default_rng(seed)
        A = scale * rng.random((m, n))           # m < n gives a rank-deficient Gram
        if shape == "duplicated" and n > 1:
            A[:, rng.integers(n)] = A[:, rng.integers(n)]
        elif shape == "zero":
            A[:, rng.integers(n)] = 0.0
        y = rng.standard_normal(m) if signed_y else rng.random(m)
        G, b = A.T @ A, A.T @ y
        sol = nnls_from_gram(G, b, yty=float(y @ y), max_iter=max_iter)
        assert sol.x.shape == (n,)
        assert np.all(np.isfinite(sol.x))
        assert np.all(sol.x >= 0)
        assert sol.kkt_residual == kkt_certificate(G, b, sol.x)
        if sol.converged:
            assert sol.kkt_residual <= nnls.DEFAULT_KKT_TOL


class TestNormalizeSimplex:
    def test_basic(self):
        np.testing.assert_array_equal(normalize_simplex([2.0, 2.0]).values, [0.5, 0.5])

    def test_zeros_preserved(self):
        np.testing.assert_array_equal(normalize_simplex([0.0, 3.0, 0.0]).values,
                                      [0.0, 1.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        v = rng.random(6)
        for c in (0.1, 3.0, 1e6):
            np.testing.assert_allclose(normalize_simplex(c * v).values,
                                       normalize_simplex(v).values, atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_simplex([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_simplex([-1.0, 2.0])
