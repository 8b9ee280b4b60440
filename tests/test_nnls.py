import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from readprofiler import nnls
from readprofiler.nnls import nnls_from_gram, nnls_solve, residual_norm
from readprofiler.read_matrix import FrequencyVector


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
        via_gram = nnls_from_gram(A.T @ A, A.T @ y)
        np.testing.assert_allclose(via_gram.x, direct.x, atol=1e-12)

    def test_residual_only_from_A(self):
        # the Gram system holds no residual; nnls_solve's comes from A itself
        import scipy.sparse as sp

        rng = np.random.default_rng(9)
        for m, n in ((9, 4), (30, 12), (3, 8)):
            A = rng.random((m, n))
            y = rng.random(m)
            assert nnls_from_gram(A.T @ A, A.T @ y).residual_norm is None
            for design in (A, sp.csc_matrix(A)):
                sol = nnls_solve(design, y)
                assert sol.residual_norm == residual_norm(design, sol.x, y)

    def test_degenerate_exit_keeps_feasible_point(self, monkeypatch):
        # a passive solve whose z always has a -inf entry never lets the step
        # drop a column, so the inner loop reaches its degenerate-cycling exit
        def never_positive(G, b, P):
            z = np.ones(len(P))
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


def reference_nnls_from_gram(G, b, kkt_tol=nnls.DEFAULT_KKT_TOL, max_iter=None):
    """The solver before it took the gradient from the passive rows: every
    step forms b - G @ x over all n columns, and each passive block goes
    through scipy's ``cho_factor`` and ``cho_solve``. It reports no residual
    and has the solver's default budget of ``20 * n + 200`` iterations."""
    def solve_passive(passive):
        Gp = G[np.ix_(passive, passive)]
        bp = b[passive]
        try:
            c, low = scipy.linalg.cho_factor(Gp)
            return scipy.linalg.cho_solve((c, low), bp), False
        except (scipy.linalg.LinAlgError, ValueError):
            z, _, rank, _ = np.linalg.lstsq(Gp, bp, rcond=None)
            return z, rank < len(bp)

    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    n = len(b)
    if max_iter is None:
        max_iter = 20 * n + 200
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = b.copy()
    iterations = 0
    rank_deficient = False
    stalled = False
    while iterations < max_iter:
        candidates = np.where(~passive & (w > kkt_tol))[0]
        if candidates.size == 0:
            break
        iterations += 1
        passive[candidates[np.argmax(w[candidates])]] = True
        x_feasible = x.copy()
        inner_guard = 0
        while True:
            P = np.where(passive)[0]
            z, deficient = solve_passive(passive)
            rank_deficient = rank_deficient or deficient
            if np.all(z > 0):
                break
            inner_guard += 1
            if inner_guard > n + 1:
                stalled = True
                break
            xp = x[P]
            neg = z <= 0
            denom = xp[neg] - z[neg]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0, xp[neg] / denom, 0.0)
            alpha = float(np.min(ratios))
            x[P] = xp + alpha * (z - xp)
            drop = P[x[P] <= nnls.X_TOL]
            x[drop] = 0.0
            passive[drop] = False
            if not passive.any():
                z = np.zeros(0)
                break
        if stalled:
            x = x_feasible
            break
        x[:] = 0.0
        if passive.any():
            x[np.where(passive)[0]] = z
        w = b - G @ x
    g = G @ x - b
    free = x > nnls.X_TOL
    kkt_residual = max(
        float(max(0.0, -g.min())) if n else 0.0,
        float(np.abs(g[free]).max()) if free.any() else 0.0,
    )
    return nnls.NnlsSolution(
        x=x, residual_norm=None,
        kkt_residual=kkt_residual, iterations=iterations,
        converged=kkt_residual <= kkt_tol and not stalled,
        rank_deficient=rank_deficient)


def assert_matches_reference(G, b, **kwargs):
    """The solver and the reference agree on G, b: same support, iteration
    count and flags, x within 1e-12, and the same certificate."""
    assert np.array_equal(G, G.T)
    got = nnls_from_gram(G, b, **kwargs)
    want = reference_nnls_from_gram(G, b, **kwargs)
    assert np.array_equal(got.x > 0, want.x > 0)
    assert (got.iterations, got.converged, got.rank_deficient) == \
        (want.iterations, want.converged, want.rank_deficient)
    assert np.abs(got.x - want.x).max(initial=0.0) <= 1e-12
    assert got.kkt_residual == want.kkt_residual
    return got


class TestMatchesReference:
    """The passive-row gradient and the direct LAPACK calls give what the
    full-gradient solver gave."""

    @staticmethod
    def gram(A):
        G = A.T @ A
        return np.triu(G) + np.triu(G, 1).T     # symmetric bit for bit

    def test_diagonal_blocks(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 7, 40):
            G = np.diag(rng.random(n) + 0.01)
            for b in (rng.random(n), rng.standard_normal(n), np.zeros(n)):
                assert_matches_reference(G, b)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_blocks(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(5, 60)), int(rng.integers(2, 40))
        A = rng.random((m, n))
        y = rng.random(m) if seed % 2 else rng.standard_normal(m)
        assert_matches_reference(self.gram(A), A.T @ y)

    def test_duplicate_columns(self):
        rng = np.random.default_rng(11)
        A = rng.random((30, 8))
        A[:, [5, 6]] = A[:, [1, 2]]
        y = A @ np.array([0.5, 0.2, 0.0, 0.3, 0.0, 0.4, 0.1, 0.0])
        assert_matches_reference(self.gram(A), A.T @ y)

    def test_rank_deficient_blocks(self):
        rng = np.random.default_rng(12)
        for m, n in ((3, 8), (5, 20), (1, 4)):
            A = rng.random((m, n))
            y = rng.random(m)
            assert_matches_reference(self.gram(A), A.T @ y)

    def test_singular_passive_block(self):
        # G is the Gram of A = [1, -1]; b is not in its range, so column 0
        # keeps a positive gradient and joins column 1 in a singular block,
        # which only the least-squares fallback solves
        A = np.array([[1.0, -1.0]])
        sol = assert_matches_reference(A.T @ A, np.array([0.1, 1.0]))
        assert sol.rank_deficient and not sol.converged

    def test_emptied_passive_set(self):
        # symmetric but indefinite: column 0 enters at x = 5e-11, below
        # X_TOL; column 1 then solves to a negative value, the step is zero,
        # and both columns leave the passive set at once
        G = np.array([[1e3, 100.0], [100.0, 1.0]])
        b = np.array([5e-8, 3e-8])
        assert 0 < assert_matches_reference(G, b, max_iter=1).x[0] <= nnls.X_TOL
        assert not assert_matches_reference(G, b, max_iter=2).x.any()
        sol = assert_matches_reference(G, b)
        assert sol.iterations == 20 * 2 + 200 and not sol.converged

    def test_iteration_budget(self):
        rng = np.random.default_rng(13)
        A = rng.random((20, 12))
        y = rng.random(20)
        for max_iter in (1, 2, 5):
            assert_matches_reference(self.gram(A), A.T @ y, max_iter=max_iter)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_budget_gives_what_the_retry_gave(self, seed):
        # a solve cut at any smaller budget and, unless it converged, rerun
        # from x = 0 at 20 * n + 200 (the old block retry) returns what one
        # solve at the default budget returns
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 30)), int(rng.integers(4, 30))
        A = rng.random((m, n))
        G, b = self.gram(A), A.T @ rng.random(m)
        want = nnls_from_gram(G, b)
        for budget in range(1, want.iterations + 2):
            got = nnls_from_gram(G, b, max_iter=budget)
            if not got.converged:
                got = nnls_from_gram(G, b, max_iter=20 * n + 200)
            assert np.array_equal(got.x, want.x)
            assert (got.iterations, got.kkt_residual, got.converged) == \
                (want.iterations, want.kkt_residual, want.converged)


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
        sol = nnls_from_gram(G, b, max_iter=max_iter)
        assert sol.x.shape == (n,)
        assert np.all(np.isfinite(sol.x))
        assert np.all(sol.x >= 0)
        assert sol.kkt_residual == kkt_certificate(G, b, sol.x)
        if sol.converged:
            assert sol.kkt_residual <= nnls.DEFAULT_KKT_TOL


def simplex(v):
    return FrequencyVector(v, "species").normalize()


class TestNormalizeSimplex:
    """Species frequencies go onto the simplex by FrequencyVector.normalize."""

    def test_basic(self):
        np.testing.assert_array_equal(simplex([2.0, 2.0]).values, [0.5, 0.5])

    def test_zeros_preserved(self):
        np.testing.assert_array_equal(simplex([0.0, 3.0, 0.0]).values, [0.0, 1.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        v = rng.random(6)
        for c in (0.1, 3.0, 1e6):
            np.testing.assert_allclose(simplex(c * v).values, simplex(v).values, atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            simplex([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            simplex([-1.0, 2.0])
