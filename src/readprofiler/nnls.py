"""Nonnegative least squares with a KKT optimality certificate.

Active-set (Lawson-Hanson) solver run on the Gram system A'A, A'y, which keeps
the per-iteration cost at the number of candidate columns rather than the
number of matrix rows. Intended for block sizes up to a few thousand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs

DEFAULT_KKT_TOL = 1e-8
X_TOL = 1e-10


@dataclass
class NnlsSolution:
    """Result of an NNLS solve. ``residual_norm`` is ||Ax - y||_2, computed
    from A by :func:`residual_norm`; it is None when the solve saw only the
    Gram system (:func:`nnls_from_gram`)."""

    x: np.ndarray
    residual_norm: float | None
    kkt_residual: float
    iterations: int
    converged: bool
    rank_deficient: bool = False


def _solve_passive(G: np.ndarray, b: np.ndarray, P: np.ndarray):
    """Least-squares coefficients on the passive columns ``P``, from LAPACK's
    Cholesky routines as ``cho_factor`` and ``cho_solve`` call them. Falls
    back to a minimum-norm solve when the passive Gram block is not positive
    definite or the solve is not finite."""
    bp = b[P]
    # the transpose of the C-ordered copy is the same block (G is symmetric),
    # laid out for LAPACK, so it is factored in place
    c, info = dpotrf(G[np.ix_(P, P)].T, overwrite_a=1, clean=0)
    if info == 0:
        z, info = dpotrs(c, bp)
        if info == 0 and np.isfinite(z).all():
            return z, False
    z, _, rank, _ = np.linalg.lstsq(G[np.ix_(P, P)], bp, rcond=None)
    return z, rank < len(bp)


def nnls_from_gram(G, b, kkt_tol: float = DEFAULT_KKT_TOL,
                   max_iter: int | None = None) -> NnlsSolution:
    """Solve min ||Ax - y||_2 s.t. x >= 0 given G = A'A and b = A'y.

    G must be symmetric bit for bit, as A'A is: entry (i, j) sums the same
    products in the same order as entry (j, i). Each step then takes the
    gradient from the passive rows of G, so it costs the passive set times
    n rather than n squared. ``max_iter`` defaults to ``20 * n + 200``
    outer iterations. Without A there is no residual: ``residual_norm`` is
    None, and callers who hold A get it from :func:`residual_norm`.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    n = len(b)
    if G.shape != (n, n):
        raise ValueError(f"Gram matrix shape {G.shape} does not match b length {n}")
    if max_iter is None:
        max_iter = 20 * n + 200

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = b.copy()  # negative gradient b - Gx
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
            P = np.flatnonzero(passive)
            z, deficient = _solve_passive(G, b, P)
            rank_deficient = rank_deficient or deficient
            if np.all(z > 0):
                break
            inner_guard += 1
            if inner_guard > n + 1:
                stalled = True  # degenerate cycling
                break
            xp = x[P]
            neg = z <= 0
            denom = xp[neg] - z[neg]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0, xp[neg] / denom, 0.0)
            alpha = float(np.min(ratios))
            x[P] = xp + alpha * (z - xp)
            drop = P[x[P] <= X_TOL]
            x[drop] = 0.0
            passive[drop] = False
            if not passive.any():
                z = np.zeros(0)
                break
        if stalled:
            x = x_feasible  # the last feasible iterate; z may be infeasible
            break
        P = np.flatnonzero(passive)
        x[:] = 0.0
        x[P] = z
        # G is symmetric, so its rows P are its columns P: this is b - G @ x
        # with the zero terms of x left out
        w = b - z @ G[P]

    g = G @ x - b
    free = x > X_TOL
    kkt_residual = max(
        float(max(0.0, -g.min())) if n else 0.0,
        float(np.abs(g[free]).max()) if free.any() else 0.0,
    )
    return NnlsSolution(
        x=x,
        residual_norm=None,
        kkt_residual=kkt_residual,
        iterations=iterations,
        converged=kkt_residual <= kkt_tol and not stalled,
        rank_deficient=rank_deficient,
    )


def euclidean_norm(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float array, summed by one ``einsum``.

    ``np.linalg.norm`` sums with BLAS ``ddot``, which OpenBLAS splits across
    its threads on long vectors, so its last bits depend on the thread count;
    ``einsum`` sums in one thread whatever that count is.
    """
    return math.sqrt(np.einsum("i,i->", v, v))


def residual_norm(A, x, y) -> float:
    """||Ax - y||_2 from the residual vector, for a dense or sparse ``A``."""
    r = np.asarray(A @ x, dtype=float).ravel()
    r -= y
    return euclidean_norm(r)


def nnls_solve(A_sub, y, kkt_tol: float = DEFAULT_KKT_TOL,
               max_iter: int | None = None) -> NnlsSolution:
    """Solve min ||A_sub x - y||_2 s.t. x >= 0.

    Accepts a dense array or any scipy sparse matrix for ``A_sub``. The
    solve runs on the Gram system; ``residual_norm`` comes from ``A_sub``.
    """
    y = np.asarray(y, dtype=float).ravel()
    if A_sub.shape[0] != len(y):
        raise ValueError(f"A has {A_sub.shape[0]} rows but y has {len(y)}")
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    if not sp.issparse(A_sub):
        A_sub = np.asarray(A_sub, dtype=float)
    G = A_sub.T @ A_sub
    sol = nnls_from_gram(G.toarray() if sp.issparse(G) else G, A_sub.T @ y,
                         kkt_tol=kkt_tol, max_iter=max_iter)
    sol.residual_norm = residual_norm(A_sub, sol.x, y)
    return sol

