"""Nonnegative least squares with a KKT optimality certificate.

Active-set (Lawson-Hanson) solver run on the Gram system A'A, A'y, which keeps
the per-iteration cost at the number of candidate columns rather than the
number of matrix rows. Intended for block sizes up to a few thousand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .read_matrix import FrequencyVector

DEFAULT_KKT_TOL = 1e-8
X_TOL = 1e-10


@dataclass
class NnlsSolution:
    """Result of an NNLS solve.

    ``residual_norm`` is ||Ax - y||_2. ``nnls_solve`` computes it from the
    residual vector Ax - y, so it is accurate to rounding in A and y.
    ``nnls_from_gram`` has no A and expands it as sqrt(y'y - 2x'b + x'Gx);
    for a near-exact fit those terms cancel and the reported value has an
    absolute error of about sqrt(eps * y'y).
    """

    x: np.ndarray
    residual_norm: float
    kkt_residual: float
    iterations: int
    converged: bool
    rank_deficient: bool = False


def _solve_passive(G: np.ndarray, b: np.ndarray, passive: np.ndarray):
    """Least-squares coefficients on the passive set. Falls back to a
    minimum-norm solve when the passive Gram block is rank deficient."""
    Gp = G[np.ix_(passive, passive)]
    bp = b[passive]
    try:
        c, low = scipy.linalg.cho_factor(Gp)
        return scipy.linalg.cho_solve((c, low), bp), False
    except (scipy.linalg.LinAlgError, ValueError):
        z, _, rank, _ = np.linalg.lstsq(Gp, bp, rcond=None)
        return z, rank < len(bp)


def nnls_from_gram(G, b, yty: float = 0.0, kkt_tol: float = DEFAULT_KKT_TOL,
                   max_iter: int | None = None) -> NnlsSolution:
    """Solve min ||Ax - y||_2 s.t. x >= 0 given G = A'A, b = A'y, yty = y'y.

    The reported ``residual_norm`` comes from the Gram expansion
    sqrt(y'y - 2x'b + x'Gx), whose terms cancel when the fit is near-exact:
    its absolute error is about sqrt(eps * y'y), so it cannot resolve
    residuals below that floor. Callers who hold A get the exact value from
    ``nnls_solve`` (or ``residual_norm``).
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    n = len(b)
    if G.shape != (n, n):
        raise ValueError(f"Gram matrix shape {G.shape} does not match b length {n}")
    if max_iter is None:
        max_iter = 3 * n + 30

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
            P = np.where(passive)[0]
            z, deficient = _solve_passive(G, b, passive)
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
        x[:] = 0.0
        if passive.any():
            x[np.where(passive)[0]] = z
        w = b - G @ x

    g = G @ x - b
    free = x > X_TOL
    kkt_residual = max(
        float(max(0.0, -g.min())) if n else 0.0,
        float(np.abs(g[free]).max()) if free.any() else 0.0,
    )
    residual_sq = yty - 2.0 * x @ b + x @ (G @ x)
    return NnlsSolution(
        x=x,
        residual_norm=float(np.sqrt(max(0.0, residual_sq))),
        kkt_residual=kkt_residual,
        iterations=iterations,
        converged=kkt_residual <= kkt_tol and not stalled,
        rank_deficient=rank_deficient,
    )


def residual_norm(A, x, y) -> float:
    """||Ax - y||_2 from the residual vector, for a dense or sparse ``A``."""
    return float(np.linalg.norm(np.asarray(A @ x).ravel() - y))


def nnls_solve(A_sub, y, kkt_tol: float = DEFAULT_KKT_TOL,
               max_iter: int | None = None) -> NnlsSolution:
    """Solve min ||A_sub x - y||_2 s.t. x >= 0.

    Accepts a dense array or any scipy sparse matrix for ``A_sub``. The
    solve runs on the Gram system; the reported ``residual_norm`` is then
    recomputed from ``A_sub`` itself, free of the Gram expansion's floor.
    """
    y = np.asarray(y, dtype=float).ravel()
    if A_sub.shape[0] != len(y):
        raise ValueError(f"A has {A_sub.shape[0]} rows but y has {len(y)}")
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    if sp.issparse(A_sub):
        G = np.asarray((A_sub.T @ A_sub).todense())
        b = np.asarray(A_sub.T @ y).ravel()
    else:
        A_sub = np.asarray(A_sub, dtype=float)
        G = A_sub.T @ A_sub
        b = A_sub.T @ y
    sol = nnls_from_gram(G, b, yty=float(y @ y), kkt_tol=kkt_tol, max_iter=max_iter)
    sol.residual_norm = residual_norm(A_sub, sol.x, y)
    return sol


def normalize_simplex(x) -> FrequencyVector:
    """Scale a nonnegative vector to sum to one, as species frequencies
    (:meth:`FrequencyVector.normalize`)."""
    return FrequencyVector(x, "species").normalize()
