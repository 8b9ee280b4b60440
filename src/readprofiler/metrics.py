"""Reconstruction-quality metrics and finite-sample error bounds.

The similarity-aware metric is a Mahalanobis distance weighted by the Gram
matrix of the read-sampling matrix; it is evaluated as ||A(x - x_hat)||_2 so
the N x N weight matrix is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .identifiability import GRAM_CAP, split_components
from .read_matrix import FrequencyVector, ReadSamplingMatrix

LAMBDA_TOL = 1e-12


def _values(x) -> np.ndarray:
    if isinstance(x, FrequencyVector):
        return x.values
    return np.asarray(x, dtype=float)


def l2_metric(x, x_hat) -> float:
    """Euclidean distance between frequency vectors."""
    a, b = _values(x), _values(x_hat)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def mahalanobis_metric(x, x_hat, A: ReadSamplingMatrix) -> float:
    """Similarity-aware distance sqrt((x - x_hat)' A'A (x - x_hat)),
    computed as ||A(x - x_hat)||_2."""
    a, b = _values(x), _values(x_hat)
    if a.shape != b.shape or len(a) != A.n_species:
        raise ValueError("dimension mismatch with the read-sampling matrix")
    return float(np.linalg.norm(A.matrix @ (a - b)))


def mahalanobis_error_bound(n_reads: int, delta: float) -> float:
    """High-probability bound (2 + sqrt(log(1/delta))) / sqrt(R) on the
    Mahalanobis error; independent of the matrix and of N."""
    if n_reads < 1:
        raise ValueError("need at least one read")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return (2.0 + math.sqrt(math.log(1.0 / delta))) / math.sqrt(n_reads)


def l2_error_bound(n_reads: int, delta: float, lambda_min: float) -> float:
    """High-probability bound on the Euclidean error. Diverges (returns inf)
    when the smallest Gram eigenvalue is numerically zero, at or below
    ``LAMBDA_TOL``: the error can then be arbitrarily large."""
    if n_reads < 1:
        raise ValueError("need at least one read")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if lambda_min <= LAMBDA_TOL:
        return math.inf
    return (2.0 + math.sqrt(math.log(1.0 / delta))) / math.sqrt(n_reads * lambda_min)


def gram_lambda_min(A: ReadSamplingMatrix) -> float:
    """Smallest eigenvalue of A'A, taken per connected component (the global
    minimum is the minimum over components).

    A'A is the matrix's cached ``A.gram``, split into components by
    :func:`split_components`. A singleton component's eigenvalue is its
    diagonal entry, read for all of them in one step (``eigvalsh`` of a 1 x 1
    matrix returns that entry exactly); each larger component runs
    ``eigvalsh`` on its dense block of the same product. Components share no
    rows, so every block holds the same sums, in the same order, as the
    product of that component's columns alone. Raises ValueError when the
    largest multi-column component exceeds ``GRAM_CAP`` columns.
    """
    singles, multi = split_components(A, GRAM_CAP)
    gram = A.gram
    lams = gram.diagonal()[singles].tolist()
    lams += [float(scipy.linalg.eigvalsh(gram[cols][:, cols].toarray())[0]) for cols in multi]
    return max(min(lams, default=math.inf), 0.0)


@dataclass
class EvaluationResult:
    l2_error: float
    mahalanobis_error: float
    l2_bound: float              # inf when the instance is non-identifiable
    mahalanobis_bound: float
    delta: float
    lambda_min: float | None
    n_reads: int

    def to_dict(self) -> dict:
        def _num(v):
            return None if v is None else (v if math.isfinite(v) else "inf")
        return {
            "l2_error": self.l2_error,
            "mahalanobis_error": self.mahalanobis_error,
            "l2_bound": _num(self.l2_bound),
            "mahalanobis_bound": self.mahalanobis_bound,
            "delta": self.delta,
            "lambda_min": self.lambda_min,
            "n_reads": self.n_reads,
        }


def evaluate(x_true, x_hat, A: ReadSamplingMatrix, n_reads: int,
             delta: float = 0.5, lambda_min: float | None = None,
             compute_lambda: bool = True) -> EvaluationResult:
    """Bundle both metrics and both bounds for one reconstruction."""
    if lambda_min is None and compute_lambda:
        lambda_min = gram_lambda_min(A)
    return EvaluationResult(
        l2_error=l2_metric(x_true, x_hat),
        mahalanobis_error=mahalanobis_metric(x_true, x_hat, A),
        l2_bound=(l2_error_bound(n_reads, delta, lambda_min)
                  if lambda_min is not None else math.inf),
        mahalanobis_bound=mahalanobis_error_bound(n_reads, delta),
        delta=delta,
        lambda_min=lambda_min,
        n_reads=n_reads,
    )
