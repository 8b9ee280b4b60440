"""Identifiability diagnostics for a read-sampling matrix.

Frequencies are recoverable in the infinite-read limit exactly when the
matrix, augmented with an all-ones row, has full column rank; a single species
is pinned down exactly when its basis vector is orthogonal to the null space
of the augmented matrix. Both checks run per connected component of the
row/column sparsity graph so large block-structured instances stay cheap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .read_matrix import ReadSamplingMatrix, build_matrix
from .sequence_db import SequenceDatabase

logger = logging.getLogger(__name__)

SV_TOL = 1e-10          # relative singular-value cutoff for numerical rank
FLAG_TOL = 1e-8         # row-norm cutoff for null-space membership flags
COMPONENT_CAP = 5000    # columns per component before switching to Gram path
DENSE_ELEMENT_CAP = 400_000_000
# Cholesky full-rank certificate shift, as a multiple of the Gram eigenvalue
# cutoff (see null_space_flags_from_gram)
_CERT_MARGIN = 1e3


@dataclass
class IdentifiabilityReport:
    identifiable: bool
    rank: int
    n_species: int
    partial_flags: np.ndarray
    null_space_dim: int
    tolerance: float
    method: str

    def __post_init__(self):
        if self.identifiable != (self.rank == self.n_species):
            raise ValueError("identifiable flag inconsistent with rank")


def _augmented_dense(matrix: sp.csc_matrix, cols: np.ndarray) -> np.ndarray:
    """Dense submatrix on the given columns, restricted to their touched rows,
    with an all-ones row appended."""
    sub = matrix[:, cols]
    rows = np.unique(sub.indices)
    dense = np.asarray(sub.tocsr()[rows].todense()) if rows.size else np.zeros((0, len(cols)))
    return np.vstack([dense, np.ones((1, len(cols)))])


def numerical_rank(singular_values: np.ndarray, shape: tuple[int, int],
                   tol: float) -> int:
    if len(singular_values) == 0:
        return 0
    cutoff = tol * singular_values[0] * max(shape)
    return int(np.count_nonzero(singular_values > cutoff))


def decompose_components(A: ReadSamplingMatrix) -> list[np.ndarray]:
    """Disjoint column groups: connected components of the bipartite
    row/column graph induced by the nonzero pattern, read from the pattern of
    the cached Gram ``A.gram`` (two columns share a row exactly when their
    Gram entry is nonzero)."""
    n_comp, labels = connected_components(A.gram, directed=False)
    return [np.where(labels == c)[0] for c in range(n_comp)]


def is_identifiable(A: ReadSamplingMatrix, tol: float = SV_TOL) -> tuple[bool, int]:
    """Full identifiability check: rank of the augmented matrix equals N."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = A.n_species
    if (A.n_rows + 1) * n > DENSE_ELEMENT_CAP:
        raise ValueError(
            "matrix too large for a dense rank computation; run per-component "
            "analysis via partially_identifiable/analyze"
        )
    dense = _augmented_dense(A.matrix, np.arange(n))
    sv = scipy.linalg.svdvals(dense)
    rank = numerical_rank(sv, dense.shape, tol)
    return rank == n, rank


def null_space_flags(dense_augmented: np.ndarray, tol: float = SV_TOL,
                     flag_tol: float = FLAG_TOL) -> tuple[np.ndarray, int, int]:
    """Per-column identifiability flags from a dense augmented matrix.

    Returns (flags, rank, null_dim); a column is flagged identifiable when its
    row of the orthonormal null-space basis has norm <= flag_tol.

    A tall or square block (m >= n) gets the thin SVD: it returns the same n
    singular values and all n right singular vectors, so ``vt[rank:]`` is the
    same null-space basis as with the full SVD, and only U shrinks from m x m
    to m x n. A wide block keeps the full SVD, because its null space needs
    the n - m rows of ``vt`` that the thin SVD leaves out.
    """
    m, n = dense_augmented.shape
    _, sv, vt = scipy.linalg.svd(dense_augmented, full_matrices=m < n)
    rank = numerical_rank(sv, dense_augmented.shape, tol)
    null_basis = vt[rank:]  # (n - rank) x n
    if null_basis.shape[0] == 0:
        return np.ones(n, dtype=bool), rank, 0
    row_norms = np.linalg.norm(null_basis, axis=0)
    return row_norms <= flag_tol, rank, n - rank


def _rel_cutoff(n: int, tol: float) -> float:
    """Eigenvalue cutoff of an n x n Gram, relative to its largest one."""
    return max((tol * n) ** 2, 1e-13)


def _cert_shift(n: int, norm_inf: float, tol: float) -> float:
    """Shift of the Cholesky full-rank certificate for an n x n Gram of
    infinity norm ``norm_inf``: ``_CERT_MARGIN`` times the eigenvalue cutoff
    or more (see null_space_flags_from_gram)."""
    return _CERT_MARGIN * _rel_cutoff(n, tol) * norm_inf


def diagonal_block_full_rank(gram_block: sp.csr_matrix) -> bool:
    """Whether a block Gram G that stores only its diagonal d passes the
    ambiguity screen of ``G + 1`` (``null_space_flags_from_gram`` at its
    default tolerance) without a factorisation.

    True when every d_i exceeds the certificate shift delta of
    ``G + 11'``, whose infinity norm is ``max d + n``. Then
    lambda_min(diag(d) + 11') >= min d > delta, and delta is ``_CERT_MARGIN``
    times the ``eigh`` cutoff or more, so both the certificate and the
    eigenvalue rule of :func:`null_space_flags_from_gram` return every flag
    True at rank n. A block with any stored off-diagonal entry is declined.
    """
    n = gram_block.shape[0]
    d = gram_block.diagonal()
    # with n stored entries and all n diagonal entries positive, none is off it
    return (gram_block.nnz == n
            and bool(d.min() > _cert_shift(n, float(d.max()) + n, SV_TOL)))


def null_space_flags_from_gram(gram_augmented: np.ndarray, tol: float = SV_TOL,
                               flag_tol: float = FLAG_TOL) -> tuple[np.ndarray, int]:
    """Flags and rank computed from the augmented Gram matrix (A'A + ones).

    Squares the conditioning, so the effective zero-detection floor is coarser
    than the SVD path; adequate for screening blocks during reconstruction.
    Returns (flags, rank).

    The rank rule counts eigenvalues of M at or below ``ev_max * rel_cutoff``,
    ``rel_cutoff = max((tol * n) ** 2, 1e-13)``, as zero. A Cholesky
    factorisation of M - delta*I with ``delta = _CERT_MARGIN * rel_cutoff *
    ||M||_inf`` certifies full rank first. If it succeeds, M - delta*I + E is
    positive semidefinite for a backward error ||E||_2 <= (n + 1) * eps *
    trace(M) (Higham 2002, Thm 10.5), so lambda_min(M) >= delta - O(n * eps *
    ||M||_2); the trace of A'A + ones is at most 2 * ||M||_2 for a
    column-stochastic A. Since ||M||_inf >= ev_max, delta is ``_CERT_MARGIN``
    times the cutoff or more, far above that error and the eigensolver's, so
    the eigenvalue rule would find full rank too. Matrices the certificate
    does not clear, or whose norm is zero or not finite, go to ``eigh``.
    """
    n = gram_augmented.shape[0]
    norm_inf = float(np.abs(gram_augmented).sum(axis=1).max()) if n else 0.0
    if 0.0 < norm_inf < np.inf:
        shifted = np.array(gram_augmented, dtype=float, order="F")
        shifted.flat[::n + 1] -= _cert_shift(n, norm_inf, tol)
        _, info = scipy.linalg.lapack.dpotrf(shifted, lower=True, clean=False,
                                             overwrite_a=True)
        if info == 0:
            return np.ones(n, dtype=bool), n
    evals, evecs = scipy.linalg.eigh(gram_augmented)
    ev_max = max(float(evals[-1]), 0.0)
    if ev_max == 0.0:
        return np.zeros(n, dtype=bool), 0
    cutoff = ev_max * _rel_cutoff(n, tol)
    null_mask = evals <= cutoff
    rank = n - int(np.count_nonzero(null_mask))
    null_basis = evecs[:, null_mask]
    if null_basis.shape[1] == 0:
        return np.ones(n, dtype=bool), rank
    row_norms = np.linalg.norm(null_basis, axis=1)
    return row_norms <= flag_tol, rank


def partially_identifiable(A: ReadSamplingMatrix, tol: float = SV_TOL,
                           flag_tol: float = FLAG_TOL) -> np.ndarray:
    """Per-species identifiability flags, computed per connected component.

    The ones row is appended within each component's subproblem: any global
    null vector restricted to a component is a null vector of that component's
    augmented matrix, so flags agree with the whole-matrix computation.
    """
    return analyze(A, tol=tol, flag_tol=flag_tol).partial_flags


def analyze(A: ReadSamplingMatrix, tol: float = SV_TOL,
            flag_tol: float = FLAG_TOL) -> IdentifiabilityReport:
    """Full report: rank, per-species flags, null-space dimension.

    Components with more than ``COMPONENT_CAP`` columns take the Gram path,
    and ``method`` then ends in ``+gram_approx``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = A.n_species
    flags = np.zeros(n, dtype=bool)
    total_rank = 0
    approximate = False
    groups = decompose_components(A)
    for cols in groups:
        if len(cols) <= COMPONENT_CAP:
            dense = _augmented_dense(A.matrix, cols)
            comp_flags, comp_rank, _ = null_space_flags(dense, tol, flag_tol)
        else:
            # Gram path for oversized components; flagged approximate below.
            gram = A.gram[cols][:, cols].toarray() + 1.0
            comp_flags, comp_rank = null_space_flags_from_gram(gram, tol, flag_tol)
            approximate = True
        flags[cols] = comp_flags
        total_rank += comp_rank
    # components never share rows, so ranks (of the per-component augmented
    # blocks) add up to the rank of the globally augmented matrix
    method = "component_decomposed" if len(groups) > 1 else "dense_svd"
    if approximate:
        method += "+gram_approx"
    return IdentifiabilityReport(
        identifiable=total_rank == n,
        rank=total_rank,
        n_species=n,
        partial_flags=flags,
        null_space_dim=n - total_rank,
        tolerance=tol,
        method=method,
    )


def find_substring_pairs(db: SequenceDatabase, cap: int = 2000) -> list[tuple[int, int]]:
    """Pairs (i, j), 1-based, where sequence i is a substring of sequence j.

    Quadratic scan; skipped (empty result, with a log note) above ``cap``.
    """
    if len(db) > cap:
        logger.info("substring check skipped for N=%d > %d", len(db), cap)
        return []
    pairs = []
    recs = db.records
    by_len = sorted(recs, key=lambda r: r.length)
    for a_idx, rec_a in enumerate(by_len):
        for rec_b in by_len[a_idx + 1:]:
            if rec_a.length < rec_b.length and rec_a.sequence in rec_b.sequence:
                pairs.append((rec_a.id, rec_b.id))
    return pairs


@dataclass
class ScanResult:
    read_lengths: list[int]
    fractions: list[float]               # fraction of partially identifiable species
    fully_identifiable: list[bool]
    critical_length: int | None          # smallest scanned L that is fully identifiable
    substring_pairs: list[tuple[int, int]] = field(default_factory=list)
    monotonicity_violations: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "read_lengths": self.read_lengths,
            "fractions": self.fractions,
            "fully_identifiable": self.fully_identifiable,
            "critical_length": self.critical_length,
            "substring_pairs": [list(p) for p in self.substring_pairs],
            "monotonicity_violations": self.monotonicity_violations,
        }


def critical_read_length_scan(db: SequenceDatabase, l_lo: int, l_hi: int,
                              tol: float = SV_TOL) -> ScanResult:
    """Scan read lengths, reporting identifiable fractions and the smallest
    fully identifiable L.

    The theory assumes no sequence is a substring of another; a violation is
    reported and the scan still runs. Identifiability must be monotone in L
    for substring-free databases; violations of the scan's monotonicity check
    are recorded as errors.
    """
    if l_lo < 1 or l_hi < l_lo:
        raise ValueError(f"bad read-length range [{l_lo}, {l_hi}]")
    pairs = find_substring_pairs(db)
    if pairs:
        logger.warning("database has %d substring pairs; scan results may not be monotone",
                       len(pairs))
    lengths, fractions, fully = [], [], []
    critical = None
    for read_len in range(l_lo, l_hi + 1):
        A = build_matrix(db, read_len)
        report = analyze(A, tol=tol)
        lengths.append(read_len)
        fractions.append(float(report.partial_flags.mean()))
        fully.append(bool(report.identifiable))
        if report.identifiable and critical is None:
            critical = read_len
    violations = [lengths[i] for i in range(1, len(lengths))
                  if fractions[i] < fractions[i - 1] - 1e-12]
    for v in violations:
        logger.error("identifiable fraction decreased at L=%d", v)
    return ScanResult(lengths, fractions, fully, critical, pairs, violations)
