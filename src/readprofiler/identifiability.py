"""Identifiability diagnostics for a read-sampling matrix.

Frequencies are recoverable in the infinite-read limit exactly when the
matrix A has full column rank; a single species is pinned down exactly when
its basis vector is orthogonal to the null space of A. (Every column of A
sums to one, so the constraint that frequencies sum to one adds no equation
that A does not give already.) Both checks read A's rank and null space from
its Gram A'A with one kernel, :func:`null_space_flags_from_gram`, run per
connected component of the row/column sparsity graph.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .read_matrix import ReadSamplingMatrix, build_matrix
from .sequence_db import SequenceDatabase

logger = logging.getLogger(__name__)

SV_TOL = 1e-10          # relative rank tolerance; sets the Gram eigenvalue cutoff (_rel_cutoff)
FLAG_TOL = 1e-8         # row-norm cutoff for null-space membership flags
GRAM_CAP = 20_000       # columns of the largest dense component Gram
SUBSTRING_CAP = 2_000   # most sequences find_substring_pairs compares
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

    def __post_init__(self):
        if self.identifiable != (self.rank == self.n_species):
            raise ValueError("identifiable flag inconsistent with rank")


def decompose_components(A: ReadSamplingMatrix) -> list[np.ndarray]:
    """Disjoint column groups: connected components of the bipartite
    row/column graph induced by the nonzero pattern, read from the pattern of
    the cached Gram ``A.gram`` (two columns share a row exactly when their
    Gram entry is nonzero). Group c holds the columns labelled c, ascending;
    one stable sort of the labels, split at their counts, builds them all."""
    _, labels = connected_components(A.gram, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def split_components(A: ReadSamplingMatrix, cap: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """A's components (:func:`decompose_components`) as the columns of every
    singleton component, ascending, and the multi-column groups in order.

    Raises ValueError when a multi-column group has more than ``cap``
    columns, the most a dense component Gram may hold; each caller passes
    its own module's ``GRAM_CAP``.
    """
    groups = decompose_components(A)
    multi = [cols for cols in groups if len(cols) > 1]
    largest = max(map(len, multi), default=0)
    if largest > cap:
        raise ValueError(f"component of {largest} species exceeds the dense Gram cap {cap}")
    singles = np.array([cols[0] for cols in groups if len(cols) == 1], dtype=np.intp)
    return singles, multi


def _rel_cutoff(n: int) -> float:
    """Eigenvalue cutoff of an n x n Gram, relative to its largest one."""
    return max((SV_TOL * n) ** 2, 1e-13)


def _cert_shift(n: int, trace: float) -> float:
    """Shift of the Cholesky full-rank certificate for an n x n Gram of trace
    ``trace``: ``_CERT_MARGIN`` times the eigenvalue cutoff or more (see
    null_space_flags_from_gram)."""
    return _CERT_MARGIN * _rel_cutoff(n) * trace


def diagonal_block_full_rank(gram_block: sp.csr_matrix) -> bool:
    """Whether a block Gram G that stores only its diagonal d is full rank by
    :func:`null_space_flags_from_gram`, without a factorisation.

    True when every d_i exceeds the certificate shift delta for G's trace,
    ``d.sum()``. Then diag(d) - delta*I is positive definite, so the
    certificate clears G and the kernel returns every flag True at rank n.
    A block with any stored off-diagonal entry is declined.
    """
    n = gram_block.shape[0]
    d = gram_block.diagonal()
    # with n stored entries and all n diagonal entries positive, none is off it
    return (gram_block.nnz == n
            and bool(d.min() > _cert_shift(n, float(d.sum()))))


def null_space_flags_from_gram(gram: np.ndarray, matrix=None) -> tuple[np.ndarray, int]:
    """Flags and rank of a matrix A from its dense Gram G = A'A: the one rank
    and null-space kernel. Returns (flags, rank); a column is flagged
    identifiable when its row of the orthonormal null-space basis (the
    eigenvectors of G with zero eigenvalue) has norm <= ``FLAG_TOL``.

    The rank rule counts eigenvalues of G at or below ``ev_max * rel_cutoff``,
    ``rel_cutoff = max((SV_TOL * n) ** 2, 1e-13)``, as zero. A Cholesky
    factorisation of G - delta*I with ``delta = _CERT_MARGIN * rel_cutoff *
    trace(G)`` certifies full rank first. If it succeeds, G - delta*I + E is
    positive semidefinite for a backward error ||E||_2 <= (n + 1) * eps *
    trace(G) (Higham 2002, Thm 10.5), so lambda_min(G) >= delta - (n + 1) *
    eps * trace(G). delta is at least 140 times that error at every n: below
    3163 columns ``_CERT_MARGIN * rel_cutoff`` is 1e-10 against (n + 1) * eps
    <= 7.1e-13, and above it the ratio grows as n / 22. Since trace(G) >=
    ev_max, delta is also ``_CERT_MARGIN`` times the cutoff or more, far
    above the eigensolver's error, so the eigenvalue rule would find full
    rank too. Matrices the certificate does not clear, or whose trace is zero
    or not finite, go to ``eigh``.

    The null basis N from ``eigh`` errs by up to about n * eps * ev_max /
    lambda_min in each row norm (Davis-Kahan), lambda_min the smallest kept
    eigenvalue; that reaches ``FLAG_TOL`` once A's smallest kept singular
    value is ~1e-4 of its largest. Given ``matrix`` (A as CSC), a row norm
    within that error of ``FLAG_TOL`` triggers one step of iterative
    refinement: N - V diag(1/lambda) V'A'(AN), with V and lambda the kept
    eigenpairs, is N without its part in A's row space, and is
    orthonormalised again. AN comes from A, not G, so the step leaves an
    error of about eps * ||A|| / sigma_min, as a dense SVD of A would. The
    DnC screen passes no matrix: its error lifts true zero row norms above
    ``FLAG_TOL``, which keeps such species for the larger joint solve.
    """
    n = gram.shape[0]
    trace = float(np.trace(gram)) if n else 0.0
    if 0.0 < trace < np.inf:
        shifted = np.array(gram, dtype=float, order="F")
        shifted.flat[::n + 1] -= _cert_shift(n, trace)
        _, info = scipy.linalg.lapack.dpotrf(shifted, lower=True, clean=False,
                                             overwrite_a=True)
        if info == 0:
            return np.ones(n, dtype=bool), n
    evals, evecs = scipy.linalg.eigh(gram)
    ev_max = max(float(evals[-1]), 0.0)
    if ev_max == 0.0:
        return np.zeros(n, dtype=bool), 0
    cutoff = ev_max * _rel_cutoff(n)
    null_mask = evals <= cutoff
    rank = n - int(np.count_nonzero(null_mask))
    null_basis = evecs[:, null_mask]
    if null_basis.shape[1] == 0:
        return np.ones(n, dtype=bool), rank
    row_norms = np.linalg.norm(null_basis, axis=1)
    # evals ascend, so the kept ones are the last ``rank``
    error = n * np.finfo(float).eps * ev_max / evals[n - rank]
    if matrix is not None and np.any(np.abs(row_norms - FLAG_TOL) <= error):
        # A on the rows its columns touch, so AN holds no rows of zeros
        rows, local = np.unique(matrix.indices, return_inverse=True)
        a = sp.csc_matrix((matrix.data, local, matrix.indptr), shape=(len(rows), n))
        kept = evecs[:, n - rank:]
        in_rows = kept @ ((kept.T @ (a.T @ (a @ null_basis))) / evals[n - rank:, None])
        row_norms = np.linalg.norm(np.linalg.qr(null_basis - in_rows)[0], axis=1)
    return row_norms <= FLAG_TOL, rank


def is_identifiable(A: ReadSamplingMatrix) -> tuple[bool, int]:
    """Full identifiability check: (rank == N, rank), from :func:`analyze`."""
    report = analyze(A)
    return report.identifiable, report.rank


def partially_identifiable(A: ReadSamplingMatrix) -> np.ndarray:
    """Per-species identifiability flags, from :func:`analyze`."""
    return analyze(A).partial_flags


def analyze(A: ReadSamplingMatrix) -> IdentifiabilityReport:
    """Full report: rank, per-species flags, null-space dimension, at the
    fixed tolerances ``SV_TOL`` and ``FLAG_TOL``.

    :func:`null_space_flags_from_gram` runs on each multi-column connected
    component's dense block of the cached Gram ``A.gram``, with the
    component's columns of A to refine its null basis. A singleton
    component is one nonzero column: full rank, its species flagged at rank
    1, which is what the kernel returns for it. Components share no rows, so
    A's null space is the direct sum of theirs: their ranks add up to A's,
    and each species' flag is the one its component gives. Raises ValueError
    when the largest multi-column component exceeds ``GRAM_CAP`` columns.
    """
    n = A.n_species
    singles, multi = split_components(A, GRAM_CAP)
    gram = A.gram
    flags = np.zeros(n, dtype=bool)
    flags[singles] = True
    total_rank = len(singles)
    for cols in multi:
        comp_flags, comp_rank = null_space_flags_from_gram(
            gram[cols][:, cols].toarray(), matrix=A.matrix[:, cols])
        flags[cols] = comp_flags
        total_rank += comp_rank
    return IdentifiabilityReport(
        identifiable=total_rank == n,
        rank=total_rank,
        n_species=n,
        partial_flags=flags,
        null_space_dim=n - total_rank,
    )


def find_substring_pairs(db: SequenceDatabase) -> list[tuple[int, int]]:
    """Pairs (i, j), 1-based, where sequence i is a substring of sequence j.

    Sequences are taken in a stable sort by length; each is compared only
    with the strictly longer ones after it. Quadratic scan; skipped (empty
    result, with a log note) above ``SUBSTRING_CAP`` sequences.
    """
    if len(db) > SUBSTRING_CAP:
        logger.info("substring check skipped for N=%d > %d", len(db), SUBSTRING_CAP)
        return []
    pairs = []
    by_len = sorted(db.records, key=lambda r: r.length)
    lengths = [rec.length for rec in by_len]
    for rec_a in by_len:
        for rec_b in by_len[bisect.bisect_right(lengths, rec_a.length):]:
            if rec_a.sequence in rec_b.sequence:
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


def critical_read_length_scan(db: SequenceDatabase, l_lo: int, l_hi: int) -> ScanResult:
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
        report = analyze(A)
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
