"""Divide-and-conquer thresholding reconstruction.

Repeatedly partition the surviving species into random blocks, solve a
nonnegative least-squares problem per block against the global read
frequencies, keep species that either exceed the frequency threshold in some
block or are ambiguous within their block, and shrink until the survivor set
fits a single final solve. The final solution is normalized to the simplex.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .identifiability import component_flags
from .nnls import DEFAULT_KKT_TOL, X_TOL, NnlsSolution, nnls_from_gram, residual_norm
from .read_matrix import FrequencyVector, ReadSamplingMatrix, unweight_from_dna
from .sequence_db import read_json

logger = logging.getLogger(__name__)


@dataclass
class DncParams:
    block_size: int = 1000
    tau: float = 1e-3
    k_final: int = 1000
    seed: int = 0
    kkt_tol: float = DEFAULT_KKT_TOL
    schedule: list[int] | None = None     # explicit repetitions per iteration
    max_iterations: int = 30

    def __post_init__(self):
        if self.block_size < 2:
            raise ValueError("block size must be >= 2")
        if not 0 < self.tau < 1:
            raise ValueError("threshold must be in (0, 1)")
        if self.k_final < 1:
            raise ValueError("final species cap must be >= 1")
        if self.schedule is not None and any(k < 1 for k in self.schedule):
            raise ValueError("schedule repetitions must be >= 1")


@dataclass
class IterationStats:
    iteration: int
    species_in: int
    survivor_count: int
    partitions_used: int
    blocks_solved: int
    unconverged_blocks: int


@dataclass
class ReconstructionReport:
    x_hat: FrequencyVector                  # species frequencies, normalized
    x_hat_dna: FrequencyVector | None       # dna-weighted estimate, normalized
    support: np.ndarray                     # 1-based ids with x_hat > 0
    iterations: list[IterationStats]
    final_solver: dict | None
    params: DncParams
    empty: bool = False

    def to_dict(self) -> dict:
        sup0 = self.support - 1
        return {
            "n_species": len(self.x_hat),
            "support": self.support.tolist(),
            "frequencies": self.x_hat.values[sup0].tolist(),
            "dna_frequencies": (self.x_hat_dna.values[sup0].tolist()
                                if self.x_hat_dna is not None else None),
            "iterations": [vars(it) for it in self.iterations],
            "final_solver": self.final_solver,
            "params": asdict(self.params),
            "seed": self.params.seed,
            "empty": self.empty,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def load_estimate(path) -> FrequencyVector:
    """Read the species frequency vector back out of a saved report."""
    d = read_json(path, n_species=int, support=list[int], frequencies=list[float],
                  empty=bool)
    support = np.array(d["support"], dtype=np.int64)
    if len(support) != len(d["frequencies"]):
        raise ValueError(f"{path}: support and frequencies differ in length")
    if len(support) and not 1 <= support.min() <= support.max() <= d["n_species"]:
        raise ValueError(f"{path}: support ids outside 1..{d['n_species']}")
    x = np.zeros(d["n_species"])
    x[support - 1] = d["frequencies"]
    return FrequencyVector(x, "species", normalized=not d["empty"])


def default_repetitions(survivor_count: int, n_total: int) -> int:
    """Partition repetitions per iteration, scale-free version of the
    published constants: 1 while most species remain, 10 below a third,
    20 below 5 percent."""
    frac = survivor_count / n_total
    if frac > 1.0 / 3.0:
        return 1
    if frac > 0.05:
        return 10
    return 20


def partition_species(ids, block_size: int, seed: int, iteration: int,
                      round_idx: int) -> list[np.ndarray]:
    """Seeded uniform partition into blocks of ``block_size``; the last block
    may be smaller."""
    if block_size < 2:
        raise ValueError("block size must be >= 2")
    ids = np.asarray(ids)
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, iteration, round_idx])
    perm = rng.permutation(ids)
    return [perm[i:i + block_size] for i in range(0, len(perm), block_size)]


def divide_and_conquer(A: ReadSamplingMatrix, y, params: DncParams | None = None
                       ) -> ReconstructionReport:
    """Run the full blocking/thresholding/final-solve pipeline on observed
    read frequencies ``y`` (length K, aligned to A's compact rows).

    Every block's right-hand side is sliced from ``A'y``, formed once per
    call, and its Gram comes from :meth:`ReadSamplingMatrix.block_gram`: a
    slice of A'A when that is cheap, so a block costs its own size rather
    than a pass over the K rows, else the product of its own columns, so
    memory stays bounded by the block. The ambiguity screen runs
    :func:`component_flags` on every block's sparse Gram, as ``analyze``
    does on A'A: a singleton component is full rank as it stands, and only
    multi-column components are factorised. The final solve reports
    ||Ax - y|| from the surviving columns of A, and its solution goes onto
    the simplex by :meth:`FrequencyVector.normalize`.
    """
    params = params or DncParams()
    y = np.asarray(y, dtype=float).ravel()
    n = A.n_species
    if len(y) != A.n_rows:
        raise ValueError(f"y has {len(y)} entries but matrix has {A.n_rows} rows")
    aty = A.matrix.T @ y

    active = np.arange(n)
    iterations: list[IterationStats] = []
    iteration = 0
    while True:
        iteration += 1
        if params.schedule is not None:
            reps = params.schedule[min(iteration, len(params.schedule)) - 1]
        else:
            reps = default_repetitions(len(active), n)
        marked = np.zeros(len(active), dtype=bool)
        blocks_solved = 0
        unconverged = 0
        for round_idx in range(reps):
            positions = partition_species(np.arange(len(active)), params.block_size,
                                          params.seed, iteration, round_idx)
            for pos in positions:
                cols = active[pos]
                Gs = A.block_gram(cols)
                sol = nnls_from_gram(Gs.toarray(), aty[cols], kkt_tol=params.kkt_tol)
                blocks_solved += 1
                if not sol.converged:
                    unconverged += 1
                    logger.warning("block solve did not converge (kkt=%.2e); "
                                   "passing survivors through", sol.kkt_residual)
                # species not pinned down by their block survive to a larger
                # joint solve
                flags, _ = component_flags(Gs)
                marked[pos] |= (sol.x >= params.tau) | ~flags
        survivors = active[marked]
        iterations.append(IterationStats(iteration, len(active), len(survivors),
                                         reps, blocks_solved, unconverged))
        if survivors.size == 0:
            logger.warning("no species survived any block; returning empty report")
            return _empty_report(A, iterations, params)
        no_shrink = survivors.size == active.size
        active = survivors
        if active.size <= params.k_final:
            break
        if iteration >= params.max_iterations or (no_shrink and iteration > 1):
            logger.warning("stopping with %d survivors above the final cap %d",
                           active.size, params.k_final)
            break

    # final solve on the surviving columns against the full objective
    G = A.block_gram(active).toarray()
    sol = nnls_from_gram(G, aty[active], kkt_tol=params.kkt_tol)
    sol.residual_norm = residual_norm(A.matrix[:, active], sol.x, y)
    if sol.x.sum() <= 0:
        logger.warning("final solve returned an all-zero vector")
        return _empty_report(A, iterations, params, final=sol)

    x_full = np.zeros(n)
    x_full[active] = sol.x
    x_dna = FrequencyVector(x_full, "dna").normalize()
    x_species = unweight_from_dna(x_dna, A.col_lengths)
    support = np.where(x_dna.values > X_TOL)[0] + 1
    return ReconstructionReport(
        x_hat=x_species,
        x_hat_dna=x_dna,
        support=support,
        iterations=iterations,
        final_solver=_solver_diag(sol),
        params=params,
    )


def _solver_diag(sol: NnlsSolution) -> dict:
    """Every field of ``sol`` but its solution vector."""
    return {f.name: getattr(sol, f.name) for f in fields(sol) if f.name != "x"}


def _empty_report(A: ReadSamplingMatrix, iterations, params: DncParams,
                  final: NnlsSolution | None = None) -> ReconstructionReport:
    zeros = FrequencyVector(np.zeros(A.n_species), "species", normalized=False)
    return ReconstructionReport(
        x_hat=zeros,
        x_hat_dna=None,
        support=np.array([], dtype=np.int64),
        iterations=iterations,
        final_solver=_solver_diag(final) if final is not None else None,
        params=params,
        empty=True,
    )
