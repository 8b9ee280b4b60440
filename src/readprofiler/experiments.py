"""Experiment pipelines: error vs number of reads, identifiability vs read
length, and random database generation.

Every trial carries its own derived seed and the config hash, so any CSV row
can be reproduced in isolation. Output row order is fixed (sorted by grid
point and trial), so runs are byte-identical regardless of worker count.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics
from .identifiability import critical_read_length_scan
from .mixture_sim import check_mixture_params, empirical_frequencies, \
    sample_power_law_mixture, simulate_reads
from .read_matrix import ReadSamplingMatrix, build_matrix
from .reconstruct import DncParams, divide_and_conquer
from .sequence_db import ALPHABET, SequenceDatabase, check_read_length, parse_fasta, \
    read_json, require_fields

logger = logging.getLogger(__name__)

TRIAL_FIELDS = [
    "n_reads", "trial", "seed", "config_hash", "failed",
    "l2_error", "mahalanobis_error", "l2_bound", "mahalanobis_bound",
    "support_size", "unmapped_fraction",
]

#: the type of each scalar DncParams field that a config's "dnc" object may set
DNC_FIELDS = {"block_size": int, "tau": float, "k_final": int, "seed": int,
              "kkt_tol": float, "max_iterations": int}


def generate_random_db(n: int, length: int, seed: int) -> SequenceDatabase:
    """N distinct sequences of i.i.d. uniform bases; collisions resampled."""
    if n < 1 or length < 1:
        raise ValueError("n and length must be >= 1")
    if n > 4 ** length:
        raise ValueError(f"cannot draw {n} distinct sequences of length {length}")
    rng = np.random.default_rng(seed)
    letters = np.frombuffer(ALPHABET.encode(), dtype=np.uint8)
    seqs: list[str] = []
    seen: set[str] = set()
    batch = n
    while len(seqs) < n:
        text = letters[rng.integers(0, 4, size=(batch, length))].tobytes().decode()
        for at in range(0, batch * length, length):
            if len(seqs) >= n:
                break
            s = text[at:at + length]
            if s in seen:
                continue
            seen.add(s)
            seqs.append(s)
        batch = max(8, n - len(seqs))
    labels = [f"rand_{i + 1:06d}" for i in range(n)]
    return SequenceDatabase.from_sequences(seqs, labels)


@dataclass
class ExperimentConfig:
    db_fasta: str | None = None
    random_db: dict | None = None        # {"n": int, "length": int, "seed": int}
    read_length: int = 100
    k: int = 20
    alpha: float = 1.0
    r_grid: list[int] = field(default_factory=lambda: [10_000, 100_000, 500_000])
    trials: int = 20
    delta: float = 0.5
    seed: int = 0
    l_range: list[int] = field(default_factory=lambda: [2, 10])
    dnc: dict = field(default_factory=dict)  # DncParams overrides
    output_dir: str = "out"
    workers: int | None = None

    def __post_init__(self):
        if self.db_fasta is None and self.random_db is None:
            raise ValueError("config needs either db_fasta or random_db")
        if isinstance(self.l_range, tuple):     # as code may pass it; JSON gives a list
            self.l_range = list(self.l_range)
        require_fields(vars(self), "config", read_length=int, k=int, alpha=float,
                       seed=int, trials=int, delta=float, r_grid=list[int],
                       l_range=list[int], dnc=dict)
        if len(self.l_range) != 2:
            raise ValueError(f"config: field 'l_range' must hold 2 ints, "
                             f"got {len(self.l_range)}")
        require_fields(self.dnc, "dnc", **{name: kind for name, kind in DNC_FIELDS.items()
                                           if name in self.dnc})
        if self.dnc.get("schedule") is not None:    # null keeps the default schedule
            require_fields(self.dnc, "dnc", schedule=list[int])
        if self.db_fasta is not None:
            require_fields(vars(self), "config", db_fasta=str)
        if self.random_db is not None:
            require_fields(self.random_db, "random_db", n=int, length=int)
            if "seed" in self.random_db:
                require_fields(self.random_db, "random_db", seed=int)
        if self.r_grid != sorted(set(self.r_grid)) or any(r < 1 for r in self.r_grid):
            raise ValueError("r_grid must be strictly increasing and positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        check_read_length(self.read_length)
        if self.workers is not None:
            require_fields(vars(self), "config", workers=int)
            if self.workers < 1:
                raise ValueError("workers must be >= 1")
        self.dnc_params()  # rejects unknown or invalid DncParams fields

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        data = read_json(path)
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def to_dict(self) -> dict:
        # destination and parallelism do not influence results, so they are
        # kept out of persisted configs and of the config hash: the same
        # experiment produces byte-identical artifacts wherever and however
        # parallel it runs
        d = dict(vars(self))
        del d["output_dir"]
        del d["workers"]
        return d

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]

    def load_db(self) -> SequenceDatabase:
        if self.db_fasta is not None:
            return parse_fasta(self.db_fasta, drop_ambiguous=True)
        rd = self.random_db
        return generate_random_db(rd["n"], rd["length"], rd.get("seed", self.seed))

    def dnc_params(self) -> DncParams:
        return DncParams(**{**{"seed": self.seed}, **self.dnc})


def _trial_seeds(master: int, grid_index: int, trial: int) -> tuple[int, int]:
    state = np.random.SeedSequence([master & 0xFFFFFFFFFFFFFFFF, grid_index, trial]
                                   ).generate_state(2)
    return int(state[0]), int(state[1])


# worker-process state, installed once per worker by the pool initializer
_WORKER: dict = {}


def _init_worker(A: ReadSamplingMatrix, cfg: ExperimentConfig, lam: float) -> None:
    _WORKER["A"] = A
    _WORKER["cfg"] = cfg
    _WORKER["lambda"] = lam


def _run_trial(job: tuple[int, int, int]) -> dict:
    grid_index, n_reads, trial = job
    A: ReadSamplingMatrix = _WORKER["A"]
    cfg: ExperimentConfig = _WORKER["cfg"]
    lam: float = _WORKER["lambda"]
    mix_seed, read_seed = _trial_seeds(cfg.seed, grid_index, trial)
    row = {
        "n_reads": n_reads, "trial": trial, "seed": mix_seed,
        "config_hash": cfg.config_hash(), "failed": 0,
    }
    try:
        mixture = sample_power_law_mixture(A.n_species, cfg.k, cfg.alpha, mix_seed)
        x_true = mixture.full_vector(A.n_species)
        rc = simulate_reads(A, x_true, n_reads, read_seed)
        emp = empirical_frequencies(rc, A)
        params = cfg.dnc_params()
        params.seed = read_seed
        report = divide_and_conquer(A, emp.y, params)
        ev = metrics.evaluate(x_true, report.x_hat, A, n_reads, cfg.delta,
                              lambda_min=lam)
        row.update({
            "l2_error": f"{ev.l2_error:.10e}",
            "mahalanobis_error": f"{ev.mahalanobis_error:.10e}",
            "l2_bound": f"{ev.l2_bound:.10e}",
            "mahalanobis_bound": f"{ev.mahalanobis_bound:.10e}",
            "support_size": len(report.support),
            "unmapped_fraction": f"{emp.unmapped_fraction:.10e}",
        })
    except Exception as exc:  # a failed trial is recorded, not fatal
        logger.exception("trial R=%d #%d failed", n_reads, trial)
        row["failed"] = 1
        row["error"] = str(exc)
    return row


def run_error_vs_reads(cfg: ExperimentConfig):
    """Run the reconstruction-error experiment over the read-count grid.

    Writes trials.csv (one row per trial), summary.csv (mean/sd per grid
    point), and summary.json. Returns (trial_rows, summary_rows, n_failed).
    A config the database cannot serve raises before the output directory
    is made.
    """
    db = cfg.load_db()
    check_mixture_params(len(db), cfg.k, cfg.alpha)
    A = build_matrix(db, cfg.read_length)
    lam = metrics.gram_lambda_min(A)

    jobs = [(gi, n_reads, t) for gi, n_reads in enumerate(cfg.r_grid)
            for t in range(cfg.trials)]
    workers = cfg.workers or 1
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(A, cfg, lam)) as pool:
            rows = list(pool.map(_run_trial, jobs, chunksize=1))
    else:
        _init_worker(A, cfg, lam)
        rows = [_run_trial(job) for job in jobs]
    rows.sort(key=lambda r: (r["n_reads"], r["trial"]))

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trials.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRIAL_FIELDS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)

    summary_rows = []
    for n_reads in cfg.r_grid:
        ok = [r for r in rows if r["n_reads"] == n_reads and not r["failed"]]
        l2 = np.array([float(r["l2_error"]) for r in ok])
        ma = np.array([float(r["mahalanobis_error"]) for r in ok])
        summary_rows.append({
            "n_reads": n_reads,
            "trials_ok": len(ok),
            "l2_mean": f"{l2.mean():.10e}" if len(ok) else "",
            "l2_sd": f"{l2.std(ddof=1):.10e}" if len(ok) > 1 else "",
            "mahalanobis_mean": f"{ma.mean():.10e}" if len(ok) else "",
            "mahalanobis_sd": f"{ma.std(ddof=1):.10e}" if len(ok) > 1 else "",
            "l2_bound": f"{metrics.l2_error_bound(n_reads, cfg.delta, lam):.10e}",
            "mahalanobis_bound": f"{metrics.mahalanobis_error_bound(n_reads, cfg.delta):.10e}",
        })
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0].keys()))
        writer.writeheader()
        writer.writerows(summary_rows)

    n_failed = sum(r["failed"] for r in rows)
    (out / "summary.json").write_text(json.dumps({
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "lambda_min": lam,
        "n_failed": n_failed,
        "summary": summary_rows,
    }, indent=2) + "\n")
    return rows, summary_rows, n_failed


def run_identifiability_scan(cfg: ExperimentConfig):
    """Per-L identifiable fractions for the configured database and a
    size-matched random-sequence control, each from one
    :func:`critical_read_length_scan`. The monotonicity violations are the
    read lengths where either fraction drops; the critical length is the
    database's. Writes scan.csv and scan.json, after both scans, so a bad
    ``l_range`` or database raises before the output directory is made."""
    db = cfg.load_db()
    mean_len = int(round(np.mean(db.lengths)))
    control = generate_random_db(len(db), mean_len, cfg.seed + 1)

    l_lo, l_hi = cfg.l_range
    scan_db = critical_read_length_scan(db, l_lo, l_hi)
    scan_ctl = critical_read_length_scan(control, l_lo, l_hi)
    rows = [{
        "read_length": read_len,
        "db_fraction": f"{db_frac:.10f}",
        "db_identifiable": int(db_ident),
        "control_fraction": f"{ctl_frac:.10f}",
        "control_identifiable": int(ctl_ident),
    } for read_len, db_frac, db_ident, ctl_frac, ctl_ident in zip(
        scan_db.read_lengths, scan_db.fractions, scan_db.fully_identifiable,
        scan_ctl.fractions, scan_ctl.fully_identifiable)]
    violations = sorted({*scan_db.monotonicity_violations, *scan_ctl.monotonicity_violations})
    critical = scan_db.critical_length
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scan.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    (out / "scan.json").write_text(json.dumps({
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "critical_length_db": critical,
        "monotonicity_violations": violations,
        "rows": rows,
    }, indent=2) + "\n")
    return rows, critical, violations
