"""The three benchmark workloads and their seeded input generators.

Each workload has a set-up (timed, repeated), a per-op input generator
(untimed), an op (timed: only calls into readprofiler's public functions)
and a check of the op's output (untimed). Inputs depend only on the
workload seed and the op index, so the same seed gives the same inputs.
"""

from __future__ import annotations

import gzip
import importlib
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import readprofiler as rp


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def seeds(*key: int, n: int = 3) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(list(key)).generate_state(n)]


def public(name: str, module: str):
    """A public function the package does not export from its top level:
    taken from the package if a later version exports it, else from its
    module. Looked up per call, so a tracer's wrapper is seen."""
    found = getattr(rp, name, None)
    return found if found is not None else getattr(
        importlib.import_module(f"readprofiler.{module}"), name)


def check_estimate(report, path: Path) -> None:
    """x_hat is finite, nonnegative and sums to 1; the saved report gives the
    same frequencies back through load_estimate."""
    x = report.x_hat.values
    if report.empty:
        raise CheckFailed("empty reconstruction")
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise CheckFailed("x_hat has a negative or non-finite entry")
    if abs(x.sum() - 1.0) > 1e-12:
        raise CheckFailed(f"x_hat sums to {x.sum()!r}")
    loaded = public("load_estimate", "reconstruct")(path).values
    sup = report.support - 1
    if not np.array_equal(loaded[sup], x[sup]) or abs(loaded.sum() - 1.0) > 1e-12:
        raise CheckFailed("saved report does not round-trip through load_estimate")


class Workload:
    name: str
    why: str
    window: int          # ops whose quality and counts are reported
    has_l2 = True        # whether check() returns an l2 error

    def prepare(self) -> None:
        """Write input files; untimed."""

    def is_defect(self, inp, exc: Exception) -> bool:
        """Whether ``exc`` is a declared, known defect for this input rather
        than a failure."""
        return False


@dataclass
class ProfileInput:
    n_reads: int
    x_true: object
    read_seed: int
    dnc_seed: int


class Profile(Workload):
    """One trial of the error-vs-reads experiment on the criterion-7 instance."""

    name = "profile"
    why = ("DnC reconstruction (block Grams, NNLS, eigh ambiguity screen) on "
           "2000 random species x 500 bp at L=100; set-up is build_matrix and "
           "gram_lambda_min")
    window = 15                      # five passes over the read-count grid
    N_SPECIES, LENGTH, READ_LEN, K, ALPHA = 2000, 500, 100, 20, 1.0
    R_GRID = (10_000, 100_000, 500_000)

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.db_seed = seeds(seed, 1, n=1)[0]
        self.A = None

    def setup(self) -> None:
        self.A = None
        db = rp.generate_random_db(self.N_SPECIES, self.LENGTH, self.db_seed)
        self.A = rp.build_matrix(db, self.READ_LEN)
        self.lam = rp.gram_lambda_min(self.A)

    def make_input(self, i: int) -> ProfileInput:
        mix_seed, read_seed, dnc_seed = seeds(self.seed, 2, i)
        mix = rp.sample_power_law_mixture(self.N_SPECIES, self.K, self.ALPHA, mix_seed)
        return ProfileInput(self.R_GRID[i % len(self.R_GRID)],
                            mix.full_vector(self.N_SPECIES), read_seed, dnc_seed)

    def op(self, inp: ProfileInput):
        rc = rp.simulate_reads(self.A, inp.x_true, inp.n_reads, inp.read_seed)
        emp = rp.empirical_frequencies(rc, self.A)
        report = rp.divide_and_conquer(self.A, emp.y, rp.DncParams(seed=inp.dnc_seed))
        ev = rp.evaluate(inp.x_true, report.x_hat, self.A, inp.n_reads,
                         lambda_min=self.lam)
        return report, ev

    def check(self, inp: ProfileInput, out, spans) -> float:
        report, ev = out
        path = self.tmp / "estimate.json"
        report.save(path)
        check_estimate(report, path)
        return ev.l2_error


@dataclass
class ScanInput:
    db: object


class Scan(Workload):
    """critical_read_length_scan over L = 2..9 on a fresh family database."""

    name = "scan"
    why = ("identifiability scan L=2..9 of 10 families x 10 members x 200 bp, "
           "1% substitutions: dense full SVD per component; set-up is a cold "
           "import of readprofiler")
    window = 11
    FAMILIES, MEMBERS, LENGTH, SUBSTITUTIONS = 10, 10, 200, 2
    L_LO, L_HI = 2, 9

    has_l2 = False

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def setup(self) -> None:
        # nothing is built before the scan; what a user waits for before it
        # starts is the package import in a fresh interpreter
        subprocess.run([sys.executable, "-c", "import readprofiler"], check=True)

    def make_input(self, i: int) -> ScanInput:
        # Families share no L_HI-mer, so L_HI always splits the database into
        # one component per family; below it, chance shared k-mers join them.
        # Without this the number of components at L_HI, and with it the
        # cost of an op, would vary widely from one database to the next.
        rng = np.random.default_rng(seeds(self.seed, 3, i))
        seqs: list[str] = []
        taken: set[str] = set()
        while len(seqs) < self.FAMILIES * self.MEMBERS:
            family = self._family(rng)
            kmers = {s[k:k + self.L_HI] for s in family
                     for k in range(self.LENGTH - self.L_HI + 1)}
            if kmers.isdisjoint(taken):
                taken |= kmers
                seqs += family
        return ScanInput(rp.SequenceDatabase.from_sequences(seqs))

    def _family(self, rng) -> list[str]:
        founder = rng.integers(0, 4, self.LENGTH)
        family = []
        for _ in range(self.MEMBERS):
            member = founder.copy()
            pos = rng.choice(self.LENGTH, self.SUBSTITUTIONS, replace=False)
            member[pos] = (member[pos] + rng.integers(1, 4, len(pos))) % 4
            family.append("".join("ACGT"[b] for b in member))
        return family

    def op(self, inp: ScanInput):
        return rp.critical_read_length_scan(inp.db, self.L_LO, self.L_HI)

    def check(self, inp: ScanInput, scan, spans) -> None:
        """Rank, identifiability and identifiable fraction at every L against
        an independent dense computation. The fractions need not be monotone:
        a species' last window makes A at L more than a marginal of A at
        L + 1, and some databases lose a species from L=2 to L=3."""
        n = len(inp.db)
        lengths = list(range(self.L_LO, self.L_HI + 1))
        if list(scan.read_lengths) != lengths:
            raise CheckFailed(f"scanned {scan.read_lengths}")
        ranks, counts = [], []
        for read_len in lengths:
            A = rp.build_matrix(inp.db, read_len)
            rank, flags = _rank_and_flags(np.vstack([A.matrix.toarray(), np.ones((1, n))]))
            ranks.append(rank)
            counts.append(int(flags.sum()))
        if list(scan.fully_identifiable) != [r == n for r in ranks]:
            raise CheckFailed(f"identifiable {scan.fully_identifiable} vs ranks {ranks}")
        if [round(f * n) for f in scan.fractions] != counts:
            raise CheckFailed(f"fractions {scan.fractions} vs identifiable counts {counts}")
        seen = [s.counts["rank"] for s in spans if s.name == "identifiability.analyze"]
        if seen and seen != ranks:
            raise CheckFailed(f"analyze ranks {seen} vs matrix_rank {ranks}")
        first = next((L for L, r in zip(lengths, ranks) if r == n), None)
        drops = [L for L, a, b in zip(lengths[1:], scan.fractions, scan.fractions[1:]) if b < a]
        if scan.critical_length != first or list(scan.monotonicity_violations) != drops:
            raise CheckFailed(f"critical length {scan.critical_length} or "
                              f"violations {scan.monotonicity_violations} inconsistent")


def _rank_and_flags(dense: np.ndarray, flag_tol: float = 1e-8):
    """Numerical rank (numpy's matrix_rank rule) and the columns orthogonal to
    the null space, via the singular values of the n x n QR factor."""
    m, n = dense.shape
    r = np.linalg.qr(dense, mode="r") if m > n else dense
    r = np.vstack([r, np.zeros((n - r.shape[0], n))])
    _, sv, vt = np.linalg.svd(r)
    rank = int(np.count_nonzero(sv > sv[0] * max(m, n) * np.finfo(float).eps))
    return rank, np.linalg.norm(vt[rank:], axis=0) <= flag_tol


@dataclass
class IngestInput:
    fastq: Path
    written: int
    x_true: np.ndarray
    has_n: bool
    dnc_seed: int


class Ingest(Workload):
    """build-matrix from a gzipped FASTA, then reconstruct --raw-reads."""

    name = "ingest"
    why = ("FASTQ -> read_counts_from_reads -> DnC at L=150 on 500 x 1000 bp; "
           "1% of reads shorter than L; 1 sample in 10 has an N read, which "
           "the program rejects (known defect)")
    window = 10                      # one pass over the ten samples
    N_SPECIES, LENGTH, READ_LEN, K, ALPHA = 500, 1000, 150, 20, 1.0
    READS, SAMPLES, SHORT_SHARE, N_SAMPLE = 50_000, 10, 0.01, 9

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.fasta = tmp / "db.fasta.gz"
        self.matrix_path = tmp / "matrix.rsm"
        self.samples: list[IngestInput] = []
        self.A = None

    def prepare(self) -> None:
        db_seed, = seeds(self.seed, 4, n=1)
        rng = np.random.default_rng(db_seed)
        seqs = ["".join("ACGT"[b] for b in rng.integers(0, 4, self.LENGTH))
                for _ in range(self.N_SPECIES)]
        with gzip.open(self.fasta, "wt") as fh:
            fh.writelines(f">sp{j + 1}\n{s}\n" for j, s in enumerate(seqs))
        self.samples = [self._write_sample(seqs, s) for s in range(self.SAMPLES)]

    def _write_sample(self, seqs: list[str], s: int) -> IngestInput:
        mix_seed, read_seed, dnc_seed = seeds(self.seed, 5, s)
        x_true = rp.sample_power_law_mixture(self.N_SPECIES, self.K, self.ALPHA,
                                             mix_seed).full_vector(self.N_SPECIES).values
        rng = np.random.default_rng(read_seed)
        L = self.READ_LEN
        species = rng.choice(self.N_SPECIES, size=self.READS, p=x_true)
        starts = rng.integers(0, self.LENGTH - L + 1, size=self.READS)
        lengths = np.full(self.READS, L)
        short = rng.choice(self.READS, size=round(self.SHORT_SHARE * self.READS),
                           replace=False)
        lengths[short] = rng.integers(L // 2, L, size=len(short))
        reads = [seqs[j][p:p + n] for j, p, n in zip(species, starts, lengths)]
        has_n = s == self.N_SAMPLE
        if has_n:
            r = int(rng.choice(np.setdiff1d(np.arange(self.READS), short)))
            p = int(rng.integers(0, L))
            reads[r] = reads[r][:p] + "N" + reads[r][p + 1:]
        path = self.tmp / f"sample{s}.fastq"
        with open(path, "w") as fh:
            fh.writelines(f"@r{k}\n{read}\n+\n{'I' * len(read)}\n"
                          for k, read in enumerate(reads))
        return IngestInput(path, self.READS, x_true, has_n, dnc_seed)

    def setup(self) -> None:
        self.A = None
        db = rp.parse_fasta(self.fasta)
        A = rp.build_matrix(db, self.READ_LEN)
        A.save(self.matrix_path)
        self.A = rp.ReadSamplingMatrix.load(self.matrix_path)

    def make_input(self, i: int) -> IngestInput:
        return self.samples[i % self.SAMPLES]

    def op(self, inp: IngestInput):
        rc = public("read_counts_from_reads", "mixture_sim")(inp.fastq, self.READ_LEN)
        emp = rp.empirical_frequencies(rc, self.A)
        report = rp.divide_and_conquer(self.A, emp.y, rp.DncParams(seed=inp.dnc_seed))
        report.save(self.tmp / "estimate.json")
        return rc, report

    def check(self, inp: IngestInput, out, spans) -> float:
        rc, report = out
        # every read is either counted or skipped, whatever skip counters exist
        skipped = sum(v for k, v in vars(rc).items()
                      if k.startswith("skipped") and isinstance(v, int))
        if rc.total + skipped != inp.written:
            raise CheckFailed(f"{rc.total} counted + {skipped} skipped != {inp.written}")
        check_estimate(report, self.tmp / "estimate.json")
        return float(np.linalg.norm(inp.x_true - report.x_hat.values))

    def is_defect(self, inp: IngestInput, exc: Exception) -> bool:
        # reads with an N abort read_counts_from_reads in lex_encode; a later
        # version that skips and counts them makes this sample pass its check
        return inp.has_n and isinstance(exc, ValueError)


WORKLOADS = {w.name: w for w in (Profile, Scan, Ingest)}
