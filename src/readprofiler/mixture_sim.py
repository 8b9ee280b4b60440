"""Synthetic mixtures and i.i.d. short-read simulation.

Reads are drawn by the two-step generative model: pick a species according to
the DNA-weighted frequencies, then pick a read from that species' column of
the read-sampling matrix. All randomness flows through a seeded generator.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .read_matrix import FrequencyVector, ReadSamplingMatrix, reweight_to_dna
from .sequence_db import (
    MAX_CODE_LENGTH,
    KmerIndex,
    SequenceDatabase,
    base_digits,
    keys_to_codes,
    kmer_keys,
    lex_decode,
    lex_encode,
)

logger = logging.getLogger(__name__)


@dataclass
class MixtureSpec:
    """Ground-truth mixture: which species are present and at what frequency."""

    support: np.ndarray          # 1-based species ids
    frequencies: np.ndarray      # aligned with support, sums to 1
    seed: int
    generator_tag: str = "manual"

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.int64)
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        if len(self.support) != len(np.unique(self.support)):
            raise ValueError("support ids must be distinct")
        if len(self.support) != len(self.frequencies):
            raise ValueError("support and frequencies differ in length")
        if np.any(self.frequencies < 0) or abs(self.frequencies.sum() - 1.0) > 1e-12:
            raise ValueError("frequencies must be nonnegative and sum to 1")

    def full_vector(self, n_species: int) -> FrequencyVector:
        if np.any(self.support < 1) or np.any(self.support > n_species):
            raise ValueError("support ids outside 1..N")
        x = np.zeros(n_species)
        x[self.support - 1] = self.frequencies
        return FrequencyVector(x, "species", normalized=True)

    def to_dict(self) -> dict:
        return {
            "support": self.support.tolist(),
            "frequencies": self.frequencies.tolist(),
            "seed": int(self.seed),
            "generator_tag": self.generator_tag,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "MixtureSpec":
        d = json.loads(Path(path).read_text())
        return cls(np.array(d["support"]), np.array(d["frequencies"]),
                   d.get("seed", 0), d.get("generator_tag", "manual"))


def sample_power_law_mixture(db, k: int, alpha: float, seed: int) -> MixtureSpec:
    """Pick k distinct species uniformly at random and give the i-th chosen
    species unnormalized weight i^(-alpha), then normalize."""
    n = db if isinstance(db, (int, np.integer)) else len(db)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    rng = np.random.default_rng(seed)
    support = rng.choice(n, size=k, replace=False) + 1
    # rank-based weights in chosen order: i-th chosen species gets i^(-alpha)
    weights = np.arange(1, k + 1, dtype=float) ** (-alpha)
    freqs = weights / weights.sum()
    return MixtureSpec(support, freqs, seed, generator_tag=f"power-law(alpha={alpha})")


@dataclass
class ReadCounts:
    """Multiset of observed reads, keyed by k-mer code."""

    counts: dict[int, int]
    read_length: int
    total: int
    seed: int | None = None
    skipped_short: int = 0
    skipped_invalid: int = 0

    def __post_init__(self):
        if self.total < 1:
            raise ValueError("total read count must be >= 1")
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")
        if any(c <= 0 for c in self.counts.values()):
            raise ValueError("all stored counts must be positive")

    @property
    def n_distinct(self) -> int:
        return len(self.counts)

    def save(self, path) -> None:
        """Text format: '#' + JSON header, then 'kmer<TAB>count' lines."""
        header = {"read_length": self.read_length, "total": self.total, "seed": self.seed}
        lines = ["#" + json.dumps(header, sort_keys=True)]
        for code in sorted(self.counts):
            lines.append(f"{lex_decode(code, self.read_length)}\t{self.counts[code]}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "ReadCounts":
        lines = Path(path).read_text().splitlines()
        if not lines or not lines[0].startswith("#"):
            raise ValueError(f"{path}: missing JSON header line")
        header = json.loads(lines[0][1:])
        counts: dict[int, int] = {}
        for line in lines[1:]:
            if not line.strip():
                continue
            kmer, cnt = line.split("\t")
            counts[lex_encode(kmer)] = int(cnt)
        return cls(counts, header["read_length"], header["total"], header.get("seed"))


def _fastq_sequences(lines: list[str], path) -> list[str]:
    """Sequence lines of a four-line-per-record FASTQ file.

    Each record is an '@' header, a sequence, a '+' line and a quality line as
    long as the sequence; any other shape raises ValueError naming the
    1-based record number.
    """
    seqs = []
    for rec, start in enumerate(range(0, len(lines), 4), start=1):
        record = lines[start:start + 4]
        if len(record) < 4:
            raise ValueError(f"{path}: FASTQ record {rec} is truncated "
                             f"({len(record)} of 4 lines)")
        header, seq, plus, qual = (ln.strip() for ln in record)
        if not header.startswith("@"):
            raise ValueError(f"{path}: FASTQ record {rec} has no '@' header line")
        if not plus.startswith("+"):
            raise ValueError(f"{path}: FASTQ record {rec} has no '+' line")
        if len(qual) != len(seq):
            raise ValueError(f"{path}: FASTQ record {rec} has {len(seq)} bases "
                             f"but {len(qual)} quality values")
        seqs.append(seq)
    return seqs


def read_counts_from_reads(path, read_length: int) -> ReadCounts:
    """Encode raw reads (plain one-per-line or FASTQ) by their first L bases.

    Reads shorter than L are skipped and counted in ``skipped_short``; reads
    whose first L bases hold a character outside ACGT (such as N) are skipped
    and counted in ``skipped_invalid``. A malformed FASTQ record raises
    ValueError.
    """
    if not 1 <= read_length <= MAX_CODE_LENGTH:
        raise ValueError(f"read length must be in [1, {MAX_CODE_LENGTH}], got {read_length}")
    lines = Path(path).read_text().rstrip().splitlines()
    if lines and lines[0].startswith("@"):
        reads = _fastq_sequences(lines, path)
    else:
        reads = [ln for ln in lines if ln.strip()]
    reads = [read.strip().upper() for read in reads]
    usable = [read[:read_length] for read in reads if len(read) >= read_length]
    short = len(reads) - len(usable)
    digits = base_digits("".join(usable))
    valid = (digits.reshape(len(usable), read_length) <= 3).all(axis=1)
    invalid = len(usable) - int(valid.sum())
    # masked, so that an invalid base cannot spill into a valid read's key
    keys = kmer_keys(digits & 3, read_length, np.flatnonzero(valid) * read_length)
    index, rows = KmerIndex.first_seen(keys)
    counts = dict(zip(keys_to_codes(index.keys), np.bincount(rows).tolist()))
    if short:
        logger.warning("skipped %d reads shorter than %d", short, read_length)
    if invalid:
        logger.warning("skipped %d reads with a base outside ACGT in their first %d",
                       invalid, read_length)
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"{path}: no usable reads of length >= {read_length}")
    return ReadCounts(counts, read_length, total, skipped_short=short,
                      skipped_invalid=invalid)


def simulate_reads(A: ReadSamplingMatrix, x: FrequencyVector, n_reads: int,
                   seed: int) -> ReadCounts:
    """Draw ``n_reads`` i.i.d. reads from the mixture model.

    Species are drawn by inversion against the cumulative DNA-weighted
    frequencies, reads by inversion against the species' column cumulative.
    Deterministic given the seed.
    """
    if n_reads < 1:
        raise ValueError("need at least one read")
    if len(x) != A.n_species:
        raise ValueError("dimension mismatch between x and matrix")
    x_dna = x if x.kind == "dna" else reweight_to_dna(x, A.col_lengths)
    rng = np.random.default_rng(seed)
    u = rng.random(n_reads)
    v = rng.random(n_reads)

    cum = np.cumsum(x_dna.values)
    cum[-1] = 1.0
    species = np.searchsorted(cum, u, side="right")

    m = A.matrix
    per_species = np.bincount(species, minlength=A.n_species)
    # a stable sort keeps each species' draws in order; 16-bit labels sort by radix
    by_species = np.argsort(species.astype(np.min_scalar_type(A.n_species)), kind="stable")
    chosen_rows = np.empty(n_reads, dtype=np.int64)
    stop = np.cumsum(per_species)
    for b in np.flatnonzero(per_species):
        sel = by_species[stop[b] - per_species[b]:stop[b]]
        start, end = m.indptr[b], m.indptr[b + 1]
        if start == end:
            raise ValueError(f"species column {b} is empty")
        col_cum = np.cumsum(m.data[start:end])
        col_cum[-1] = 1.0
        idx = np.searchsorted(col_cum, v[sel], side="right")
        chosen_rows[sel] = m.indices[start + idx]

    per_row = np.bincount(chosen_rows)
    rows = np.flatnonzero(per_row)
    counts = dict(zip(A.codes_of(rows), per_row[rows].tolist()))
    return ReadCounts(counts, A.read_length, n_reads, seed=seed)


@dataclass
class EmpiricalFrequencies:
    """Observed read frequencies aligned to a matrix's compact rows."""

    y: np.ndarray                # length K, counts / total for mapped rows
    unmapped_fraction: float
    mapped_reads: int
    unmapped_reads: int
    total: int


def empirical_frequencies(rc: ReadCounts, A: ReadSamplingMatrix) -> EmpiricalFrequencies:
    """y = counts / R on the matrix's rows; reads whose k-mer is absent from
    the row index are excluded (not renormalized) and reported separately."""
    if rc.read_length != A.read_length:
        raise ValueError(
            f"read length mismatch: counts at L={rc.read_length}, matrix at L={A.read_length}"
        )
    codes = list(rc.counts)
    counts = np.fromiter(rc.counts.values(), dtype=np.int64, count=len(codes))
    rows = A.rows_of(codes)
    hit = rows >= 0
    y = np.zeros(A.n_rows)
    y[rows[hit]] = counts[hit] / rc.total
    unmapped = int(counts[~hit].sum())
    mapped = rc.total - unmapped
    return EmpiricalFrequencies(y, unmapped / rc.total, mapped, unmapped, rc.total)
