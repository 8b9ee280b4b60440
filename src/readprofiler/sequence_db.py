"""Reference sequence database: FASTA ingestion, dedup, and k-mer codes."""

from __future__ import annotations

import gzip
import hashlib
import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

logger = logging.getLogger(__name__)

ALPHABET = "ACGT"
_DIGIT = {"A": 0, "C": 1, "G": 2, "T": 3}
_TO_DIGITS = str.maketrans("ACGT", "0123")
_NON_ACGT = re.compile("[^ACGT]")

#: Largest supported k-mer length. Codes are arbitrary-precision integers so
#: there is no overflow; the cap only keeps per-code memory bounded.
MAX_CODE_LENGTH = 512


class FastaError(ValueError):
    """Malformed or unusable FASTA input."""


class AmbiguousBaseError(FastaError):
    """A record contains characters outside {A, C, G, T}."""


def lex_encode(s: str) -> int:
    """1-based index of ``s`` in the lexicographic order of all 4^L strings.

    'AAA...A' maps to 1 and 'TTT...T' maps to 4^L, with A < C < G < T.
    """
    if not s:
        raise ValueError("cannot encode an empty string")
    if len(s) > MAX_CODE_LENGTH:
        raise ValueError(f"k-mer length {len(s)} exceeds cap {MAX_CODE_LENGTH}")
    bad = _NON_ACGT.search(s)
    if bad:
        raise ValueError(f"invalid character {bad.group()!r} (expected one of ACGT)")
    # s holds only ACGT, so the translation holds only the base-4 digits 0-3
    return int(s.translate(_TO_DIGITS), 4) + 1


def lex_decode(code: int, length: int) -> str:
    """Inverse of :func:`lex_encode` for a given k-mer length."""
    if not 1 <= length <= MAX_CODE_LENGTH:
        raise ValueError(f"length must be in [1, {MAX_CODE_LENGTH}], got {length}")
    if not 1 <= code <= 4 ** length:
        raise ValueError(f"code {code} out of range [1, 4^{length}]")
    v = code - 1
    out = []
    for _ in range(length):
        out.append(ALPHABET[v & 3])
        v >>= 2
    return "".join(reversed(out))


def window_codes(sequence: str, length: int) -> Iterator[int]:
    """Codes of every length-``length`` window, left to right.

    Uses a rolling update so each step is O(1) big-int operations instead of
    re-encoding the whole window.
    """
    n = len(sequence)
    if length < 1:
        raise ValueError("window length must be >= 1")
    if n < length:
        raise ValueError(f"sequence length {n} shorter than window {length}")
    top = 4 ** (length - 1)
    v = lex_encode(sequence[:length]) - 1
    yield v + 1
    for k in range(1, n - length + 1):
        v = (v - _DIGIT[sequence[k - 1]] * top) * 4 + _DIGIT[sequence[k + length - 1]]
        yield v + 1


@dataclass(frozen=True)
class SpeciesRecord:
    """One reference sequence. ``id`` is 1-based and contiguous."""

    id: int
    label: str
    sequence: str

    @property
    def length(self) -> int:
        return len(self.sequence)


class SequenceDatabase:
    """Deduplicated, ordered collection of reference sequences.

    Immutable after construction; safe to share across threads/processes.
    """

    def __init__(
        self,
        records: list[SpeciesRecord],
        dedup_map: dict[str, int] | None = None,
        dropped_ambiguous: int = 0,
    ):
        seen: dict[str, int] = {}
        for i, rec in enumerate(records):
            if rec.id != i + 1:
                raise ValueError(f"record ids must be contiguous 1..N, got {rec.id} at position {i}")
            if not rec.sequence:
                raise ValueError(f"record {rec.label!r} has an empty sequence")
            if rec.sequence in seen:
                raise ValueError(
                    f"duplicate sequence shared by records {seen[rec.sequence]} and {rec.id}"
                )
            seen[rec.sequence] = rec.id
        self.records = list(records)
        self.dedup_map = dict(dedup_map or {})
        self.dropped_ambiguous = dropped_ambiguous

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SpeciesRecord]:
        return iter(self.records)

    @property
    def lengths(self) -> list[int]:
        return [r.length for r in self.records]

    @property
    def n_max(self) -> int:
        if not self.records:
            raise ValueError("empty database has no n_max")
        return max(r.length for r in self.records)

    @property
    def labels(self) -> list[str]:
        return [r.label for r in self.records]

    @classmethod
    def from_sequences(
        cls, sequences: Iterable[str], labels: Iterable[str] | None = None
    ) -> "SequenceDatabase":
        """Build directly from in-memory sequences (already uppercase ACGT)."""
        seqs = list(sequences)
        labs = list(labels) if labels is not None else [f"seq_{i + 1}" for i in range(len(seqs))]
        if len(labs) != len(seqs):
            raise ValueError("labels and sequences differ in length")
        records, dedup, seen = [], {}, {}
        for lab, seq in zip(labs, seqs):
            if seq in seen:
                dedup[lab] = seen[seq]
                continue
            rid = len(records) + 1
            seen[seq] = rid
            records.append(SpeciesRecord(rid, lab, seq))
        return cls(records, dedup)

    # -- serialization -----------------------------------------------------

    def fasta_text(self) -> str:
        return "".join(f">{r.label}\n{r.sequence}\n" for r in self.records)

    def checksum(self) -> str:
        return hashlib.sha256(self.fasta_text().encode()).hexdigest()

    def save(self, fasta_path, manifest_path=None) -> None:
        """Write normalized FASTA plus a JSON manifest sidecar."""
        fasta_path = Path(fasta_path)
        fasta_path.write_text(self.fasta_text())
        if manifest_path is None:
            manifest_path = fasta_path.with_suffix(fasta_path.suffix + ".manifest.json")
        manifest = {
            "n_species": len(self),
            "n_max": self.n_max if self.records else 0,
            "labels": self.labels,
            "dedup_map": self.dedup_map,
            "checksum": self.checksum(),
        }
        Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n")


def _open_text(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt")
    return open(path)


def iter_fasta(path) -> Iterator[tuple[str, str]]:
    """Yield (header, sequence) pairs from a plain or gzipped FASTA file."""
    label = None
    chunks: list[str] = []
    with _open_text(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if label is not None:
                    yield label, "".join(chunks)
                label = line[1:].strip()
                chunks = []
            elif label is None:
                raise FastaError(f"{path}: sequence data before first '>' header")
            else:
                chunks.append(line)
    if label is not None:
        yield label, "".join(chunks)


def parse_fasta(path, uppercase: bool = True, drop_ambiguous: bool = False) -> SequenceDatabase:
    """Load a FASTA file into a validated, deduplicated database.

    Records containing characters outside ACGT are dropped (and counted) when
    ``drop_ambiguous`` is set, otherwise they raise :class:`AmbiguousBaseError`.
    Exact duplicate sequences collapse to the first-seen record; the dropped
    labels are recorded in ``dedup_map``.
    """
    records: list[SpeciesRecord] = []
    dedup_map: dict[str, int] = {}
    seen: dict[str, int] = {}
    dropped = 0
    n_parsed = 0
    for label, seq in iter_fasta(path):
        n_parsed += 1
        if uppercase:
            seq = seq.upper()
        if not seq:
            raise FastaError(f"{path}: empty sequence for record {label!r}")
        if any(ch not in _DIGIT for ch in seq):
            if drop_ambiguous:
                dropped += 1
                logger.warning("dropping record %r: ambiguous characters", label)
                continue
            bad = next(ch for ch in seq if ch not in _DIGIT)
            raise AmbiguousBaseError(f"{path}: record {label!r} contains {bad!r}")
        if seq in seen:
            dedup_map[label] = seen[seq]
            continue
        rid = len(records) + 1
        seen[seq] = rid
        records.append(SpeciesRecord(rid, label, seq))
    if n_parsed == 0:
        raise FastaError(f"{path}: no FASTA records found")
    return SequenceDatabase(records, dedup_map, dropped)
