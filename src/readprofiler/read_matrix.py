"""Sparse read-sampling matrix and frequency-vector conversions.

The matrix has one column per species and one compact row per k-mer that
actually occurs; each column is the probability distribution of a uniformly
sampled error-free read from that species. Sequences shorter than the read
length follow the uniform-tail convention: the read starts with the whole
sequence and the remaining positions are uniform over ACGT.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sequence_db import (
    MAX_CODE_LENGTH,
    KmerIndex,
    SequenceDatabase,
    base_digits,
    codes_to_keys,
    keys_to_codes,
    kmer_keys,
)

COLUMN_SUM_TOL = 1e-12
SIMPLEX_TOL = 1e-12

#: Columns with n_j < L expand into 4^(L - n_j) tail reads; refuse to blow up.
MAX_TAIL_LENGTH = 12

TAIL_CONVENTION = "uniform-tail"

_MATRIX_FORMAT = "readprofiler-matrix-v1"


@dataclass
class FrequencyVector:
    """Nonnegative length-N vector, either species frequencies ("species")
    or DNA-weighted sampling frequencies ("dna")."""

    values: np.ndarray
    kind: str = "species"
    normalized: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("frequency vector must be 1-D")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("frequency vector must be finite")
        if np.any(self.values < 0):
            raise ValueError("frequency vector must be nonnegative")
        if self.kind not in ("species", "dna"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.normalized and abs(self.values.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"vector flagged normalized but sums to {self.values.sum()!r}")

    def __len__(self) -> int:
        return len(self.values)

    def normalize(self) -> "FrequencyVector":
        total = self.values.sum()
        if total <= 0:
            raise ValueError("cannot normalize an all-zero vector")
        v = self.values / total
        # guard against accumulated rounding in long vectors
        v = v / v.sum()
        return FrequencyVector(v, self.kind, normalized=True)


class ReadSamplingMatrix:
    """Compacted K x N read-sampling matrix with its k-mer row index.

    Row k is the k-mer of ``index.keys[k]``: K distinct packed keys of
    W = ``key_words(read_length)`` words each (see :func:`kmer_keys`).
    Decimal ``lex_encode`` codes appear only in the matrix file.
    The matrix is immutable after construction: :attr:`gram` caches A'A on
    first use, and every consumer reads that one product.
    """

    #: :meth:`gram_if_cheap` forms A'A only within this many multiply-adds
    #: per stored entry of A.
    _CHEAP_GRAM_PRODUCTS = 2

    def __init__(self, read_length: int, matrix: sp.csc_matrix, index: KmerIndex,
                 col_lengths: np.ndarray):
        if matrix.shape[0] != len(index.keys):
            raise ValueError("row index length disagrees with matrix rows")
        if matrix.shape[1] != len(col_lengths):
            raise ValueError("col_lengths length disagrees with matrix columns")
        self.read_length = read_length
        self.matrix = matrix.tocsc()
        self.matrix.sort_indices()
        self.index = index
        self.col_lengths = np.asarray(col_lengths, dtype=np.int64)
        self._gram: sp.csr_matrix | None = None

    @property
    def gram(self) -> sp.csr_matrix:
        """The species Gram A'A as CSR, computed once and cached.

        Entry (i, j) sums A[k, i] * A[k, j] over the rows k that both columns
        touch, in increasing k, whatever other columns take part, so a block
        ``gram[cols][:, cols]`` is bit-identical to the product of A's
        ``cols`` columns alone. Its pattern is that of the column graph: A
        is nonnegative, so no sum cancels, and each stored entry is at least
        4**-12 or one over a sequence length, so no product underflows.
        :meth:`save` never writes it.
        """
        if self._gram is None:
            self._gram = (self.matrix.T @ self.matrix).tocsr()
        return self._gram

    def gram_if_cheap(self) -> sp.csr_matrix | None:
        """:attr:`gram` when it is cached or cheap to form, else None.

        Forming A'A takes sum_k r_k^2 multiply-adds, r_k being the number of
        species in row k, and that sum bounds its nnz. Uncached, it is formed
        only when the sum is at most twice nnz(A), so the cache holds at most
        twice A's own entries. Species that share many rows (short L, strain
        families) make A'A nearly dense, N^2 entries; a caller that needs only
        blocks of it then forms each block's own product instead.
        """
        if self._gram is None:
            # add.at reads the int32 row indices in place; bincount would
            # first copy them to int64, 8 bytes per stored entry
            counts = np.zeros(self.n_rows, dtype=np.int64)
            np.add.at(counts, self.matrix.indices, 1)
            if int(counts @ counts) > self._CHEAP_GRAM_PRODUCTS * self.matrix.nnz:
                return None
        return self.gram

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_species(self) -> int:
        return self.matrix.shape[1]

    def column_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    def expected_read_distribution(self, x: FrequencyVector) -> np.ndarray:
        """A @ x' over the stored rows; sums to 1 for normalized dna input."""
        if x.kind != "dna":
            raise ValueError("expected a dna-weighted frequency vector")
        if not x.normalized:
            raise ValueError("expected a normalized frequency vector")
        if len(x) != self.n_species:
            raise ValueError(f"dimension mismatch: {len(x)} vs {self.n_species} species")
        return self.matrix @ x.values

    # -- serialization -----------------------------------------------------

    def save(self, path) -> None:
        """Canonical binary file: one JSON header line, then triplets sorted
        by (row, col), column lengths, and the row-code table."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        rows = coo.row[order].astype(np.int64)
        cols = coo.col[order].astype(np.int64)
        vals = coo.data[order].astype(np.float64)
        codes_blob = "\n".join(map(str, keys_to_codes(self.index.keys))).encode()
        payload = (
            rows.tobytes() + cols.tobytes() + vals.tobytes()
            + self.col_lengths.astype(np.int64).tobytes() + codes_blob
        )
        header = {
            "format": _MATRIX_FORMAT,
            "read_length": self.read_length,
            "n_rows": self.n_rows,
            "n_species": self.n_species,
            "nnz": int(len(vals)),
            "tail_convention": TAIL_CONVENTION,
            "codes_bytes": len(codes_blob),
            "checksum": hashlib.sha256(payload).hexdigest(),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(payload)

    @classmethod
    def load(cls, path) -> "ReadSamplingMatrix":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            payload = fh.read()
        if header.get("format") != _MATRIX_FORMAT:
            raise ValueError(f"{path}: not a read-sampling matrix file")
        if hashlib.sha256(payload).hexdigest() != header["checksum"]:
            raise ValueError(f"{path}: checksum mismatch")
        if header["tail_convention"] != TAIL_CONVENTION:
            raise ValueError(f"{path}: tail convention {header['tail_convention']!r} "
                             f"is not {TAIL_CONVENTION!r}")
        read_length = header["read_length"]
        nnz = header["nnz"]
        n = header["n_species"]
        off = 0
        rows = np.frombuffer(payload, dtype=np.int64, count=nnz, offset=off); off += 8 * nnz
        cols = np.frombuffer(payload, dtype=np.int64, count=nnz, offset=off); off += 8 * nnz
        vals = np.frombuffer(payload, dtype=np.float64, count=nnz, offset=off); off += 8 * nnz
        col_lengths = np.frombuffer(payload, dtype=np.int64, count=n, offset=off); off += 8 * n
        codes_blob = payload[off:]
        row_codes = list(map(int, codes_blob.decode().split("\n"))) if codes_blob else []
        matrix = sp.csc_matrix(
            (vals, (rows, cols)), shape=(header["n_rows"], n)
        )
        return cls(read_length, matrix, KmerIndex(codes_to_keys(row_codes, read_length)),
                   col_lengths)


def build_matrix(db: SequenceDatabase, read_length: int) -> ReadSamplingMatrix:
    """Construct the read-sampling matrix for a database at a given read length.

    Deterministic: identical (db, read_length) always yields the same compact
    row order (first-seen, scanning columns left to right).
    """
    if read_length < 1:
        raise ValueError("read length must be >= 1")
    if read_length > MAX_CODE_LENGTH:
        raise ValueError(f"read length {read_length} exceeds cap {MAX_CODE_LENGTH}")
    if len(db) == 0:
        raise ValueError("cannot build a matrix from an empty database")

    n_species = len(db)
    lengths = np.array(db.lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    digits = base_digits("".join(rec.sequence for rec in db.records))
    bad = np.flatnonzero(digits > 3)
    if bad.size:
        j = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        rec = db.records[j]
        raise ValueError(f"species {rec.id} ({rec.label!r}): invalid character "
                         f"{rec.sequence[bad[0] - offsets[j]]!r} (expected one of ACGT)")

    # reads per column: every window of a species at least read_length long,
    # in column order; a shorter species' tails are filled in below
    n_reads = np.maximum(lengths - read_length + 1, 0)
    firsts = np.cumsum(n_reads) - n_reads
    starts = np.arange(n_reads.sum()) + np.repeat(offsets - firsts, n_reads)
    keys = kmer_keys(digits, read_length, starts)
    tails = np.flatnonzero(n_reads == 0)
    if tails.size:
        blocks = np.split(keys, firsts[1:])
        for j in tails:
            tail_len = read_length - int(lengths[j])
            if tail_len > MAX_TAIL_LENGTH:
                rec = db.records[j]
                raise ValueError(
                    f"species {rec.id} ({rec.label!r}): read length exceeds sequence "
                    f"length by {tail_len} > {MAX_TAIL_LENGTH}; tail expansion refused"
                )
            # the sequence, then every tail; the tail fits in the last word
            head = base_digits(db.records[j].sequence + "A" * tail_len)
            n_reads[j] = 4 ** tail_len
            blocks[j] = np.repeat(kmer_keys(head, read_length, [0]), n_reads[j], axis=0)
            blocks[j][:, -1] |= np.arange(n_reads[j], dtype=np.uint64)
        keys = np.concatenate(blocks)

    index, rows = KmerIndex.first_seen(keys)
    del keys
    n_rows = len(index.keys)
    entry, count = np.unique(np.repeat(np.arange(n_species), n_reads) * n_rows + rows,
                             return_counts=True)
    cols, rows = np.divmod(entry, n_rows)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n_species))])
    matrix = sp.csc_matrix((count / n_reads[cols], rows, indptr), shape=(n_rows, n_species))
    out = ReadSamplingMatrix(read_length, matrix, index, lengths)
    bad = np.abs(out.column_sums() - 1.0) > COLUMN_SUM_TOL
    if np.any(bad):
        raise AssertionError(f"column sums off by more than {COLUMN_SUM_TOL}: {np.where(bad)[0]}")
    return out


def reweight_to_dna(x: FrequencyVector, col_lengths) -> FrequencyVector:
    """Species frequencies -> DNA-weighted sampling frequencies,
    x'_j = x_j n_j / sum_i x_i n_i."""
    if x.kind != "species":
        raise ValueError("input must be a species frequency vector")
    lengths = np.asarray(col_lengths, dtype=float)
    if np.any(lengths <= 0):
        raise ValueError("sequence lengths must be positive")
    if len(lengths) != len(x):
        raise ValueError("dimension mismatch")
    w = x.values * lengths
    total = w.sum()
    if total <= 0:
        raise ValueError("all-zero frequency vector")
    w = w / total
    return FrequencyVector(w / w.sum(), "dna", normalized=True)


def unweight_from_dna(x_prime: FrequencyVector, col_lengths) -> FrequencyVector:
    """Inverse of :func:`reweight_to_dna`: x_j proportional to x'_j / n_j."""
    if x_prime.kind != "dna":
        raise ValueError("input must be a dna-weighted frequency vector")
    lengths = np.asarray(col_lengths, dtype=float)
    if np.any(lengths <= 0):
        raise ValueError("sequence lengths must be positive")
    if len(lengths) != len(x_prime):
        raise ValueError("dimension mismatch")
    w = x_prime.values / lengths
    total = w.sum()
    if total <= 0:
        raise ValueError("all-zero frequency vector")
    w = w / total
    return FrequencyVector(w / w.sum(), "species", normalized=True)
