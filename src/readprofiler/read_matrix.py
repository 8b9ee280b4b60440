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
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .sequence_db import (
    KmerIndex,
    SequenceDatabase,
    base_digits,
    check_read_length,
    decimal_to_keys,
    keys_to_decimal,
    kmer_keys,
    require_fields,
)

SIMPLEX_TOL = 1e-12   # how far a frequency vector's or a column's sum may be off 1

#: Columns with n_j < L expand into 4^(L - n_j) tail reads; refuse to blow up:
#: no tail may be longer, nor all tails together hold more than 4^MAX_TAIL_LENGTH.
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
            raise ValueError(f"vector flagged normalized but sums to "
                             f"{float(self.values.sum())!r}")

    def __len__(self) -> int:
        return len(self.values)

    def normalize(self) -> "FrequencyVector":
        """The vector scaled onto the simplex, of the same kind: the one
        normalisation rule. Raises ValueError for an all-zero vector."""
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

    #: :meth:`block_gram` forms A'A only within this many multiply-adds per
    #: stored entry of A.
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
        self._gram_cheap: bool | None = None     # block_gram's verdict on forming it

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

    def block_gram(self, cols) -> sp.csr_matrix:
        """Sparse Gram of the ``cols`` columns: a slice of :attr:`gram` when
        that is cached or cheap to form, else the product of those columns
        alone. Either way it holds the same bits.

        Forming A'A takes sum_k r_k^2 multiply-adds, r_k being the number of
        species in row k, and that sum bounds its nnz. Uncached, it is formed
        only when the sum is at most twice nnz(A), so the cache holds at most
        twice A's own entries; the verdict is taken once per matrix. Species
        that share many rows (short L, strain families) make A'A nearly
        dense, N^2 entries, and each block then costs only its own columns.
        """
        if self._gram is None and self._gram_cheap is None:
            # add.at reads the int32 row indices in place; bincount would
            # first copy them to int64, 8 bytes per stored entry
            counts = np.zeros(self.n_rows, dtype=np.int64)
            np.add.at(counts, self.matrix.indices, 1)
            self._gram_cheap = int(counts @ counts) <= self._CHEAP_GRAM_PRODUCTS * self.matrix.nnz
        if self._gram is None and not self._gram_cheap:
            sub = self.matrix[:, cols]
            return sub.T @ sub
        return self.gram[cols][:, cols]

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_species(self) -> int:
        return self.matrix.shape[1]

    def column_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    def columns_off_one(self) -> np.ndarray:
        """The columns whose sum is off 1 by more than ``SIMPLEX_TOL``."""
        return np.flatnonzero(np.abs(self.column_sums() - 1.0) > SIMPLEX_TOL)

    # -- serialization -----------------------------------------------------

    def save(self, path) -> None:
        """Write the canonical binary file: one line of JSON header, then the
        payload.

        The header holds ``format`` (``readprofiler-matrix-v1``),
        ``read_length``, ``n_rows`` (K), ``n_species`` (N), ``nnz``,
        ``tail_convention``, ``codes_bytes`` and ``checksum``, the sha256 of
        the payload, with sorted keys. The payload, numbers little-endian:

        - int64 rows, int64 cols, then float64 values of the nnz stored
          entries, in (row, col) order;
        - N int64 column lengths (the sequence lengths);
        - ``codes_bytes`` bytes of row codes: the :func:`lex_encode` code of
          each row's k-mer in decimal without leading zeros, joined by
          ``"\\n"``.
        """
        csr = self.matrix.tocsr()
        csr.sort_indices()
        rows = np.repeat(np.arange(self.n_rows, dtype="<i8"), np.diff(csr.indptr))
        parts = [rows, csr.indices.astype("<i8"), csr.data.astype("<f8", copy=False),
                 self.col_lengths.astype("<i8", copy=False),
                 *keys_to_decimal(self.index.keys, self.read_length)]
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        header = {
            "format": _MATRIX_FORMAT,
            "read_length": self.read_length,
            "n_rows": self.n_rows,
            "n_species": self.n_species,
            "nnz": int(csr.nnz),
            "tail_convention": TAIL_CONVENTION,
            "codes_bytes": sum(len(p) for p in parts[4:]),
            "checksum": digest.hexdigest(),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.writelines(parts)

    @classmethod
    def load(cls, path) -> "ReadSamplingMatrix":
        """Read a file written by :meth:`save`. Raises ValueError, naming the
        file, unless it holds what :func:`build_matrix` guarantees: distinct
        row codes in [1, 4^L], entries in strictly increasing (row, col)
        order with finite positive values, and columns that sum to 1 within
        ``SIMPLEX_TOL``."""
        data = Path(path).read_bytes()
        line_end = data.find(b"\n")
        try:
            header = json.loads(data[:line_end]) if line_end >= 0 else None
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != _MATRIX_FORMAT:
            raise ValueError(f"{path}: not a read-sampling matrix file")
        require_fields(header, path, checksum=str, tail_convention=str, read_length=int,
                       n_rows=int, n_species=int, nnz=int, codes_bytes=int)
        payload = memoryview(data)[line_end + 1:]
        if hashlib.sha256(payload).hexdigest() != header["checksum"]:
            raise ValueError(f"{path}: checksum mismatch")
        if header["tail_convention"] != TAIL_CONVENTION:
            raise ValueError(f"{path}: tail convention {header['tail_convention']!r} "
                             f"is not {TAIL_CONVENTION!r}")
        try:
            return cls._from_payload(header, payload)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def _from_payload(cls, header: dict, payload: memoryview) -> "ReadSamplingMatrix":
        read_length, n_rows, n, nnz = (header[k] for k in ("read_length", "n_rows",
                                                          "n_species", "nnz"))
        check_read_length(read_length)
        if min(n_rows, n, nnz) < 1:
            raise ValueError("n_rows, n_species and nnz must be positive")
        numbers = 8 * (3 * nnz + n)
        if len(payload) - numbers != header["codes_bytes"]:
            raise ValueError(f"{len(payload) - numbers} bytes of row codes, "
                             f"header says {header['codes_bytes']}")
        rows = np.frombuffer(payload, dtype="<i8", count=nnz)
        cols = np.frombuffer(payload, dtype="<i8", count=nnz, offset=8 * nnz)
        vals = np.frombuffer(payload, dtype="<f8", count=nnz, offset=16 * nnz)
        col_lengths = np.frombuffer(payload, dtype="<i8", count=n, offset=24 * nnz)
        keys = decimal_to_keys(payload[numbers:], read_length)
        if len(keys) != n_rows:
            raise ValueError(f"{len(keys)} row codes for {n_rows} rows")
        index, _ = KmerIndex.first_seen(keys)
        if len(index.keys) < n_rows:
            raise ValueError("a row code repeats")
        row_step = np.diff(rows)
        if (rows[0] < 0 or rows[-1] >= n_rows or cols.min() < 0 or cols.max() >= n
                or not ((row_step > 0) | (row_step == 0) & (np.diff(cols) > 0)).all()):
            raise ValueError("entries are not in strictly increasing (row, col) order "
                             "inside the matrix")
        if not (np.isfinite(vals).all() and (vals > 0).all()):
            raise ValueError("a stored value is not finite and positive")
        if (col_lengths < 1).any():
            raise ValueError("a column length is not positive")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
        out = cls(read_length, sp.csr_matrix((vals, cols, indptr), shape=(n_rows, n)),
                  index, col_lengths)
        bad = out.columns_off_one()
        if len(bad):
            raise ValueError(f"column sums off by more than {SIMPLEX_TOL}: {bad}")
        return out


def build_matrix(db: SequenceDatabase, read_length: int) -> ReadSamplingMatrix:
    """Construct the read-sampling matrix for a database at a given read length.

    Deterministic: identical (db, read_length) always yields the same compact
    row order (first-seen, scanning columns left to right).
    """
    check_read_length(read_length)
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
    check_tail_expansion(db, read_length)

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
            # the sequence, then every tail; the tail fits in the last word
            head = base_digits(db.records[j].sequence + "A" * tail_len)
            n_reads[j] = 4 ** tail_len
            blocks[j] = np.repeat(kmer_keys(head, read_length, [0]), n_reads[j], axis=0)
            blocks[j][:, -1] |= np.arange(n_reads[j], dtype=np.uint64)
        keys = np.concatenate(blocks)

    index, rows = KmerIndex.first_seen(keys)
    del keys
    n_rows = len(index.keys)
    if n_rows == len(rows):
        # every window's key is distinct, so rows count up from 0 and each
        # (column, row) pair occurs once, already in order
        data = np.repeat(1 / n_reads, n_reads)
        indptr = np.concatenate([[0], np.cumsum(n_reads)])
    else:
        cols = np.repeat(np.arange(n_species), n_reads)
        entry, count = np.unique(cols * n_rows + rows, return_counts=True)
        cols, rows = np.divmod(entry, n_rows)
        data = count / n_reads[cols]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n_species))])
    matrix = sp.csc_matrix((data, rows, indptr), shape=(n_rows, n_species))
    out = ReadSamplingMatrix(read_length, matrix, index, lengths)
    bad = out.columns_off_one()
    if len(bad):
        raise AssertionError(f"column sums off by more than {SIMPLEX_TOL}: {bad}")
    return out


def check_tail_expansion(db: SequenceDatabase, read_length: int) -> None:
    """ValueError for the first species of ``db`` shorter than ``read_length``
    by more than ``MAX_TAIL_LENGTH`` bases, else for uniform tails that
    together expand into more than 4^MAX_TAIL_LENGTH reads. Tails only grow
    with the read length, so the top of a range vouches for all of it."""
    tail_lens = read_length - np.array(db.lengths, dtype=np.int64)
    over = np.flatnonzero(tail_lens > MAX_TAIL_LENGTH)
    if over.size:
        rec = db.records[over[0]]
        raise ValueError(f"species {rec.id} ({rec.label!r}): read length exceeds sequence "
                         f"length by {tail_lens[over[0]]} > {MAX_TAIL_LENGTH}; "
                         f"tail expansion refused")
    tail_lens = tail_lens[tail_lens > 0]
    total = int((4 ** tail_lens).sum())
    if total > 4 ** MAX_TAIL_LENGTH:
        raise ValueError(f"{len(tail_lens)} species shorter than read length {read_length} "
                         f"expand into {total} tail reads > 4^{MAX_TAIL_LENGTH}; "
                         f"tail expansion refused")


def reweight_to_dna(x: FrequencyVector, col_lengths) -> FrequencyVector:
    """Species frequencies -> DNA-weighted sampling frequencies,
    x'_j = x_j n_j / sum_i x_i n_i, put on the simplex by
    :meth:`FrequencyVector.normalize`."""
    if x.kind != "species":
        raise ValueError("input must be a species frequency vector")
    lengths = np.asarray(col_lengths, dtype=float)
    if np.any(lengths <= 0):
        raise ValueError("sequence lengths must be positive")
    if len(lengths) != len(x):
        raise ValueError("dimension mismatch")
    return FrequencyVector(x.values * lengths, "dna").normalize()


def unweight_from_dna(x_prime: FrequencyVector, col_lengths) -> FrequencyVector:
    """Inverse of :func:`reweight_to_dna`: x_j proportional to x'_j / n_j,
    put on the simplex by :meth:`FrequencyVector.normalize`."""
    if x_prime.kind != "dna":
        raise ValueError("input must be a dna-weighted frequency vector")
    lengths = np.asarray(col_lengths, dtype=float)
    if np.any(lengths <= 0):
        raise ValueError("sequence lengths must be positive")
    if len(lengths) != len(x_prime):
        raise ValueError("dimension mismatch")
    return FrequencyVector(x_prime.values / lengths, "species").normalize()
