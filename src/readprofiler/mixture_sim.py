"""Synthetic mixtures and i.i.d. short-read simulation.

Reads are drawn by the two-step generative model: pick a species according to
the DNA-weighted frequencies, then pick a read from that species' column of
the read-sampling matrix. All randomness flows through a seeded generator.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sequence_db
from .read_matrix import FrequencyVector, ReadSamplingMatrix, reweight_to_dna
from .sequence_db import (
    ALPHABET,
    KmerIndex,
    base_digits,
    check_read_length,
    key_words,
    kmer_keys,
    read_bytes,
    read_json,
    require_fields,
)

logger = logging.getLogger(__name__)

#: byte -> base digit of a read letter: A, C, G, T in either case -> 0-3,
#: every other byte -> 255
_READ_DIGITS = bytes(255 if (i := "ACGTacgt".find(chr(b))) < 0 else i % 4
                     for b in range(256))
#: the ASCII line breaks of universal newlines and str.splitlines
_IS_BREAK = np.zeros(256, dtype=bool)
_IS_BREAK[list(b"\n\r\x0b\x0c\x1c\x1d\x1e")] = True
#: ASCII bytes that str.strip removes but that do not break lines
_IS_BLANK = np.array([chr(b).isspace() for b in range(128)] + [False] * 128) & ~_IS_BREAK
#: byte of a packed key -> its four bases as ASCII letters
_BYTE_BASES = np.frombuffer(bytes(ord(ALPHABET[b >> s & 3]) for b in range(256)
                                  for s in (6, 4, 2, 0)), dtype=np.uint8).reshape(256, 4)


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
        # finite, nonnegative and summing to 1: the rule of a normalized vector
        FrequencyVector(self.frequencies, normalized=True)

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
        d = read_json(path, support=list[int], frequencies=list[float])
        try:
            return cls(np.array(d["support"]), np.array(d["frequencies"]),
                       d.get("seed", 0), d.get("generator_tag", "manual"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def check_mixture_params(n: int, k: int, alpha: float) -> None:
    """Refuse a support size k outside 1..n or a negative exponent alpha."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")


def sample_power_law_mixture(n: int, k: int, alpha: float, seed: int) -> MixtureSpec:
    """Pick k of the n species uniformly at random and give the i-th chosen
    species unnormalized weight i^(-alpha), then normalize."""
    check_mixture_params(n, k, alpha)
    rng = np.random.default_rng(seed)
    support = rng.choice(n, size=k, replace=False) + 1
    # rank-based weights in chosen order: i-th chosen species gets i^(-alpha)
    weights = np.arange(1, k + 1, dtype=float) ** (-alpha)
    freqs = weights / weights.sum()
    return MixtureSpec(support, freqs, seed, generator_tag=f"power-law(alpha={alpha})")


@dataclass(eq=False)
class ReadCounts:
    """Multiset of observed reads: distinct packed k-mer keys, an (n, W)
    uint64 array with W = ``key_words(read_length)`` (see :func:`kmer_keys`),
    and the positive int64 count of each."""

    keys: np.ndarray
    counts: np.ndarray
    read_length: int
    total: int
    seed: int | None = None
    skipped_short: int = 0
    skipped_invalid: int = 0

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.uint64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.keys.shape != (len(self.counts), key_words(self.read_length)):
            raise ValueError(f"keys of shape {self.keys.shape} do not fit {len(self.counts)} "
                             f"counts of length-{self.read_length} k-mers")
        if self.total < 1:
            raise ValueError(f"total read count {self.total} is below 1")
        if int(self.counts.sum()) != self.total:
            raise ValueError(f"counts sum to {self.counts.sum()}, not to the total {self.total}")
        if (self.counts <= 0).any():
            raise ValueError("all stored counts must be positive")

    @property
    def n_distinct(self) -> int:
        return len(self.keys)

    def save(self, path) -> None:
        """Text format: '#' + JSON header, then 'kmer<TAB>count' lines in
        k-mer order."""
        header = {"read_length": self.read_length, "total": self.total, "seed": self.seed}
        L = self.read_length
        order = np.lexsort(self.keys.T[::-1])
        # each word's big-endian bytes, most significant first, hold four bases each
        bases = _BYTE_BASES[self.keys[order].astype(">u8").view(np.uint8)].reshape(len(order), -1)
        kmers = bases[:, bases.shape[1] - L:].tobytes().decode("ascii")
        lines = ["#" + json.dumps(header, sort_keys=True)]
        lines += [f"{kmers[i * L:(i + 1) * L]}\t{c}"
                  for i, c in enumerate(self.counts[order].tolist())]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "ReadCounts":
        """Read a file :meth:`save` wrote. A line that is not 'kmer<TAB>count'
        with a positive count and an ACGT k-mer of the header's length, or
        that repeats an earlier k-mer, raises ValueError naming it."""
        lines = Path(path).read_text().splitlines()
        if not lines or not lines[0].startswith("#"):
            raise ValueError(f"{path}: missing JSON header line")
        try:
            header = json.loads(lines[0][1:])
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: {exc}") from None
        require_fields(header, path, read_length=int, total=int)
        L = header["read_length"]
        try:
            check_read_length(L)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        numbers, kmers, counts = [], [], []
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}: line {number}: expected 'kmer<TAB>count', "
                                 f"got {line!r}")
            kmer, count = fields
            if len(kmer) != L:
                raise ValueError(f"{path}: line {number}: k-mer {kmer!r} has length "
                                 f"{len(kmer)}, but read_length is {L}")
            try:
                count = int(count)
            except ValueError:
                raise ValueError(f"{path}: line {number}: count {count!r} is not "
                                 f"an integer") from None
            if count < 1:
                raise ValueError(f"{path}: line {number}: count {count} is not positive")
            numbers.append(number)
            kmers.append(kmer)
            counts.append(count)
        digits = base_digits("".join(kmers))
        bad = np.flatnonzero(digits > 3)
        if bad.size:
            i = bad[0] // L
            raise ValueError(f"{path}: line {numbers[i]}: k-mer {kmers[i]!r} holds "
                             f"{kmers[i][bad[0] % L]!r} (expected one of ACGT)")
        keys = kmer_keys(digits, L, np.arange(len(kmers)) * L)
        _, rows = KmerIndex.first_seen(keys)
        # rows count up from 0 until the first repeat
        repeat = np.flatnonzero(rows != np.arange(len(rows)))
        if repeat.size:
            i = repeat[0]
            raise ValueError(f"{path}: line {numbers[i]}: k-mer {kmers[i]!r} repeats "
                             f"line {numbers[rows[i]]}")
        try:
            return cls(keys, counts, L, header["total"], header.get("seed"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_lines(data: bytes) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray]:
    """The lines of ``data`` as ``read_text().rstrip().splitlines()`` gives
    them, each stripped: a buffer, each line's start and end in it, and each
    line's length in characters.

    A line is a slice of ``data`` unless it holds a non-ASCII byte or has
    whitespace at an end. Such a line is decoded as ``read_text`` decodes,
    split at the separators only ``str`` knows, stripped and upper-cased, and
    appended to the buffer one byte per character ('?' where a character has
    no single byte).

    ``data`` is scanned one block of about ``sequence_db._SCAN_BLOCK`` bytes
    at a time, each cut just after a '\\n', so that no '\\r\\n' pair or
    multi-byte character spans two blocks; only the line table grows with
    the file.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    tables, content = [], []
    size = len(data)            # where the next decoded line goes in the buffer
    lo = rare_at = 0
    while True:
        at = lo + sequence_db._SCAN_BLOCK
        hi = data.rfind(b"\n", lo, at) + 1 or data.find(b"\n", at) + 1 or len(data)
        low = np.flatnonzero(raw[lo:hi] <= 32) + lo     # every break and every ASCII space
        kind = raw[low]
        breaks = low[_IS_BREAK[kind]]
        starts = np.concatenate([[lo], breaks + 1])
        ends = np.append(breaks, hi)
        if (kind == 13).any():
            # universal newlines: '\r\n' is one break, so drop the empty line between
            crlf = (raw[breaks[:-1]] == 13) & (np.diff(breaks) == 1) & (raw[breaks[1:]] == 10)
            keep = np.ones(len(starts), dtype=bool)
            keep[1:-1] = ~crlf
            starts, ends = starts[keep], ends[keep]
        # lines that need str: whitespace at an end, or a non-ASCII byte
        rare = np.zeros(len(starts), dtype=bool)
        blank = low[_IS_BLANK[kind]]
        line = np.searchsorted(ends, blank, side="right")
        rare[line[(blank == starts[line]) | (blank == ends[line] - 1)]] = True
        if not data[lo:hi].isascii():
            rare[np.searchsorted(ends, np.flatnonzero(raw[lo:hi] >= 128) + lo,
                                 side="right")] = True
        lengths = ends - starts
        if rare.any():
            joined = b"\n".join(data[s:e] for s, e in zip(starts[rare], ends[rare]))
            try:
                text = io.TextIOWrapper(io.BytesIO(joined)).read()
            except UnicodeDecodeError as exc:   # placed as if all rare lines were decoded at once
                raise UnicodeDecodeError(exc.encoding, bytes(rare_at) + joined,
                                         rare_at + exc.start, rare_at + exc.end,
                                         exc.reason) from None
            rare_at += len(joined) + 1
            pieces = [(part + "\n").splitlines() for part in text.split("\n")]
            per_line = np.ones(len(starts), dtype=np.int64)
            per_line[rare] = [len(piece) for piece in pieces]
            starts, ends, lengths = (np.repeat(a, per_line) for a in (starts, ends, lengths))
            stripped = [line.strip() for piece in pieces for line in piece]
            decoded = [line.upper().encode("latin-1", "replace") for line in stripped]
            sizes = np.array([len(c) for c in decoded], dtype=np.int64)
            slots = np.flatnonzero(np.repeat(rare, per_line))
            ends[slots] = size + np.cumsum(sizes)
            starts[slots] = ends[slots] - sizes
            lengths[slots] = [len(line) for line in stripped]
            content += decoded
            size += int(sizes.sum())
        # the empty line after the block's last '\n' is the next block's first
        n_lines = len(starts) - (data[hi - 1:hi] == b"\n")
        tables.append((starts[:n_lines], ends[:n_lines], lengths[:n_lines]))
        if hi == len(data):
            break
        lo = hi
    starts, ends, lengths = (np.concatenate(column) for column in zip(*tables))
    # rstrip(): trailing blank lines go, even those of earlier blocks
    filled = np.flatnonzero(ends > starts)
    n_lines = filled[-1] + 1 if len(filled) else 0
    return data + b"".join(content), starts[:n_lines], ends[:n_lines], lengths[:n_lines]


def _fastq_sequence_lines(buf: bytes, starts: np.ndarray, ends: np.ndarray,
                          lengths: np.ndarray, path) -> np.ndarray:
    """Line numbers of the sequences of a four-line-per-record FASTQ file.

    Each record is an '@' header, a sequence, a '+' line and a quality line as
    long as the sequence. All records are checked at once; the first one that
    fails raises ValueError naming its 1-based number and its first failed
    check, in the order: truncated, '@', '+', quality length.
    """
    raw = np.frombuffer(buf, dtype=np.uint8)

    def starts_with(lines, byte):
        first = raw[np.minimum(starts[lines], len(raw) - 1)]
        return (ends[lines] > starts[lines]) & (first == byte)

    head = 4 * np.arange(len(starts) // 4)
    no_at = ~starts_with(head, ord("@"))
    no_plus = ~starts_with(head + 2, ord("+"))
    seq_len, qual_len = lengths[head + 1], lengths[head + 3]
    bad = np.flatnonzero(no_at | no_plus | (seq_len != qual_len))
    if len(bad):
        r = bad[0]
        if no_at[r]:
            raise ValueError(f"{path}: FASTQ record {r + 1} has no '@' header line")
        if no_plus[r]:
            raise ValueError(f"{path}: FASTQ record {r + 1} has no '+' line")
        raise ValueError(f"{path}: FASTQ record {r + 1} has {seq_len[r]} bases "
                         f"but {qual_len[r]} quality values")
    if len(starts) % 4:
        raise ValueError(f"{path}: FASTQ record {len(head) + 1} is truncated "
                         f"({len(starts) % 4} of 4 lines)")
    return head + 1


def read_counts_from_reads(path, read_length: int) -> ReadCounts:
    """Encode raw reads (plain one-per-line or FASTQ, optionally gzipped) by
    their first L bases.

    The file is read as bytes. Its line table is built one block of about
    ``sequence_db._SCAN_BLOCK`` bytes at a time (see :func:`_read_lines`),
    the FASTQ records are checked in one pass over that table, and the keys
    are encoded one block of reads at a time; only the file's bytes, the
    line table and the keys grow with the file. Lines and reads are those
    of ``read_text().rstrip().splitlines()`` with each line stripped and
    upper-cased, and a file is FASTQ when its first line starts with '@'.
    Blank lines of a plain file are ignored. Reads shorter
    than L are skipped and counted in ``skipped_short``; reads whose first L
    bases hold a character outside ACGT (such as N) are skipped and counted
    in ``skipped_invalid``. A malformed FASTQ record raises ValueError.
    """
    check_read_length(read_length)
    data = read_bytes(path)
    buf, starts, ends, lengths = _read_lines(data)
    if data[:1] == b"@":
        seq = _fastq_sequence_lines(buf, starts, ends, lengths, path)
    else:
        seq = np.flatnonzero(ends > starts)
    at = starts[seq][ends[seq] - starts[seq] >= read_length]
    short = len(seq) - len(at)
    # the keys of the valid reads, one block of reads at a time
    keys = np.empty((len(at), key_words(read_length)), dtype=np.uint64)
    n_valid = 0
    step = max(1, sequence_db._SCAN_BLOCK // read_length)
    for lo in range(0, len(at), step):
        windows = np.lib.stride_tricks.sliding_window_view(
            np.frombuffer(buf, dtype=np.uint8), read_length)[at[lo:lo + step]]
        digits = np.frombuffer(bytes(windows).translate(_READ_DIGITS), dtype=np.uint8)
        valid = np.flatnonzero(digits.reshape(len(windows), read_length).max(axis=1) <= 3)
        # masked, so that an invalid base cannot spill into a valid read's key
        keys[n_valid:n_valid + len(valid)] = kmer_keys(digits & 3, read_length,
                                                       valid * read_length)
        n_valid += len(valid)
    invalid = len(at) - n_valid
    index, rows = KmerIndex.first_seen(keys[:n_valid])
    if short:
        logger.warning("skipped %d reads shorter than %d", short, read_length)
    if invalid:
        logger.warning("skipped %d reads with a base outside ACGT in their first %d",
                       invalid, read_length)
    if not len(rows):
        raise ValueError(f"{path}: no usable reads of length >= {read_length}")
    return ReadCounts(index.keys, np.bincount(rows), read_length, len(rows),
                      skipped_short=short, skipped_invalid=invalid)


def _pow2_at_least(n) -> np.ndarray:
    """The smallest power of two >= each n >= 1."""
    return np.left_shift(1, np.frexp(np.asarray(n) - 1)[1].astype(np.int64))


def _guide_invert(cum: np.ndarray, sizes, run, v: np.ndarray) -> np.ndarray:
    """Inversion by guide table (Chen & Asau 1974; Devroye, *Non-Uniform
    Random Variate Generation*, 1986, section III.2.4).

    ``cum`` holds cumulatives of the given sizes end to end, each
    nondecreasing but for its last entry, 1.0, which may sit below a
    predecessor rounded up past 1. For each draw ``v`` in [0, 1) of
    cumulative ``run`` (an array, or one index for all draws), returns the
    index in ``cum`` of that cumulative's first entry above ``v``: its
    ``searchsorted(..., v, "right")`` plus its start. The entries <= v are a
    prefix of the cumulative, so that answer is well defined.

    A cumulative of n entries gets M buckets, M the power of two >= n, and
    guide row j holds its first entry above j / M. A draw starts at row
    j = floor(v M) and advances while the entry is <= v. As M is a power of
    two, v M and j / M are exact, so j / M <= v holds exactly and the row
    never passes the answer; the advance compares the same floats as
    ``searchsorted`` and stops at the last entry, 1.0 > v. M >= n keeps the
    expected advance at most one entry whatever the weights, and the table
    within 2n rows; a bound from the smallest weight would have neither.
    """
    buckets = _pow2_at_least(sizes)
    first = np.cumsum(buckets + 1) - (buckets + 1)
    owner = np.repeat(np.arange(len(buckets)), sizes)
    # an entry c counts in slot ceil(c M) of its cumulative, those above
    # (M - 1) / M in slot M; the running count is then each row's answer
    scale = buckets[owner]
    slot = first[owner] + np.minimum(np.ceil(cum * scale), scale).astype(np.int64)
    guide = np.cumsum(np.bincount(slot))
    scale = buckets[run]
    pos = guide[first[run] + (v * scale).astype(np.int64)]
    todo = np.flatnonzero(cum[pos] <= v)
    while todo.size:
        pos[todo] += 1
        todo = todo[cum[pos[todo]] <= v[todo]]
    return pos


def simulate_reads(A: ReadSamplingMatrix, x: FrequencyVector, n_reads: int,
                   seed: int) -> ReadCounts:
    """Draw ``n_reads`` i.i.d. reads from the mixture model.

    Read i takes the species at ``searchsorted(cum, u[i], "right")`` of the
    cumulative DNA-weighted frequencies (last entry forced to 1.0), then the
    row at ``searchsorted(col_cum, v[i], "right")`` of that species' column
    cumulative (last entry forced to 1.0), with ``u`` and ``v`` the first and
    second ``n_reads`` uniforms of the seeded generator. Deterministic given
    the seed.

    Both searches are inversions by guide table (see :func:`_guide_invert`),
    which return exactly what ``searchsorted`` returns, so the same ``u``,
    ``v`` and cumulatives give the same counts bit for bit. Species are
    found among the strict steps of ``cum`` and its forced last entry only:
    the first entry above u is the first entry or one above its predecessor,
    never a zero-weight species' repeat of it. Reads are found in one pass
    over the concatenated column cumulatives of the drawn species, each with
    its own guide rows. A drawn species whose column is empty raises
    ValueError, as does a dna-kind ``x`` not flagged normalized (species
    frequencies are normalized by :func:`reweight_to_dna`).
    """
    if n_reads < 1:
        raise ValueError("need at least one read")
    if len(x) != A.n_species:
        raise ValueError("dimension mismatch between x and matrix")
    if x.kind == "dna" and not x.normalized:
        raise ValueError("expected a normalized frequency vector")
    x_dna = x if x.kind == "dna" else reweight_to_dna(x, A.col_lengths)
    rng = np.random.default_rng(seed)
    u = rng.random(n_reads)
    v = rng.random(n_reads)

    cum = np.cumsum(x_dna.values)
    cum[-1] = 1.0
    step = np.append(cum[0] > 0, cum[1:] > cum[:-1])
    step[-1] = True
    species = np.flatnonzero(step)
    pick = _guide_invert(cum[species], [len(species)], 0, u)

    m = A.matrix
    # the column cumulatives of the drawn species, end to end
    hit = np.bincount(pick, minlength=len(species)) > 0
    drawn = species[hit]
    start = m.indptr[drawn]
    sizes = m.indptr[drawn + 1] - start
    if not sizes.all():
        raise ValueError(f"species column {drawn[sizes == 0][0]} is empty")
    stop = np.cumsum(sizes)
    entries = np.repeat(start - (stop - sizes), sizes) + np.arange(stop[-1])
    col_cum = np.concatenate([np.cumsum(m.data[i:i + n]) for i, n in zip(start, sizes)])
    col_cum[stop - 1] = 1.0
    run = (np.cumsum(hit) - 1)[pick]        # each read's species among the drawn
    read = _guide_invert(col_cum, sizes, run, v)

    # columns that share a k-mer share its row
    rows, row_of = np.unique(m.indices[entries], return_inverse=True)
    per_row = np.zeros(len(rows), dtype=np.int64)
    np.add.at(per_row, row_of, np.bincount(read, minlength=len(entries)))
    hit = per_row > 0
    return ReadCounts(A.index.keys[rows[hit]], per_row[hit], A.read_length, n_reads,
                      seed=seed)


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
    rows = A.index.rows_of(rc.keys)
    hit = rows >= 0
    y = np.zeros(A.n_rows)
    y[rows[hit]] = rc.counts[hit] / rc.total
    unmapped = int(rc.counts[~hit].sum())
    mapped = rc.total - unmapped
    return EmpiricalFrequencies(y, unmapped / rc.total, mapped, unmapped, rc.total)
