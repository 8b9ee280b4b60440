"""Reference sequence database: FASTA ingestion, dedup, k-mer codes and
packed k-mer keys, and the one reader of input files and of their rules."""

from __future__ import annotations

import functools
import gzip
import hashlib
import io
import json
import logging
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import GenericAlias
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

logger = logging.getLogger(__name__)

ALPHABET = "ACGT"
_TO_DIGITS = str.maketrans("ACGT", "0123")
_NON_ACGT = re.compile("[^ACGT]")
#: byte -> base digit: A, C, G, T -> 0-3, every other byte -> 255
_BYTE_DIGITS = bytes(ALPHABET.find(chr(b)) % 256 for b in range(256))
#: splitmix64 finalizer: (xor-shift, odd multiplier) twice, then an xor-shift
_MIX_STEPS = [(np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
              (np.uint64(27), np.uint64(0x94D049BB133111EB))]
_MIX_LAST = np.uint64(31)
_QUAD_TO_BYTE = np.uint32(1 << 30 | 1 << 20 | 1 << 10 | 1)
_E8 = 10 ** 8
#: rows per chunk of the decimal code conversions, which keep their work
#: arrays to a few MB whatever the number of rows
_DECIMAL_CHUNK = 1 << 13
#: bytes per block of the line-end scans of a decimal code blob and a raw read file
_SCAN_BLOCK = 1 << 20
#: positions, starts or keys per block of the k-mer code, key gather and
#: fingerprint passes, whose work arrays then stay in cache
_CACHE_BLOCK = 1 << 14
_ASCII_ZEROS = np.uint64(0x3030303030303030)       # '00000000'
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
#: (scale, shift, mask) of the steps that merge the digits of a
#: little-endian eight-byte cell into pairs, quadruples and one number:
#: x * scale + (x >> shift), masked to the merged fields
_SWAR_STEPS = [(np.uint64(10), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
               (np.uint64(100), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
               (np.uint64(10_000), np.uint64(32), np.uint64(0x00000000FFFFFFFF))]
#: the four ASCII digits of v, 0 <= v < 10^4, as a little-endian word at
#: entry v, and at entry 10^4 + v with NUL for the leading zeros
_DIGITS4 = np.frombuffer(b"".join(f"{v:04d}".encode() for v in range(10_000))
                         + b"".join(f"{v or '':>4}".replace(" ", "\0").encode()
                                    for v in range(10_000)),
                         dtype="<u4").astype(np.uint64)

#: Largest supported k-mer length: the matrix file's decimal row codes are
#: exact up to it, as :func:`_decimal_tables` keeps every float64 partial sum
#: below 2^53 only for W <= 16 key words, that is L <= 512.
MAX_CODE_LENGTH = 512


class FastaError(ValueError):
    """Malformed or unusable FASTA input."""


class AmbiguousBaseError(FastaError):
    """A record contains characters outside {A, C, G, T}."""


def check_read_length(length: int) -> None:
    """ValueError unless 1 <= ``length`` <= :data:`MAX_CODE_LENGTH`: the one
    rule for every read and k-mer length the package accepts."""
    if not 1 <= length <= MAX_CODE_LENGTH:
        raise ValueError(f"read length {length} outside [1, {MAX_CODE_LENGTH}]")


def lex_encode(s: str) -> int:
    """1-based index of ``s`` in the lexicographic order of all 4^L strings.

    'AAA...A' maps to 1 and 'TTT...T' maps to 4^L, with A < C < G < T.
    """
    check_read_length(len(s))
    bad = _NON_ACGT.search(s)
    if bad:
        raise ValueError(f"invalid character {bad.group()!r} (expected one of ACGT)")
    # s holds only ACGT, so the translation holds only the base-4 digits 0-3
    return int(s.translate(_TO_DIGITS), 4) + 1


def lex_decode(code: int, length: int) -> str:
    """Inverse of :func:`lex_encode` for a given k-mer length."""
    check_read_length(length)
    if not 1 <= code <= 4 ** length:
        raise ValueError(f"code {code} out of range [1, 4^{length}]")
    v = code - 1
    out = []
    for _ in range(length):
        out.append(ALPHABET[v & 3])
        v >>= 2
    return "".join(reversed(out))


def key_words(length: int) -> int:
    """Number of uint64 words in the packed key of a length-``length`` k-mer."""
    return -(-length // 32)


def base_digits(text: str) -> np.ndarray:
    """One read-only uint8 per character of ``text``: 0-3 for A, C, G, T and
    255 for anything else."""
    # "replace" keeps one byte per character, so positions stay aligned
    raw = text.encode("latin-1", "replace").translate(_BYTE_DIGITS)
    return np.frombuffer(raw, dtype=np.uint8)


def kmer_keys(digits: np.ndarray, length: int, starts) -> np.ndarray:
    """Packed keys of the length-``length`` windows of ``digits`` that begin
    at ``starts``, as a (len(starts), W) uint64 array, W = key_words(length).

    ``digits`` holds base digits 0-3 (see :func:`base_digits`). Two bits per
    base, most significant word first: a leading word holds the first
    length - 32(W - 1) bases, each later word 32. Read as one number, a key
    is lex_encode(window) - 1, so keys compared word by word sort as their
    codes do.
    """
    n_words = key_words(length)
    lead = length - 32 * (n_words - 1)
    starts = np.asarray(starts, dtype=np.int64)
    if not len(starts):
        return np.zeros((0, n_words), dtype=np.uint64)
    if len(starts) * n_words >= len(digits):
        # most positions start a word: the 32-mer code at every position, by
        # doubling (codes of 2 bases from codes of 1, then 4, ... 32), one
        # block of positions at a time; the A-padding past the end reaches
        # only bits the final shift drops
        padded = np.concatenate([digits, np.zeros(31, dtype=np.uint8)])
        codes = np.empty(len(digits), dtype=np.uint64)
        for lo in range(0, len(digits), _CACHE_BLOCK):
            block = padded[lo:lo + _CACHE_BLOCK + 31].astype(np.uint64)
            for width in (1, 2, 4, 8, 16):
                block = (block[:-width] << np.uint64(2 * width)) | block[width:]
            codes[lo:lo + _CACHE_BLOCK] = block
        # the words of each window, one chunk of starts at a time: no index
        # array as large as the keys
        offsets = np.maximum(32 * np.arange(n_words) - 32 + lead, 0)
        keys = np.empty((len(starts), n_words), dtype=np.uint64)
        for lo in range(0, len(starts), _CACHE_BLOCK):
            chunk = keys[lo:lo + _CACHE_BLOCK]
            chunk[:] = codes[starts[lo:lo + _CACHE_BLOCK, None] + offsets]
            chunk[:, 0] >>= np.uint64(2 * (32 - lead))
        return keys
    # few, separate windows: copy out their bases behind A-padding up to
    # whole words, then pack each four bases into one byte and read eight
    # bytes as a big-endian word
    bases = np.zeros((len(starts), 32 * n_words), dtype=np.uint8)
    bases[:, 32 * n_words - length:] = sliding_window_view(digits, length)[starts]
    # bases b0..b3 sit at bits 0, 8, 16, 24 of a little-endian quad; the
    # product (mod 2^32) moves them to bits 30, 28, 26, 24, and its other
    # terms fill disjoint bits below 24, so no carry reaches bits 24-31
    quads = bases.view("<u4") * _QUAD_TO_BYTE
    packed = (quads >> np.uint32(24)).astype(np.uint8)
    return packed.view(">u8").astype(np.uint64)


def keys_to_codes(keys: np.ndarray) -> list[int]:
    """The :func:`lex_encode` code of each packed key."""
    # each key's bytes least significant first: numpy's bytes view drops
    # trailing zero bytes, which are then the high-order ones
    raw = np.ascontiguousarray(keys[:, ::-1]).astype("<u8").view(f"S{8 * keys.shape[1]}")
    return [int.from_bytes(b, "little") + 1 for b in raw.ravel().tolist()]


def codes_to_keys(codes: Iterable[int], length: int) -> np.ndarray:
    """Packed keys of :func:`lex_encode` codes of length-``length`` k-mers."""
    codes = list(codes)
    if codes and (min(codes) < 1 or max(codes) > 4 ** length):
        raise ValueError(f"a code lies outside [1, 4^{length}]")
    n_words = key_words(length)
    raw = b"".join((c - 1).to_bytes(8 * n_words, "big") for c in codes)
    return np.frombuffer(raw, dtype=">u8").astype(np.uint64).reshape(-1, n_words)


@functools.lru_cache(maxsize=None)
def _decimal_tables(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radix-change tables between the 16-bit limbs of length-``length``
    keys and the D base-10^8 limbs of their codes, D = ceil(digits(4^L) / 8).

    Column c of a key's little-endian uint16 view holds 16-bit limb
    ``slots[c]`` of the key, limb 0 least significant. ``to_dec[j, c]``
    is base-10^8 limb j, most significant first, of 2^(16 slots[c]), and
    ``to_bin[i, j]`` is 16-bit limb i of 10^(8 (D - 1 - j)), over as many
    limbs as 10^(8 D) - 1 takes and at least the key's 4W. A product of a
    limb vector with either table sums at most 64 terms below 2^16 * 10^8
    (W <= 16 words, D <= 39 limbs at MAX_CODE_LENGTH), so every partial sum
    stays below 2^53 and the float64 product is the exact integer.
    """
    n_words = key_words(length)
    n_dec = -(-len(str(4 ** length)) // 8)
    n_bin = max(-(-(_E8 ** n_dec - 1).bit_length() // 16), 4 * n_words)
    slots = [4 * (n_words - 1 - c // 4) + c % 4 for c in range(4 * n_words)]
    to_dec = [[(1 << 16 * i) // _E8 ** j % _E8 for i in slots] for j in reversed(range(n_dec))]
    to_bin = [[_E8 ** j >> 16 * i & 0xFFFF for j in reversed(range(n_dec))]
              for i in range(n_bin)]
    return (np.array(to_dec, dtype=np.float64), np.array(to_bin, dtype=np.float64),
            np.array(slots))


def keys_to_decimal(keys: np.ndarray, length: int) -> list[bytes]:
    """The :func:`lex_encode` codes of packed length-``length`` keys as ASCII
    decimals without leading zeros, "\\n"-separated, in one bytes object per
    chunk of rows: joined, they are ``"\\n".join(map(str, keys_to_codes(keys)))``.

    Works on fixed-size row chunks in numpy, without Python integers.
    """
    to_dec, _, _ = _decimal_tables(length)
    n_dec = len(to_dec)
    keys = np.ascontiguousarray(keys, dtype="<u8")
    parts = []
    for lo in range(0, len(keys), _DECIMAL_CHUNK):
        chunk = keys[lo:lo + _DECIMAL_CHUNK]
        # base-10^8 limbs, most significant first, not yet below 10^8; then
        # the +1 of the code and the carries
        dec = (to_dec @ chunk.view("<u2").T.astype(np.float64)).astype(np.int64)
        dec[-1] += 1
        for j in range(n_dec - 1, 0, -1):
            carry = dec[j] // _E8
            dec[j] -= carry * _E8
            dec[j - 1] += carry
        # eight ASCII digits per limb from two 4-digit table entries; a limb
        # up to a row's first nonzero one reads its high four digits from
        # the NUL-padded half of the table, and its low four too when the
        # high ones are zero, so the row's leading zeros come out as NUL
        lead = np.empty(dec.shape, dtype=bool)
        lead[0] = True
        for j in range(1, n_dec):
            np.logical_and(lead[j - 1], dec[j - 1] == 0, out=lead[j])
        hi = dec // 10_000
        lo4 = dec - hi * 10_000
        np.add(hi, 10_000, out=hi, where=lead)
        np.add(lo4, 10_000, out=lo4, where=hi == 10_000)
        # a row: one cell for its "\n" (NUL in the first row), then its limbs
        cells = np.empty((len(chunk), n_dec + 1), dtype="<u8")
        cells[:, 0] = ord("\n")
        cells[:, 1:] = (_DIGITS4[hi] | _DIGITS4[lo4] << np.uint64(32)).T
        if lo == 0:
            cells[0, 0] = 0
        parts.append(cells.tobytes().translate(None, b"\0"))
    return parts


def decimal_to_keys(blob, length: int) -> np.ndarray:
    """Inverse of :func:`keys_to_decimal`: the packed keys of the
    "\\n"-separated decimal codes of length-``length`` k-mers in ``blob``, a
    bytes-like object. Works on fixed-size row chunks in numpy, without
    Python integers.

    Raises ValueError, naming the first offending row, for an empty line, a
    byte other than a decimal digit, a leading zero or a code outside
    [1, 4^length].
    """
    check_read_length(length)
    n_words = key_words(length)
    _, to_bin, slots = _decimal_tables(length)
    n_dec = to_bin.shape[1]
    width = 8 * n_dec
    text = np.frombuffer(blob, dtype=np.uint8)
    if not len(text):
        return np.zeros((0, n_words), dtype=np.uint64)
    # line ends found one block of bytes at a time: a mask of the whole blob
    # would be as large as the blob
    ends = np.concatenate([np.flatnonzero(text[at:at + _SCAN_BLOCK] == ord("\n")) + at
                           for at in range(0, len(text), _SCAN_BLOCK)])
    starts = np.concatenate([[0], ends + 1])
    ends = np.append(ends, len(text))
    sizes = ends - starts

    def refuse(bad, what, first=0):
        if bad.any():           # bad: one flag per row, or one row of flags per row
            row = np.argmax(bad.reshape(len(bad), -1).any(axis=1))
            raise ValueError(f"row code {first + int(row)} {what}")

    outside = f"lies outside [1, 4^{length}]"
    refuse(sizes == 0, "is empty")
    refuse(text[starts] == ord("0"), "has a leading zero")
    refuse(sizes > len(str(4 ** length)), outside)
    top, top_bits = divmod(2 * length, 16)        # the 16-bit limb holding bit 2L
    pad = np.zeros(width, dtype=np.uint8)
    keys = np.empty((len(starts), n_words), dtype=np.uint64)
    for lo in range(0, len(starts), _DECIMAL_CHUNK):
        s, e = starts[lo:lo + _DECIMAL_CHUNK], ends[lo:lo + _DECIMAL_CHUNK]
        # each code right-aligned in D cells of eight bytes; the bytes before
        # its line start, from earlier lines or the padding, are forced to '0'
        seg = np.concatenate([pad, text[s[0]:e[-1]]])
        cells = sliding_window_view(seg, width)[e - s[0]].view("<u8")
        before = width - (e - s)
        full = before >> 3
        for j in range(full.max()):
            cells[full > j, j] = _ASCII_ZEROS
        rows = np.arange(len(s))
        low = (np.uint64(1) << (8 * (before & 7)).astype(np.uint64)) - np.uint64(1)
        cells[rows, full] = cells[rows, full] & ~low | _ASCII_ZEROS & low
        # every byte in '0'..'9': its high nibble and that of the byte plus 6
        # are both 3 (no carry into a byte leaves both at 3)
        refuse((cells & (cells + _SIXES) & _HIGH_NIBBLES) != _ASCII_ZEROS,
               "holds a byte that is not a decimal digit", lo)
        # eight digits to one base-10^8 limb in three multiply-shift steps
        # (Lemire, "Number parsing at a gigabyte per second", 2021)
        cells -= _ASCII_ZEROS
        for scale, shift, mask in _SWAR_STEPS:
            high = cells >> shift
            cells *= scale
            cells += high
            cells &= mask
        # 16-bit limbs, least significant first, not yet below 2^16; then
        # the -1 of the code and the carries (arithmetic shifts borrow too)
        limbs = (to_bin @ cells.T.astype(np.float64)).astype(np.int64)
        limbs[0] -= 1
        for i in range(len(limbs) - 1):
            limbs[i + 1] += limbs[i] >> 16
            limbs[i] &= 0xFFFF
        refuse((limbs[top + 1:] != 0).any(axis=0) | (limbs[top] >> top_bits != 0), outside, lo)
        keys[lo:lo + len(s)] = np.ascontiguousarray(limbs[slots].T, dtype="<u2").view("<u8")
    return keys


def _fingerprint(keys: np.ndarray) -> np.ndarray:
    """Hash of each key's words, each xored in and then mixed into every bit
    by the splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014), so no
    later word can cancel a difference. One-word keys never collide: each
    step is a bijection of uint64. Works on one block of keys at a time."""
    fp = np.zeros(len(keys), dtype=np.uint64)
    for lo in range(0, len(keys), _CACHE_BLOCK):
        block, part = fp[lo:lo + _CACHE_BLOCK], keys[lo:lo + _CACHE_BLOCK]
        for w in range(keys.shape[1]):
            block ^= part[:, w]
            for shift, multiplier in _MIX_STEPS:
                block ^= block >> shift
                block *= multiplier
            block ^= block >> _MIX_LAST
    return fp


def _sort_by_fingerprint(fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, fp[order])``, ``order`` sorting ``fp`` and equal
    fingerprints in index order.

    One ``np.sort`` of the fingerprints with each one's index in their low
    b bits, b the bit length of n - 1, gives ``order``. Where the high bits
    tie, the index decided against the low fingerprint bits; a stable sort
    of just those tied groups mends them, so the extra memory is bounded by
    the groups, not by n.
    """
    n = len(fp)
    mask = (np.uint64(1) << np.uint64(max(n - 1, 0).bit_length())) - np.uint64(1)
    packed = fp & ~mask
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    packed &= mask
    order = packed.view(np.int64)
    sorted_fp = fp[order]
    bad = np.flatnonzero(sorted_fp[1:] < sorted_fp[:-1])
    if len(bad):
        high = np.unique(sorted_fp[bad] & ~mask)
        # sorted_fp is sorted by its high bits, so "< high" and "<= high | mask"
        # each hold on a prefix: bisection finds each group's bounds exactly
        lo = np.searchsorted(sorted_fp, high, side="left")
        size = np.searchsorted(sorted_fp, high | mask, side="right") - lo
        at = np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)
        # the groups stand in ascending high bits, so one stable sort of
        # their fingerprints keeps them apart and in place
        fix = np.argsort(sorted_fp[at], kind="stable")
        sorted_fp[at] = sorted_fp[at[fix]]
        order[at] = order[at[fix]]
    return order, sorted_fp


class KmerIndex:
    """Distinct packed k-mer keys, one row each, and a lookup sorted by
    fingerprint. Equal words decide every match, never a fingerprint alone.
    """

    def __init__(self, keys: np.ndarray):
        """Index the rows of ``keys``, which must be distinct."""
        order, sorted_fp = _sort_by_fingerprint(_fingerprint(keys))
        self._adopt(keys, sorted_fp, order)

    def _adopt(self, keys, sorted_fp, sorted_rows):
        self.keys = keys
        self._fp = sorted_fp
        self._rows = sorted_rows

    @classmethod
    def first_seen(cls, keys: np.ndarray) -> tuple["KmerIndex", np.ndarray]:
        """Index of the distinct rows of ``keys`` in first-seen order, and
        the row of each key.

        One sort by fingerprint places equal keys side by side unless two
        different keys share a fingerprint; then a sort by the words
        themselves does. Linear passes then number the groups in the order
        of their first keys.
        """
        n = len(keys)
        order, sorted_fp = _sort_by_fingerprint(_fingerprint(keys))
        new = np.ones(n, dtype=bool)
        np.not_equal(sorted_fp[1:], sorted_fp[:-1], out=new[1:])
        index = cls.__new__(cls)
        if new.all():           # no fingerprint repeats: every key is distinct
            index._adopt(keys, sorted_fp, order)
            return index, np.arange(n)
        tie = np.flatnonzero(~new[1:])
        # np.take gathers whole rows faster than keys[...] does
        shared = (np.take(keys, order[tie], axis=0) != np.take(keys, order[tie + 1], axis=0)).any()
        if shared:
            order = np.lexsort(keys.T[::-1])
            grouped = keys[order]
            new[1:] = (grouped[1:] != grouped[:-1]).any(axis=1)
        starts = np.flatnonzero(new)
        # a group's first key, marked where it stands in ``keys``: the marks
        # counted up to it give the group's row, and they stand in row order
        first = np.minimum.reduceat(order, starts)
        seen = np.zeros(n, dtype=bool)
        seen[first] = True
        group_row = np.cumsum(seen)[first] - 1
        rows = np.empty(n, dtype=np.int64)
        rows[order] = group_row[np.cumsum(new) - 1]
        distinct = np.take(keys, np.flatnonzero(seen), axis=0)
        if shared:
            return cls(distinct), rows
        index._adopt(distinct, sorted_fp[starts], group_row)
        return index, rows

    def rows_of(self, keys: np.ndarray) -> np.ndarray:
        """Row of each key, or -1 where the index does not hold it."""
        out = np.full(len(keys), -1, dtype=np.int64)
        if not len(self._fp):
            return out
        fp = _fingerprint(keys)
        by_fp, sorted_needles = _sort_by_fingerprint(fp)
        at = np.empty(len(keys), dtype=np.int64)
        at[by_fp] = np.searchsorted(self._fp, sorted_needles)   # sorted needles search fastest
        np.minimum(at, len(self._fp) - 1, out=at)
        q = np.flatnonzero(self._fp[at] == fp)
        cand = self._rows[at[q]]
        same = (self.keys[cand] == keys[q]).all(axis=1)
        out[q[same]] = cand[same]
        for i in q[~same]:          # other words under the first row of this fingerprint
            cand = self._rows[at[i]:np.searchsorted(self._fp, fp[i], side="right")]
            match = cand[(self.keys[cand] == keys[i]).all(axis=1)]
            if len(match):
                out[i] = match[0]
        return out


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


def read_bytes(path) -> bytes:
    """The bytes of a plain file, or the decompressed bytes of a ``.gz`` one;
    ValueError naming the file if its gzip data are not whole and intact."""
    data = Path(path).read_bytes()
    try:
        return gzip.decompress(data) if Path(path).suffix == ".gz" else data
    except (EOFError, OSError, zlib.error) as exc:     # truncated, not gzip, corrupt
        raise ValueError(f"{path}: damaged gzip data: {exc}") from None


def locale_encoding() -> str:
    """The encoding that ``open()`` and ``Path.read_text()`` decode with."""
    return io.TextIOWrapper(io.BytesIO()).encoding


def read_json(path, **types) -> dict:
    """The JSON object in the file at ``path``, checked by :func:`require_fields`
    against ``types``; ValueError naming the file for text that is not JSON."""
    try:
        record = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return require_fields(record, path, **types)


def require_fields(record, path, **types) -> dict:
    """``record``, a JSON value read from ``path``, once it is checked to be
    an object holding every named field with a value of its given type;
    otherwise ValueError naming the file and the first missing or wrong-typed
    field. A type ``list[t]`` asks for a list of ``t`` values. An ``int``
    takes no bool, and a ``float`` takes an int but no bool."""
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(record).__name__}")
    for name, kind in types.items():
        if name not in record:
            raise ValueError(f"{path}: missing field {name!r}")
        value = record[name]
        item = None
        if isinstance(kind, GenericAlias):
            kind, (item,) = kind.__origin__, kind.__args__
        if not _is_a(value, kind):
            raise ValueError(f"{path}: field {name!r} must be {kind.__name__}, "
                             f"got {type(value).__name__}")
        for v in value if item else ():
            if not _is_a(v, item):
                raise ValueError(f"{path}: field {name!r} must hold {item.__name__} "
                                 f"values, got {type(v).__name__}")
    return record


def _is_a(value, kind: type) -> bool:
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def parse_fasta(path, drop_ambiguous: bool = False) -> SequenceDatabase:
    """Load a plain or gzipped FASTA file into a validated, deduplicated
    database. The bytes of :func:`read_bytes` are decoded as ``open(path)``
    decodes them: the locale's encoding, universal newlines.

    Sequences are upper-cased before they are checked. Records containing
    characters outside ACGT are dropped (and counted) when ``drop_ambiguous``
    is set, otherwise they raise :class:`AmbiguousBaseError`. Exact duplicate
    sequences collapse to the first-seen record, as in :meth:`from_sequences
    <SequenceDatabase.from_sequences>`; the dropped labels are in ``dedup_map``.
    """
    kept, dropped = [], []

    def keep(label, chunks):
        seq = "".join(chunks).upper()
        if not seq:
            raise FastaError(f"{path}: empty sequence for record {label!r}")
        bad = _NON_ACGT.search(seq)
        if not bad:
            kept.append((label, seq))
        elif drop_ambiguous:
            dropped.append(label)
            logger.warning("dropping record %r: ambiguous characters", label)
        else:
            raise AmbiguousBaseError(f"{path}: record {label!r} contains {bad.group()!r}")

    data = read_bytes(path)
    # a bad byte fails here at its offset in the file, not in the wrapper's 8 KB chunk
    if not data.isascii():
        data.decode(locale_encoding())
    label, chunks = None, []
    for line in io.TextIOWrapper(io.BytesIO(data)):
        line = line.strip()         # a blank line adds "" to a record, or nothing
        if line.startswith(">"):
            if label is not None:
                keep(label, chunks)
            label, chunks = line[1:].strip(), []
        elif label is not None:
            chunks.append(line)
        elif line:
            raise FastaError(f"{path}: sequence data before first '>' header")
    if label is None:
        raise FastaError(f"{path}: no FASTA records found")
    keep(label, chunks)
    db = SequenceDatabase.from_sequences([s for _, s in kept], [lab for lab, _ in kept])
    db.dropped_ambiguous = len(dropped)
    return db
