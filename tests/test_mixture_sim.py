import gzip
import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats

from readprofiler import sequence_db
from readprofiler.experiments import generate_random_db
from readprofiler.mixture_sim import (
    MixtureSpec,
    ReadCounts,
    _guide_invert,
    empirical_frequencies,
    read_counts_from_reads,
    sample_power_law_mixture,
    simulate_reads,
)
from readprofiler.read_matrix import FrequencyVector, ReadSamplingMatrix, build_matrix, \
    reweight_to_dna
from readprofiler.sequence_db import SequenceDatabase, base_digits, codes_to_keys, \
    keys_to_codes, kmer_keys, lex_decode, lex_encode


def db_of(*seqs):
    return SequenceDatabase.from_sequences(list(seqs))


def counts_of(kmers: dict[str, int], total=None, seed=None) -> ReadCounts:
    """ReadCounts of {k-mer: count}, in that order."""
    L = len(next(iter(kmers)))
    keys = kmer_keys(base_digits("".join(kmers)), L, np.arange(len(kmers)) * L)
    counts = list(kmers.values())
    return ReadCounts(keys, counts, L, sum(counts) if total is None else total, seed)


def code_items(rc: ReadCounts) -> list[tuple[int, int]]:
    """(lex_encode code, count) of each k-mer of ``rc``, in its order."""
    return list(zip(keys_to_codes(rc.keys), rc.counts.tolist()))


class TestPowerLawMixture:
    def test_flat_when_alpha_zero(self):
        mix = sample_power_law_mixture(100, 4, 0.0, seed=1)
        np.testing.assert_array_equal(mix.frequencies, [0.25] * 4)

    def test_harmonic_weights_alpha_one(self):
        mix = sample_power_law_mixture(100, 4, 1.0, seed=1)
        np.testing.assert_allclose(mix.frequencies, [0.48, 0.24, 0.16, 0.12],
                                   atol=1e-15)

    def test_deterministic_given_seed(self):
        a = sample_power_law_mixture(1000, 10, 1.0, seed=7)
        b = sample_power_law_mixture(1000, 10, 1.0, seed=7)
        np.testing.assert_array_equal(a.support, b.support)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)

    def test_support_distinct_and_in_range(self):
        mix = sample_power_law_mixture(50, 20, 1.0, seed=3)
        assert len(set(mix.support.tolist())) == 20
        assert mix.support.min() >= 1 and mix.support.max() <= 50

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            sample_power_law_mixture(10, 11, 1.0, seed=0)

    def test_full_vector_places_mass_on_support(self):
        mix = sample_power_law_mixture(20, 3, 1.0, seed=5)
        x = mix.full_vector(20)
        assert x.normalized
        np.testing.assert_array_equal(np.where(x.values > 0)[0] + 1,
                                      np.sort(mix.support))


class TestSimulateReads:
    def test_deterministic_column(self):
        A = build_matrix(db_of("AAAA"), 2)
        x = FrequencyVector([1.0], "species", normalized=True)
        rc = simulate_reads(A, x, 500, seed=0)
        assert code_items(rc) == [(lex_encode("AA"), 500)]

    def test_single_read(self):
        A = build_matrix(db_of("ACGTACGT"), 3)
        x = FrequencyVector([1.0], "species", normalized=True)
        rc = simulate_reads(A, x, 1, seed=4)
        assert rc.total == 1
        assert rc.n_distinct == 1

    def test_reproducible_across_runs(self):
        A = build_matrix(db_of("ACGTACGTAC", "GGCATTGAGG"), 4)
        x = FrequencyVector([0.3, 0.7], "species", normalized=True)
        assert code_items(simulate_reads(A, x, 2000, seed=9)) == \
            code_items(simulate_reads(A, x, 2000, seed=9))

    def test_point_mass_converges_to_column(self):
        # law of large numbers: total variation against the exact column
        A = build_matrix(db_of("ACGTACGGTCA"), 3)
        x = FrequencyVector([1.0], "species", normalized=True)
        rc = simulate_reads(A, x, 10 ** 6, seed=11)
        emp = empirical_frequencies(rc, A)
        col = A.matrix.toarray()[:, 0]
        assert 0.5 * np.abs(emp.y - col).sum() <= 0.01

    def test_guide_inversion_matches_searchsorted_at_boundaries(self):
        rng = np.random.default_rng(5)
        cums, v, run, want = [], [], [], []
        for r, n in enumerate((1, 2, 3, 7, 64, 65, 300)):
            w = rng.random(n) * (rng.random(n) < 0.7)       # ties from zero weights
            cum = np.cumsum(w / max(w.sum(), 1e-300))
            if r == 3:
                cum[-2] = np.nextafter(1.0, 2.0)            # rounded past 1
            cum[-1] = 1.0
            M = 1 << max(n - 1, 0).bit_length()
            # every entry, its neighbours, and every bucket edge j / M
            at = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 2),
                                 np.arange(M) / M, [0.0, np.nextafter(1.0, 0)],
                                 rng.random(50)])
            at = at[(at >= 0) & (at < 1)]
            cums.append(cum)
            v.append(at)
            run.append(np.full(len(at), r))
            want.append(sum(map(len, cums[:-1])) + np.searchsorted(cum, at, side="right"))
        cum, v, run = np.concatenate(cums), np.concatenate(v), np.concatenate(run)
        sizes = [len(c) for c in cums]
        np.testing.assert_array_equal(_guide_invert(cum, sizes, run, v), np.concatenate(want))
        np.testing.assert_array_equal(_guide_invert(cums[5], [sizes[5]], 0, v[run == 5]),
                                      want[5] - sum(sizes[:5]))

    def test_chi_square_goodness_of_fit(self):
        # model-fidelity oracle: chi-square of simulated counts vs R * (A x')
        db = db_of("ACGTACGTACGGTTAACC", "GGCATTGACCATGGCAT", "TTTCGATTTCGA")
        A = build_matrix(db, 3)
        x = FrequencyVector([0.5, 0.3, 0.2], "species", normalized=True)
        expected = A.matrix @ reweight_to_dna(x, A.col_lengths).values
        passed = 0
        n_trials = 20
        for seed in range(n_trials):
            rc = simulate_reads(A, x, 10 ** 5, seed=seed)
            emp = empirical_frequencies(rc, A)
            obs = emp.y * rc.total
            _, p = scipy.stats.chisquare(obs, expected * rc.total)
            passed += p > 0.001
        assert passed >= int(0.95 * n_trials)


class TestEmpiricalFrequencies:
    def test_simple_arithmetic(self):
        A = build_matrix(db_of("AAAC"), 2)  # rows AA, AC
        rc = counts_of({"AA": 3, "AC": 1})
        emp = empirical_frequencies(rc, A)
        np.testing.assert_array_equal(emp.y, [0.75, 0.25])
        assert emp.unmapped_fraction == 0.0

    def test_simulated_reads_all_mapped(self):
        A = build_matrix(db_of("ACGTACGTAC", "GGCATTGAGG"), 4)
        x = FrequencyVector([0.4, 0.6], "species", normalized=True)
        rc = simulate_reads(A, x, 5000, seed=2)
        assert empirical_frequencies(rc, A).unmapped_fraction == 0.0

    def test_unknown_kmer_reported_not_renormalized(self):
        A = build_matrix(db_of("AAAC"), 2)
        rc = counts_of({"AA": 3, "GG": 1})
        emp = empirical_frequencies(rc, A)
        assert emp.unmapped_fraction == 0.25
        assert emp.y.sum() == 0.75  # y left unrenormalized

    def test_mass_conservation_exact_on_counts(self):
        A = build_matrix(db_of("AAAC"), 2)
        rc = counts_of({"AA": 7, "GG": 3, "AC": 5})
        emp = empirical_frequencies(rc, A)
        assert emp.mapped_reads + emp.unmapped_reads == rc.total
        assert Fraction(emp.mapped_reads, rc.total) \
            + Fraction(emp.unmapped_reads, rc.total) == 1

    def test_read_length_mismatch_rejected(self):
        A = build_matrix(db_of("AAAC"), 2)
        rc = counts_of({"AAA": 1})
        with pytest.raises(ValueError):
            empirical_frequencies(rc, A)


class TestReadCountsIO:
    def test_save_load_roundtrip(self, tmp_path):
        rc = counts_of({"TTT": 5, "ACG": 2}, seed=3)
        path = tmp_path / "reads.tsv"
        rc.save(path)
        back = ReadCounts.load(path)
        assert code_items(back) == sorted(code_items(rc))
        assert back.total == rc.total
        assert back.read_length == 3

    def test_counts_must_sum_to_total(self):
        with pytest.raises(ValueError):
            counts_of({"AA": 1}, total=5)

    def test_raw_plain_reads(self, tmp_path):
        path = tmp_path / "reads.txt"
        path.write_text("ACGTAC\nACGTTT\nAC\n")
        rc = read_counts_from_reads(path, 4)
        assert rc.total == 2
        assert code_items(rc) == [(lex_encode("ACGT"), 2)]
        assert rc.skipped_short == 1

    def test_raw_fastq_reads(self, tmp_path):
        path = tmp_path / "reads.fastq"
        path.write_text("@r1\nACGTAC\n+\nIIIIII\n@r2\nGGGTAC\n+\nIIIIII\n")
        rc = read_counts_from_reads(path, 3)
        assert rc.total == 2
        assert code_items(rc) == [(lex_encode("ACG"), 1), (lex_encode("GGG"), 1)]

    @pytest.mark.parametrize("fastq", [False, True])
    def test_non_acgt_reads_skipped_and_counted(self, tmp_path, fastq):
        reads = ["ACGTAC", "ACNTAC", "ACGTTT", "AC", "ACGTNN"]
        path = tmp_path / "reads"
        if fastq:
            path.write_text("".join(f"@r{i}\n{r}\n+\n{'I' * len(r)}\n"
                                    for i, r in enumerate(reads)))
        else:
            path.write_text("\n".join(reads) + "\n")
        rc = read_counts_from_reads(path, 4)
        assert rc.total == 3
        assert code_items(rc) == [(lex_encode("ACGT"), 3)]
        assert rc.skipped_invalid == 1
        assert rc.skipped_short == 1

    @pytest.mark.parametrize("text, message", [
        ("@r1\nACGT\n+\nIIII\n@r2\nACGT\nIIII\n@r3\nACGT\n+\nIIII\n",
         "record 2 has no '+' line"),
        ("@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\nIII\n",
         "record 2 has 4 bases but 3 quality values"),
        ("@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\n",
         "record 2 is truncated"),
        ("@r1\nACGT\n+\nIIII\nr2\nACGT\n+\nIIII\n",
         "record 2 has no '@' header"),
    ], ids=["missing_plus", "quality_length", "truncated", "missing_at"])
    def test_malformed_fastq_rejected(self, tmp_path, text, message):
        path = tmp_path / "reads.fastq"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_counts_from_reads(path, 3)

    @pytest.mark.parametrize("fastq", [False, True])
    def test_gzipped_reads_match_plain(self, tmp_path, fastq):
        reads = ["ACGTAC", "acgttt", "ACNTAC", "AC", "GGGTACC", "ACGTAC"]
        if fastq:
            text = "".join(f"@r{i}\n{r}\n+\n{'I' * len(r)}\n" for i, r in enumerate(reads))
        else:
            text = "\n".join(reads) + "\n"
        path, gz = tmp_path / "reads.txt", tmp_path / "reads.txt.gz"
        path.write_text(text)
        gz.write_bytes(gzip.compress(text.encode()))
        rc, rc_gz = read_counts_from_reads(path, 4), read_counts_from_reads(gz, 4)
        assert code_items(rc_gz) == code_items(rc)
        assert (rc_gz.total, rc_gz.skipped_short, rc_gz.skipped_invalid) == \
            (rc.total, rc.skipped_short, rc.skipped_invalid) == (4, 1, 1)

    @pytest.mark.parametrize("read_len", [1, 2, 31, 32, 33, 64, 65, 150, 512])
    def test_save_matches_per_code_decode(self, tmp_path, read_len):
        rng = np.random.default_rng(read_len)
        codes = {1, 4 ** read_len}                          # all-A and all-T
        codes |= {int.from_bytes(rng.bytes(-(-read_len // 4)), "big") % 4 ** read_len + 1
                  for _ in range(300)}
        codes = [int(c) for c in rng.permutation(np.array(sorted(codes), dtype=object))]
        counts = {c: int(rng.integers(1, 1000)) for c in codes}
        rc = ReadCounts(codes_to_keys(codes, read_len), [counts[c] for c in codes], read_len,
                        sum(counts.values()), seed=5)
        rc.save(tmp_path / "reads.tsv")
        # the per-code lex_decode loop the packed-key save replaces
        header = {"read_length": read_len, "total": rc.total, "seed": 5}
        lines = ["#" + json.dumps(header, sort_keys=True)]
        lines += [f"{lex_decode(c, read_len)}\t{counts[c]}" for c in sorted(counts)]
        (tmp_path / "want.tsv").write_text("\n".join(lines) + "\n")
        assert (tmp_path / "reads.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()
        assert dict(code_items(ReadCounts.load(tmp_path / "reads.tsv"))) == counts

    @pytest.mark.parametrize("kmer", ["AC", "ACGT"])
    def test_load_rejects_kmer_of_wrong_length(self, tmp_path, kmer):
        path = tmp_path / "reads.tsv"
        path.write_text('#{"read_length": 3, "seed": null, "total": 7}\n'
                        f"ACG\t2\n{kmer}\t5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: k-mer {kmer!r}")):
            ReadCounts.load(path)

    @pytest.mark.parametrize("body, line, read_len", [
        ("AA\t3\nAA\t3\n", 3, 2),                       # total 3: the old dict kept one
        ("AC\t1\n\nGT\t2\nCA\t4\nGT\t2\n", 6, 2),
        ("A" * 40 + "\t1\n" + "C" * 40 + "\t1\n" + "A" * 40 + "\t1\n", 4, 40),
    ])
    def test_load_rejects_repeated_kmer(self, tmp_path, body, line, read_len):
        path = tmp_path / "reads.tsv"
        path.write_text(f'#{{"read_length": {read_len}, "seed": null, "total": 3}}\n' + body)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: k-mer ")
                           + ".* repeats line"):
            ReadCounts.load(path)

    @pytest.mark.parametrize("body, message", [
        ("ACG\t2\nACT 5\n", "line 3: expected 'kmer<TAB>count'"),
        ("ACG\t2\nACT\t5\t1\n", "line 3: expected 'kmer<TAB>count'"),
        ("ACG\t2\nACT\tfive\n", "line 3: count 'five' is not an integer"),
        ("ACG\t2\nANT\t5\n", "line 3: k-mer 'ANT' holds 'N'"),
        ("ACG\t2\nACT\t5\nacg\t1\n", "line 4: k-mer 'acg' holds 'a'"),
        ("ACG\t2\nACT\t0\n", "line 3: count 0 is not positive"),
        ("ACG\t2\nACT\t-5\n", "line 3: count -5 is not positive"),
    ], ids=["space", "three_fields", "not_integer", "base_n", "lowercase", "zero", "negative"])
    def test_load_names_malformed_line(self, tmp_path, body, message):
        path = tmp_path / "reads.tsv"
        path.write_text('#{"read_length": 3, "seed": null, "total": 7}\n' + body)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            ReadCounts.load(path)

    def test_producers_hand_over_distinct_keys(self, tmp_path):
        A = build_matrix(db_of("ACGT" * 12, "A" * 40 + "C", "GGCATTGACCATGGCATTTCGATTTCGAACG"), 33)
        rc = simulate_reads(A, FrequencyVector([0.5, 0.3, 0.2], "species", normalized=True),
                            5000, seed=1)
        reads = ["ACGT" * 10, "acgt" * 10, "T" * 33, "ACGT" * 9 + "AAAA", "T" * 40]
        path = tmp_path / "reads.txt"
        path.write_text("\n".join(reads * 50) + "\n")
        for rc in (rc, read_counts_from_reads(path, 33)):
            assert rc.keys.dtype == np.uint64 and rc.keys.shape[1] == 2
            assert len(np.unique(rc.keys, axis=0)) == len(rc.keys) == len(rc.counts)
            assert rc.counts.dtype == np.int64 and rc.counts.sum() == rc.total

    def test_mixture_spec_roundtrip(self, tmp_path):
        mix = sample_power_law_mixture(100, 5, 1.0, seed=12)
        path = tmp_path / "mix.json"
        mix.save(path)
        back = MixtureSpec.load(path)
        np.testing.assert_array_equal(back.support, mix.support)
        np.testing.assert_allclose(back.frequencies, mix.frequencies)


class TestPackedKeyReadPaths:
    """The read paths against the per-read big-int and dict loops they replace."""

    @staticmethod
    def reference_read_counts(reads, read_len):
        counts, short, invalid = {}, 0, 0
        for read in reads:
            read = read.strip().upper()
            if len(read) < read_len:
                short += 1
                continue
            try:
                code = lex_encode(read[:read_len])
            except ValueError:
                invalid += 1
                continue
            counts[code] = counts.get(code, 0) + 1
        return counts, short, invalid

    @pytest.mark.parametrize("read_len", [1, 2, 3, 31, 32, 33, 64, 65, 150])
    def test_read_counts_match_per_read_loop(self, tmp_path, read_len):
        rng = np.random.default_rng(read_len)
        genome = "".join("ACGT"[d] for d in rng.integers(0, 4, 400))
        reads = []
        for _ in range(600):
            start = int(rng.integers(0, 200))
            read = genome[start:start + read_len + int(rng.integers(-3, 20))]
            kind = rng.integers(0, 8)
            if kind == 0 and read:                      # a base outside ACGT
                p = int(rng.integers(0, len(read)))
                read = read[:p] + str(rng.choice(["N", "ß", "é", "-", "ψ"])) + read[p + 1:]
            elif kind == 1:
                read = read.lower()
            elif kind == 2:
                read = "  " + read + "\t"
            reads.append(read or "A")
        reads += ["A" * (read_len + 2), "T" * read_len]
        path = tmp_path / "reads.txt"
        path.write_text("\n".join(reads) + "\n")
        lines = path.read_text().rstrip().splitlines()
        counts, short, invalid = self.reference_read_counts(
            [ln for ln in lines if ln.strip()], read_len)
        rc = read_counts_from_reads(path, read_len)
        assert code_items(rc) == list(counts.items())
        assert (rc.skipped_short, rc.skipped_invalid) == (short, invalid)
        assert invalid and (short or read_len == 1)    # a kept line has a base

    @staticmethod
    def mask_loop_counts(A, x, n_reads, seed) -> list[tuple[int, int]]:
        """(code, count) of the draws as simulate_reads makes them, mapped
        species by species with a full searchsorted each."""
        rng = np.random.default_rng(seed)
        u, v = rng.random(n_reads), rng.random(n_reads)
        x_dna = x if x.kind == "dna" else reweight_to_dna(x, A.col_lengths)
        cum = np.cumsum(x_dna.values)
        cum[-1] = 1.0
        species = np.searchsorted(cum, u, side="right")
        m, chosen = A.matrix, np.empty(n_reads, dtype=np.int64)
        for b in np.unique(species):
            sel = species == b
            col_cum = np.cumsum(m.data[m.indptr[b]:m.indptr[b + 1]])
            col_cum[-1] = 1.0
            chosen[sel] = m.indices[m.indptr[b] + np.searchsorted(col_cum, v[sel],
                                                                  side="right")]
        rows, cnts = np.unique(chosen, return_counts=True)
        row_codes = keys_to_codes(A.index.keys)
        return [(row_codes[r], int(c)) for r, c in zip(rows, cnts)]

    def test_simulate_and_map_match_mask_loop(self):
        # "CA" is a tail species at L=4; "AAAAAAC" and "ACACACAC" repeat
        # k-mers, so their columns have unequal weights
        seqs = ("ACGTACGGTTACGATTGCA", "GGCATTGACCATGA", "TTTAGC", "CA")
        small = build_matrix(db_of(*seqs, "AAAAAAC", "ACACACAC"), 4)
        large = build_matrix(generate_random_db(2000, 500, seed=21), 100)
        cases = [
            (build_matrix(db_of(*seqs), 4),
             FrequencyVector([0.4, 0.3, 0.2, 0.1], "species", normalized=True),
             ((1, 1), (50, 2), (5000, 3))),
            (small, FrequencyVector([0.3, 0.2, 0.2, 0.1, 0.1, 0.1], "species",
                                    normalized=True), ((5000, 8),)),
            (small, FrequencyVector([0.1, 0.1, 0.2, 0.2, 0.3, 0.1], "dna",
                                    normalized=True), ((5000, 4),)),
            # zero weight in the middle of the support and at its end
            (small, FrequencyVector([0.4, 0.0, 0.2, 0.0, 0.4, 0.0], "species",
                                    normalized=True), ((5000, 5),)),
            (large, sample_power_law_mixture(2000, 20, 1.0, seed=22).full_vector(2000),
             ((10 ** 5, 7),)),
        ]
        for A, mix, draws in cases:
            for n_reads, seed in draws:
                rc = simulate_reads(A, mix, n_reads, seed)
                want = self.mask_loop_counts(A, mix, n_reads, seed)
                assert code_items(rc) == want
                y = np.zeros(A.n_rows)
                code_to_row = {c: i for i, c in enumerate(keys_to_codes(A.index.keys))}
                for code, c in want:
                    y[code_to_row[code]] = c / rc.total
                assert np.array_equal(empirical_frequencies(rc, A).y, y)
        # an unnormalized dna vector would hand the mass past cum[-2] = 0.6
        # to the zero-weight last species through the forced cum[-1] = 1.0
        with pytest.raises(ValueError, match="normalized"):
            simulate_reads(small, FrequencyVector([0.3, 0.0, 0.0, 0.0, 0.3, 0.0], "dna"),
                           5000, 6)

    def test_simulate_matches_mask_loop_on_boundary_draws(self, monkeypatch):
        # draws that sit on, or one ulp beside, every species and column
        # cumulative entry: there a sum taken in another order would pick
        # another species or row
        A = build_matrix(db_of("ACGTACGGTTACGATTGCA", "GGCATTGACCATGA", "TTTAGC", "CA",
                               "AAAAAAC", "ACACACAC"), 4)
        mix = FrequencyVector([0.3, 0.2, 0.0, 0.1, 0.25, 0.15], "species", normalized=True)
        m = A.matrix

        def near(points):
            points = np.concatenate([points, np.nextafter(points, 0), np.nextafter(points, 2)])
            return np.unique(points[(points >= 0) & (points < 1)])

        cum = np.cumsum(reweight_to_dna(mix, A.col_lengths).values)
        edges = near(np.concatenate([cum[:-1], (cum[:-1] + cum[1:]) / 2]))
        col_edges = near(np.concatenate([np.cumsum(m.data[m.indptr[b]:m.indptr[b + 1]])[:-1]
                                         for b in range(A.n_species)]))
        u, v = (a.ravel() for a in np.meshgrid(edges, col_edges))

        class Draws:
            def __init__(self, seed):
                self.left = [u, v]

            def random(self, n):
                return self.left.pop(0)

        monkeypatch.setattr(np.random, "default_rng", Draws)
        rc = simulate_reads(A, mix, len(u), seed=0)
        assert code_items(rc) == self.mask_loop_counts(A, mix, len(u), 0)

    @staticmethod
    def reference_simulate_reads(A, x, n_reads, seed):
        """simulate_reads as it counted reads before: into a K-long array of
        per-row counts, whose nonzero rows it then kept."""
        rng = np.random.default_rng(seed)
        u, v = rng.random(n_reads), rng.random(n_reads)
        x_dna = x if x.kind == "dna" else reweight_to_dna(x, A.col_lengths)
        cum = np.cumsum(x_dna.values)
        cum[-1] = 1.0
        step = np.append(cum[0] > 0, cum[1:] > cum[:-1])
        step[-1] = True
        species = np.flatnonzero(step)
        pick = _guide_invert(cum[species], [len(species)], 0, u)
        m = A.matrix
        hit = np.bincount(pick, minlength=len(species)) > 0
        drawn = species[hit]
        start = m.indptr[drawn]
        sizes = m.indptr[drawn + 1] - start
        stop = np.cumsum(sizes)
        entries = np.repeat(start - (stop - sizes), sizes) + np.arange(stop[-1])
        runs = np.split(m.data[entries], stop[:-1])
        col_cum = np.concatenate([np.cumsum(run) for run in runs])
        col_cum[stop - 1] = 1.0
        read = _guide_invert(col_cum, sizes, (np.cumsum(hit) - 1)[pick], v)
        per_row = np.zeros(A.n_rows, dtype=np.int64)
        np.add.at(per_row, m.indices[entries], np.bincount(read, minlength=len(entries)))
        rows = np.flatnonzero(per_row)
        return A.index.keys[rows], per_row[rows]

    def test_per_row_counts_match_reference(self):
        # family members share k-mers, so one row collects reads from several
        # drawn columns; few reads leave some drawn entries without a read
        rng = np.random.default_rng(30)
        founder = "".join("ACGT"[b] for b in rng.integers(0, 4, 40))
        family = db_of(*(founder[:p] + "ACGT"[("ACGT".index(founder[p]) + 1) % 4]
                         + founder[p + 1:] for p in range(0, 40, 4)))
        cases = [(build_matrix(family, 6), 10), (build_matrix(family, 30), 10),
                 (build_matrix(generate_random_db(200, 80, seed=31), 20), 200)]
        for A, n in cases:
            mixes = [sample_power_law_mixture(n, n // 3, 1.0, seed=32).full_vector(n),
                     FrequencyVector(np.eye(n)[n - 1], "species", normalized=True)]
            for mix in mixes:
                for n_reads, seed in ((1, 33), (50, 34), (20000, 35)):
                    rc = simulate_reads(A, mix, n_reads, seed)
                    keys, counts = self.reference_simulate_reads(A, mix, n_reads, seed)
                    assert np.array_equal(rc.keys, keys)
                    assert np.array_equal(rc.counts, counts)

    def test_empty_column_raises_only_when_drawn(self):
        A = build_matrix(db_of("ACGTACGGTTACGATTGCA", "GGCATTGACCATGA", "TTTAGC", "CA"), 4)
        m = A.matrix @ sp.diags([1.0, 0.0, 1.0, 0.0])
        m.eliminate_zeros()
        A = ReadSamplingMatrix(4, m, A.index, A.col_lengths)
        drawn = FrequencyVector([0.4, 0.3, 0.2, 0.1], "species", normalized=True)
        with pytest.raises(ValueError, match="species column 1 is empty"):
            simulate_reads(A, drawn, 100, seed=1)
        # weight 0, or too little weight to be drawn in 50 reads
        for w in ([0.5, 0.0, 0.5, 0.0], [0.5, 1e-12, 0.5 - 1e-12, 0.0]):
            mix = FrequencyVector(w, "species", normalized=True)
            rc = simulate_reads(A, mix, 50, seed=2)
            assert code_items(rc) == self.mask_loop_counts(A, mix, 50, 2)


def reference_read_counts_from_reads(path, read_len):
    """The str parser that the byte parser replaced: counts, total and both
    skip counts, or the ValueError it raised."""
    lines = Path(path).read_text().rstrip().splitlines()
    if lines and lines[0].startswith("@"):
        reads = []
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
            reads.append(seq)
    else:
        reads = [ln for ln in lines if ln.strip()]
    counts, short, invalid = TestPackedKeyReadPaths.reference_read_counts(reads, read_len)
    if not counts:
        raise ValueError(f"{path}: no usable reads of length >= {read_len}")
    return list(counts.items()), sum(counts.values()), short, invalid


def outcome(parse, path, read_len):
    try:
        return parse(path, read_len)
    except ValueError as exc:
        return type(exc), str(exc)


def parsed(path, read_len):
    rc = read_counts_from_reads(path, read_len)
    return code_items(rc), rc.total, rc.skipped_short, rc.skipped_invalid


class TestByteParserOracle:
    """read_counts_from_reads against the str parser it replaced, on files
    with every line shape that needs str semantics."""

    ENDINGS = ["\n"] * 6 + ["\r\n"] * 2 + ["\r"]
    EDGES = ["", "", "", " ", "  ", "\t", " \t", "\x1f"]
    # non-ASCII characters: letters, whitespace and line separators
    FOREIGN = ["ß", "é", "ψ", "\xa0", "\u2028", "\x85"]

    @classmethod
    def random_read(cls, rng, read_len, rare, splitters):
        n = max(1, read_len + int(rng.integers(-3, 6)))
        read = "".join(rng.choice(list("ACGT"), n))
        kind = int(rng.integers(0, 12))
        if kind == 0:
            read = read.lower()
        elif kind == 1:
            p = int(rng.integers(0, n))
            read = read[:p] + "N" + read[p + 1:]
        elif kind == 2 and rare:            # before or after position L
            p = int(rng.integers(0, n + 1))
            read = read[:p] + str(rng.choice(cls.FOREIGN[:4])) + read[p:]
        elif kind == 3 and rare and read_len > 1:   # upper() makes it L long
            read = read[:read_len - 2] + "ß"
        elif kind == 4:
            read = ""
        elif kind == 5 and splitters:       # str.splitlines breaks the line here
            p = int(rng.integers(0, n + 1))
            read = read[:p] + str(rng.choice(["\x0b", "\x0c", "\u2028", "\x85"])) + read[p:]
        return cls.edge(rng, rare) + read + cls.edge(rng, rare)

    @classmethod
    def edge(cls, rng, rare):
        return str(rng.choice(cls.EDGES)) if rare else ""

    @classmethod
    def random_file(cls, rng, read_len, fastq, splitters):
        """Reads in a plain or FASTQ file; a third of the files hold only
        ASCII, '\\n' line ends and no whitespace at line ends."""
        rare = rng.random() < 0.67

        def end():
            return str(rng.choice(cls.ENDINGS)) if rare else "\n"

        splitters &= rare
        out = []
        for i in range(int(rng.integers(1, 60))):
            read = cls.random_read(rng, read_len, rare, splitters)
            if not fastq:
                out.append(read + end())
                if rng.random() < 0.1:                  # a blank line
                    out.append(str(rng.choice(["", " ", "\t \t"])) * rare + end())
                continue
            header = str(rng.choice(["@r", "@r", " @r" if rare else "@r", "@r x"])) + str(i)
            if i == 0 and rng.random() < 0.8:
                header = "@r0"                          # else the file reads as plain
            plus = str(rng.choice(["+", "+", "+r" + str(i), " +" if rare else "+"]))
            qual = str(rng.choice(["I", "@", "#"])) * len(read.strip())
            for line in (header, read, plus, qual + cls.edge(rng, rare)):
                out.append(line + end())
        if rng.random() < 0.5:
            out.append(str(rng.choice(["\n", "\n\n", " \n\t\n", "\r\n  ", "\x0c"]
                                      if rare else ["\n", "\n\n"])))
        return "".join(out)

    @pytest.mark.parametrize("fastq", [False, True])
    @pytest.mark.parametrize("read_len", [1, 31, 32, 33, 150])
    def test_counts_match_str_parser(self, tmp_path, read_len, fastq):
        rng = np.random.default_rng([read_len, fastq])
        path = tmp_path / "reads"
        ok = failed = 0
        for trial in range(40):
            splitters = not fastq or trial % 4 == 0     # splitting a FASTQ line misaligns it
            path.write_bytes(self.random_file(rng, read_len, fastq, splitters).encode())
            want = outcome(reference_read_counts_from_reads, path, read_len)
            assert outcome(parsed, path, read_len) == want
            ok += isinstance(want[0], list)
            failed += not isinstance(want[0], list)
        assert ok >= 20 and (failed or not fastq)

    @pytest.mark.parametrize("read_len", [1, 32, 150])
    def test_malformed_fastq_matches_str_parser(self, tmp_path, read_len):
        rng = np.random.default_rng(read_len)
        path = tmp_path / "reads.fastq"
        messages = set()
        for _ in range(60):
            lines = self.random_file(rng, read_len, True, False).splitlines(keepends=True)
            if len(lines) < 8:
                continue
            head = 4 * int(rng.integers(1, len(lines) // 4))     # a record after the first
            cut = int(rng.integers(0, 5))
            if cut == 0:                                # a line missing
                del lines[head + int(rng.integers(0, 4))]
            elif cut == 1:                              # a quality value too many
                lines[head + 3] = "I" + lines[head + 3]
            elif cut == 2:                              # no '@'
                lines[head] = lines[head].replace("@", "", 1)
            elif cut == 3:                              # no '+'
                lines[head + 2] = "-\n"
            else:                                       # cut off mid-record
                lines = lines[:head + int(rng.integers(1, 4))]
            path.write_bytes("".join(lines).encode())
            want = outcome(reference_read_counts_from_reads, path, read_len)
            assert outcome(parsed, path, read_len) == want
            if not isinstance(want[0], list):
                messages.add(re.sub(r"\d+ ", "", want[1].split(" record ")[1])[:10])
        assert messages == {"is truncat", "has no '@'", "has no '+'", "has bases "}

    @pytest.mark.parametrize("text", [
        "@r0\nACGT\u2028\n+\nIIII\n",                # a separator ends the line
        "@r0\nACGT\n+\nIIII\u2028",
        "@r0\r\r\nACGT\n+\nIIII\n",                 # '\r' then '\r\n': an empty line
        "@r0\nACß\n+\nIII\n@r1\nacgt\r+\r\xa0IIII\xa0\n",
        "@r0\nACß\n+\nIIII\n",                        # 3 characters, 4 after upper()
        "ACGT\x85ACGT\u2029\x0bAC\x1c\x1d\x1eGTA\n",
        " @r0\nACGT\n+\nIIII\n",                      # plain: '@' is not the first byte
        "@r0\nACGT\n+\nIIII\n \n\t\r\n\n\x0c \n\n\n",     # trailing blank lines
        "ACGT\nAC\n\n  \n\r\n\t\n\xa0\n\n",
    ])
    def test_line_shapes_match_str_parser(self, tmp_path, text):
        path = tmp_path / "reads"
        path.write_bytes(text.encode())
        assert outcome(parsed, path, 3) == outcome(reference_read_counts_from_reads, path, 3)

    @pytest.mark.parametrize("text", ["", "  \n\t\n", "\r\n\r\n", "\n\x0c \x1f\n"])
    def test_empty_files_raise_as_before(self, tmp_path, text):
        path = tmp_path / "reads.txt"
        path.write_bytes(text.encode())
        want = outcome(reference_read_counts_from_reads, path, 3)
        assert want[0] is ValueError
        assert outcome(parsed, path, 3) == want

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "reads.txt"
        path.write_bytes(b"ACGTAC\nAC\xffGT\n")
        with pytest.raises(UnicodeDecodeError):
            read_counts_from_reads(path, 3)

    # each file holds a rare line, a '\r\n' and whitespace at a line end
    # before the lines a bad byte goes to
    BAD_BYTE_FILES = {
        "plain": (["ACGT ", "AC\u00dfGT", "ACGT\r", "ACGTACGT", " ", "ACGTAC"],
                  {"read": 3, "blank": 4, "last": 5}),
        "fastq": (["@r0 ", "AC\u00dfGT", "+\r", "IIIII", "@r1 x", "ACGTACGT", "+", "IIIIIIII",
                   " ", "@r2", "ACGT", "+", "IIII"],
                  {"header": 4, "read": 5, "quality": 7, "blank": 8, "last": 12}),
    }

    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3"], ids=["invalid", "cut_off"])
    @pytest.mark.parametrize("form,where", [
        (form, where) for form in ("plain", "fastq", "gz")
        for where in ("header", "read", "quality", "blank", "last")
        if form != "plain" or where in ("read", "blank", "last")])
    def test_bad_byte_raises_as_str_parser(self, tmp_path, form, where, bad):
        # a cut-off character ends at a line break, or at the end of the file
        lines, places = self.BAD_BYTE_FILES["plain" if form == "plain" else "fastq"]
        lines = [line.encode() for line in lines]
        lines[places[where]] += bad
        text = b"\n".join(lines) + b"\n" * (where != "last")
        path = tmp_path / "reads"
        path.write_bytes(text)
        want = outcome(reference_read_counts_from_reads, path, 3)
        assert want[0] is UnicodeDecodeError
        if form == "gz":
            path = tmp_path / "reads.gz"
            path.write_bytes(gzip.compress(text))
        assert outcome(parsed, path, 3) == want


class TestByteParserBlocks(TestByteParserOracle):
    """The oracle cases again, with the file scanned in blocks of a few
    bytes: block cuts fall at every offset of a line, and a file's trailing
    blank lines span several blocks."""

    @pytest.fixture(autouse=True, params=[1, 2, 3, 7, 64])
    def scan_block(self, request, monkeypatch):
        monkeypatch.setattr(sequence_db, "_SCAN_BLOCK", request.param)

    @pytest.mark.parametrize("fastq", [False, True])
    def test_gzipped_copy_matches_str_parser(self, tmp_path, fastq):
        rng = np.random.default_rng([7, fastq])
        path, gz = tmp_path / "reads", tmp_path / "reads.gz"
        for _ in range(10):
            text = self.random_file(rng, 5, fastq, not fastq).encode()
            path.write_bytes(text)
            gz.write_bytes(gzip.compress(text))
            want = outcome(reference_read_counts_from_reads, path, 5)
            if not isinstance(want[0], list):               # the error names the .gz file
                want = want[0], want[1].replace(f"{path}:", f"{gz}:")
            assert outcome(parsed, gz, 5) == want

    def test_invalid_utf8_position_counts_earlier_blocks(self, tmp_path):
        # the position is the byte's offset in the file, as read_text gives it
        path = tmp_path / "reads.txt"
        path.write_bytes(b"ACGT \nACGTACGT\n ACG\xc3\x9f\nACGTAC\nAC\xffGT\nACGT\n")
        with pytest.raises(UnicodeDecodeError, match="byte 0xff in position 31:"):
            read_counts_from_reads(path, 3)


def test_raw_read_counting_peak_below_2_5x_file(tmp_path):
    """40k FASTQ reads of 150 bp: the traced peak of counting them stays
    below 2.5x the file, so the per-read temporaries do not all live at
    once."""
    rng = np.random.default_rng(0)
    bases = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, (40_000, 150))]
    seqs = [bytes(row) for row in bases]
    path = tmp_path / "reads.fastq"
    path.write_bytes(b"".join(b"@r%d\n%s\n+\n%s\n" % (i, s, b"I" * 150)
                              for i, s in enumerate(seqs)))
    tracemalloc.start()
    try:
        rc = read_counts_from_reads(path, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc.total == 40_000
    assert peak < 2.5 * path.stat().st_size
