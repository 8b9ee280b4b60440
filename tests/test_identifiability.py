import csv
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from readprofiler import experiments, identifiability
from readprofiler.experiments import ExperimentConfig, run_identifiability_scan
from readprofiler.identifiability import (
    analyze,
    critical_read_length_scan,
    component_flags,
    find_substring_pairs,
    is_identifiable,
    null_space_flags_from_gram,
    partially_identifiable,
    split_components,
)
from readprofiler.read_matrix import ReadSamplingMatrix, build_matrix
from readprofiler.sequence_db import KmerIndex, SequenceDatabase


def db_of(*seqs):
    return SequenceDatabase.from_sequences(list(seqs))


def decompose_components(A: ReadSamplingMatrix) -> list[np.ndarray]:
    """Every connected component of A's Gram graph as one ascending column
    group, singletons included, in label order: the grouping that
    ``split_components`` splits into singletons and multi-column groups."""
    _, labels = connected_components(A.gram, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def component_sizes(A: ReadSamplingMatrix) -> list[int]:
    singles, multi = split_components(A.gram)
    return [1] * len(singles) + [len(cols) for cols in multi]


def full_svd_reference(dense, tol=1e-10, flag_tol=1e-8):
    """Flags, rank and null dimension from the full SVD (an m x m U)."""
    m, n = dense.shape
    _, sv, vt = scipy.linalg.svd(dense, full_matrices=True)
    rank = int(np.count_nonzero(sv > tol * sv[0] * max(m, n)))
    null_basis = vt[rank:]
    if null_basis.shape[0] == 0:
        return np.ones(n, dtype=bool), rank, 0
    return np.linalg.norm(null_basis, axis=0) <= flag_tol, rank, n - rank


def dense_flags_oracle(A, tol=1e-10):
    """Whole-matrix oracle: flags and rank from the full SVD of the dense
    matrix with an all-ones row appended. A's columns sum to one, so the row
    changes neither; comparing with it also checks that."""
    dense = np.vstack([A.matrix.toarray(), np.ones(A.n_species)])
    flags, rank, _ = full_svd_reference(dense, tol=tol)
    return flags, rank


class TestIsIdentifiable:
    def test_single_column_identifiable(self):
        ident, rank = is_identifiable(build_matrix(db_of("ACGTTACG"), 3))
        assert ident and rank == 1

    def test_l1_five_species_not_identifiable(self):
        # base-composition rows only: rank capped at 4
        db = db_of("ACGTA", "AACCG", "GGTTA", "CCGTA", "TTGGC")
        ident, rank = is_identifiable(build_matrix(db, 1))
        assert not ident
        assert rank <= 4

    def test_disjoint_windows_identifiable(self):
        ident, rank = is_identifiable(build_matrix(db_of("ACGT", "TGCA"), 2))
        assert ident and rank == 2

    def test_identical_window_multisets_not_identifiable(self):
        ident, _ = is_identifiable(build_matrix(db_of("AACA", "ACAA"), 2))
        assert not ident


class TestPartialIdentifiability:
    def test_fully_identifiable_all_flags_true(self):
        flags = partially_identifiable(build_matrix(db_of("ACGT", "TGCA"), 2))
        assert flags.all()

    def test_shared_window_multiset_pair_flagged(self):
        # species 1 and 2 have identical window multisets {AA, AC, CA}
        A = build_matrix(db_of("AACA", "ACAA", "GGGG"), 2)
        flags = partially_identifiable(A)
        np.testing.assert_array_equal(flags, [False, False, True])

    def test_null_space_is_difference_vector(self):
        A = build_matrix(db_of("AACA", "ACAA", "GGGG"), 2)
        assert analyze(A).null_space_dim == 1
        diff = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.linalg.norm(A.matrix @ diff) <= 1e-12

    def test_full_read_length_substring_free(self):
        db = db_of("ACGTAG", "TTGCAT", "GGATCC")
        assert not find_substring_pairs(db)
        flags = partially_identifiable(build_matrix(db, db.n_max))
        assert flags.all()

    def test_identifiable_iff_all_flags(self):
        rng = np.random.default_rng(0)
        for trial in range(15):
            n = int(rng.integers(2, 10))
            seqs = set()
            while len(seqs) < n:
                seqs.add("".join("ACGT"[d] for d in rng.integers(0, 4, 8)))
            A = build_matrix(db_of(*sorted(seqs)), int(rng.integers(2, 5)))
            ident, _ = is_identifiable(A)
            flags = partially_identifiable(A)
            assert ident == flags.all()
            np.testing.assert_array_equal(flags, dense_flags_oracle(A)[0])

    def test_column_permutation_equivariance(self):
        seqs = ["AACA", "ACAA", "GGGG", "TTAG"]
        flags = partially_identifiable(build_matrix(db_of(*seqs), 2))
        perm = [2, 0, 3, 1]
        flags_p = partially_identifiable(build_matrix(db_of(*[seqs[i] for i in perm]), 2))
        np.testing.assert_array_equal(flags_p, flags[perm])


class TestComponents:
    def test_disjoint_databases_split(self):
        # first two share only AT/TA windows; third uses G/C only
        A = build_matrix(db_of("ATAT", "TATA", "GCGC", "CGCG"), 2)
        singles, multi = split_components(A.gram)
        assert len(singles) == 0
        assert {frozenset(g.tolist()) for g in multi} == {frozenset({0, 1}), frozenset({2, 3})}

    def test_full_sharing_single_component(self):
        A = build_matrix(db_of("ACGT", "CGTA", "GTAC"), 2)
        singles, multi = split_components(A.gram)
        assert len(singles) == 0 and len(multi) == 1

    def test_component_flags_match_whole_matrix_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            seqs = set()
            while len(seqs) < 12:
                seqs.add("".join("ACGT"[d] for d in rng.integers(0, 4, 10)))
            A = build_matrix(db_of(*sorted(seqs)), 4)
            np.testing.assert_array_equal(partially_identifiable(A),
                                          dense_flags_oracle(A)[0])

    def test_gram_path_matches_svd_path(self):
        A = build_matrix(db_of("AACA", "ACAA", "GGGG", "TTAG"), 2)
        dense = A.matrix.toarray()
        svd_flags, svd_rank = dense_flags_oracle(A)
        assert not svd_flags.all() and svd_flags.any()
        # with and without the all-ones row the SVD oracle carries
        for M in (dense.T @ dense, dense.T @ dense + 1.0, A.gram.toarray()):
            gram_flags, gram_rank = null_space_flags_from_gram(M)
            np.testing.assert_array_equal(gram_flags, svd_flags)
            assert gram_rank == svd_rank

    def test_component_cap_switches_to_gram_path(self, monkeypatch):
        # With no SVD path left, every component at or under GRAM_CAP goes
        # through the Gram kernel, and one past it is refused
        rng = np.random.default_rng(3)
        dbs = [db_of("AACA", "ACAA", "GGGG", "TTAG")]
        for _ in range(4):
            seqs = set()
            while len(seqs) < 20:
                seqs.add("".join("ACGT"[d] for d in rng.integers(0, 4, 5)))
            dbs.append(db_of(*sorted(seqs)))
        mixed = 0
        for db, read_len in ((db, L) for db in dbs for L in (2, 3)):
            A = build_matrix(db, read_len)
            largest = max(component_sizes(A))
            monkeypatch.setattr(identifiability, "GRAM_CAP", largest)
            report = analyze(A)
            ref_flags, ref_rank = dense_flags_oracle(A)
            np.testing.assert_array_equal(report.partial_flags, ref_flags)
            assert report.rank == ref_rank
            if largest > 1:
                monkeypatch.setattr(identifiability, "GRAM_CAP", largest - 1)
                with pytest.raises(ValueError, match=f"cap {largest - 1}"):
                    analyze(A)
            monkeypatch.undo()
            mixed += 0 < ref_flags.sum() < len(db)
        assert mixed >= 3

    def test_component_over_gram_cap_rejected(self, monkeypatch):
        A = build_matrix(db_of("AACA", "ACAA", "CAAC", "GGTT", "TTTT", "CGCG"), 2)
        sizes = component_sizes(A)
        largest = max(sizes)
        assert 1 < largest < A.n_species and sizes.count(1) >= 1
        monkeypatch.setattr(identifiability, "GRAM_CAP", largest)
        np.testing.assert_array_equal(analyze(A).partial_flags, dense_flags_oracle(A)[0])
        monkeypatch.setattr(identifiability, "GRAM_CAP", largest - 1)
        with pytest.raises(ValueError, match=f"cap {largest - 1}"):
            analyze(A)
        with pytest.raises(ValueError, match=f"cap {largest - 1}"):
            is_identifiable(A)

    def test_gram_full_rank_certificate_matches_eigh_rule(self, monkeypatch):
        def eigh_reference(M, tol=1e-10, flag_tol=1e-8):
            n = M.shape[0]
            evals, evecs = scipy.linalg.eigh(M)
            cutoff = max(evals[-1], 0.0) * max((tol * n) ** 2, 1e-13)
            null_basis = evecs[:, evals <= cutoff]
            rank = n - null_basis.shape[1]
            if null_basis.shape[1] == 0:
                return np.ones(n, dtype=bool), rank
            return np.linalg.norm(null_basis, axis=1) <= flag_tol, rank

        eigh_calls = []
        real_eigh = scipy.linalg.eigh

        def counting_eigh(M, *args, **kwargs):
            eigh_calls.append(M.shape[0])
            return real_eigh(M, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        rng = np.random.default_rng(5)
        # sparse blocks of DnC's sizes last, full rank and then duplicated:
        # there trace(M) is over 100 times ||M||_2, past where a shift scaled
        # by ||M||_inf covers the Cholesky backward error
        sizes = [int(rng.integers(2, 40)) for _ in range(120)] + [700, 1000] * 2
        certified_full_rank = certified_large = 0
        for trial, n in enumerate(sizes):
            A = sp.random(int(rng.integers(n, 4 * n)), n,
                          density=0.3 if n < 700 else 0.005,
                          random_state=rng, format="csc")
            A = A.toarray()
            A[:, A.sum(axis=0) == 0] = 1.0
            A /= A.sum(axis=0)
            duplicated = trial % 3 == 0 if n < 700 else trial >= 122
            if duplicated:
                A[:, -1] = A[:, 0]
            M = A.T @ A
            M *= 10.0 ** rng.uniform(-6, 0)
            before = M.copy()
            eigh_calls.clear()
            flags, rank = null_space_flags_from_gram(M)
            certified = not eigh_calls
            ref_flags, ref_rank = eigh_reference(M)
            np.testing.assert_array_equal(flags, ref_flags)
            assert rank == ref_rank
            np.testing.assert_array_equal(M, before)
            if duplicated:
                assert not certified and rank < n
            else:
                certified_full_rank += certified
                certified_large += certified and n >= 700
        assert certified_full_rank >= 1 and certified_large == 2


class TestComponentsFromGram:
    @staticmethod
    def pattern_components(A):
        """Components from the product of A's 0/1 pattern with itself."""
        pattern = A.matrix.copy()
        pattern.data = np.ones_like(pattern.data)
        n_comp, labels = connected_components(pattern.T @ pattern, directed=False)
        return [np.where(labels == c)[0] for c in range(n_comp)]

    def test_labels_match_pattern_product(self):
        rng = np.random.default_rng(13)

        def seq(n):
            return "".join("ACGT"[d] for d in rng.integers(0, 4, n))

        cases = []
        for trial in range(6):
            cases.append((db_of(*sorted({seq(30) for _ in range(40)})),
                          (2, 3, 5, 8)[trial % 4]))
            founders = [seq(60) for _ in range(4)]
            family = [f[:p] + "ACGT"[(("ACGT".index(f[p]) + 1) % 4)] + f[p + 1:]
                      for f in founders for p in rng.integers(0, 60, 5)]
            cases.append((db_of(*sorted(set(family))), (4, 6, 8)[trial % 3]))
            short = {seq(int(rng.integers(3, 12))) for _ in range(25)}
            cases.append((db_of(*sorted(short)), 8))   # uniform tails up to 5 long
        # random species at L=20 share no window: every component a singleton
        singletons = db_of(*sorted({seq(30) for _ in range(200)}))
        cases.append((singletons, 20))
        split = 0
        for db, read_len in cases:
            A = build_matrix(db, read_len)
            singles, multi = split_components(A.gram)
            expected = self.pattern_components(A)
            np.testing.assert_array_equal(
                singles, sorted(cols[0] for cols in expected if len(cols) == 1))
            want = [cols for cols in expected if len(cols) > 1]
            assert len(multi) == len(want)
            for got, cols in zip(multi, want):
                np.testing.assert_array_equal(got, cols)
            split += 1 < len(expected) < A.n_species
        assert split >= 5
        assert len(split_components(build_matrix(singletons, 20).gram)[0]) == len(singletons)


def block_grams(rng, trials):
    """Seeded sparse block Grams of DnC's sizes: ("diagonal", G) with entries
    down to 1e-12 of the largest, ("tail", G) with ones and some tail-column
    entries 4**-k, and ("blocks", G), a column-permuted block-diagonal A'A
    whose pieces hold 1 to 12 columns, some with a duplicated column."""
    for trial in range(trials):
        kind = ("diagonal", "tail", "blocks")[trial % 3]
        n = int((3, 7, 40, 300, 1000)[trial // 3 % 5])
        if kind == "diagonal":
            yield kind, sp.diags(10.0 ** rng.uniform(rng.uniform(-12, -8), 0, n)).tocsr()
        elif kind == "tail":
            d = np.ones(n)
            d[rng.choice(n, max(1, n // 10), replace=False)] = 4.0 ** -rng.integers(1, 13)
            yield kind, sp.diags(d).tocsr()
        else:
            pieces = []
            while sum(p.shape[1] for p in pieces) < n:
                width = int(rng.integers(1, 13))
                piece = rng.random((int(rng.integers(width, 3 * width + 2)), width))
                piece *= rng.random(piece.shape) < 0.6
                piece[0] += piece.sum(axis=0) == 0
                if width > 2 and rng.random() < 0.3:
                    piece[:, -1] = piece[:, 0]
                pieces.append(piece / piece.sum(axis=0))
            a = sp.block_diag(pieces, format="csc")[:, rng.permutation(n)]
            yield kind, (a.T @ a).tocsr()


class TestComponentFlags:
    def test_matches_whole_block_kernel(self, monkeypatch):
        # flags and rank summed over components equal the kernel's on the
        # whole dense block, and only multi-column components reach it
        kernel_blocks = []
        real = identifiability.null_space_flags_from_gram
        monkeypatch.setattr(identifiability, "null_space_flags_from_gram",
                            lambda M, matrix=None: kernel_blocks.append(M)
                            or real(M, matrix=matrix))
        seen = dict.fromkeys(("diagonal", "tail", "blocks", "deficient", "mixed"), 0)
        for kind, G in block_grams(np.random.default_rng(29), 90):
            n = G.shape[0]
            kernel_blocks.clear()
            flags, rank = component_flags(G)
            want_flags, want_rank = real(G.toarray())
            np.testing.assert_array_equal(flags, want_flags)
            assert rank == want_rank
            # the kernel sees each multi-column component's block, bit for bit
            multi = split_components(G)[1]
            assert len(kernel_blocks) == len(multi)
            for M, cols in zip(kernel_blocks, multi):
                assert len(cols) > 1
                np.testing.assert_array_equal(M, G[cols][:, cols].toarray())
            if kind != "blocks":
                assert not kernel_blocks and flags.all() and rank == n
            seen[kind] += 1
            seen["deficient"] += rank < n
            seen["mixed"] += 0 < flags.sum() < n
        assert min(seen.values()) >= 10, seen

    def test_split_matches_decompose_components(self):
        # singletons and multi-column groups are decompose_components' groups
        rng = np.random.default_rng(31)
        for n_seqs, read_len in ((40, 3), (40, 5), (200, 10), (30, 2)):
            seqs = set()
            while len(seqs) < n_seqs:
                seqs.add("".join("ACGT"[d] for d in rng.integers(0, 4, 12)))
            A = build_matrix(db_of(*sorted(seqs)), read_len)
            groups = decompose_components(A)
            singles, multi = split_components(A.gram)
            np.testing.assert_array_equal(
                singles, sorted(cols[0] for cols in groups if len(cols) == 1))
            want = [cols for cols in groups if len(cols) > 1]
            assert len(multi) == len(want)
            for got, cols in zip(multi, want):
                np.testing.assert_array_equal(got, cols)

    def test_tail_column_is_a_full_rank_singleton(self):
        # a column whose sequence is 12 shorter than L has 4**12 entries of
        # 4**-12, so its Gram diagonal is 4**-12: a singleton all the same
        d = np.ones(1000)
        d[123] = 4.0 ** -12
        flags, rank = component_flags(sp.diags(d).tocsr())
        assert flags.all() and rank == 1000
        A = build_matrix(db_of("ACGTAC", "GGATCCAT"), 9)   # tails of 3 and 1
        np.testing.assert_array_equal(A.gram.diagonal(), [4.0 ** -3, 4.0 ** -1])


class TestNullSpaceFlagsKernel:
    def test_matches_full_svd_oracle(self):
        rng = np.random.default_rng(11)
        seen = {"tall": 0, "square": 0, "wide": 0, "deficient": 0, "mixed": 0}
        for trial in range(150):
            n = int(rng.integers(2, 30))
            shape = ("tall", "square", "wide")[trial % 3]
            m = {"tall": int(round(n * rng.uniform(4, 6))), "square": n,
                 "wide": int(rng.integers(1, n))}[shape]
            kind = (trial // 3) % 3
            if kind == 0:    # sparse, full rank where the shape allows
                A = sp.random(m - 1, n, density=0.3, random_state=rng).toarray()
            elif kind == 1:  # low-rank product
                r = int(rng.integers(1, max(2, min(m, n) // 2 + 1)))
                A = rng.random((m - 1, r)) @ rng.random((r, n))
            else:            # duplicated columns
                A = sp.random(m - 1, n, density=0.4, random_state=rng).toarray()
                dup = rng.choice(n, size=2, replace=False)
                A[:, dup[1]] = A[:, dup[0]]
            dense = np.vstack([A, np.ones((1, n))])
            flags, rank = null_space_flags_from_gram(dense.T @ dense)
            null_dim = dense.shape[1] - rank
            ref_flags, ref_rank, ref_null_dim = full_svd_reference(dense)
            np.testing.assert_array_equal(flags, ref_flags)
            assert (rank, null_dim) == (ref_rank, ref_null_dim)
            seen[shape] += 1
            seen["deficient"] += null_dim > 0
            seen["mixed"] += 0 < flags.sum() < n
        assert min(seen.values()) >= 5, seen

    def test_refined_flags_match_full_svd_oracle(self):
        # a near-duplicate pair puts a kept eigenvalue of G at 1e-10..1e-8 of
        # the largest, where the eigh null basis errs by more than FLAG_TOL;
        # an exact duplicate pair gives the null space. Zero rows test that
        # analyze restricts A to the rows a component touches.
        rng = np.random.default_rng(23)
        unrefined_wrong = 0
        for trial in range(60):
            n = int(rng.integers(4, 30))
            m = int(rng.integers(n // 2 + 2, 2 * n + 4))
            dense = sp.random(m, n, density=0.4, random_state=rng).toarray()
            dense[:, dense.sum(axis=0) == 0] = 1.0
            i, j, k, l = rng.choice(n, 4, replace=False)
            dense[:, j] = dense[:, i] + 10.0 ** rng.uniform(-5, -4) * rng.random(m)
            dense[:, l] = dense[:, k]
            dense /= dense.sum(axis=0)
            dense = np.insert(dense, rng.integers(0, m + 1, 3), 0.0, axis=0)
            rows = KmerIndex(np.arange(m + 3, dtype=np.uint64)[:, None])
            A = ReadSamplingMatrix(3, sp.csc_matrix(dense), rows,
                                   np.full(n, 10))
            report = analyze(A)
            ref_flags, ref_rank = dense_flags_oracle(A)
            np.testing.assert_array_equal(report.partial_flags, ref_flags)
            assert report.rank == ref_rank < n
            unrefined = null_space_flags_from_gram(A.gram.toarray())[0]
            unrefined_wrong += (unrefined != ref_flags).any()
        assert unrefined_wrong >= 5


class TestCriticalReadLengthScan:
    def test_hand_example_critical_length_three(self):
        result = critical_read_length_scan(db_of("AACA", "ACAA"), 2, 4)
        assert result.fully_identifiable == [False, True, True]
        assert result.critical_length == 3

    def test_substring_violation_reported(self):
        result = critical_read_length_scan(db_of("ACGTACGT", "GTAC"), 2, 3)
        assert result.substring_pairs == [(2, 1)]

    def test_fraction_monotone_for_substring_free_db(self):
        rng = np.random.default_rng(2)
        seqs = set()
        while len(seqs) < 15:
            seqs.add("".join("ACGT"[d] for d in rng.integers(0, 4, 12)))
        db = db_of(*sorted(seqs))
        assert not find_substring_pairs(db)
        result = critical_read_length_scan(db, 1, 8)
        assert result.monotonicity_violations == []
        assert result.fractions == sorted(result.fractions)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            critical_read_length_scan(db_of("ACGT"), 3, 2)

    def test_substring_pairs_match_quadratic_loop(self):
        def quadratic_pairs(db):
            by_len = sorted(db.records, key=lambda r: r.length)
            return [(a.id, b.id) for i, a in enumerate(by_len) for b in by_len[i + 1:]
                    if a.length < b.length and a.sequence in b.sequence]

        rng = np.random.default_rng(29)
        found = 0
        for trial in range(40):
            alphabet = "ACGT"[:int(rng.integers(1, 5))]
            seqs = {"".join(alphabet[d] for d in rng.integers(0, len(alphabet),
                                                              int(rng.integers(1, 9))))
                    for _ in range(int(rng.integers(2, 60)))}
            db = db_of(*rng.permutation(sorted(seqs)))
            want = quadratic_pairs(db)
            assert find_substring_pairs(db) == want
            found += len(want) > 0
        assert found >= 30
        assert find_substring_pairs(db_of("ACGT", "TGCA", "AACC")) == []


def reference_scan_artifacts(cfg):
    """The loop run_identifiability_scan ran before it called
    critical_read_length_scan: both databases analysed per read length, with
    one monotonicity check over the two fractions."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True)
    db = cfg.load_db()
    mean_len = int(round(np.mean(db.lengths)))
    control = experiments.generate_random_db(len(db), mean_len, cfg.seed + 1)
    l_lo, l_hi = cfg.l_range
    rows = []
    prev_db_frac = prev_ctl_frac = -1.0
    violations = []
    for read_len in range(l_lo, l_hi + 1):
        rep_db = analyze(build_matrix(db, read_len))
        rep_ctl = analyze(build_matrix(control, read_len))
        db_frac = float(rep_db.partial_flags.mean())
        ctl_frac = float(rep_ctl.partial_flags.mean())
        if db_frac < prev_db_frac - 1e-12 or ctl_frac < prev_ctl_frac - 1e-12:
            violations.append(read_len)
        prev_db_frac, prev_ctl_frac = db_frac, ctl_frac
        rows.append({
            "read_length": read_len,
            "db_fraction": f"{db_frac:.10f}",
            "db_identifiable": int(rep_db.identifiable),
            "control_fraction": f"{ctl_frac:.10f}",
            "control_identifiable": int(rep_ctl.identifiable),
        })
    with open(out / "scan.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    critical = next((r["read_length"] for r in rows if r["db_identifiable"]), None)
    (out / "scan.json").write_text(json.dumps({
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "critical_length_db": critical,
        "monotonicity_violations": violations,
        "rows": rows,
    }, indent=2) + "\n")


class TestScanArtifacts:
    # repeat-structured databases whose identifiable fraction drops with L
    DB_DROPS = ("TA", "TAC", "TATAA", "TATAT", "TATATATAA", "TATATATAG", "TATATATATT")
    CONTROL_DROPS = ("CAC", "CACCAC", "CACCACCACCAC", "CACCACGA", "CACCACTT", "CACCC")

    @staticmethod
    def drops(rows, key):
        fractions = [float(row[key]) for row in rows]
        return any(b < a for a, b in zip(fractions, fractions[1:]))

    def test_matches_per_length_loop(self, tmp_path, monkeypatch):
        def write_db(name, seqs):
            path = tmp_path / f"{name}.fasta"
            db_of(*seqs).save(path)
            return str(path)

        # a random control has equal-length distinct sequences, which never
        # drop, so the third case swaps in a control that does
        real_generate = experiments.generate_random_db
        control_seed = 41

        def generate(n, length, seed):
            if seed == control_seed + 1:
                return db_of(*self.CONTROL_DROPS)
            return real_generate(n, length, seed)

        cases = {
            "substrings": dict(db_fasta=write_db("substrings", (
                "ACGTACGT", "GTAC", "TTGCAAC", "GCA", "CCATG", "AT", "GGTTAACC"))),
            "db_drops": dict(db_fasta=write_db("db_drops", self.DB_DROPS)),
            "control_drops": dict(random_db={"n": 6, "length": 7, "seed": 5},
                                  seed=control_seed),
        }
        monkeypatch.setattr(experiments, "generate_random_db", generate)
        for name, fields in cases.items():
            cfg = ExperimentConfig(**{"seed": 3, "l_range": (1, 9), **fields},
                                   output_dir=str(tmp_path / name / "new"))
            run_identifiability_scan(cfg)
            cfg.output_dir = str(tmp_path / name / "ref")
            reference_scan_artifacts(cfg)
            for artifact in ("scan.csv", "scan.json"):
                assert (tmp_path / name / "new" / artifact).read_bytes() == \
                    (tmp_path / name / "ref" / artifact).read_bytes(), (name, artifact)
            rows = json.loads((tmp_path / name / "ref" / "scan.json").read_text())["rows"]
            premise = {
                "substrings": bool(find_substring_pairs(cfg.load_db())),
                "db_drops": self.drops(rows, "db_fraction")
                and not self.drops(rows, "control_fraction"),
                "control_drops": self.drops(rows, "control_fraction")
                and not self.drops(rows, "db_fraction"),
            }[name]
            assert premise, name


class TestAnalyzeReport:
    def test_report_consistency(self):
        A = build_matrix(db_of("AACA", "ACAA", "GGGG"), 2)
        report = analyze(A)
        assert report.n_species == 3
        assert report.identifiable == (report.rank == 3)
        assert report.null_space_dim == 3 - report.rank
        assert report.identifiable == report.partial_flags.all()

    def test_identifiable_implies_all_partial(self):
        A = build_matrix(db_of("ACGT", "TGCA"), 2)
        report = analyze(A)
        assert report.identifiable
        assert report.partial_flags.all()
