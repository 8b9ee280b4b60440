import numpy as np
import pytest
from test_nnls import assert_matches_reference

from readprofiler.experiments import generate_random_db
from readprofiler.mixture_sim import empirical_frequencies, sample_power_law_mixture, \
    simulate_reads
from readprofiler.identifiability import null_space_flags_from_gram
from readprofiler.nnls import X_TOL, nnls_from_gram, nnls_solve, residual_norm
from readprofiler.read_matrix import FrequencyVector, build_matrix, unweight_from_dna
from readprofiler.reconstruct import (
    DncParams,
    IterationStats,
    ReconstructionReport,
    _empty_report,
    _solver_diag,
    default_repetitions,
    divide_and_conquer,
    load_estimate,
    partition_species,
)
from readprofiler.sequence_db import SequenceDatabase


def db_of(*seqs):
    return SequenceDatabase.from_sequences(list(seqs))


class TestPartitionSpecies:
    def test_covers_all_ids_disjointly(self):
        ids = np.arange(10)
        blocks = partition_species(ids, 5, seed=1, iteration=1, round_idx=0)
        assert len(blocks) == 2
        merged = np.sort(np.concatenate(blocks))
        np.testing.assert_array_equal(merged, ids)

    def test_remainder_block_sizes(self):
        blocks = partition_species(np.arange(11), 5, seed=1, iteration=1, round_idx=0)
        assert [len(b) for b in blocks] == [5, 5, 1]

    def test_deterministic_per_key(self):
        a = partition_species(np.arange(30), 7, seed=3, iteration=2, round_idx=1)
        b = partition_species(np.arange(30), 7, seed=3, iteration=2, round_idx=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_different_rounds_differ(self):
        a = partition_species(np.arange(30), 7, seed=3, iteration=1, round_idx=0)
        b = partition_species(np.arange(30), 7, seed=3, iteration=1, round_idx=1)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            partition_species(np.arange(4), 1, seed=0, iteration=1, round_idx=0)


class TestSchedule:
    def test_published_shape(self):
        assert default_repetitions(1000, 1000) == 1
        assert default_repetitions(300, 1000) == 10
        assert default_repetitions(40, 1000) == 20

    def test_explicit_schedule_used(self):
        db = generate_random_db(30, 60, seed=0)
        A = build_matrix(db, 8)
        mix = sample_power_law_mixture(30, 3, 1.0, seed=1)
        emp = empirical_frequencies(simulate_reads(A, mix.full_vector(30), 20000, 2), A)
        params = DncParams(block_size=10, k_final=5, schedule=[3, 2], seed=5)
        report = divide_and_conquer(A, emp.y, params)
        assert report.iterations[0].partitions_used == 3


class TestDivideAndConquer:
    def test_single_block_equals_direct_nnls(self):
        # N <= B: one block, one iteration, result is thresholded direct NNLS
        db = db_of("ACGTACGTAC", "GGCATTGAGG", "TTACGGATCC")
        A = build_matrix(db, 4)
        x = FrequencyVector([0.6, 0.4, 0.0], "species", normalized=True)
        emp = empirical_frequencies(simulate_reads(A, x, 50000, seed=3), A)
        report = divide_and_conquer(A, emp.y, DncParams(block_size=10, seed=0))
        direct = nnls_solve(A.matrix, emp.y)
        expect = direct.x / direct.x.sum()
        np.testing.assert_allclose(report.x_hat_dna.values, expect, atol=1e-8)
        assert len(report.iterations) == 1
        # the final solve reports ||Ax - y|| from A, as nnls_solve does
        assert abs(report.final_solver["residual_norm"] - direct.residual_norm) <= 1e-10

    def test_planted_support_recovered(self):
        db = generate_random_db(100, 120, seed=10)
        A = build_matrix(db, 20)
        mix = sample_power_law_mixture(100, 5, 1.0, seed=11)
        x = mix.full_vector(100)
        emp = empirical_frequencies(simulate_reads(A, x, 10 ** 5, seed=12), A)
        report = divide_and_conquer(A, emp.y, DncParams(block_size=20, seed=13))
        assert set(report.support.tolist()) == set(mix.support.tolist())
        # matches direct full NNLS support as well
        direct = nnls_solve(A.matrix, emp.y)
        np.testing.assert_array_equal(np.where(direct.x > 1e-10)[0] + 1,
                                      np.sort(report.support))
        assert np.abs(report.x_hat.values - x.values).max() <= 1e-2

    def test_species_without_observed_kmers_never_marked(self):
        # species sharing no k-mers with y has an orthogonal column: zero by KKT
        db = db_of("ATATATATAT", "GCGCGCGCGC", "ATATATTATA")
        A = build_matrix(db, 4)
        x = FrequencyVector([1.0, 0.0, 0.0], "species", normalized=True)
        emp = empirical_frequencies(simulate_reads(A, x, 10000, seed=4), A)
        report = divide_and_conquer(A, emp.y, DncParams(block_size=2, seed=5))
        assert 2 not in report.support.tolist()

    def test_seed_determinism(self):
        db = generate_random_db(60, 80, seed=20)
        A = build_matrix(db, 12)
        mix = sample_power_law_mixture(60, 6, 1.0, seed=21)
        emp = empirical_frequencies(simulate_reads(A, mix.full_vector(60), 30000, 22), A)
        params = DncParams(block_size=12, k_final=20, seed=23)
        r1 = divide_and_conquer(A, emp.y, params)
        r2 = divide_and_conquer(A, emp.y, params)
        np.testing.assert_array_equal(r1.support, r2.support)
        np.testing.assert_array_equal(r1.x_hat.values, r2.x_hat.values)
        assert [vars(a) for a in r1.iterations] == [vars(b) for b in r2.iterations]

    def test_survivors_shrink_monotonically(self):
        db = generate_random_db(80, 70, seed=30)
        A = build_matrix(db, 10)
        mix = sample_power_law_mixture(80, 4, 1.0, seed=31)
        emp = empirical_frequencies(simulate_reads(A, mix.full_vector(80), 40000, 32), A)
        report = divide_and_conquer(A, emp.y, DncParams(block_size=10, k_final=8, seed=33))
        counts = [it.survivor_count for it in report.iterations]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_zero_threshold_keeps_true_support(self):
        db = generate_random_db(40, 60, seed=40)
        A = build_matrix(db, 10)
        mix = sample_power_law_mixture(40, 4, 1.0, seed=41)
        emp = empirical_frequencies(simulate_reads(A, mix.full_vector(40), 10 ** 5, 42), A)
        report = divide_and_conquer(A, emp.y,
                                    DncParams(block_size=8, tau=1e-9, seed=43))
        assert set(mix.support.tolist()) <= set(report.support.tolist())

    def test_empty_y_gives_empty_report(self):
        db = db_of("ATATATATAT", "GCGCGCGCGC")
        A = build_matrix(db, 4)
        report = divide_and_conquer(A, np.zeros(A.n_rows), DncParams(block_size=2))
        assert report.empty
        assert len(report.support) == 0

    def test_normalized_output(self):
        db = generate_random_db(30, 50, seed=50)
        A = build_matrix(db, 8)
        mix = sample_power_law_mixture(30, 3, 1.0, seed=51)
        emp = empirical_frequencies(simulate_reads(A, mix.full_vector(30), 20000, 52), A)
        report = divide_and_conquer(A, emp.y, DncParams(block_size=6, seed=53))
        assert report.x_hat.normalized
        assert abs(report.x_hat.values.sum() - 1.0) <= 1e-12

    def test_report_roundtrip(self, tmp_path):
        db = generate_random_db(20, 40, seed=60)
        A = build_matrix(db, 6)
        mix = sample_power_law_mixture(20, 2, 1.0, seed=61)
        emp = empirical_frequencies(simulate_reads(A, mix.full_vector(20), 5000, 62), A)
        report = divide_and_conquer(A, emp.y, DncParams(block_size=5, seed=63))
        path = tmp_path / "report.json"
        report.save(path)
        back = load_estimate(path)
        np.testing.assert_allclose(back.values, report.x_hat.values, atol=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DncParams(block_size=1)
        with pytest.raises(ValueError):
            DncParams(tau=0.0)
        with pytest.raises(ValueError):
            DncParams(k_final=0)

    def test_ambiguous_species_survive_blocks(self):
        # two species with identical columns split across the same block should
        # both be retained even when the block solve assigns mass to only one
        db = db_of("AACA", "ACAA", "GGGGCCGG", "TTAGTTAG")
        A = build_matrix(db, 2)
        x = FrequencyVector([0.5, 0.0, 0.5, 0.0], "species", normalized=True)
        emp = empirical_frequencies(simulate_reads(A, x, 50000, seed=70), A)
        params = DncParams(block_size=4, tau=0.4, seed=71)
        report = divide_and_conquer(A, emp.y, params)
        # species 2 duplicates species 1: ambiguous, must appear in final solve
        assert report.iterations[-1].survivor_count >= 3


def reference_solve(G, b, kkt_tol, retry):
    """The solves DnC ran before they had one budget: ``3 * n + 30``
    iterations, then, for a block (``retry``) that did not converge, a
    second run from x = 0 with ``20 * n + 200``."""
    sol = nnls_from_gram(G, b, kkt_tol=kkt_tol, max_iter=3 * len(b) + 30)
    if retry and not sol.converged:
        sol = nnls_from_gram(G, b, kkt_tol=kkt_tol, max_iter=20 * len(b) + 200)
    return sol


def reference_dnc(A, y, params):
    """The per-block loop DnC ran before block Grams were sliced from
    ``A.gram``: every block slices all K rows of A, forms sub'sub and sub'y,
    screens G whatever its pattern, and solves by :func:`reference_solve`."""
    y = np.asarray(y, dtype=float).ravel()
    m = A.matrix
    n = A.n_species
    active = np.arange(n)
    iterations = []
    iteration = 0
    while True:
        iteration += 1
        if params.schedule is not None:
            reps = params.schedule[min(iteration, len(params.schedule)) - 1]
        else:
            reps = default_repetitions(len(active), n)
        marked = np.zeros(len(active), dtype=bool)
        blocks_solved = unconverged = 0
        for round_idx in range(reps):
            for pos in partition_species(np.arange(len(active)), params.block_size,
                                         params.seed, iteration, round_idx):
                cols = active[pos]
                sub = m[:, cols]
                G = np.asarray((sub.T @ sub).todense())
                b = np.asarray(sub.T @ y).ravel()
                sol = reference_solve(G, b, params.kkt_tol, retry=True)
                blocks_solved += 1
                unconverged += not sol.converged
                local = sol.x >= params.tau
                if len(cols) > 1:
                    local |= ~null_space_flags_from_gram(G)[0]
                marked[pos] |= local
        survivors = active[marked]
        iterations.append(IterationStats(iteration, len(active), len(survivors),
                                         reps, blocks_solved, unconverged))
        if survivors.size == 0:
            return _empty_report(A, iterations, params)
        no_shrink = survivors.size == active.size
        active = survivors
        if active.size <= params.k_final:
            break
        if iteration >= params.max_iterations or (no_shrink and iteration > 1):
            break
    sub = m[:, active]
    G = np.asarray((sub.T @ sub).todense())
    b = np.asarray(sub.T @ y).ravel()
    sol = reference_solve(G, b, params.kkt_tol, retry=False)
    sol.residual_norm = residual_norm(sub, sol.x, y)
    if sol.x.sum() <= 0:
        return _empty_report(A, iterations, params, final=sol)
    x_full = np.zeros(n)
    x_full[active] = sol.x
    x_full /= x_full.sum()
    x_full /= x_full.sum()
    x_dna = FrequencyVector(x_full, "dna", normalized=True)
    return ReconstructionReport(
        x_hat=unweight_from_dna(x_dna, A.col_lengths), x_hat_dna=x_dna,
        support=np.where(x_full > X_TOL)[0] + 1, iterations=iterations,
        final_solver=_solver_diag(sol), params=params)


def family_db(families, members, length, seed):
    """Families of near-copies (two substitutions each): shared k-mers give
    blocks with off-diagonal Gram entries."""
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(families):
        founder = rng.integers(0, 4, length)
        for _ in range(members):
            member = founder.copy()
            pos = rng.choice(length, 2, replace=False)
            member[pos] = (member[pos] + rng.integers(1, 4, 2)) % 4
            seqs.append("".join("ACGT"[b] for b in member))
    return SequenceDatabase.from_sequences(seqs)


def oracle_instance(i):
    """Seeded instance ``i``: a family, short-sequence (uniform tails) or
    random database, with observed frequencies and DnC parameters whose
    blocks run from 5 to 1000 columns."""
    kind = i % 3
    if kind == 0:
        A = build_matrix(family_db(5, 6, 80, seed=i), (3, 5, 8)[i // 3 % 3])
    elif kind == 1:
        # stems with some of their one-base extensions: at L past their
        # length, a stem's column is the mean of its four extensions' columns
        rng = np.random.default_rng(i)
        seqs = []
        for _ in range(10):
            stem = "".join("ACGT"[b] for b in rng.integers(0, 4, rng.integers(3, 6)))
            seqs += [stem] + [stem + c for c in "ACGT"[:rng.integers(2, 5)]]
        A = build_matrix(SequenceDatabase.from_sequences(seqs), 8)
    else:
        A = build_matrix(generate_random_db(60, 50, seed=i), (2, 4, 20)[i // 3 % 3])
    n = A.n_species
    mix = sample_power_law_mixture(n, n // 6, 1.0, seed=100 + i)
    emp = empirical_frequencies(simulate_reads(A, mix.full_vector(n), 10000, 200 + i), A)
    params = DncParams(block_size=(5, 7, 13, 30, 1000)[i % 5], k_final=2 + i % 4,
                       tau=(1e-3, 0.02, 0.1)[i // 9 % 3], seed=300 + i)
    return A, emp.y, params


class TestDncMatchesPerBlockReference:
    @pytest.mark.parametrize("i", range(60))
    def test_report_identical(self, i):
        A, y, params = oracle_instance(i)
        want = reference_dnc(A, y, params).to_dict()
        assert divide_and_conquer(A, y, params).to_dict() == want
        A.gram    # a cached A'A is sliced whatever it cost to form
        assert divide_and_conquer(A, y, params).to_dict() == want

    @pytest.mark.parametrize("i", range(60))
    def test_block_grams_symmetric_and_solved_as_reference(self, i):
        # the solver reads G's passive rows for its columns, which needs
        # G == G' bit for bit, from a block's own product and from A'A alike
        A, y, params = oracle_instance(i)
        aty = A.matrix.T @ y
        blocks = partition_species(np.arange(A.n_species), params.block_size,
                                   params.seed, 1, 0)
        A._gram_cheap = False                   # each block's own product
        products = [A.block_gram(cols) for cols in blocks]
        assert A._gram is None
        assert (A.gram != A.gram.T).nnz == 0
        for cols, P in zip(blocks, products):
            G = A.block_gram(cols)              # a slice of the cached A'A
            assert (G != G.T).nnz == 0 and (P != P.T).nnz == 0 and (G != P).nnz == 0
            assert_matches_reference(P.toarray(), aty[cols], kkt_tol=params.kkt_tol)

    def test_costly_gram_left_unformed(self):
        # family species share rows, so DnC forms per-block products and
        # caches no A'A; random species at L=20 share none, so it slices one
        for i, cheap in ((0, False), (3, False), (8, True), (17, True)):
            A, y, params = oracle_instance(i)
            divide_and_conquer(A, y, params)
            assert A._gram_cheap == cheap and (A._gram is not None) == cheap

    def test_costly_gram_verdict_taken_once(self, monkeypatch):
        # declining A'A counts each row's species once per matrix, not once
        # per divide_and_conquer call
        from readprofiler import read_matrix
        A, y, params = oracle_instance(0)
        counted = []

        class Numpy:            # numpy, recording np.add.at calls on A's rows
            def __getattr__(self, name):
                return getattr(np, name)

            class add:
                @staticmethod
                def at(a, indices, b):
                    counted.append(indices is A.matrix.indices)
                    np.add.at(a, indices, b)

        monkeypatch.setattr(read_matrix, "np", Numpy())
        want = divide_and_conquer(A, y, params).to_dict()
        assert divide_and_conquer(A, y, params).to_dict() == want
        assert counted == [True] and A._gram is None

    def test_only_family_instances_reach_the_kernel(self, monkeypatch):
        # family species share k-mers, so their blocks hold multi-column
        # components the screen must factorise; random species at L=20 share
        # none, so every block splits into singletons and none is factorised
        from readprofiler import identifiability
        screened = []
        real = identifiability.null_space_flags_from_gram
        monkeypatch.setattr(identifiability, "null_space_flags_from_gram",
                            lambda M, matrix=None: screened.append(M.shape[0])
                            or real(M, matrix=matrix))
        for i, expect_screen in ((0, True), (17, False)):
            A, y, params = oracle_instance(i)
            screened.clear()
            report = divide_and_conquer(A, y, params)
            assert bool(screened) == expect_screen
            assert min(screened, default=2) > 1
            assert sum(it.blocks_solved for it in report.iterations) > 1
