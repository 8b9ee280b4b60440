"""End-to-end acceptance checks for the whole pipeline.

Each test covers one numbered criterion and prints exactly one pass/fail line
straight to the terminal (bypassing capture), with its runtime budget
enforced. Heavy intermediate artifacts are cached in a session directory so
the determinism criterion can re-run earlier pipelines and compare bytes.
"""

import csv
import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from readprofiler import metrics
from readprofiler.experiments import ExperimentConfig, generate_random_db, \
    run_error_vs_reads
from readprofiler.identifiability import find_substring_pairs, is_identifiable
from readprofiler.mixture_sim import empirical_frequencies, \
    sample_power_law_mixture, simulate_reads
from readprofiler.nnls import nnls_solve
from readprofiler.read_matrix import FrequencyVector, build_matrix, reweight_to_dna
from readprofiler.reconstruct import DncParams, divide_and_conquer
from readprofiler.sequence_db import SequenceDatabase, keys_to_codes

_STATE: dict = {}


def _report(capsys, num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def art_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


# ---------------------------------------------------------------------------
# criteria 1-2: matrix construction vs an exact-rational oracle
# ---------------------------------------------------------------------------

def sparse_rational_oracle(seqs, read_len):
    """Independent matrix construction: base-4 string encoding via int(_, 4),
    explicit tail enumeration, Fraction arithmetic reduced to doubles last.
    Returns one {code: value} dict per column (codes 1-based)."""
    trans = str.maketrans("ACGT", "0123")
    cols = []
    for s in seqs:
        col: dict[int, Fraction] = {}
        if len(s) >= read_len:
            denom = len(s) - read_len + 1
            for i in range(denom):
                code = 1 + int(s[i:i + read_len].translate(trans), 4)
                col[code] = col.get(code, Fraction(0)) + Fraction(1, denom)
        else:
            prob = Fraction(1, 4 ** (read_len - len(s)))
            for tail in itertools.product("ACGT", repeat=read_len - len(s)):
                code = 1 + int((s + "".join(tail)).translate(trans), 4)
                col[code] = col.get(code, Fraction(0)) + prob
        cols.append({code: float(v) for code, v in col.items()})
    return cols


def _matrix_as_dicts(A):
    m = A.matrix
    codes = keys_to_codes(A.index.keys)
    out = []
    for j in range(A.n_species):
        lo, hi = m.indptr[j], m.indptr[j + 1]
        out.append({codes[rid]: val
                    for rid, val in zip(m.indices[lo:hi], m.data[lo:hi])})
    return out


def _random_corpus():
    """200 random databases with matching matrices; cached for reuse."""
    if "corpus" in _STATE:
        return _STATE["corpus"]
    rng = np.random.default_rng(20240817)
    corpus = []
    for case in range(200):
        read_len = int(rng.integers(2, 9))
        n = int(rng.integers(1, 21))
        seqs, seen = [], set()
        while len(seqs) < n:
            if case % 4 == 0 and not seqs and read_len > 5:
                # force sequences shorter than the read length into the corpus
                length = int(rng.integers(5, read_len))
            else:
                length = int(rng.integers(5, 31))
            s = "".join("ACGT"[d] for d in rng.integers(0, 4, length))
            if s not in seen:
                seen.add(s)
                seqs.append(s)
        A = build_matrix(SequenceDatabase.from_sequences(seqs), read_len)
        corpus.append((seqs, read_len, A))
    _STATE["corpus"] = corpus
    return corpus


def test_criterion_1_matrix_matches_rational_oracle(capsys):
    start = time.perf_counter()
    n_short = 0
    for seqs, read_len, A in _random_corpus():
        n_short += sum(len(s) < read_len for s in seqs)
        assert _matrix_as_dicts(A) == sparse_rational_oracle(seqs, read_len)
    elapsed = time.perf_counter() - start
    _report(capsys, 1, "matrix oracle equivalence",
            elapsed < 10.0,
            f"200 databases exact, {n_short} short sequences, {elapsed:.1f}s")


def test_criterion_2_columns_sum_to_one(capsys):
    worst = 0.0
    n_matrices = 0
    for _, _, A in _random_corpus():
        worst = max(worst, float(np.abs(A.column_sums() - 1.0).max()))
        n_matrices += 1
    # include large and short-sequence matrices beyond the random corpus
    extra = [
        build_matrix(generate_random_db(300, 200, seed=5), 40),
        build_matrix(SequenceDatabase.from_sequences(["AC", "ACGTACGT", "GG"]), 6),
    ]
    for A in extra:
        worst = max(worst, float(np.abs(A.column_sums() - 1.0).max()))
        n_matrices += 1
    _report(capsys, 2, "column stochasticity",
            worst <= 1e-12,
            f"max |column sum - 1| = {worst:.2e} over {n_matrices} matrices")


# ---------------------------------------------------------------------------
# criterion 3: simulator fidelity (chi-square goodness of fit)
# ---------------------------------------------------------------------------

def _simulator_fidelity_run(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    db = SequenceDatabase.from_sequences(
        ["ACGTACGTACGGTTAACC", "GGCATTGACCATGGCAT", "TTTCGATTTCGA"])
    A = build_matrix(db, 3)
    assert A.n_rows <= 100
    x = FrequencyVector([0.5, 0.3, 0.2], "species", normalized=True)
    expected = A.matrix @ reweight_to_dna(x, A.col_lengths).values
    passed = 0
    for seed in range(20):
        rc = simulate_reads(A, x, 10 ** 5, seed=seed)
        rc.save(out_dir / f"trial_{seed:02d}.tsv")
        obs = empirical_frequencies(rc, A).y * rc.total
        _, p = scipy.stats.chisquare(obs, expected * rc.total)
        passed += p > 0.001
    return passed


def test_criterion_3_simulator_fidelity(capsys, art_root):
    start = time.perf_counter()
    out = art_root / "fidelity" / "run1"
    passed = _simulator_fidelity_run(out)
    _STATE["fidelity_dir"] = out
    elapsed = time.perf_counter() - start
    _report(capsys, 3, "simulator fidelity",
            passed >= 19 and elapsed < 30.0,
            f"chi-square p > 0.001 in {passed}/20 trials, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: identifiability anchors
# ---------------------------------------------------------------------------

def test_criterion_4_identifiability_anchors(capsys):
    start = time.perf_counter()
    # (a) five distinct species observed through length-1 reads: the matrix
    # has at most four distinct rows, so the rank cannot reach five
    db5 = SequenceDatabase.from_sequences(
        ["ACGTA", "AACCG", "GGTTA", "CCGTA", "TTGGC"])
    ident_a, rank_a = is_identifiable(build_matrix(db5, 1))
    anchor_a = (not ident_a) and rank_a <= 4

    # (b) substring-free database read at the maximal sequence length
    db_b = generate_random_db(50, 20, seed=41)
    assert not find_substring_pairs(db_b)
    anchor_b = is_identifiable(build_matrix(db_b, 20))[0]

    # (c) large random databases: reads of length 5 give at most 1025
    # independent rows (never enough for 2000 species), length 7 is enough
    non_ident_l5 = 0
    ident_l7 = 0
    for i in range(20):
        db = generate_random_db(2000, 500, seed=100 + i)
        non_ident_l5 += not is_identifiable(build_matrix(db, 5))[0]
        ident_l7 += is_identifiable(build_matrix(db, 7))[0]
    elapsed = time.perf_counter() - start
    _report(capsys, 4, "identifiability anchors",
            anchor_a and anchor_b and non_ident_l5 == 20 and ident_l7 >= 18
            and elapsed < 600.0,
            f"L=1 rank {rank_a}; max-L identifiable; large dbs: "
            f"{non_ident_l5}/20 non-identifiable at L=5, "
            f"{ident_l7}/20 identifiable at L=7, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: NNLS vs brute-force active-set enumeration
# ---------------------------------------------------------------------------

def _enumerate_supports_oracle(A, y):
    n = A.shape[1]
    best_x, best_obj = np.zeros(n), np.linalg.norm(y)
    for mask in itertools.product([False, True], repeat=n):
        sel = np.array(mask)
        if not sel.any():
            continue
        x = np.zeros(n)
        sol, *_ = np.linalg.lstsq(A[:, sel], y, rcond=None)
        if np.any(sol < -1e-12):
            continue
        x[sel] = np.clip(sol, 0.0, None)
        if np.any(A.T @ (A @ x - y) < -1e-7):
            continue
        obj = np.linalg.norm(A @ x - y)
        if obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
    return best_x


def test_criterion_5_nnls_oracle_agreement(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(500):
        # m >= n keeps the minimizer unique, so pointwise comparison with the
        # enumeration oracle is well defined
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n, 15))
        A = rng.random((m, n))
        y = rng.random(m)
        sol = nnls_solve(A, y)
        assert sol.converged
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        gap = float(np.abs(sol.x - _enumerate_supports_oracle(A, y)).max())
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - start
    _report(capsys, 5, "nonnegative least squares",
            worst_gap <= 1e-6 and worst_kkt <= 1e-8 and elapsed < 60.0,
            f"500 instances, max linf gap {worst_gap:.1e}, "
            f"max KKT residual {worst_kkt:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: divide-and-conquer vs direct full solve
# ---------------------------------------------------------------------------

def _dnc_batch_run(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    exact = 0
    worst_linf = 0.0
    for i in range(50):
        db = generate_random_db(500, 300, seed=1000 + i)
        A = build_matrix(db, 50)
        mix = sample_power_law_mixture(500, 10, 1.0, seed=2000 + i)
        emp = empirical_frequencies(
            simulate_reads(A, mix.full_vector(500), 200_000, seed=3000 + i), A)
        report = divide_and_conquer(
            A, emp.y, DncParams(block_size=100, tau=1e-3, seed=4000 + i))
        report.save(out_dir / f"report_{i:02d}.json")
        if set(report.support.tolist()) == set(mix.support.tolist()):
            exact += 1
            direct = nnls_solve(A.matrix, emp.y)
            gap = np.abs(report.x_hat_dna.values
                         - direct.x / direct.x.sum()).max()
            worst_linf = max(worst_linf, float(gap))
    return exact, worst_linf


def test_criterion_6_dnc_matches_direct_solve(capsys, art_root):
    start = time.perf_counter()
    out = art_root / "dnc" / "run1"
    exact, worst_linf = _dnc_batch_run(out)
    _STATE["dnc_dir"] = out
    elapsed = time.perf_counter() - start
    _report(capsys, 6, "divide-and-conquer reconstruction",
            exact >= 45 and worst_linf <= 2e-2 and elapsed < 1200.0,
            f"exact support in {exact}/50, max linf vs direct solve "
            f"{worst_linf:.1e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 7: error bounds on the scaled error-vs-reads experiment
# ---------------------------------------------------------------------------

def _experiment_config(out_dir: Path, workers: int) -> ExperimentConfig:
    return ExperimentConfig(
        random_db={"n": 2000, "length": 500, "seed": 7},
        read_length=100, k=20, alpha=1.0,
        r_grid=[10_000, 100_000, 500_000], trials=20, delta=0.5,
        seed=77, output_dir=str(out_dir), workers=workers)


def test_criterion_7_error_bounds_hold(capsys, art_root):
    start = time.perf_counter()
    out = art_root / "experiment" / "run1"
    _, _, n_failed = run_error_vs_reads(_experiment_config(out, workers=1))
    _STATE["experiment_dir"] = out
    with open(out / "trials.csv") as fh:
        rows = list(csv.DictReader(fh))
    within = {}
    for r_val in (10_000, 100_000, 500_000):
        grid = [r for r in rows if int(r["n_reads"]) == r_val]
        within[r_val] = sum(
            float(r["mahalanobis_error"]) <= float(r["mahalanobis_bound"])
            for r in grid)
    l2_mean = np.mean([float(r["l2_error"]) for r in rows
                       if int(r["n_reads"]) == 500_000])
    elapsed = time.perf_counter() - start
    ok = (n_failed == 0 and all(v >= 15 for v in within.values())
          and l2_mean <= 0.05 and elapsed < 1800.0)
    _report(capsys, 7, "finite-sample error bounds", ok,
            "bound held in " + ", ".join(f"{v}/20 @ R={k}"
                                         for k, v in within.items())
            + f"; mean l2 @ R=500000 = {l2_mean:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: similarity-aware metric degeneracy on duplicate columns
# ---------------------------------------------------------------------------

def test_criterion_8_metric_degeneracy(capsys):
    db = SequenceDatabase.from_sequences(["AACA", "ACAA", "GGGG"])
    A = build_matrix(db, 2)
    x = np.array([0.6, 0.1, 0.3])
    x_hat = np.array([0.1, 0.6, 0.3])  # mass moved between identical columns
    ma = metrics.mahalanobis_metric(x, x_hat, A)
    l2 = metrics.l2_metric(x, x_hat)
    _report(capsys, 8, "metric degeneracy",
            ma <= 1e-12 and l2 > 1e-12,
            f"mahalanobis {ma:.1e}, l2 {l2:.3f}")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical artifacts on re-runs and across worker counts
# ---------------------------------------------------------------------------

def _dirs_byte_identical(dir_a: Path, dir_b: Path) -> bool:
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        return False
    return all((dir_a / n).read_bytes() == (dir_b / n).read_bytes()
               for n in names_a)


def test_criterion_9_deterministic_artifacts(capsys, art_root):
    start = time.perf_counter()
    # re-run the simulator fidelity trials
    fid1 = _STATE.get("fidelity_dir")
    if fid1 is None:
        fid1 = art_root / "fidelity" / "run1"
        _simulator_fidelity_run(fid1)
    fid2 = art_root / "fidelity" / "run2"
    _simulator_fidelity_run(fid2)
    fid_ok = _dirs_byte_identical(fid1, fid2)

    # re-run the divide-and-conquer batch
    dnc1 = _STATE.get("dnc_dir")
    if dnc1 is None:
        dnc1 = art_root / "dnc" / "run1"
        _dnc_batch_run(dnc1)
    dnc2 = art_root / "dnc" / "run2"
    _dnc_batch_run(dnc2)
    dnc_ok = _dirs_byte_identical(dnc1, dnc2)

    # re-run the error-vs-reads experiment with a different worker count
    exp1 = _STATE.get("experiment_dir")
    if exp1 is None:
        exp1 = art_root / "experiment" / "run1"
        run_error_vs_reads(_experiment_config(exp1, workers=1))
    exp2 = art_root / "experiment" / "run2"
    run_error_vs_reads(_experiment_config(exp2, workers=2))
    exp_ok = _dirs_byte_identical(exp1, exp2)

    elapsed = time.perf_counter() - start
    _report(capsys, 9, "deterministic artifacts",
            fid_ok and dnc_ok and exp_ok,
            f"fidelity={'ok' if fid_ok else 'DIFF'}, "
            f"reconstruction={'ok' if dnc_ok else 'DIFF'}, "
            f"experiment(workers 1 vs 2)={'ok' if exp_ok else 'DIFF'}, "
            f"{elapsed:.0f}s")
