"""Command-line front end.

Subcommands: random-db, build-matrix, simulate, identifiability, reconstruct,
evaluate, experiment error-vs-reads, experiment ident-scan.

Exit codes: 0 success, 2 invalid config/arguments, 3 partial trial failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from . import metrics
from .experiments import ExperimentConfig, generate_random_db, run_error_vs_reads, \
    run_identifiability_scan
from .identifiability import analyze, critical_read_length_scan
from .mixture_sim import MixtureSpec, ReadCounts, empirical_frequencies, \
    read_counts_from_reads, sample_power_law_mixture, simulate_reads
from .read_matrix import ReadSamplingMatrix, build_matrix
from .reconstruct import DncParams, divide_and_conquer, load_estimate
from .sequence_db import check_read_length, parse_fasta, read_json

logger = logging.getLogger(__name__)


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, e.g. 2:10, got {text!r}") from None


def cmd_random_db(args) -> int:
    db = generate_random_db(args.n, args.length, args.seed)
    db.save(args.out, args.manifest)
    print(f"wrote {len(db)} sequences to {args.out}")
    return 0


def cmd_build_matrix(args) -> int:
    db = parse_fasta(args.db, drop_ambiguous=args.drop_ambiguous)
    A = build_matrix(db, args.read_len)
    A.save(args.out)
    print(f"matrix: {A.n_rows} rows x {A.n_species} species, nnz={A.matrix.nnz}")
    return 0


def cmd_simulate(args) -> int:
    A = ReadSamplingMatrix.load(args.matrix)
    if args.truth:
        mixture = MixtureSpec.load(args.truth)
    else:
        mixture = sample_power_law_mixture(A.n_species, args.k, args.alpha, args.seed)
    x = mixture.full_vector(A.n_species)
    rc = simulate_reads(A, x, args.reads, args.seed)
    rc.save(args.out)
    if args.truth_out and not args.truth:   # after the reads: a refused run writes none
        mixture.save(args.truth_out)
    print(f"simulated {rc.total} reads, {rc.n_distinct} distinct")
    return 0


def cmd_identifiability(args) -> int:
    if args.at_l is not None:       # refuse it before the scan, not after
        check_read_length(args.at_l)
    db = parse_fasta(args.db, drop_ambiguous=True)
    out = {}
    if args.l_range:
        scan = critical_read_length_scan(db, *args.l_range)
        out["scan"] = asdict(scan)
    if args.at_l is not None:
        report = analyze(build_matrix(db, args.at_l))
        out["at_read_length"] = {
            "read_length": args.at_l,
            "identifiable": bool(report.identifiable),
            "rank": report.rank,
            "n_species": report.n_species,
            "null_space_dim": report.null_space_dim,
            "partial_flags": report.partial_flags.astype(int).tolist(),
        }
    if not out:
        print("nothing to do: pass --L-range and/or --at-L", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    A = ReadSamplingMatrix.load(args.matrix)
    if args.raw_reads:
        rc = read_counts_from_reads(args.reads, A.read_length)
    else:
        rc = ReadCounts.load(args.reads)
    emp = empirical_frequencies(rc, A)
    if emp.unmapped_fraction > 0:
        logger.warning("%.4f of read mass not present in the matrix rows",
                       emp.unmapped_fraction)
    params = DncParams(block_size=args.block_size, tau=args.tau,
                       k_final=args.kf, seed=args.seed)
    report = divide_and_conquer(A, emp.y, params)
    report.save(args.out)
    print(f"support size {len(report.support)}; report written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    A = ReadSamplingMatrix.load(args.matrix)
    truth = MixtureSpec.load(args.truth).full_vector(A.n_species)
    estimate = load_estimate(args.estimate)
    result = metrics.evaluate(truth, estimate, A, args.reads_count, args.delta,
                              compute_lambda=not args.skip_lambda)
    Path(args.out).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    print(f"l2={result.l2_error:.4e}  mahalanobis={result.mahalanobis_error:.4e}")
    return 0


def cmd_experiment(args) -> int:
    if args.config:
        fields = read_json(args.config)
    else:
        fields = {"random_db": {"n": args.n, "length": args.length, "seed": args.seed or 0}}
    flags = {"output_dir": args.out_dir, "seed": args.seed, "workers": args.workers}
    fields.update({k: v for k, v in flags.items() if v is not None})
    try:
        cfg = ExperimentConfig(**fields)
    except TypeError as exc:        # an unknown field, of the config or of its dnc
        raise ValueError(str(exc)) from None
    # the runners refuse what the config asks of its database (k above N, a
    # bad read-length range) before they make the output directory
    if args.which == "ident-scan":
        run_identifiability_scan(cfg)
    elif n_failed := run_error_vs_reads(cfg)[2]:
        print(f"{n_failed} trials failed; summary still written", file=sys.stderr)
        return 3
    print(f"experiment outputs in {cfg.output_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readprofiler",
        description="Reconstruct species identities and frequencies from "
                    "short-read frequency data.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("random-db", help="generate a random reference database")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_random_db)

    p = sub.add_parser("build-matrix", help="build the read-sampling matrix")
    p.add_argument("--db", required=True)
    p.add_argument("--read-len", type=int, required=True)
    p.add_argument("--drop-ambiguous", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_matrix)

    p = sub.add_parser("simulate", help="simulate reads from a mixture")
    p.add_argument("--matrix", required=True)
    p.add_argument("--reads", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", help="mixture JSON to simulate from")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--truth-out", help="where to write the sampled mixture")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identifiability", help="identifiability diagnostics")
    p.add_argument("--db", required=True)
    p.add_argument("--L-range", dest="l_range", type=_parse_range, help="e.g. 2:10")
    p.add_argument("--at-L", dest="at_l", type=int,
                   help="also emit per-species flags at this read length")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_identifiability)

    p = sub.add_parser("reconstruct", help="divide-and-conquer reconstruction")
    p.add_argument("--matrix", required=True)
    p.add_argument("--reads", required=True, help="read-counts file")
    p.add_argument("--raw-reads", action="store_true",
                   help="treat --reads as raw reads (plain/FASTQ), not counts")
    p.add_argument("--block-size", type=int, default=1000)
    p.add_argument("--tau", type=float, default=1e-3)
    p.add_argument("--kf", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="compare an estimate with the truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--reads-count", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--skip-lambda", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="reproducible experiment pipelines")
    p.add_argument("which", choices=["error-vs-reads", "ident-scan"])
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--n", type=int, default=200, help="random db size (no config)")
    p.add_argument("--length", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", help="overrides the config's output_dir (default out)")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:    # a refusal; a missing file is an OSError
        prefix = "invalid config" if args.command == "experiment" else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
