"""Benchmark for readprofiler: one workload, one seed, one run.

    python3 bench/run.py --workload profile --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
One single-threaded closed loop: the next op starts when the previous one
has finished and been checked. Set-up runs three times and is timed; one
untimed warm-up op follows; then ops run until ``--seconds`` of op time have
passed and at least the workload's window of ops (and 11, so a tail
percentile exists) has run. Quality and count metrics come from the first
``window`` ops, so they repeat exactly for a seed; timings come from all ops.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics. With
``--trace 1`` every op runs twice on the same input, untraced and then traced
(see tracing.py), and the last line holds the per-layer metrics, span
coverage and tracing overhead; spans are written to
``.bench_out/spans-<workload>-seed<n>.jsonl``. The line before the last
holds the run's context: revision, machine, library versions, sample counts.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUPS = 3
MIN_OPS = 11               # the tail percentile needs 10 ops beyond it
DEADLINE_S = 150.0         # stop looping early rather than overrun 180 s
WARMUP_INDEX = 1_000_000   # an input index no timed op uses

SCAN_MEMORY_LIMIT = (
    "analyze builds a dense U of rows x rows per component with "
    "svd(full_matrices=True): 2000 random species at L=7 take 70 s and a "
    "2.1 GB U, and 100 random species need about 30 s per L at L >= 8; "
    "peak_rss_mb tracks it")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten values
    beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_OPS:
        raise ValueError(f"{n} samples are too few for a tail percentile")
    return ordered[n - 11], 100.0 * (n - 10) / n


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded (numpy and scipy
    each bundle their own)."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return {}
    out = {}
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def context(wl, args) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_revision": rev, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "blas": blas, "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "known_limits": {"scan": SCAN_MEMORY_LIMIT},
    }


def run_op(wl, i: int, tracer=None) -> dict:
    """Run op ``i`` (timed) and check it (untimed)."""
    inp = wl.make_input(i)
    if tracer is not None:
        tracer.start("op", i)
    t0 = time.perf_counter()
    try:
        out = wl.op(inp)
    except Exception as exc:  # a failed op is recorded; the loop goes on
        elapsed = time.perf_counter() - t0
        return {"i": i, "s": elapsed, "ok": False, "defect": wl.is_defect(inp, exc),
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if tracer is not None:
            tracer.stop()
    elapsed = time.perf_counter() - t0
    spans = tracer.op_spans(i) if tracer is not None else []
    try:
        quality = wl.check(inp, out, spans)
    except Exception as exc:  # wrong output or a crash in the check
        return {"i": i, "s": elapsed, "ok": False, "defect": False,
                "error": f"check: {type(exc).__name__}: {exc}"}
    return {"i": i, "s": elapsed, "ok": True, "defect": False, "l2": quality}


def measure(wl, seconds: float, start: float, tracer=None):
    """Set-ups, warm-up, then the closed loop. Returns (set-up times,
    untraced op records, traced op records)."""
    setup_times = []
    for k in range(SETUPS):
        if tracer is not None:
            tracer.start("setup", k)
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            if tracer is not None:
                tracer.stop()
        setup_times.append(time.perf_counter() - t0)
    run_op(wl, WARMUP_INDEX)
    plain, traced = [], []
    busy, i, ok = 0.0, 0, 0
    while (busy < seconds or i < wl.window or ok < MIN_OPS) \
            and time.monotonic() - start < DEADLINE_S:
        plain.append(run_op(wl, i))
        busy += plain[-1]["s"]
        ok += plain[-1]["ok"]
        if tracer is not None:
            traced.append(run_op(wl, i, tracer))
            busy += traced[-1]["s"]
        i += 1
    return setup_times, plain, traced


def main(argv=None) -> int:
    start = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "readprofiler" / "__init__.py").is_file():
        print(f"error: no readprofiler package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import workloads
    logging.getLogger("readprofiler").setLevel(logging.ERROR)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    tracer = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        wl.prepare()
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        setup_times, plain, traced = measure(wl, args.seconds, start, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = plain + traced
    window = [r for r in plain if r["i"] < wl.window]
    ok_times = [r["s"] for r in plain if r["ok"]]
    failed = [r for r in records if not r["ok"] and not r["defect"]]
    l2 = [r["l2"] for r in window if r["ok"]]
    tail_s, tail_pct = tail(ok_times)
    ctx = context(wl, args)
    ctx.update({
        "ops": len(plain), "ops_ok": len(ok_times), "window": wl.window,
        "setup_runs": [round(t, 6) for t in setup_times],
        "op_runs": [round(r["s"], 4) for r in plain],
        "op_tail_percentile": round(tail_pct, 2),
        "declared_defects": sum(r["defect"] for r in records),
        "errors": sorted({r["error"] for r in records if not r["ok"]}),
    })

    if args.trace:
        import tracing
        ids = {r["i"] for r in traced if r["i"] < wl.window}
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
                   for name, value in tracer.per_layer(SETUPS, ids).items()}
        traced_p50 = statistics.median(r["s"] for r in traced if r["ok"])
        untraced_p50 = statistics.median(ok_times)
        top = sum(s.end - s.start for s in tracer.spans
                  if s.phase == "op" and s.parent is None)
        metrics.update({
            "trace.op_p50_s": {"value": traced_p50, "unit": "s"},
            "trace.overhead_s": {"value": traced_p50 - untraced_p50, "unit": "s"},
            "trace.span_coverage": {"value": top / sum(r["s"] for r in traced),
                                    "unit": "ratio"},
        })
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        ran = {s.name for s in tracer.spans}
        ctx.update({"absent": tracer.absent, "spans": len(tracer.spans),
                    # their per-layer metrics read 0: this workload never calls them
                    "not_called": sorted(set(tracing.TARGETS) - ran - set(tracer.absent)),
                    "spans_file": str(spans_path.relative_to(ROOT))})
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(ok_times),
            "op_tail_s": tail_s,
            "ops_per_s": len(ok_times) / sum(r["s"] for r in plain),
            "peak_rss_mb": peak_rss_mb,
            # the complement of the failed share, which would read 0 on
            # workloads without a declared defect
            "ok_frac": sum(r["ok"] for r in window) / len(window),
            # scan runs no reconstruction; 1.0 stands in so that every
            # workload reports every end-to-end metric
            "l2_error_mean": statistics.fmean(l2) if wl.has_l2 else 1.0,
        }
        units = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                 "ops_per_s": "1/s", "peak_rss_mb": "MB", "ok_frac": "ratio",
                 "l2_error_mean": "l2"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    print(json.dumps({"context": ctx}))
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
