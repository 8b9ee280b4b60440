"""Spans recorded from outside the package.

The tracer replaces public functions at the module attributes their callers
look up (for example ``readprofiler.reconstruct.nnls_from_gram``, which
``divide_and_conquer`` calls) with wrappers that record one span per call:
name, start, end, parent span, the set-up or op it belongs to, and exact
counts read from the call's public return value. Spans stay in memory and
are written out once, at the end of the run.

A target that no longer exists is recorded as absent instead of failing the
run, so the benchmark keeps working when a later change removes a function.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass, field


def _nnls_counts(args, kwargs, sol):
    return {"iterations": sol.iterations,
            # divide_and_conquer passes an explicit budget only on its retry
            "retries": int("max_iter" in kwargs),
            "rank_deficient": int(sol.rank_deficient),
            "unconverged": int(not sol.converged)}


def _dnc_counts(args, kwargs, report):
    its = report.iterations
    return {"blocks": sum(it.blocks_solved for it in its),
            "iterations": len(its),
            "survivors": its[-1].survivor_count if its else 0,
            "species": its[0].species_in if its else 0}


def _matrix_counts(args, kwargs, A):
    return {"rows": A.n_rows, "nnz": int(A.matrix.nnz)}


def _file_bytes(args, kwargs, result):
    # ReadSamplingMatrix.save(self, path) and .load(cls, path)
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _read_counts(args, kwargs, rc):
    return {"reads": rc.total, "skipped_short": rc.skipped_short}


def _unmapped(args, kwargs, emp):
    return {"unmapped": emp.unmapped_reads, "total": emp.total}


# span name -> (attributes to wrap as (module, qualified name), counts from a call)
TARGETS = {
    "reconstruct.divide_and_conquer": (
        [("readprofiler", "divide_and_conquer")], _dnc_counts),
    "nnls.nnls_from_gram": (
        [("readprofiler.reconstruct", "nnls_from_gram")], _nnls_counts),
    "identifiability.null_space_flags_from_gram": (
        [("readprofiler.reconstruct", "null_space_flags_from_gram"),
         ("readprofiler.identifiability", "null_space_flags_from_gram")], None),
    "identifiability.analyze": (
        [("readprofiler.identifiability", "analyze")],
        lambda args, kwargs, rep: {"rank": rep.rank}),
    "identifiability.null_space_flags": (
        [("readprofiler.identifiability", "null_space_flags")],
        lambda args, kwargs, out: {"rows": args[0].shape[0]}),
    "identifiability.decompose_components": (
        [("readprofiler.identifiability", "decompose_components"),
         ("readprofiler.metrics", "decompose_components")],
        lambda args, kwargs, groups: {"components": len(groups)}),
    "identifiability.find_substring_pairs": (
        [("readprofiler.identifiability", "find_substring_pairs")], None),
    "read_matrix.build_matrix": (
        [("readprofiler", "build_matrix"),
         ("readprofiler.identifiability", "build_matrix")], _matrix_counts),
    "read_matrix.save": (
        [("readprofiler.read_matrix", "ReadSamplingMatrix.save")], _file_bytes),
    "read_matrix.load": (
        [("readprofiler.read_matrix", "ReadSamplingMatrix.load")], _file_bytes),
    "sequence_db.parse_fasta": ([("readprofiler", "parse_fasta")], None),
    "metrics.gram_lambda_min": (
        [("readprofiler", "gram_lambda_min"),
         ("readprofiler.metrics", "gram_lambda_min")], None),
    "metrics.evaluate": ([("readprofiler", "evaluate")], None),
    "mixture_sim.read_counts_from_reads": (
        [("readprofiler", "read_counts_from_reads"),
         ("readprofiler.mixture_sim", "read_counts_from_reads")], _read_counts),
    "mixture_sim.simulate_reads": ([("readprofiler", "simulate_reads")], None),
    "mixture_sim.empirical_frequencies": (
        [("readprofiler", "empirical_frequencies")], _unmapped),
}

# metric -> (unit, span name, statistic, reduction[, parent span name]). Each
# value is given per unit of work: per op for spans recorded inside ops, per
# set-up for spans recorded during set-up. "sum" adds a statistic over a
# unit's spans, "max" takes its largest value in the unit, "ratio" divides
# two summed counts. A parent name keeps only spans called from that span.
PER_LAYER = {
    "reconstruct.divide_and_conquer.busy_s": ("s", "reconstruct.divide_and_conquer", "busy", "sum"),
    "reconstruct.divide_and_conquer.self_s": ("s", "reconstruct.divide_and_conquer", "self", "sum"),
    "reconstruct.blocks": ("count", "reconstruct.divide_and_conquer", "blocks", "sum"),
    "reconstruct.iterations": ("count", "reconstruct.divide_and_conquer", "iterations", "sum"),
    "reconstruct.survivor_ratio": ("ratio", "reconstruct.divide_and_conquer", ("survivors", "species"), "ratio"),
    "nnls.nnls_from_gram.calls": ("count", "nnls.nnls_from_gram", "calls", "sum"),
    "nnls.nnls_from_gram.busy_s": ("s", "nnls.nnls_from_gram", "busy", "sum"),
    "nnls.nnls_from_gram.iterations": ("count", "nnls.nnls_from_gram", "iterations", "sum"),
    "nnls.nnls_from_gram.retries": ("count", "nnls.nnls_from_gram", "retries", "sum"),
    "nnls.nnls_from_gram.rank_deficient": ("count", "nnls.nnls_from_gram", "rank_deficient", "sum"),
    "nnls.nnls_from_gram.unconverged": ("count", "nnls.nnls_from_gram", "unconverged", "sum"),
    "identifiability.null_space_flags_from_gram.calls": ("count", "identifiability.null_space_flags_from_gram", "calls", "sum"),
    "identifiability.null_space_flags_from_gram.busy_s": ("s", "identifiability.null_space_flags_from_gram", "busy", "sum"),
    "identifiability.analyze.busy_s": ("s", "identifiability.analyze", "busy", "sum"),
    "identifiability.analyze.rank": ("count", "identifiability.analyze", "rank", "sum"),
    "identifiability.analyze.components": ("count", "identifiability.decompose_components", "components", "sum", "identifiability.analyze"),
    "identifiability.analyze.max_component_rows": ("rows", "identifiability.null_space_flags", "rows", "max", "identifiability.analyze"),
    "identifiability.null_space_flags.busy_s": ("s", "identifiability.null_space_flags", "busy", "sum"),
    "identifiability.decompose_components.busy_s": ("s", "identifiability.decompose_components", "busy", "sum"),
    "identifiability.find_substring_pairs.busy_s": ("s", "identifiability.find_substring_pairs", "busy", "sum"),
    "read_matrix.build_matrix.busy_s": ("s", "read_matrix.build_matrix", "busy", "sum"),
    "read_matrix.build_matrix.rows": ("count", "read_matrix.build_matrix", "rows", "sum"),
    "read_matrix.build_matrix.nnz": ("count", "read_matrix.build_matrix", "nnz", "sum"),
    "read_matrix.save.busy_s": ("s", "read_matrix.save", "busy", "sum"),
    "read_matrix.save.bytes": ("bytes", "read_matrix.save", "bytes", "sum"),
    "read_matrix.load.busy_s": ("s", "read_matrix.load", "busy", "sum"),
    "read_matrix.load.bytes": ("bytes", "read_matrix.load", "bytes", "sum"),
    "sequence_db.parse_fasta.busy_s": ("s", "sequence_db.parse_fasta", "busy", "sum"),
    "metrics.gram_lambda_min.busy_s": ("s", "metrics.gram_lambda_min", "busy", "sum"),
    "metrics.evaluate.busy_s": ("s", "metrics.evaluate", "busy", "sum"),
    "mixture_sim.read_counts_from_reads.busy_s": ("s", "mixture_sim.read_counts_from_reads", "busy", "sum"),
    "mixture_sim.read_counts_from_reads.reads": ("count", "mixture_sim.read_counts_from_reads", "reads", "sum"),
    "mixture_sim.read_counts_from_reads.skipped_short": ("count", "mixture_sim.read_counts_from_reads", "skipped_short", "sum"),
    "mixture_sim.simulate_reads.busy_s": ("s", "mixture_sim.simulate_reads", "busy", "sum"),
    "mixture_sim.empirical_frequencies.busy_s": ("s", "mixture_sim.empirical_frequencies", "busy", "sum"),
    "mixture_sim.empirical_frequencies.unmapped_frac": ("ratio", "mixture_sim.empirical_frequencies", ("unmapped", "total"), "ratio"),
}


@dataclass
class Span:
    id: int
    name: str
    phase: str                 # "setup" or "op"
    unit: int                  # index of the set-up or op
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans between ``start`` and ``stop``. The wrappers are in place
    only in between, so untraced ops and output checks run the bare code."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.phase = "op"
        self.unit = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def start(self, phase: str, unit: int) -> None:
        self.phase, self.unit = phase, unit
        self.absent = []
        for name, (paths, counts) in TARGETS.items():
            found = [self._patch(name, module, qualname, counts)
                     for module, qualname in paths]
            if not any(found):
                self.absent.append(name)

    def stop(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, name, module, qualname, counts) -> bool:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return False
        *parents, attr = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, counts))
        else:
            wrapped = self._wrap(name, raw, counts)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        return True

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, self.phase, self.unit,
                        self._stack[-1] if self._stack else None, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result
        return wrapper

    def op_spans(self, unit: int) -> list[Span]:
        return [s for s in self.spans if s.phase == "op" and s.unit == unit]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def per_layer(self, setups: int, window: set[int]) -> dict[str, float]:
        """Per-layer metrics over all set-ups and over the ops in ``window``.
        A metric whose span never ran (absent, or not used by this workload)
        reads 0."""
        busy, child = {}, {}
        for s in self.spans:
            busy[s.id] = s.end - s.start
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.end - s.start
        spans = [s for s in self.spans if s.phase == "setup" or s.unit in window]
        out = {}
        for metric, (_, name, stat, reduce, *within) in PER_LAYER.items():
            mine = [s for s in spans if s.name == name and (
                not within or (s.parent is not None
                               and self.spans[s.parent].name == within[0]))]
            phase = "op" if any(s.phase == "op" for s in mine) else "setup"
            mine = [s for s in mine if s.phase == phase]
            units = len(window) if phase == "op" else setups

            def value(s, key):
                if key == "busy":
                    return busy[s.id]
                if key == "self":
                    return busy[s.id] - child.get(s.id, 0.0)
                if key == "calls":
                    return 1
                return s.counts.get(key, 0)

            if not mine:
                out[metric] = 0.0
            elif reduce == "ratio":
                den = sum(value(s, stat[1]) for s in mine)
                out[metric] = sum(value(s, stat[0]) for s in mine) / den if den else 0.0
            elif reduce == "max":
                peak: dict[int, float] = {}
                for s in mine:
                    peak[s.unit] = max(peak.get(s.unit, 0), value(s, stat))
                out[metric] = sum(peak.values()) / units
            else:
                out[metric] = sum(value(s, stat) for s in mine) / units
        return out
