"""Every loader either loads a damaged file or raises ValueError, never any
other exception: each example truncates a valid file, drops a field of its
JSON header, or flips one byte."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from readprofiler.experiments import generate_random_db
from readprofiler.mixture_sim import (
    MixtureSpec,
    ReadCounts,
    empirical_frequencies,
    sample_power_law_mixture,
    simulate_reads,
)
from readprofiler.read_matrix import ReadSamplingMatrix, build_matrix
from readprofiler.reconstruct import DncParams, divide_and_conquer, load_estimate


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid file per loader, and a path to write damaged
    copies to."""
    tmp = tmp_path_factory.mktemp("loaders")
    A = build_matrix(generate_random_db(6, 30, seed=3), 6)
    mix = sample_power_law_mixture(6, 3, 1.0, seed=4)
    reads = simulate_reads(A, mix.full_vector(6), 300, seed=5)
    report = divide_and_conquer(A, empirical_frequencies(reads, A).y,
                                DncParams(block_size=4, k_final=3, seed=6))
    for name, obj in (("matrix", A), ("counts", reads), ("truth", mix),
                      ("estimate", report)):
        obj.save(tmp / name)
    return {name: (tmp / name).read_bytes()
            for name in ("matrix", "counts", "truth", "estimate")}, tmp / "damaged"


def header_span(name: str, blob: bytes) -> tuple[int, int]:
    """Byte range of the file's JSON header: its first line (after the '#'
    of a counts file), or the whole of a JSON file."""
    if name in ("truth", "estimate"):
        return 0, len(blob)
    return int(name == "counts"), blob.index(b"\n")


def damage(name: str, blob: bytes, data) -> bytes:
    how = data.draw(st.sampled_from(["truncate", "drop", "flip"]))
    start, end = header_span(name, blob)
    if how == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if how == "drop":
        header = json.loads(blob[start:end])
        del header[data.draw(st.sampled_from(sorted(header)))]
        return blob[:start] + json.dumps(header, sort_keys=True).encode() + blob[end:]
    # half the flips land in the header, and half write a digit, so that
    # header numbers change value and not only break the JSON
    at = data.draw(st.one_of(st.integers(start, end - 1), st.integers(0, len(blob) - 1)))
    byte = data.draw(st.one_of(st.sampled_from(b"0123456789"), st.integers(0, 255))
                     .filter(lambda b: b != blob[at]))
    return blob[:at] + bytes([byte]) + blob[at + 1:]


def loads_or_refuses(load, name, valid, data):
    files, path = valid
    path.write_bytes(damage(name, files[name], data))
    try:
        load(path)
    except ValueError:
        pass


FUZZ = settings(max_examples=150, deadline=None)


@FUZZ
@given(data=st.data())
def test_read_counts_load(valid, data):
    loads_or_refuses(ReadCounts.load, "counts", valid, data)


@FUZZ
@given(data=st.data())
def test_matrix_load(valid, data):
    loads_or_refuses(ReadSamplingMatrix.load, "matrix", valid, data)


@FUZZ
@given(data=st.data())
def test_mixture_spec_load(valid, data):
    loads_or_refuses(MixtureSpec.load, "truth", valid, data)


@FUZZ
@given(data=st.data())
def test_load_estimate(valid, data):
    loads_or_refuses(load_estimate, "estimate", valid, data)
