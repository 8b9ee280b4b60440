import gzip
import json

import pytest

from readprofiler import identifiability
from readprofiler.cli import main
from readprofiler.sequence_db import parse_fasta


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def pipeline_dir(tmp_path):
    """Small end-to-end workspace: database, matrix, truth, simulated reads."""
    db = tmp_path / "db.fasta"
    mat = tmp_path / "matrix.bin"
    reads = tmp_path / "reads.tsv"
    truth = tmp_path / "truth.json"
    assert run("random-db", "--n", "30", "--length", "60", "--seed", "1",
               "--out", str(db)) == 0
    assert run("build-matrix", "--db", str(db), "--read-len", "8",
               "--out", str(mat)) == 0
    assert run("simulate", "--matrix", str(mat), "--reads", "20000",
               "--seed", "2", "--k", "4", "--alpha", "1.0",
               "--truth-out", str(truth), "--out", str(reads)) == 0
    return tmp_path


class TestPipelineCommands:
    def test_full_chain(self, pipeline_dir):
        est = pipeline_dir / "estimate.json"
        ev = pipeline_dir / "eval.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(pipeline_dir / "reads.tsv"),
                   "--block-size", "10", "--seed", "3", "--out", str(est)) == 0
        assert run("evaluate", "--truth", str(pipeline_dir / "truth.json"),
                   "--estimate", str(est),
                   "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads-count", "20000", "--out", str(ev)) == 0
        result = json.loads(ev.read_text())
        assert 0.0 <= result["l2_error"] <= 1.5
        assert result["mahalanobis_error"] <= result["mahalanobis_bound"] * 10

    def test_simulate_from_saved_truth(self, pipeline_dir):
        out = pipeline_dir / "reads2.tsv"
        assert run("simulate", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", "20000", "--seed", "2",
                   "--truth", str(pipeline_dir / "truth.json"),
                   "--out", str(out)) == 0
        # same seed and mixture: identical read counts
        assert out.read_bytes() == (pipeline_dir / "reads.tsv").read_bytes()

    def test_reconstruct_raw_reads(self, pipeline_dir, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("ACGTACGTAC\nACGTACGTAC\n")
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(raw), "--raw-reads", "--out", str(est)) == 0
        assert est.exists()

    @pytest.mark.parametrize("fastq", [False, True])
    def test_reconstruct_raw_reads_with_n(self, pipeline_dir, tmp_path, fastq):
        seq = parse_fasta(pipeline_dir / "db.fasta").records[0].sequence
        reads = [seq[:10], seq[5:15], seq[:4] + "N" + seq[5:10]]
        raw = tmp_path / "raw"
        if fastq:
            raw.write_text("".join(f"@r{i}\n{r}\n+\n{'I' * len(r)}\n"
                                   for i, r in enumerate(reads)))
        else:
            raw.write_text("\n".join(reads) + "\n")
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(raw), "--raw-reads", "--out", str(est)) == 0
        assert est.exists()

    def test_reconstruct_malformed_fastq_exits_2(self, pipeline_dir, tmp_path):
        raw = tmp_path / "raw.fastq"
        raw.write_text("@r1\nACGTACGTAC\n+\nIIIIIIIIII\n@r2\nACGTACGTAC\n+\nIII\n")
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(raw), "--raw-reads",
                   "--out", str(tmp_path / "est.json")) == 2

    def test_reconstruct_counts_of_wrong_kmer_length_exits_2(self, pipeline_dir, tmp_path):
        counts = tmp_path / "counts.tsv"
        counts.write_text('#{"read_length": 8, "seed": null, "total": 5}\nACGTACG\t5\n')
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(counts), "--out", str(est)) == 2
        assert not est.exists()

    @pytest.mark.parametrize("body", [
        "ACGTACGT\t5\nACGTACGT\t5\n",                  # a repeat: once merged into 5
        "ACGTACGT\t2\nACGTACGA 3\n",                   # a space for the tab
        "ACGTACGT\t2\nACGTACGA\tthree\n",
        "ACGTACGT\t2\nACGTACNA\t3\n",
        "ACGTACGT\t5\nACGTACGA\t0\n",
    ], ids=["repeat", "space", "not_integer", "base_n", "zero"])
    def test_reconstruct_malformed_counts_exits_2(self, pipeline_dir, tmp_path, body):
        counts = tmp_path / "counts.tsv"
        counts.write_text('#{"read_length": 8, "seed": null, "total": 5}\n' + body)
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(counts), "--out", str(est)) == 2
        assert not est.exists()

    def test_reconstruct_other_tail_convention_exits_2(self, pipeline_dir, tmp_path):
        header, payload = (pipeline_dir / "matrix.bin").read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        fields["tail_convention"] = "zero-tail"
        matrix = tmp_path / "matrix.bin"
        matrix.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(matrix),
                   "--reads", str(pipeline_dir / "reads.tsv"), "--out", str(est)) == 2
        assert not est.exists()

    def test_reconstruct_counts_without_total_exits_2(self, pipeline_dir, tmp_path, capsys):
        counts = tmp_path / "counts.tsv"
        counts.write_text('#{"read_length": 8}\nACGTACGT\t5\n')
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(counts), "--out", str(est)) == 2
        assert not est.exists()
        assert f"{counts}: missing field 'total'" in capsys.readouterr().err

    def test_reconstruct_matrix_without_nnz_exits_2(self, pipeline_dir, tmp_path, capsys):
        header, payload = (pipeline_dir / "matrix.bin").read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        del fields["nnz"]
        matrix = tmp_path / "matrix.bin"
        matrix.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(matrix),
                   "--reads", str(pipeline_dir / "reads.tsv"), "--out", str(est)) == 2
        assert not est.exists()
        assert f"{matrix}: missing field 'nnz'" in capsys.readouterr().err

    @pytest.mark.parametrize("which,field", [("truth", "frequencies"), ("estimate", "empty")])
    def test_evaluate_input_without_field_exits_2(self, pipeline_dir, tmp_path, capsys,
                                                  which, field):
        files = {"truth": pipeline_dir / "truth.json", "estimate": tmp_path / "est.json"}
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(pipeline_dir / "reads.tsv"),
                   "--out", str(files["estimate"])) == 0
        broken = json.loads(files[which].read_text())
        del broken[field]
        files[which] = tmp_path / f"broken-{which}.json"
        files[which].write_text(json.dumps(broken))
        capsys.readouterr()
        assert run("evaluate", "--truth", str(files["truth"]),
                   "--estimate", str(files["estimate"]),
                   "--matrix", str(pipeline_dir / "matrix.bin"), "--reads-count", "20000",
                   "--skip-lambda", "--out", str(tmp_path / "eval.json")) == 2
        assert f"{files[which]}: missing field {field!r}" in capsys.readouterr().err

    def test_reconstruct_counts_with_string_total_exits_2(self, pipeline_dir, tmp_path, capsys):
        counts = tmp_path / "counts.tsv"
        counts.write_text('#{"read_length": 8, "total": "5"}\nACGTACGT\t5\n')
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(counts), "--out", str(est)) == 2
        assert not est.exists()
        assert f"{counts}: field 'total' must be int, got str" in capsys.readouterr().err

    def test_evaluate_estimate_with_string_n_species_exits_2(self, pipeline_dir, tmp_path,
                                                              capsys):
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(pipeline_dir / "reads.tsv"), "--out", str(est)) == 0
        broken = json.loads(est.read_text())
        broken["n_species"] = str(broken["n_species"])
        est.write_text(json.dumps(broken))
        capsys.readouterr()
        assert run("evaluate", "--truth", str(pipeline_dir / "truth.json"),
                   "--estimate", str(est),
                   "--matrix", str(pipeline_dir / "matrix.bin"), "--reads-count", "20000",
                   "--skip-lambda", "--out", str(tmp_path / "eval.json")) == 2
        assert f"{est}: field 'n_species' must be int, got str" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    @pytest.mark.parametrize("field,value,kind", [
        ("support", [1.5, 2], "int"),
        ("support", [True, 2], "int"),
        ("frequencies", ["0.5", "0.5"], "float"),
        ("frequencies", [0.5, None], "float"),
    ], ids=["float_id", "bool_id", "string_frequency", "null_frequency"])
    def test_truth_with_wrong_element_type_exits_2(self, pipeline_dir, tmp_path, capsys,
                                                   command, field, value, kind):
        truth = tmp_path / "truth.json"
        spec = json.loads((pipeline_dir / "truth.json").read_text())
        truth.write_text(json.dumps(spec | {"support": [1, 2], "frequencies": [0.5, 0.5],
                                            field: value}))
        matrix = str(pipeline_dir / "matrix.bin")
        est, out = tmp_path / "est.json", tmp_path / "out"
        if command == "simulate":
            argv = ["simulate", "--matrix", matrix, "--reads", "100", "--truth", str(truth)]
        else:
            assert run("reconstruct", "--matrix", matrix, "--reads",
                       str(pipeline_dir / "reads.tsv"), "--out", str(est)) == 0
            argv = ["evaluate", "--truth", str(truth), "--estimate", str(est), "--matrix",
                    matrix, "--reads-count", "20000", "--skip-lambda"]
        capsys.readouterr()
        assert run(*argv, "--out", str(out)) == 2
        assert not out.exists()
        assert f"{truth}: field {field!r} must hold {kind} values" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,why", [
        ("support", [0], "support ids outside 1..30"),
        ("support", [31], "support ids outside 1..30"),
        ("support", [1.5], "field 'support' must hold int values"),
        ("frequencies", ["1.0"], "field 'frequencies' must hold float values"),
        ("frequencies", [0.5, 0.5], "support and frequencies differ in length"),
    ], ids=["id_0", "id_past_n", "float_id", "string_frequency", "length"])
    def test_evaluate_estimate_with_bad_support_exits_2(self, pipeline_dir, tmp_path, capsys,
                                                        field, value, why):
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(pipeline_dir / "reads.tsv"), "--out", str(est)) == 0
        broken = json.loads(est.read_text()) | {"support": [1], "frequencies": [1.0]}
        est.write_text(json.dumps(broken | {field: value}))
        capsys.readouterr()
        assert run("evaluate", "--truth", str(pipeline_dir / "truth.json"),
                   "--estimate", str(est),
                   "--matrix", str(pipeline_dir / "matrix.bin"), "--reads-count", "20000",
                   "--skip-lambda", "--out", str(tmp_path / "eval.json")) == 2
        assert f"{est}: {why}" in capsys.readouterr().err

    @pytest.mark.parametrize("fastq", [False, True])
    def test_reconstruct_gzipped_raw_reads(self, pipeline_dir, tmp_path, fastq):
        seq = parse_fasta(pipeline_dir / "db.fasta").records[0].sequence
        reads = [seq[:10], seq[5:15], seq[20:30]]
        if fastq:
            text = "".join(f"@r{i}\n{r}\n+\n{'I' * len(r)}\n" for i, r in enumerate(reads))
        else:
            text = "\n".join(reads) + "\n"
        plain, gz = tmp_path / "raw.txt", tmp_path / "raw.txt.gz"
        plain.write_text(text)
        gz.write_bytes(gzip.compress(text.encode()))
        for raw in (plain, gz):
            assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                       "--reads", str(raw), "--raw-reads", "--seed", "3",
                       "--out", str(tmp_path / f"{raw.name}.json")) == 0
        assert (tmp_path / "raw.txt.gz.json").read_bytes() == \
            (tmp_path / "raw.txt.json").read_bytes()

    def test_identifiability_outputs(self, pipeline_dir):
        out = pipeline_dir / "ident.json"
        assert run("identifiability", "--db", str(pipeline_dir / "db.fasta"),
                   "--L-range", "2:5", "--at-L", "5", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert "scan" in data and "at_read_length" in data
        assert len(data["at_read_length"]["partial_flags"]) == 30

    def test_identifiability_over_gram_cap_exits_2(self, pipeline_dir, monkeypatch):
        monkeypatch.setattr(identifiability, "GRAM_CAP", 1)
        assert run("identifiability", "--db", str(pipeline_dir / "db.fasta"),
                   "--at-L", "2", "--out", str(pipeline_dir / "x.json")) == 2
        assert not (pipeline_dir / "x.json").exists()

    def test_identifiability_requires_a_mode(self, pipeline_dir):
        assert run("identifiability", "--db", str(pipeline_dir / "db.fasta"),
                   "--out", str(pipeline_dir / "x.json")) == 2


class TestErrorHandling:
    def test_missing_database(self, tmp_path):
        assert run("build-matrix", "--db", str(tmp_path / "none.fasta"),
                   "--read-len", "4", "--out", str(tmp_path / "m.bin")) == 2

    def test_bad_random_db_args(self, tmp_path):
        assert run("random-db", "--n", "0", "--length", "10",
                   "--out", str(tmp_path / "db.fasta")) == 2

    @pytest.mark.parametrize("read_length", [0, -3, 513])
    def test_counts_read_length_out_of_range_exits_2(self, pipeline_dir, tmp_path,
                                                     read_length, capsys):
        counts = tmp_path / "counts.tsv"
        counts.write_text("#" + json.dumps({"read_length": read_length, "total": 5})
                          + "\n\t5\n")
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(counts), "--out", str(tmp_path / "est.json")) == 2
        assert f"{counts}: read length {read_length} outside [1, 512]" in \
            capsys.readouterr().err
        assert not (tmp_path / "est.json").exists()

    def test_bad_experiment_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"random_db": {"n": 5, "length": 20},
                                   "trials": 0}))
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")) == 2

    @pytest.mark.parametrize("config,why", [
        ({"random_db": {"length": 20}}, "random_db: missing field 'n'"),
        ({"random_db": {"n": 5}}, "random_db: missing field 'length'"),
        ({"random_db": {"n": 5, "length": "20"}}, "random_db: field 'length' must be int"),
        ({"random_db": [5, 20]}, "random_db: expected a JSON object, got list"),
        ([1, 2], "{cfg}: expected a JSON object, got list"),
        ("not json", "{cfg}: Expecting value"),
    ], ids=["no_n", "no_length", "string_length", "list_random_db", "list", "not_json"])
    def test_malformed_experiment_config_exits_2(self, tmp_path, capsys, config, why):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"invalid config: {why.format(cfg=cfg)}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_evaluate_truth_not_json_exits_2(self, pipeline_dir, tmp_path, capsys):
        est, truth = tmp_path / "est.json", tmp_path / "truth.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(pipeline_dir / "reads.tsv"), "--out", str(est)) == 0
        truth.write_text((pipeline_dir / "truth.json").read_text()[:-5])
        capsys.readouterr()
        assert run("evaluate", "--truth", str(truth), "--estimate", str(est),
                   "--matrix", str(pipeline_dir / "matrix.bin"), "--reads-count", "20000",
                   "--skip-lambda", "--out", str(tmp_path / "eval.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truth}: Unterminated string") and "Traceback" not in err
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("key", ["collect_ambiguous", "literal_ambiguity_rule"])
    def test_removed_dnc_knob_rejected(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TestExperimentCommands.CFG,
                                   "dnc": {"block_size": 8, key: True}}))
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")) == 2


class TestExperimentCommands:
    CFG = {
        "random_db": {"n": 25, "length": 50, "seed": 4},
        "read_length": 10,
        "k": 3,
        "alpha": 1.0,
        "r_grid": [2000, 10000],
        "trials": 3,
        "seed": 9,
        "dnc": {"block_size": 8},
    }

    def _write_cfg(self, tmp_path, **extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, **extra}))
        return cfg

    def test_error_vs_reads_artifacts(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--out-dir", str(out)) == 0
        trials = (out / "trials.csv").read_text().strip().splitlines()
        assert len(trials) == 1 + 2 * 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_failed"] == 0
        assert [row["n_reads"] for row in summary["summary"]] == [2000, 10000]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("experiment", "error-vs-reads", "--config", str(cfg),
                       "--out-dir", str(out)) == 0
        assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out_serial, out_par = tmp_path / "serial", tmp_path / "par"
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--out-dir", str(out_serial)) == 0
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--out-dir", str(out_par), "--workers", "2") == 0
        assert (out_serial / "trials.csv").read_bytes() == \
            (out_par / "trials.csv").read_bytes()

    def test_ident_scan_artifacts(self, tmp_path):
        cfg = self._write_cfg(tmp_path, l_range=[2, 6])
        out = tmp_path / "scan"
        assert run("experiment", "ident-scan", "--config", str(cfg),
                   "--out-dir", str(out)) == 0
        data = json.loads((out / "scan.json").read_text())
        assert len(data["rows"]) == 5
        assert data["critical_length_db"] is not None

    def test_flag_overrides_config(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "o"
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--seed", "99", "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 99
