import csv
import gzip
import json

import pytest

from readprofiler import cli, experiments, identifiability, read_matrix
from readprofiler.cli import main
from readprofiler.read_matrix import ReadSamplingMatrix
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

    @pytest.mark.parametrize("scan", [[], ["--L-range", "2:3"]], ids=["alone", "with_scan"])
    def test_identifiability_at_l_zero_exits_2(self, pipeline_dir, capsys, scan):
        # 0 is a read length to check, not an unset flag
        out = pipeline_dir / "x.json"
        assert run("identifiability", "--db", str(pipeline_dir / "db.fasta"), *scan,
                   "--at-L", "0", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "read length 0 outside" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("l_range,why", [
        ("2:73", "species 1 ('rand_000001'): read length exceeds sequence length by 13 > 12; "
                 "tail expansion refused"),
        ("2:70", "30 species shorter than read length 70 expand into 31457280 tail reads "
                 "> 4^12; tail expansion refused"),
        ("2:600", "read length 600 outside [1, 512]"),
    ], ids=["tail_past_cap", "tails_past_cap_together", "past_code_length"])
    def test_identifiability_refuses_top_length_before_any_matrix(
            self, pipeline_dir, capsys, monkeypatch, l_range, why):
        # the database holds 30 sequences of 60 bases
        def no_matrix(*_):
            raise AssertionError("a matrix was built before the top read length was checked")
        monkeypatch.setattr(identifiability, "build_matrix", no_matrix)
        out = pipeline_dir / "x.json"
        assert run("identifiability", "--db", str(pipeline_dir / "db.fasta"),
                   "--L-range", l_range, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {why}" in err and "Traceback" not in err
        assert not out.exists()

    def test_identifiability_writes_substring_pairs(self, tmp_path):
        db, out = tmp_path / "db.fasta", tmp_path / "ident.json"
        db.write_text(">a\nACGTACGT\n>b\nGTAC\n")
        assert run("identifiability", "--db", str(db), "--L-range", "2:3",
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["scan"]["substring_pairs"] == [[2, 1]]

    def test_build_matrix_drop_ambiguous(self, tmp_path, capsys):
        db, out = tmp_path / "db.fasta", tmp_path / "m.rsm"
        db.write_text(">a\nACGTACGT\n>b\nACGNACGT\n>c\nTTGACCAG\n")
        assert run("build-matrix", "--db", str(db), "--read-len", "4", "--out", str(out)) == 2
        assert f"error: {db}: record 'b' contains 'N'" in capsys.readouterr().err
        assert not out.exists()
        assert run("build-matrix", "--db", str(db), "--read-len", "4", "--drop-ambiguous",
                   "--out", str(out)) == 0
        assert ReadSamplingMatrix.load(out).n_species == 2

    def test_reconstruct_tau_and_kf_reach_params(self, pipeline_dir, tmp_path):
        est = tmp_path / "est.json"
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(pipeline_dir / "reads.tsv"), "--tau", "0.01", "--kf", "5",
                   "--seed", "3", "--out", str(est)) == 0
        report = json.loads(est.read_text())
        assert report["params"]["tau"] == 0.01 and report["params"]["k_final"] == 5
        assert report["seed"] == report["params"]["seed"] == 3

    @pytest.mark.parametrize("frequencies,why", [
        ([float("nan"), 0.5], "frequency vector must be finite"),
        ([-0.5, 1.5], "frequency vector must be nonnegative"),
        ([0.5, 0.6], "vector flagged normalized but sums to 1.1"),
    ], ids=["nan", "negative", "sum_1_1"])
    def test_bad_truth_frequencies_exit_2_naming_file(self, pipeline_dir, tmp_path, capsys,
                                                      frequencies, why):
        truth, out = tmp_path / "bad_truth.json", tmp_path / "bad_reads.tsv"
        truth.write_text(json.dumps({"support": [1, 2], "frequencies": frequencies}))
        assert run("simulate", "--matrix", str(pipeline_dir / "matrix.bin"), "--reads", "100",
                   "--truth", str(truth), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {truth}: {why}" in err and "Traceback" not in err
        assert not out.exists()

    def test_identifiability_refuses_at_l_before_the_scan(self, pipeline_dir, monkeypatch):
        def scan(*_):
            raise AssertionError("the scan ran before --at-L was checked")
        monkeypatch.setattr(cli, "critical_read_length_scan", scan)
        assert run("identifiability", "--db", str(pipeline_dir / "db.fasta"),
                   "--L-range", "2:3", "--at-L", "0",
                   "--out", str(pipeline_dir / "x.json")) == 2


class TestErrorHandling:
    def test_missing_database(self, tmp_path):
        assert run("build-matrix", "--db", str(tmp_path / "none.fasta"),
                   "--read-len", "4", "--out", str(tmp_path / "m.bin")) == 2

    @pytest.mark.parametrize("argv", [
        ("build-matrix", "--db", "{dir}", "--read-len", "4", "--out", "{tmp}/m.rsm"),
        ("build-matrix", "--db", "{tmp}/db.fasta", "--read-len", "4", "--out", "{dir}"),
        ("reconstruct", "--matrix", "{tmp}/m.rsm", "--reads", "{dir}",
         "--out", "{tmp}/est.json"),
        ("experiment", "ident-scan", "--config", "{dir}", "--out-dir", "{tmp}/out"),
    ], ids=["db", "out", "reads", "config"])
    def test_directory_path_exits_2_naming_it(self, tmp_path, capsys, argv):
        (tmp_path / "db.fasta").write_text(">a\nACGTACGT\n>b\nTTGACCAG\n")
        assert run("build-matrix", "--db", str(tmp_path / "db.fasta"), "--read-len", "4",
                   "--out", str(tmp_path / "m.rsm")) == 0
        directory = tmp_path / "a dir"
        directory.mkdir()
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(*(a.format(dir=directory, tmp=tmp_path) for a in argv)) == 2
        err = capsys.readouterr().err
        prefix = "invalid config" if argv[0] == "experiment" else "error"
        assert f"{prefix}: [Errno 21] Is a directory: '{directory}'" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_refused_simulate_writes_nothing(self, pipeline_dir, tmp_path, capsys):
        truth, reads = tmp_path / "t.json", tmp_path / "r.tsv"
        assert run("simulate", "--matrix", str(pipeline_dir / "matrix.bin"), "--reads", "0",
                   "--k", "2", "--truth-out", str(truth), "--out", str(reads)) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not truth.exists() and not reads.exists()

    def test_simulate_refused_out_writes_no_truth(self, pipeline_dir, tmp_path, capsys):
        truth, out = tmp_path / "t.json", tmp_path / "outdir"
        out.mkdir()
        assert run("simulate", "--matrix", str(pipeline_dir / "matrix.bin"), "--reads", "100",
                   "--k", "2", "--truth-out", str(truth), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"Is a directory: '{out}'" in err and "Traceback" not in err
        assert not truth.exists() and not any(out.iterdir())

    def test_bad_random_db_args(self, tmp_path):
        assert run("random-db", "--n", "0", "--length", "10",
                   "--out", str(tmp_path / "db.fasta")) == 2

    def test_tail_past_the_cap_exits_2(self, tmp_path, capsys):
        db = tmp_path / "db.fasta"
        db.write_text(">long\nACGTACGTACGTACGTACGT\n>short\nACGTA\n")
        assert run("build-matrix", "--db", str(db), "--read-len", "18",
                   "--out", str(tmp_path / "m.rsm")) == 2
        err = capsys.readouterr().err
        assert ("error: species 2 ('short'): read length exceeds sequence length by 13 > 12; "
                "tail expansion refused") in err and "Traceback" not in err
        assert not (tmp_path / "m.rsm").exists()

    def test_tails_past_the_cap_together_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_keys(*_):
            raise AssertionError("a k-mer key was built before the tails were checked")
        monkeypatch.setattr(read_matrix, "kmer_keys", no_keys)
        db, out = tmp_path / "short.fasta", tmp_path / "short.rsm"
        assert run("random-db", "--n", "20", "--length", "30", "--seed", "5",
                   "--out", str(db)) == 0
        assert run("build-matrix", "--db", str(db), "--read-len", "40", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert ("error: 20 species shorter than read length 40 expand into 20971520 tail "
                "reads > 4^12; tail expansion refused") in err and "Traceback" not in err
        assert not out.exists()

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

    def test_counts_header_not_json_exits_2(self, pipeline_dir, tmp_path, capsys):
        counts = tmp_path / "counts.tsv"
        counts.write_text('#{"read_length": 8, "total": 1\nACGTACGT\t1\n')
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(counts), "--out", str(tmp_path / "est.json")) == 2
        err = capsys.readouterr().err
        assert f"{counts}: line 1: Expecting ',' delimiter" in err and "Traceback" not in err
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
        ({"random_db": {"n": 5, "length": 20}, "read_length": "x"},
         "config: field 'read_length' must be int, got str"),
        ({"random_db": {"n": 5, "length": 20, "seed": "x"}},
         "random_db: field 'seed' must be int, got str"),
        ({"random_db": {"n": 5, "length": 20}, "k": 2.5}, "config: field 'k' must be int"),
        ({"random_db": {"n": 5, "length": 20}, "alpha": "1"},
         "config: field 'alpha' must be float, got str"),
        ({"db_fasta": 5}, "config: field 'db_fasta' must be str, got int"),
        ({"random_db": {"n": 5, "length": 20}, "r_grid": ["x"]},
         "config: field 'r_grid' must hold int values, got str"),
        ({"random_db": {"n": 5, "length": 20}, "r_grid": 100},
         "config: field 'r_grid' must be list, got int"),
        ({"random_db": {"n": 5, "length": 20}, "dnc": [1]},
         "config: field 'dnc' must be dict, got list"),
        ({"random_db": {"n": 5, "length": 20}, "dnc": {"block_size": "x"}},
         "dnc: field 'block_size' must be int, got str"),
        ({"random_db": {"n": 5, "length": 20}, "dnc": {"tau": None}},
         "dnc: field 'tau' must be float, got NoneType"),
        ({"random_db": {"n": 5, "length": 20}, "dnc": {"schedule": [1, 2.5]}},
         "dnc: field 'schedule' must hold int values, got float"),
        ({"random_db": {"n": 5, "length": 20}, "l_range": [2]},
         "config: field 'l_range' must hold 2 ints, got 1"),
        ({"random_db": {"n": 5, "length": 20}, "l_range": [2, "9"]},
         "config: field 'l_range' must hold int values, got str"),
        ({"random_db": {"n": 5, "length": 20}, "l_range": 2},
         "config: field 'l_range' must be list, got int"),
        ({"random_db": {"n": 5, "length": 20}, "k": 2, "workers": "2"},
         "config: field 'workers' must be int, got str"),
        ({"random_db": {"n": 5, "length": 20}, "k": 2, "workers": 0}, "workers must be >= 1"),
        ({"random_db": {"n": 5, "length": 20}, "k": 2, "workers": -3}, "workers must be >= 1"),
        ({"random_db": {"n": 5, "length": 20}, "k": 2, "read_length": 0},
         "read length 0 outside [1, 512]"),
        ({"random_db": {"n": 5, "length": 20}, "k": 2, "read_length": 600},
         "read length 600 outside [1, 512]"),
        ({"random_db": {"n": 5, "length": 20}, "r_grid": [100, 100]},
         "r_grid must be strictly increasing and positive"),
        ({"random_db": {"n": 5, "length": 20}, "delta": 1.5}, "delta must be in (0, 1)"),
        ({"k": 2}, "config needs either db_fasta or random_db"),
        ({"random_db": {"n": 5, "length": 20}, "foo": 1},
         "ExperimentConfig.__init__() got an unexpected keyword argument 'foo'"),
    ], ids=["no_n", "no_length", "string_length", "list_random_db", "list", "not_json",
            "string_read_length", "string_db_seed", "float_k", "string_alpha", "int_db_fasta",
            "string_r_grid", "int_r_grid", "list_dnc", "string_block_size", "null_tau",
            "float_schedule", "short_l_range", "string_l_range", "int_l_range",
            "string_workers", "zero_workers", "negative_workers", "zero_read_length",
            "long_read_length", "repeated_r_grid", "delta_above_1", "no_database",
            "unknown_field"])
    def test_malformed_experiment_config_exits_2(self, tmp_path, capsys, config, why):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"invalid config: {why.format(cfg=cfg)}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which,config,why", [
        ("error-vs-reads", {"random_db": {"n": 5, "length": 20}, "k": 0},
         "k must be in 1..5, got 0"),
        ("error-vs-reads", {"random_db": {"n": 5, "length": 20}, "k": 6},
         "k must be in 1..5, got 6"),
        ("error-vs-reads", {"db_fasta": "{db}", "k": 3}, "k must be in 1..2, got 3"),
        ("error-vs-reads", {"random_db": {"n": 5, "length": 20}, "k": 2, "alpha": -1},
         "alpha must be >= 0"),
        ("error-vs-reads", {"random_db": {"n": 0, "length": 20}},
         "n and length must be >= 1"),
        ("error-vs-reads", {"db_fasta": "{db}", "k": 2, "read_length": 30},
         "species 1 ('a'): read length exceeds sequence length by 22 > 12"),
        ("ident-scan", {"random_db": {"n": 5, "length": 20}, "l_range": [5, 3]},
         "bad read-length range [5, 3]"),
        ("ident-scan", {"random_db": {"n": 5, "length": 20}, "l_range": [0, 3]},
         "bad read-length range [0, 3]"),
        ("ident-scan", {"random_db": {"n": 5, "length": 0}}, "n and length must be >= 1"),
        ("ident-scan", {"db_fasta": "{db}.missing"}, "No such file or directory"),
        ("ident-scan", {"random_db": {"n": 5, "length": 20}, "workers": "2"},
         "config: field 'workers' must be int, got str"),
        ("ident-scan", {"random_db": {"n": 5, "length": 20}, "read_length": 0},
         "read length 0 outside [1, 512]"),
    ], ids=["zero_k", "k_above_n", "k_above_fasta_n", "negative_alpha", "zero_n",
            "tail_past_cap", "reversed_l_range", "zero_l_range", "zero_length",
            "missing_fasta", "string_workers", "zero_read_length"])
    def test_config_refused_before_output_exits_2(self, tmp_path, capsys, which, config,
                                                  why):
        # the config's fields are checked as it is read; what they ask of the
        # database (k within N, a read-length range) by the runner that uses
        # them, before it makes the output directory
        db = tmp_path / "db.fasta"
        db.write_text(">a\nACGTACGT\n>b\nTTGACCAG\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config).replace("{db}", str(db)))
        assert run("experiment", which, "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "invalid config: " in err and why in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_ident_scan_ignores_k(self, tmp_path):
        # ident-scan reads no k, so the default k = 20 does not bound --n
        assert run("experiment", "ident-scan", "--n", "10",
                   "--out-dir", str(tmp_path / "scan")) == 0
        assert (tmp_path / "scan" / "scan.json").exists()

    @pytest.mark.parametrize("value", ["2", "2:x", "2:5:7", ""])
    def test_bad_l_range_flag_exits_2_naming_it(self, pipeline_dir, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run("identifiability", "--db", str(pipeline_dir / "db.fasta"),
                "--L-range", value, "--out", str(pipeline_dir / "x.json"))
        assert exc.value.code == 2
        assert f"argument --L-range: expected LO:HI, e.g. 2:10, got {value!r}" in \
            capsys.readouterr().err
        assert not (pipeline_dir / "x.json").exists()

    @pytest.mark.parametrize("total,why", [
        (5, "counts sum to 3, not to the total 5"),
        (0, "total read count 0 is below 1"),
    ], ids=["sum_differs", "total_below_1"])
    def test_counts_total_mismatch_exits_2_naming_file(self, pipeline_dir, tmp_path, capsys,
                                                       total, why):
        counts = tmp_path / "counts.tsv"
        counts.write_text("#" + json.dumps({"read_length": 8, "total": total})
                          + "\nACGTACGT\t1\nCCGTACGT\t2\n")
        assert run("reconstruct", "--matrix", str(pipeline_dir / "matrix.bin"),
                   "--reads", str(counts), "--out", str(tmp_path / "est.json")) == 2
        err = capsys.readouterr().err
        assert f"error: {counts}: {why}" in err and "Traceback" not in err
        assert not (tmp_path / "est.json").exists()

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

    def test_null_schedule_accepted(self, tmp_path):
        # a saved report's params hold "schedule": null, the default
        cfg = self._write_cfg(tmp_path, dnc={"block_size": 8, "schedule": None})
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")) == 0

    def test_config_output_dir_used_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self._write_cfg(tmp_path, l_range=[2, 4], output_dir="cfgout")
        assert run("experiment", "ident-scan", "--config", str(cfg)) == 0
        assert (tmp_path / "cfgout" / "scan.json").exists()
        assert not (tmp_path / "out").exists()

    def test_failed_trials_exit_3_and_are_recorded(self, tmp_path, monkeypatch, capsys):
        # every trial at R = 2000 fails in its solve; those at 10000 do not
        drawn = []
        real_simulate, real_dnc = experiments.simulate_reads, experiments.divide_and_conquer

        def simulate(A, x, n_reads, seed):
            drawn.append(n_reads)
            return real_simulate(A, x, n_reads, seed)

        def dnc(A, y, params):
            if drawn[-1] == 2000:
                raise RuntimeError("solver failed")
            return real_dnc(A, y, params)
        monkeypatch.setattr(experiments, "simulate_reads", simulate)
        monkeypatch.setattr(experiments, "divide_and_conquer", dnc)
        out = tmp_path / "out"
        assert run("experiment", "error-vs-reads", "--config", str(self._write_cfg(tmp_path)),
                   "--out-dir", str(out)) == 3
        assert "3 trials failed; summary still written" in capsys.readouterr().err
        with open(out / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        metrics = experiments.TRIAL_FIELDS[5:]
        assert [(r["n_reads"], r["failed"]) for r in rows] == \
            [("2000", "1")] * 3 + [("10000", "0")] * 3
        assert all(r[m] == "" for r in rows[:3] for m in metrics)
        assert all(r[m] != "" for r in rows[3:] for m in metrics)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_failed"] == 3
        assert [(s["trials_ok"], s["l2_mean"] == "") for s in summary["summary"]] == \
            [(0, True), (3, False)]

    def test_flag_overrides_config(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "o"
        assert run("experiment", "error-vs-reads", "--config", str(cfg),
                   "--seed", "99", "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 99
