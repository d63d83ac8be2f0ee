import subprocess
import sys

import numpy as np
import pytest

from distillab.cli import main
from distillab.data import load_dataset
from distillab.runstore import (load_checkpoint, load_eval_dump, read_manifest,
                                read_matrix_csv, read_metrics_csv)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One tiny synth dataset + teacher run + student run, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--seed", "11", "--out", str(data), "--classes", "2",
                 "--per-class", "12", "--side", "6", "--difficulty", "0.2"]) == 0
    teacher = root / "teacher-run"
    assert main(["train-teacher", "--seed", "1", "--dataset", str(data),
                 "--out", str(teacher), "--eval-dataset", str(data),
                 "--arch", "student-mlp", "--epochs", "2", "--batch-size", "8"]) == 0
    student = root / "student-run"
    assert main(["distill", "--seed", "2", "--dataset", str(data),
                 "--teacher", str(teacher), "--out", str(student),
                 "--eval-dataset", str(data), "--arch", "student-mlp",
                 "--epochs", "2", "--batch-size", "8", "--temperature", "4"]) == 0
    return {"root": root, "data": data, "teacher": teacher, "student": student}


def test_synth_writes_loadable_dataset(work, capsys):
    ds = load_dataset(work["data"])
    assert ds.n_samples == 24 and ds.n_classes == 2
    assert ds.human_probs is not None


def test_missing_required_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "d")])
    assert exc.value.code == 2


def test_teacher_run_is_self_contained(work):
    m = read_manifest(work["teacher"] / "manifest.json", verify=True)
    assert m.role == "teacher"
    assert m.config["arch"] == "student-mlp"
    assert m.dataset["train"]["digest"] == load_dataset(work["data"]).digest()
    net = load_checkpoint(work["teacher"] / "checkpoint")
    assert net.n_outputs == 2
    vals = read_metrics_csv(work["teacher"] / "reports" / "metrics.csv")
    assert vals["accuracy"] == m.metrics["eval"]["accuracy"]


def test_student_run_carries_teacher_copy(work):
    m = read_manifest(work["student"] / "manifest.json", verify=True)
    assert m.role == "student"
    t_inside = load_checkpoint(work["student"] / "teacher")
    t_original = load_checkpoint(work["teacher"] / "checkpoint")
    assert t_inside.params_digest() == t_original.params_digest()
    assert m.config["train"]["temperature"] == 4.0
    assert (work["student"] / "dump" / "probs.arr").exists()


def test_strategy_flags_reach_the_manifest(work, tmp_path):
    out = tmp_path / "aug-run"
    assert main(["train-teacher", "--seed", "3", "--dataset", str(work["data"]),
                 "--out", str(out), "--arch", "student-mlp", "--epochs", "1",
                 "--strategy", "cutout", "--n-holes", "2", "--hole-size", "2",
                 "--no-size-jitter"]) == 0
    m = read_manifest(out / "manifest.json", verify=True)
    strat = m.config["train"]["strategy"]
    assert strat["kind"] == "cutout"
    assert strat["params"]["n_holes"] == 2
    assert strat["params"]["hole_size"] == 2
    assert strat["params"]["size_jitter"] is False


def test_evaluate_checkpoint_writes_dump_and_reports(work, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["evaluate", "--checkpoint", str(work["teacher"]),
                 "--dataset", str(work["data"]), "--out", str(out)]) == 0
    assert "accuracy" in capsys.readouterr().out
    dump = load_eval_dump(out / "dump")
    assert dump.n_samples == 24
    assert (out / "reports" / "reliability.csv").exists()
    assert (out / "reports" / "kld_matrix.csv").exists()


def test_evaluate_from_manifest_reproduces_bitwise(work, tmp_path, capsys):
    out = tmp_path / "rerun"
    assert main(["evaluate", "--from-manifest", str(work["student"] / "manifest.json"),
                 "--out", str(out)]) == 0
    assert "reproduced" in capsys.readouterr().out
    rerun = read_metrics_csv(out / "metrics.csv")
    original = read_metrics_csv(work["student"] / "reports" / "metrics.csv")
    assert rerun == original


def test_evaluate_from_manifest_rejects_zero_bins(work, tmp_path, capsys):
    assert main(["evaluate", "--checkpoint", str(work["teacher"]), "--dataset", str(work["data"]),
                 "--out", str(tmp_path / "direct"), "--bins", "0"]) == 1
    direct = capsys.readouterr().err
    assert "n_bins must be >= 1, got 0" in direct
    assert main(["evaluate", "--from-manifest", str(work["teacher"] / "manifest.json"),
                 "--out", str(tmp_path / "rerun"), "--bins", "0"]) == 1
    assert capsys.readouterr().err == direct


def test_evaluate_from_manifest_rejects_t_eval(work, tmp_path, capsys):
    # the replay takes t_eval from the manifest; a flag it would ignore is refused
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--from-manifest", str(work["teacher"] / "manifest.json"),
              "--out", str(tmp_path / "rerun"), "--t-eval", "3"])
    assert exc.value.code == 2
    assert "--t-eval" in capsys.readouterr().err
    assert not (tmp_path / "rerun").exists()


def test_unknown_architecture_exits_two_before_any_output(tmp_path, capsys):
    out = tmp_path / "grid"
    for argv in (["matrix", "--seed", "0", "--out", str(out), "--teacher-arch", "nope"],
                 ["matrix", "--seed", "0", "--out", str(out), "--student-arch", "nope"],
                 ["train-teacher", "--seed", "0", "--dataset", "synth", "--out", str(out),
                  "--arch", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert not out.exists()


def test_evaluate_argument_combinations(work, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--dataset", str(work["data"]), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--checkpoint", str(work["teacher"])])
    assert exc.value.code == 2


def test_report_from_stored_dump(work, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["report", "--dump", str(work["student"] / "dump"),
                 "--out", str(out), "--reports", "metrics,confusion"]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "confusion_matrix.csv").exists()
    assert not (out / "reliability.csv").exists()


def test_report_unknown_name_fails_cleanly(work, tmp_path, capsys):
    code = main(["report", "--dump", str(work["student"] / "dump"),
                 "--out", str(tmp_path / "rep"), "--reports", "heatmap"])
    assert code == 1
    assert "error: ValueError" in capsys.readouterr().err


def test_bad_dataset_path_reports_error(tmp_path, capsys):
    code = main(["train-teacher", "--seed", "0", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_gradcheck_passes_and_prints_lines(capsys):
    assert main(["gradcheck", "--seed", "0", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "kd_loss" in out
    assert "FAIL" not in out


def test_matrix_mini_grid_end_to_end(tmp_path, capsys):
    data = tmp_path / "grid-data"
    assert main(["synth", "--seed", "21", "--out", str(data), "--classes", "2",
                 "--per-class", "40", "--side", "6", "--difficulty", "0.3"]) == 0
    out = tmp_path / "grid"
    assert main(["matrix", "--seed", "5", "--dataset", str(data), "--out", str(out),
                 "--teacher-arch", "student-mlp", "--student-arch", "student-mlp",
                 "--epochs", "1", "--student-epochs", "1", "--batch-size", "16",
                 "--temperature", "4"]) == 0
    text = capsys.readouterr().out
    assert "matrix complete: 15 cells" in text
    assert "trend:" in text
    table = (out / "matrix_metrics.csv").read_text().strip().splitlines()
    assert len(table) == 16  # header + 15 cells
    assert (out / "trends.txt").exists()
    m = read_manifest(out / "cells" / "mixup-both" / "manifest.json", verify=True)
    assert m.role == "student"
    assert m.config["train"]["strategy"]["kind"] == "mixup"
    assert m.dataset["train"]["kind"] == "split"


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "distillab.cli", "gradcheck",
                           "--seed", "1", "--instances", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "ok" in proc.stdout