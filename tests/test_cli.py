import argparse
import csv
import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from distillab import cli, distill, grid, metrics, runs
from distillab.cli import build_parser, main
from distillab.data import load_dataset, resolve_dataset, save_dataset
from distillab.distill import TrainConfig, evaluate_model
from distillab.runs import dataset_from_desc, path_dataset
from distillab.runstore import (emit_report, load_array, load_checkpoint, load_eval_dump,
                                read_manifest, save_array, save_eval_dump, sha256_file)

from oracles import read_metrics_csv


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


@pytest.mark.parametrize("argv", [["--strategy", "mixup", "--pad", "7", "--n-holes", "3"],
                                  ["--strategy", "none", "--no-size-jitter"]])
@pytest.mark.parametrize("command", ["train-teacher", "distill"])
def test_strategy_flag_the_strategy_does_not_take_is_an_error(work, tmp_path, capsys, command, argv):
    out = tmp_path / "run"
    teacher = ["--teacher", str(work["teacher"])] if command == "distill" else []
    assert main([command, "--seed", "3", "--dataset", str(work["data"]), "--out", str(out),
                 "--arch", "student-mlp", "--epochs", "1", *teacher, *argv]) == 1
    err = capsys.readouterr().err
    names = ["n_holes", "pad"] if "mixup" in argv else ["size_jitter"]
    assert f"does not take params {names}" in err
    assert not out.exists()


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
    rerun = read_metrics_csv(out / "reports" / "metrics.csv")
    original = read_metrics_csv(work["student"] / "reports" / "metrics.csv")
    assert rerun == original


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("run", ["teacher", "student"])
def test_replay_writes_the_run_directory_byte_for_byte(work, tmp_path, run):
    out = tmp_path / "rerun"
    assert main(["evaluate", "--from-manifest", str(work[run] / "manifest.json"),
                 "--out", str(out)]) == 0
    assert _tree(out) == _tree(work[run])


def _tamper(src, dst, name):
    """Copy a run and flip the last byte of one manifest entry's file, rewriting its
    hash so that verification alone passes."""
    shutil.copytree(src, dst)
    doc = json.loads((dst / "manifest.json").read_text())
    target = dst / doc["files"][name]["path"]
    data = bytearray(target.read_bytes())
    data[-1] ^= 1
    target.write_bytes(bytes(data))
    doc["files"][name]["sha256"] = sha256_file(target)
    (dst / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    read_manifest(dst / "manifest.json", verify=True)


def test_replay_checks_every_report_byte(work, tmp_path, capsys):
    _tamper(work["teacher"], tmp_path / "run", "reports/reliability")
    assert main(["evaluate", "--from-manifest", str(tmp_path / "run" / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    assert capsys.readouterr().err == "error: reports/reliability differs from manifest\n"


def test_replay_catches_a_changed_teacher_copy(work, tmp_path, capsys):
    # the copy itself is carried into the replay as recorded, so the first file to
    # differ is the student checkpoint retrained against it; the output bias moves
    # every soft target (a weight of a dead hidden unit would move none)
    param = sorted((work["student"] / "teacher").glob("param-*.bias.arr"))[-1]
    _tamper(work["student"], tmp_path / "run", f"teacher/{param.name}")
    assert main(["evaluate", "--from-manifest", str(tmp_path / "run" / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint/param-") and err.endswith(" differs from manifest\n")


def test_replay_accepts_an_aged_manifest(work, tmp_path, capsys):
    # older manifests carried a wall-clock `created` key and a reports/ copy of the embeddings
    run = tmp_path / "run"
    shutil.copytree(work["student"], run)
    shutil.copyfile(run / "dump" / "embeddings.arr", run / "reports" / "embeddings.arr")
    doc = json.loads((run / "manifest.json").read_text())
    doc["created"] = "2024-01-01T00:00:00"
    doc["files"]["reports/embeddings"] = {"path": "reports/embeddings.arr",
                                          "sha256": sha256_file(run / "reports" / "embeddings.arr")}
    (run / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 0
    assert "reproduced" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [[], {"run_id": "r", "role": "teacher", "config": {},
                                     "dataset": {}, "files": {"w": {"sha256": "ab"}}}])
def test_replay_of_a_wrong_shape_manifest_is_a_format_error(tmp_path, capsys, doc):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    assert main(["evaluate", "--from-manifest", str(manifest),
                 "--out", str(tmp_path / "rerun")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: FormatError: {manifest}: ")


@pytest.mark.parametrize("section, key", [("config", "train"), ("config", "arch"),
                                          ("dataset", "train")])
def test_replay_of_a_manifest_missing_a_record_is_a_format_error(work, tmp_path, capsys,
                                                                 section, key):
    run = tmp_path / "run"
    shutil.copytree(work["teacher"], run)
    doc = json.loads((run / "manifest.json").read_text())
    del doc[section][key]
    (run / "manifest.json").write_text(json.dumps(doc))
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: FormatError: {run / 'manifest.json'}: ")
    assert f"{section}.{key}" in err


@pytest.mark.parametrize("section, key, value", [("config", "train", {"bogus": 1}),
                                                 ("config", "train", []),
                                                 ("dataset", "train", {}),
                                                 ("dataset", "eval", {"kind": "path"}),
                                                 # a generator parameter that no longer exists
                                                 ("dataset", "train", {
                                                     "kind": "synthetic", "digest": "",
                                                     "params": {"seed": 0, "n_classes": 2,
                                                                "per_class": 2,
                                                                "contrast": 0.7}})])
def test_replay_of_a_malformed_record_is_a_format_error(work, tmp_path, capsys, section, key,
                                                        value):
    run = tmp_path / "run"
    shutil.copytree(work["teacher"], run)
    doc = json.loads((run / "manifest.json").read_text())
    doc[section][key] = value
    (run / "manifest.json").write_text(json.dumps(doc))
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: FormatError: {run / 'manifest.json'}: malformed {section}.{key} ")


def test_parser_is_built_once_and_keeps_no_flag_between_calls(monkeypatch):
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setattr(cli, "_cmd_report", lambda args: seen.append(vars(args)) or 0)
    assert main(["report", "--dump", "d", "--out", "o", "--reports", "ece"]) == 0
    assert main(["report", "--dump", "d2", "--out", "o2"]) == 0
    assert seen[0]["reports"] == "ece"
    assert seen[1] == {"command": "report", "dump": "d2", "out": "o2", "reports": "all"}


def test_replay_refuses_to_overwrite_its_own_run(work, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(work["student"], run)
    before = _tree(run)
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(run)]) == 1
    assert "cannot overwrite the run it replays" in capsys.readouterr().err
    assert _tree(run) == before


def test_evaluate_from_manifest_checks_checkpoint_bytes(work, tmp_path, capsys):
    # a stored parameter that no longer matches what its recorded config trains,
    # with the manifest hash rewritten so that verification alone passes
    run = tmp_path / "run"
    shutil.copytree(work["teacher"], run)
    param = sorted((run / "checkpoint").glob("param-*.arr"))[0]
    arr = load_array(param)
    arr.flat[0] += 1
    save_array(arr, param)
    doc = json.loads((run / "manifest.json").read_text())
    doc["files"][f"checkpoint/{param.name}"]["sha256"] = sha256_file(param)
    (run / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    read_manifest(run / "manifest.json", verify=True)
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    captured = capsys.readouterr()
    assert f"checkpoint/{param.name} differs" in captured.err
    assert "reproduced" not in captured.out


def test_run_directories_hold_one_copy_of_each_artifact(work):
    # a student's teacher/ is the one deliberate copy: it keeps the run self-contained
    for run in (work["teacher"], work["student"]):
        seen = {}
        for p in sorted(run.rglob("*")):
            if p.is_file() and p.relative_to(run).parts[0] != "teacher":
                content = p.read_bytes()
                assert content not in seen, f"{p} repeats {seen.get(content)}"
                seen[content] = p


# each command that took --t-eval or --bins, with the flags it needs otherwise
PROTOCOL_COMMANDS = {
    "train-teacher": ["--seed", "0", "--dataset", "d", "--out", "o"],
    "distill": ["--seed", "0", "--dataset", "d", "--teacher", "t", "--out", "o"],
    "evaluate": ["--checkpoint", "c", "--dataset", "d", "--out", "o"],
    "report": ["--dump", "d", "--out", "o"],
    "matrix": ["--seed", "0", "--out", "o"],
}


@pytest.mark.parametrize("flag, value", [("--t-eval", "1.0"), ("--bins", "15")])
@pytest.mark.parametrize("command", sorted(PROTOCOL_COMMANDS))
def test_the_evaluation_protocol_is_no_flag(tmp_path, monkeypatch, capsys, command, flag,
                                           value):
    # every run is evaluated at T = 1 with 15 ECE bins; no command takes either value
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert flag not in sub.choices[command].format_help()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *PROTOCOL_COMMANDS[command], flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [("n_bins", 10), ("t_eval", 2.0)])
def test_a_replay_refuses_a_manifest_of_another_protocol(work, tmp_path, monkeypatch, capsys,
                                                         key, value):
    # a run written at another protocol: its dump or reports rewritten at that T or bin
    # count and every hash with them, so the manifest verifies and a replay at the
    # recorded values would reproduce it
    run = tmp_path / "run"
    shutil.copytree(work["teacher"], run)
    if key == "t_eval":
        dump = evaluate_model(load_checkpoint(run / "checkpoint"), load_dataset(work["data"]),
                              t_eval=value)
        save_eval_dump(dump, run / "dump")
    else:
        dump = load_eval_dump(run / "dump")
        ece = metrics.ece
        monkeypatch.setattr(metrics, "ece", lambda d, n_bins=value: ece(d, value))
    emit_report(dump, run / "reports")
    doc = json.loads((run / "manifest.json").read_text())
    doc["config"][key] = value
    doc["metrics"]["eval"] = metrics.summary_metrics(dump)
    for ref in doc["files"].values():
        ref["sha256"] = sha256_file(run / ref["path"])
    (run / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    monkeypatch.undo()
    read_manifest(run / "manifest.json", verify=True)
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    want = {"n_bins": 15, "t_eval": 1.0}[key]
    assert capsys.readouterr().err == (f"error: FormatError: {run / 'manifest.json'}: "
                                       f"config.{key} is {value!r}, not {want!r}\n")
    assert not (tmp_path / "rerun").exists()


@pytest.mark.parametrize("extra", [["--checkpoint", "/nonexistent"], ["--dataset", "/nonexistent"],
                                   ["--checkpoint", "/nonexistent", "--dataset", "/nonexistent"]])
def test_evaluate_from_manifest_rejects_flags_it_would_ignore(work, tmp_path, capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--from-manifest", str(work["teacher"] / "manifest.json"),
              "--out", str(tmp_path / "rerun"), *extra])
    assert exc.value.code == 2
    assert extra[0] in capsys.readouterr().err
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


def test_report_on_a_dump_whose_labels_do_not_fit_names_the_dump(work, tmp_path, capsys):
    dump = tmp_path / "dump"
    shutil.copytree(work["student"] / "dump", dump)
    save_array(load_array(dump / "labels.arr")[:-1], dump / "labels.arr")
    assert main(["report", "--dump", str(dump), "--out", str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: FormatError: {dump / 'labels.arr'}: true_labels shape")


def test_bad_dataset_path_reports_error(tmp_path, capsys):
    code = main(["train-teacher", "--seed", "0", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_relative_dataset_path_replays_from_another_directory(tmp_path, monkeypatch, capsys):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.chdir(home)
    assert main(["synth", "--seed", "3", "--out", "data", "--classes", "2",
                 "--per-class", "10", "--side", "6"]) == 0
    assert main(["train-teacher", "--seed", "1", "--dataset", "data", "--eval-dataset", "data",
                 "--out", "run", "--arch", "student-mlp", "--epochs", "1", "--batch-size", "8"]) == 0
    manifest = home / "run" / "manifest.json"
    m = read_manifest(manifest)
    assert m.dataset["train"]["spec"] == str(home / "data")
    assert m.dataset["eval"]["spec"] == str(home / "data")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["evaluate", "--from-manifest", str(manifest), "--out", "rerun"]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_dataset_descriptor_stores_both_idx_paths_absolute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "img.idx").write_bytes(struct.pack(">IIII", 0x803, 2, 3, 3) + bytes(range(18)))
    (tmp_path / "lbl.idx").write_bytes(struct.pack(">II", 0x801, 2) + bytes([1, 7]))
    ds, desc = path_dataset("img.idx,lbl.idx")
    assert ds.digest() == resolve_dataset("img.idx,lbl.idx").digest()
    assert desc["spec"] == f"{tmp_path / 'img.idx'},{tmp_path / 'lbl.idx'}"
    # a descriptor written with relative paths still replays from its own directory
    old = dict(desc, spec="img.idx,lbl.idx")
    assert dataset_from_desc(old).digest() == ds.digest()
    monkeypatch.chdir(tmp_path.parent)
    assert dataset_from_desc(desc).digest() == ds.digest()


MINI_GRID = ("--teacher-arch", "student-mlp", "--student-arch", "student-mlp", "--epochs", "1",
             "--student-epochs", "1", "--batch-size", "16", "--temperature", "4")


@pytest.fixture(scope="module")
def grid_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("grid") / "data"
    assert main(["synth", "--seed", "21", "--out", str(data), "--classes", "2",
                 "--per-class", "40", "--side", "6", "--difficulty", "0.3"]) == 0
    return data


def _mini_grid_argv(data, out, *extra):
    return ["matrix", "--seed", "5", "--dataset", str(data), "--out", str(out), *MINI_GRID, *extra]


def _mini_grid(data, out, *extra):
    return main(_mini_grid_argv(data, out, *extra))


def test_matrix_mini_grid_end_to_end(grid_data, tmp_path, capsys):
    out = tmp_path / "grid"
    assert _mini_grid(grid_data, out) == 0
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


def test_every_grid_manifest_records_the_evaluation_protocol(grid_data, tmp_path):
    out = tmp_path / "grid"
    assert _mini_grid(grid_data, out) == 0
    manifests = sorted(out.glob("*/*/manifest.json"))
    assert len(manifests) == 20
    for path in manifests:
        config = read_manifest(path, verify=True).config
        assert (config["t_eval"], config["n_bins"]) == (distill.T_EVAL, metrics.N_BINS)
        assert '"n_bins": 15,' in path.read_text() and '"t_eval": 1.0' in path.read_text()


@pytest.mark.parametrize("human", [True, False], ids=["human-labels", "no-human-labels"])
def test_grid_tables_are_a_function_of_the_manifests(grid_data, tmp_path, capsys, human):
    data = grid_data
    if not human:  # every human_kld is nan, and must come back as nan from manifest JSON
        data = tmp_path / "data"
        save_dataset(dataclasses.replace(load_dataset(grid_data), human_probs=None), data)
    out = tmp_path / "grid"
    assert _mini_grid(data, out) == 0
    trends = [line for line in capsys.readouterr().out.splitlines() if line.startswith("trend:")]
    tables = {name: (out / name).read_bytes() for name in ("matrix_metrics.csv", "trends.txt")}
    # leave only the 20 manifests
    for name in tables:
        (out / name).unlink()
    for path in list(out.glob("*/*/*")):
        if path.name != "manifest.json":
            shutil.rmtree(path)
    assert [path.name for path in out.rglob("*") if path.is_file()] == ["manifest.json"] * 20
    grid.write_tables(out, grid.plan(build_parser().parse_args(_mini_grid_argv(data, out))))
    assert {name: (out / name).read_bytes() for name in tables} == tables
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("trend:")] \
        == trends
    with open(out / "matrix_metrics.csv", newline="", encoding="utf-8") as fh:
        human_kld = [row["human_kld"] for row in csv.DictReader(fh)]
    assert len(human_kld) == 15 and all((v == "nan") is not human for v in human_kld)


def test_grid_plan_layout(tmp_path):
    plan = grid.plan(build_parser().parse_args(["matrix", "--seed", "0", "--out", str(tmp_path),
                                                "--student-arch", "student-cnn"]))
    strategies = ("none", "standard", "cutout", "mixup", "cutmix")
    arms = ("teacher-aug", "student-aug", "both")
    cells = [(strat, arm) for strat in strategies for arm in arms]
    assert [run.out.relative_to(tmp_path).as_posix() for run in plan] == \
        [f"teachers/{strat}" for strat in strategies] + [f"cells/{s}-{a}" for s, a in cells]
    assert [run.teacher for run in plan[:5]] == [None] * 5
    assert [run.teacher.relative_to(tmp_path).as_posix() for run in plan[5:]] == \
        [f"teachers/{'none' if arm == 'student-aug' else strat}" for strat, arm in cells]
    assert [run.cfg.strategy.kind for run in plan] == \
        list(strategies) + ["none" if arm == "teacher-aug" else strat for strat, arm in cells]
    seeds = np.random.SeedSequence(0).generate_state(22)
    assert [run.cfg.seed for run in plan] == [int(seeds[2 + j]) for j in range(20)]
    assert [run.cfg.epochs for run in plan] == [15] * 20
    assert [run.cfg.lr for run in plan] == [0.08] * 5 + [0.02] * 15
    assert [run.arch for run in plan] == ["teacher-cnn"] * 5 + ["student-cnn"] * 15
    assert [run.run_id for run in plan] == \
        [f"teacher-{strat}" for strat in strategies] + [f"cell-{s}-{a}" for s, a in cells]


def _grid_on_cpus(monkeypatch, cpus, data, out, *extra, threads=1):
    """Run the mini grid as if `cpus` CPUs were usable and the process ran `threads` OS
    threads; returns (exit code, pids forked)."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(grid, "_os_threads", lambda: threads)
    monkeypatch.setattr(os, "fork", fork)
    rc = _mini_grid(data, out, *extra)
    monkeypatch.undo()
    # no worker outlives the command
    assert multiprocessing.active_children() == []
    for pid in forked:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    return rc, forked


def test_grid_bytes_do_not_depend_on_the_worker_count(grid_data, tmp_path, monkeypatch):
    trees = {}
    for cpus in (1, 2, 3):
        rc, forked = _grid_on_cpus(monkeypatch, cpus, grid_data, tmp_path / str(cpus))
        assert rc == 0
        # one worker per CPU beyond the one that trains teachers and writes; none on one
        assert len(forked) == cpus - 1
        trees[cpus] = _tree(tmp_path / str(cpus))
    assert sum(path.name == "manifest.json" for path in trees[1]) == 20
    assert trees[1] == trees[2] == trees[3]


def test_a_grid_loads_each_teacher_and_its_logit_table_once(grid_data, tmp_path, monkeypatch):
    from distillab import distill, runstore

    loads, tables = [], []
    load_checkpoint, logit_table = runstore.load_checkpoint, distill._logit_table
    monkeypatch.setattr(runstore, "load_checkpoint",
                        lambda path: loads.append(path) or load_checkpoint(path))
    monkeypatch.setattr(distill, "_logit_table",
                        lambda *args: tables.append(args) or logit_table(*args))
    rc, _ = _grid_on_cpus(monkeypatch, 1, grid_data, tmp_path / "out")
    assert rc == 0
    # 5 teachers; the none teacher's 3 clean students and each teacher-aug cell of
    # the 4 others read 5 tables
    assert sorted(path.parent.name for path in loads) == sorted(cli.STRATEGY_KINDS)
    assert len(tables) == 5


def test_a_multi_threaded_process_fits_the_grid_itself(grid_data, tmp_path, monkeypatch):
    # a multi-threaded BLAS already spreads each fit over the CPUs
    rc, forked = _grid_on_cpus(monkeypatch, 2, grid_data, tmp_path / "out", threads=2)
    assert rc == 0 and forked == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
def test_the_thread_probe_counts_the_threads_of_this_process():
    before = grid._os_threads()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert grid._os_threads() == before + 1
    finally:
        stop.set()
        thread.join(timeout=10)


def _failing_cell(plan, failing):
    """A `train_student` that raises for the cell at plan index `failing`."""
    train_student = runs.train_student

    def fail_one_cell(cfg, *args, **kwargs):
        if cfg.seed == plan[failing].cfg.seed:
            raise RuntimeError("cell failed")
        return train_student(cfg, *args, **kwargs)

    return fail_one_cell


# --student-lr 1e30 diverges on purpose: the student's Dense matrix products overflow to
# inf, then to nan, before the loss check raises
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning:distillab.nn")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning:distillab.nn")
def test_a_cell_failing_in_a_worker_fails_the_grid_as_in_process(grid_data, tmp_path,
                                                                 monkeypatch, capsys):
    plan = grid.plan(build_parser().parse_args(_mini_grid_argv(grid_data, tmp_path)))
    # standard-both.  The none teacher's cells, cutout-student-aug among them, are
    # submitted before it, so one worker has written cells later in plan order by the
    # time the grid fails on it.
    failing = 10
    cases = {"every cell": (("--student-lr", "1e30"), None,
                            "loss diverged (non-finite logits) at epoch 0, batch 1", 5),
             "a middle cell": ((), _failing_cell(plan, failing), "cell failed", failing)}
    for case, (extra, patch, error, sealed) in cases.items():
        seen = {}
        for cpus in (1, 2):
            out = tmp_path / case.replace(" ", "-") / str(cpus)
            if patch:
                monkeypatch.setattr(runs, "train_student", patch)
            rc, forked = _grid_on_cpus(monkeypatch, cpus, grid_data, out, *extra)
            assert rc == 1 and len(forked) == cpus - 1
            captured = capsys.readouterr()
            errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
            seen[cpus] = (captured.out, errors, _tree(out))
        assert seen[1] == seen[2], case
        _, errors, tree = seen[1]
        assert errors == [f"error: RuntimeError: {error}"]
        # the runs before the failing one in plan order are sealed and verify; no other
        # run has a file
        sealed_runs = [run.out.relative_to(tmp_path).parts for run in plan[:sealed]]
        assert sorted({path.parts[:2] for path in tree}) == sorted(sealed_runs)
        for run in sealed_runs:
            read_manifest(out.joinpath(*run, "manifest.json"), verify=True)


def test_a_failed_grid_run_again_leaves_no_run_of_the_earlier_grid(grid_data, tmp_path,
                                                                    monkeypatch, capsys):
    old = tmp_path / "old"
    assert _grid_on_cpus(monkeypatch, 1, grid_data, old, "--seed", "6")[0] == 0
    capsys.readouterr()
    out = tmp_path / "new"
    plan = grid.plan(build_parser().parse_args(_mini_grid_argv(grid_data, out)))
    failing = 10
    seen = {}
    for cpus in (1, 2):
        shutil.copytree(old, out)
        monkeypatch.setattr(runs, "train_student", _failing_cell(plan, failing))
        rc, forked = _grid_on_cpus(monkeypatch, cpus, grid_data, out)
        assert rc == 1 and len(forked) == cpus - 1
        seen[cpus] = (capsys.readouterr().out, _tree(out))
        shutil.move(out, tmp_path / str(cpus))
    assert seen[1] == seen[2]
    # only the runs this grid sealed; no table, and no run left from the earlier grid
    tree = seen[1][1]
    sealed_runs = [run.out.relative_to(out).parts for run in plan[:failing]]
    assert sorted({path.parts[:2] for path in tree}) == sorted(sealed_runs)
    for run in plan[:failing]:
        m = read_manifest(tmp_path / "1" / run.out.relative_to(out) / "manifest.json", verify=True)
        assert m.config["train"]["seed"] == run.cfg.seed


def test_a_run_written_again_loses_its_old_manifest_first(work, tmp_path, monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(work["student"], out)

    def crash(*args, **kwargs):
        raise OSError("crashed before the seal")

    monkeypatch.setattr(runs, "seal", crash)
    assert main(["distill", "--seed", "3", "--dataset", str(work["data"]),
                 "--teacher", str(work["teacher"]), "--out", str(out),
                 "--arch", "student-mlp", "--epochs", "1", "--batch-size", "8"]) == 1
    assert (out / "checkpoint" / "network.json").exists()
    assert not (out / "manifest.json").exists()


def test_manifest_paths_do_not_depend_on_how_out_is_spelled(work, tmp_path, monkeypatch):
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "real")
    monkeypatch.chdir(tmp_path)
    for out in ("relative-run", str(tmp_path / "link" / "run")):
        assert main(["distill", "--seed", "2", "--dataset", str(work["data"]),
                     "--teacher", str(work["teacher"]), "--out", out,
                     "--eval-dataset", str(work["data"]), "--arch", "student-mlp",
                     "--epochs", "2", "--batch-size", "8", "--temperature", "4"]) == 0
        assert (tmp_path / out / "manifest.json").read_bytes() == \
            (work["student"] / "manifest.json").read_bytes()


@pytest.mark.parametrize("teacher", ["", "teacher"], ids=["run", "teacher-copy"])
def test_a_student_cannot_be_written_over_its_teacher(work, tmp_path, capsys, teacher):
    # the run directory itself resolves to its checkpoint/; a student run's teacher/
    # is a checkpoint too, and each lies under a directory the new run would clear
    run = tmp_path / "run"
    shutil.copytree(work["student"], run)
    before = _tree(run)
    assert main(["distill", "--seed", "3", "--dataset", str(work["data"]),
                 "--teacher", str(run / teacher), "--out", str(run),
                 "--arch", "student-mlp", "--epochs", "1", "--batch-size", "8"]) == 1
    err = capsys.readouterr().err
    assert f"teacher checkpoint {run / (teacher or 'checkpoint')} lies under" in err
    assert f"the run written to {run} clears" in err
    assert _tree(run) == before


@pytest.mark.parametrize("teacher, out", [("ckpt", "ckpt"), ("run", "run/checkpoint")],
                         ids=["bare-checkpoint", "run-checkpoint"])
def test_a_student_cannot_be_written_into_its_teacher_checkpoint(work, tmp_path, capsys,
                                                                 teacher, out):
    # the writer would put the student's checkpoint/ into the teacher's, then copy both
    shutil.copytree(work["teacher"] / "checkpoint", tmp_path / "ckpt")
    shutil.copytree(work["teacher"], tmp_path / "run")
    before = _tree(tmp_path)
    assert main(["distill", "--seed", "3", "--dataset", str(work["data"]),
                 "--teacher", str(tmp_path / teacher), "--out", str(tmp_path / out),
                 "--arch", "student-mlp", "--epochs", "1", "--batch-size", "8"]) == 1
    ckpt = tmp_path / "ckpt" if teacher == "ckpt" else tmp_path / "run" / "checkpoint"
    assert f"{tmp_path / out} lies in teacher checkpoint {ckpt}" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("run, under", [("teacher", "teacher"), ("student", "teacher"),
                                        ("teacher", "reports/old")])
def test_a_replay_cannot_clear_the_run_it_replays(work, tmp_path, capsys, run, under):
    # the replayed run lies in a directory that the writer of the run in --out clears
    out = tmp_path / "runs"
    replayed = out / under
    shutil.copytree(work[run], replayed)
    before = _tree(out)
    assert main(["evaluate", "--from-manifest", str(replayed / "manifest.json"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"replayed run {replayed} lies under {out / under.split('/')[0]}" in err
    assert f"the run written to {out} clears" in err
    assert _tree(out) == before
    assert sorted(out.iterdir()) == [out / under.split("/")[0]]


def test_a_run_refuses_a_data_set_that_its_writer_clears(work, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(work["teacher"], run)
    evalset = run / "reports" / "ev"
    shutil.copytree(work["data"], evalset)
    before = _tree(tmp_path)
    assert main(["train-teacher", "--seed", "1", "--dataset", str(work["data"]),
                 "--eval-dataset", str(evalset), "--out", str(run), "--arch", "student-mlp",
                 "--epochs", "1", "--batch-size", "8"]) == 1
    assert (f"data set {evalset.resolve()} lies under {run / 'reports'}, which the run "
            f"written to {run} clears") in capsys.readouterr().err
    assert _tree(tmp_path) == before


def test_a_replay_refuses_a_data_set_that_its_writer_clears(work, tmp_path, capsys):
    # the run reads its eval set from the reports/ of the directory it is replayed into
    run, rerun = tmp_path / "run", tmp_path / "rerun"
    evalset = rerun / "reports" / "ev"
    shutil.copytree(work["data"], evalset)
    assert main(["train-teacher", "--seed", "1", "--dataset", str(work["data"]),
                 "--eval-dataset", str(evalset), "--out", str(run), "--arch", "student-mlp",
                 "--epochs", "1", "--batch-size", "8"]) == 0
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(rerun)]) == 1
    assert (f"data set {evalset.resolve()} lies under {rerun / 'reports'}, which the run "
            f"written to {rerun} clears") in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("under", ["dump", "reports"])
def test_evaluate_refuses_a_data_set_that_it_clears(work, tmp_path, capsys, under):
    out = tmp_path / "eval"
    argv = ["evaluate", "--checkpoint", str(work["teacher"]), "--out", str(out), "--dataset"]
    assert main([*argv, str(work["data"])]) == 0
    evalset = out / under / "x"
    shutil.copytree(work["data"], evalset)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main([*argv, str(evalset)]) == 1
    assert (f"data set {evalset} lies under {out / under}, which the evaluation written to "
            f"{out} clears") in capsys.readouterr().err
    assert _tree(tmp_path) == before


# without the refusal, --lr 1e30 diverges the first teacher, and the failed grid removes
# the runs it did not seal: teachers/none, with the data set in it
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning:distillab.nn")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning:distillab.nn")
def test_a_grid_refuses_a_data_set_in_one_of_its_runs(grid_data, tmp_path, capsys):
    out = tmp_path / "grid"
    data = out / "teachers" / "none" / "data"
    shutil.copytree(grid_data, data)
    before = _tree(tmp_path)
    assert main(_mini_grid_argv(data, out, "--lr", "1e30")) == 1
    # a split records its parent's path, which is the one the grid read
    assert (f"data set {data.resolve()} lies under {out / 'teachers' / 'none'}, which the "
            f"grid written to {out} clears") in capsys.readouterr().err
    assert _tree(tmp_path) == before


HUMAN_REPORT_FILES = {"kld_matrix.csv", "kld_matrix_scale.csv", "human_confidence_matrix.csv",
                      "human_confidence_matrix_masked.csv"}


def _drop_human_labels(data):
    """Save the dataset at `data` again, without its human label distributions."""
    ds = load_dataset(data)
    save_dataset(dataclasses.replace(ds, human_probs=None), data)


def _run_files(run):
    """Every file under the four directories that a run's writers own."""
    return sorted(p.relative_to(run).as_posix()
                  for name in ("checkpoint", "teacher", "dump", "reports")
                  if (run / name).is_dir() for p in (run / name).iterdir())


def test_a_run_written_again_holds_only_the_new_run(work, tmp_path, capsys):
    evalset = tmp_path / "eval"
    shutil.copytree(work["data"], evalset)
    argv = ["train-teacher", "--seed", "1", "--dataset", str(work["data"]),
            "--eval-dataset", str(evalset), "--arch", "student-mlp", "--epochs", "1",
            "--batch-size", "8"]
    out, fresh = tmp_path / "run", tmp_path / "fresh"
    assert main([*argv, "--out", str(out)]) == 0
    assert (out / "dump" / "human_probs.arr").exists()
    assert HUMAN_REPORT_FILES <= {p.name for p in (out / "reports").iterdir()}
    _drop_human_labels(evalset)
    assert main([*argv, "--out", str(out)]) == 0
    assert main([*argv, "--out", str(fresh)]) == 0

    m = read_manifest(out / "manifest.json", verify=True)
    assert math.isnan(m.metrics["eval"]["human_kld"])
    assert not (out / "dump" / "human_probs.arr").exists()
    assert not HUMAN_REPORT_FILES & {p.name for p in (out / "reports").iterdir()}
    assert not HUMAN_REPORT_FILES & {Path(ref["path"]).name for ref in m.files.values()}
    assert _run_files(out) == sorted(ref["path"] for ref in m.files.values())
    assert (out / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()
    assert main(["evaluate", "--from-manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_evaluate_written_again_holds_only_the_new_dump(work, tmp_path):
    evalset = tmp_path / "eval"
    shutil.copytree(work["data"], evalset)
    out = tmp_path / "eval-out"
    argv = ["evaluate", "--checkpoint", str(work["teacher"]), "--dataset", str(evalset),
            "--out", str(out)]
    assert main(argv) == 0
    assert (out / "reports" / "kld_matrix.csv").exists()
    _drop_human_labels(evalset)
    assert main(argv) == 0
    assert not (out / "dump" / "human_probs.arr").exists()
    assert not HUMAN_REPORT_FILES & {p.name for p in (out / "reports").iterdir()}
    assert main(["report", "--dump", str(out / "dump"), "--out", str(tmp_path / "report")]) == 0
    assert not HUMAN_REPORT_FILES & {p.name for p in (tmp_path / "report").iterdir()}


def test_evaluate_into_a_sealed_run_deletes_its_manifest(work, tmp_path):
    # the new dump and reports, of another eval set, would fail the old manifest's hashes
    out = tmp_path / "run"
    shutil.copytree(work["teacher"], out)
    read_manifest(out / "manifest.json", verify=True)
    other = tmp_path / "other-data"
    assert main(["synth", "--seed", "12", "--out", str(other), "--classes", "2",
                 "--per-class", "12", "--side", "6", "--difficulty", "0.2"]) == 0
    assert main(["evaluate", "--checkpoint", str(out), "--dataset", str(other),
                 "--out", str(out)]) == 0
    assert not (out / "manifest.json").exists()
    assert (out / "checkpoint" / "network.json").exists()
    assert (out / "reports" / "metrics.csv").exists()


def test_a_run_written_again_with_another_arch_keeps_no_old_parameter(work, tmp_path):
    out = tmp_path / "run"
    for arch in ("student-cnn", "student-mlp"):
        assert main(["train-teacher", "--seed", "1", "--dataset", str(work["data"]),
                     "--out", str(out), "--arch", arch, "--epochs", "1",
                     "--batch-size", "8"]) == 0
    net = load_checkpoint(out / "checkpoint")
    assert sorted(p.name for p in (out / "checkpoint").glob("param-*")) == \
        sorted(f"param-{key}.arr" for key, _, _, _ in net.param_items())
    m = read_manifest(out / "manifest.json", verify=True)
    assert _run_files(out) == sorted(ref["path"] for ref in m.files.values())


def test_a_cell_fit_hands_back_no_parameters(tmp_path, monkeypatch):
    # the grid's own data sets and their descriptors, so `fit` is what a worker sends
    args = build_parser().parse_args(["matrix", "--seed", "0", "--out", str(tmp_path)])
    fitter = runs.Fitter(*grid.datasets(args))
    fitter(tmp_path / "teacher", TrainConfig(epochs=1), "student-mlp")
    monkeypatch.setattr(grid, "_cell_fitter", fitter)
    fit = grid._fit_cell(grid.Run(tmp_path / "cell", tmp_path / "teacher", TrainConfig(epochs=1),
                                  "student-mlp", "cell-none-both"))
    assert fit.dataset["eval"]["kind"] == "split" and fit.run_id == "cell-none-both"
    params = sum(path.stat().st_size
                 for path in (tmp_path / "cell" / "checkpoint").glob("param-*.arr"))
    assert params > 28_000
    blob = pickle.dumps(fit)
    assert b"numpy" not in blob  # no ndarray, and no numpy scalar either
    assert len(blob) < params / 20


def test_module_entry_point_runs(tmp_path):
    # the subprocess imports the distillab this process imported, with or without
    # PYTHONPATH set outside
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "distillab.cli", "synth", "--seed", "1",
                           "--out", str(tmp_path / "data"), "--classes", "2",
                           "--per-class", "3", "--side", "4"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout == f"wrote 6 samples, 2 classes -> {tmp_path / 'data'}\n"
    assert load_dataset(tmp_path / "data").n_samples == 6

ARCHS = ("teacher-cnn", "student-mlp", "student-cnn")
STRATS = ("none", "standard", "cutout", "mixup", "cutmix")
_TRAIN = {"epochs": (15, int, False, None), "batch_size": (64, int, False, None),
          "lr": (0.08, float, False, None), "momentum": (0.9, float, False, None),
          "weight_decay": (1e-4, float, False, None)}
_STRATEGY = {"strategy": ("none", None, False, STRATS), "pad": (None, int, False, None),
             "n_holes": (None, int, False, None), "hole_size": (None, int, False, None),
             "fill": (None, float, False, None), "no_size_jitter": (False, None, False, None),
             "beta_alpha": (None, float, False, None), "beta_a": (None, float, False, None),
             "beta_b": (None, float, False, None)}
_RUN = {"seed": (None, int, True, None), "dataset": (None, None, True, None),
        "out": (None, None, True, None), "eval_dataset": (None, None, False, None)}
_KD = {"temperature": (20.0, float, False, None), "distill_weight": (0.5, float, False, None)}
# every flag's (default, type, required, choices) as released; the changes since are
# that evaluate's --out became required, that the gradcheck command and synth's
# --contrast and --brightness were removed, and that --t-eval and --bins left the five
# commands that took them (every run is evaluated at T = 1 with 15 ECE bins)
PARSER_SNAPSHOT = {
    "synth": {"seed": (None, int, True, None), "out": (None, None, True, None),
              "classes": (4, int, False, None), "per_class": (500, int, False, None),
              "side": (12, int, False, None), "difficulty": (0.5, float, False, None),
              "channels": (1, int, False, None)},
    "train-teacher": {**_RUN, "arch": ("teacher-cnn", None, False, ARCHS), **_TRAIN, **_STRATEGY},
    "distill": {**_RUN, "teacher": (None, None, True, None),
                "arch": ("student-mlp", None, False, ARCHS), **_KD,
                **_TRAIN, "lr": (0.02, float, False, None), **_STRATEGY},
    "evaluate": {"checkpoint": (None, None, False, None), "dataset": (None, None, False, None),
                 "out": (None, None, True, None), "from_manifest": (None, None, False, None)},
    "report": {"dump": (None, None, True, None), "out": (None, None, True, None),
               "reports": ("all", None, False, None)},
    "matrix": {"seed": (None, int, True, None), "dataset": ("synth", None, False, None),
               "out": (None, None, True, None),
               "teacher_arch": ("teacher-cnn", None, False, ARCHS),
               "student_arch": ("student-mlp", None, False, ARCHS),
               "difficulty": (1.0, float, False, None), **_KD,
               "student_lr": (0.02, float, False, None), "student_epochs": (15, int, False, None),
               **_TRAIN},
}


def test_parser_flags_match_snapshot():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(PARSER_SNAPSHOT)
    for command, parser in sub.choices.items():
        got = {a.dest: (a.default, a.type, a.required, tuple(a.choices) if a.choices else None)
               for a in parser._actions if a.dest != "help"}
        assert got == PARSER_SNAPSHOT[command], command
