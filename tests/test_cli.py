import argparse
import csv
import json
import multiprocessing
import os
import pickle
import shlex
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from distillab import cli, distill, grid, metrics, runs
from distillab.augment import AugmentStrategy
from distillab.cli import build_parser, main
from distillab.data import load_dataset, make_synthetic, resolve_dataset, save_dataset
from distillab.distill import TrainConfig, evaluate_model
from distillab.runs import dataset_from_desc, path_dataset
from distillab.runstore import (emit_report, load_array, load_checkpoint, load_eval_dump,
                                read_manifest, save_array, save_eval_dump, sha256_file)

from oracles import read_metrics_csv, with_human_labels


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One tiny synth dataset, a copy of it with human labels + teacher run + student run
    on that copy, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    synth, data = root / "synth", root / "data"
    assert main(["synth", "--seed", "11", "--out", str(synth), "--classes", "2",
                 "--per-class", "12", "--side", "6", "--difficulty", "0.2"]) == 0
    save_dataset(with_human_labels(load_dataset(synth), seed=11), data)
    teacher = root / "teacher-run"
    assert main(["train-teacher", "--seed", "1", "--dataset", str(data),
                 "--out", str(teacher), "--eval-dataset", str(data),
                 "--arch", "student-mlp", "--epochs", "2", "--batch-size", "8"]) == 0
    student = root / "student-run"
    assert main(["distill", "--seed", "2", "--dataset", str(data),
                 "--teacher", str(teacher), "--out", str(student),
                 "--eval-dataset", str(data), "--arch", "student-mlp",
                 "--epochs", "2", "--batch-size", "8", "--temperature", "4"]) == 0
    return {"root": root, "synth": synth, "data": data, "teacher": teacher, "student": student}


def test_synth_writes_loadable_dataset(work, capsys):
    ds = load_dataset(work["synth"])
    assert ds.n_samples == 24 and ds.n_classes == 2
    assert ds.human_probs is None
    assert not (work["synth"] / "human_probs.arr").exists()


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


def test_strategy_flags_reach_the_manifest(work, tmp_path, capsys):
    # --strategy is the one strategy flag: the manifest records the kind's fixed params,
    # and the run replays at them
    out = tmp_path / "aug-run"
    assert main(["train-teacher", "--seed", "3", "--dataset", str(work["data"]),
                 "--out", str(out), "--eval-dataset", str(work["data"]),
                 "--arch", "student-mlp", "--epochs", "1", "--strategy", "cutout"]) == 0
    m = read_manifest(out / "manifest.json", verify=True)
    assert m.config["train"]["strategy"] == {
        "kind": "cutout",
        "params": {"n_holes": 16, "hole_size": 3, "fill": None, "size_jitter": True}}
    assert main(["evaluate", "--from-manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 0
    assert "reproduced" in capsys.readouterr().out


# each strategy-parameter flag of earlier releases, after the strategy that took it
REMOVED_STRATEGY_FLAGS = [["standard", "--pad", "3"], ["cutout", "--n-holes", "2"],
                          ["cutout", "--hole-size", "2"], ["cutout", "--fill", "0.5"],
                          ["cutout", "--no-size-jitter"], ["mixup", "--beta-alpha", "0.2"],
                          ["cutmix", "--beta-a", "0.5"], ["cutmix", "--beta-b", "2.0"]]


@pytest.mark.parametrize("argv", REMOVED_STRATEGY_FLAGS)
@pytest.mark.parametrize("command", ["train-teacher", "distill"])
def test_strategy_flag_the_strategy_does_not_take_is_an_error(work, tmp_path, monkeypatch,
                                                               capsys, command, argv):
    # every strategy runs at its fixed params, so none takes a parameter flag
    monkeypatch.chdir(tmp_path)
    teacher = ["--teacher", str(work["teacher"])] if command == "distill" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "3", "--dataset", str(work["data"]), "--out", "run",
              "--eval-dataset", str(work["data"]),
              "--arch", "student-mlp", "--epochs", "1", *teacher, "--strategy", *argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train-teacher", "distill"])
def test_a_train_command_without_an_eval_set_is_a_usage_error(work, tmp_path, monkeypatch,
                                                             capsys, command):
    # every run is evaluated, so every run directory holds dump/ and reports/ and replays
    monkeypatch.chdir(tmp_path)
    teacher = ["--teacher", str(work["teacher"])] if command == "distill" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "3", "--dataset", str(work["data"]), "--out", "run",
              "--arch", "student-mlp", "--epochs", "1", *teacher])
    assert exc.value.code == 2
    assert "the following arguments are required: --eval-dataset" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("strategy", [{"kind": "standard", "params": {"pad": 3}},
                                      {"kind": "cutout", "params": {  # in sorted-key order
                                          "fill": None, "hole_size": 3, "n_holes": 16,
                                          "size_jitter": False}},
                                      {"kind": "mixup", "params": {"beta_alpha": 0.2}}])
def test_a_replay_refuses_a_manifest_of_other_strategy_params(work, tmp_path, capsys, strategy):
    # a run of an earlier release that set a strategy-parameter flag
    run = tmp_path / "run"
    shutil.copytree(work["teacher"], run)
    doc = json.loads((run / "manifest.json").read_text())
    doc["config"]["train"]["strategy"] = strategy
    (run / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    # the first field, in key order, at which the params differ from the kind's row
    key, got, want = {"standard": ("pad", 3, 2), "cutout": ("size_jitter", False, True),
                      "mixup": ("beta_alpha", 0.2, 1.0)}[strategy["kind"]]
    assert AugmentStrategy(strategy["kind"]).to_dict()["params"][key] == want
    assert capsys.readouterr().err == (
        f"error: FormatError: {run / 'manifest.json'}: config.train.strategy.params.{key} is "
        f"{got!r}, not {want!r}\n")
    assert not (tmp_path / "rerun").exists()


@pytest.mark.parametrize("edit, error", [
    (lambda config: config.update(extra=1), "config.extra is 1, not absent"),
    (lambda config: config.pop("t_eval"), "config.t_eval is absent, not 1.0"),
    (lambda config: config.update(n_bins=10), "config.n_bins is 10, not 15")],
    ids=["extra-key", "no-t_eval", "other-n_bins"])
def test_a_replay_refuses_a_manifest_whose_config_is_not_its_runs(work, tmp_path, capsys, edit,
                                                                  error):
    # the whole config record is checked against the run it describes, field by field
    run = tmp_path / "run"
    shutil.copytree(work["student"], run)
    doc = json.loads((run / "manifest.json").read_text())
    edit(doc["config"])
    (run / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    assert capsys.readouterr().err == f"error: FormatError: {run / 'manifest.json'}: {error}\n"
    assert not (tmp_path / "rerun").exists()


HUMAN_REPORT_FILES = {"kld_matrix.csv", "kld_matrix_scale.csv", "human_confidence_matrix.csv",
                      "human_confidence_matrix_masked.csv"}


def test_evaluate_checkpoint_writes_dump_and_reports(work, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["evaluate", "--checkpoint", str(work["teacher"]),
                 "--dataset", str(work["data"]), "--out", str(out)]) == 0
    assert "accuracy" in capsys.readouterr().out
    dump = load_eval_dump(out / "dump")
    assert dump.n_samples == 24
    # every report, human-label ones too, the bytes that the teacher run's seal wrote
    assert _tree(out / "reports") == _tree(work["teacher"] / "reports")
    assert HUMAN_REPORT_FILES < {p.name for p in (out / "reports").iterdir()}


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


def _assert_refused(argv, out, root, capsys):
    """`argv` exits 1 naming its --out `out`, which is not an empty directory, and
    leaves every path and file under `root` as it was."""
    before = sorted(root.rglob("*")), _tree(root)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: FileExistsError: --out {out} is not an empty directory\n"
    assert (sorted(root.rglob("*")), _tree(root)) == before


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
    manifest = tmp_path / "run" / "manifest.json"
    _tamper(work["teacher"], tmp_path / "run", "reports/reliability")
    assert main(["evaluate", "--from-manifest", str(manifest),
                 "--out", str(tmp_path / "rerun")]) == 1
    rerun = sha256_file(work["teacher"] / "reports" / "reliability.csv")
    recorded = read_manifest(manifest).files["reports/reliability"]["sha256"]
    assert capsys.readouterr().err == (
        f"error: IntegrityError: {manifest}: the rerun's files.reports/reliability.sha256 "
        f"is {rerun!r}, not {recorded!r}\n")


def test_replay_catches_a_changed_teacher_copy(work, tmp_path, capsys):
    # the replay trains against the teacher/ it reads and writes it back as recorded,
    # so the first field to differ is a file of the student checkpoint retrained
    # against it; the output bias moves every soft target (a weight of a dead hidden
    # unit would move none)
    manifest = tmp_path / "run" / "manifest.json"
    param = sorted((work["student"] / "teacher").glob("param-*.bias.arr"))[-1]
    _tamper(work["student"], tmp_path / "run", f"teacher/{param.name}")
    assert main(["evaluate", "--from-manifest", str(manifest),
                 "--out", str(tmp_path / "rerun")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: IntegrityError: {manifest}: the rerun's "
                          "files.checkpoint/param-")
    assert ".sha256 is '" in err
    assert _tree(tmp_path / "rerun" / "teacher") == _tree(tmp_path / "run" / "teacher")


def test_replay_accepts_a_manifest_with_a_created_key(work, tmp_path, capsys):
    # older manifests carried a wall-clock `created` key, which a reader ignores
    run = tmp_path / "run"
    shutil.copytree(work["student"], run)
    doc = json.loads((run / "manifest.json").read_text())
    doc["created"] = "2024-01-01T00:00:00"
    (run / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_replay_names_a_recorded_file_that_the_rerun_does_not_write(work, tmp_path, capsys):
    # the file is present and its hash verifies, but the replay writes no such file,
    # so the rerun is not the recorded run directory
    run = tmp_path / "run"
    shutil.copytree(work["teacher"], run)
    (run / "reports" / "extra.csv").write_text("a,b\n")
    doc = json.loads((run / "manifest.json").read_text())
    extra = {"path": "reports/extra.csv", "sha256": sha256_file(run / "reports" / "extra.csv")}
    doc["files"]["reports/extra"] = extra
    (run / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: IntegrityError: {run / 'manifest.json'}: the rerun's "
                            f"files.reports/extra is absent, not {extra!r}\n")
    assert "reproduced" not in captured.out


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
                                          ("dataset", "train"), ("dataset", "eval")])
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


TRAIN_RECORD = TrainConfig().to_dict()
SPLIT_PARENT = {"kind": "synthetic", "params": {"seed": 0, "n_classes": 2, "per_class": 2},
                "digest": make_synthetic(seed=0, n_classes=2, per_class=2).digest()}


@pytest.mark.parametrize("section, key, value", [("config", "train", {"bogus": 1}),
                                                 ("config", "train", []),
                                                 ("dataset", "train", {}),
                                                 ("dataset", "eval", {"kind": "path"}),
                                                 # a generator parameter that no longer exists
                                                 ("dataset", "train", {
                                                     "kind": "synthetic", "digest": "",
                                                     "params": {"seed": 0, "n_classes": 2,
                                                                "per_class": 2,
                                                                "contrast": 0.7}}),
                                                 ("config", "train", {"strategy": "mixup"}),
                                                 # a split that the fractions do not make
                                                 ("dataset", "train", {
                                                     "kind": "split", "parent": SPLIT_PARENT,
                                                     "fractions": [0.5, 0.5], "seed": 0,
                                                     "index": 2, "digest": ""}),
                                                 # null, as an earlier release recorded
                                                 # a run without an eval set
                                                 ("dataset", "eval", None),
                                                 # values that the config's checks refuse
                                                 ("config", "train",
                                                  dict(TRAIN_RECORD, lr=-1.0)),
                                                 ("config", "train", dict(
                                                     TRAIN_RECORD,
                                                     strategy={"kind": "bogus", "params": {}})),
                                                 ("config", "train",
                                                  dict(TRAIN_RECORD, epochs=1.5)),
                                                 ("config", "arch", "resnet"),
                                                 ("dataset", "train", {"kind": "bogus",
                                                                       "digest": ""})])
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
    assert not (tmp_path / "rerun").exists()


def test_parser_is_built_once_and_keeps_no_flag_between_calls(monkeypatch):
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setattr(cli, "_cmd_synth", lambda args: seen.append(vars(args)) or 0)
    assert main(["synth", "--seed", "1", "--out", "o", "--classes", "3"]) == 0
    assert main(["synth", "--seed", "2", "--out", "o2"]) == 0
    assert seen[0]["classes"] == 3
    assert seen[1] == {"command": "synth", "seed": 2, "out": "o2", "classes": 4,
                       "per_class": 500, "side": 12, "difficulty": 0.5, "channels": 1}


def test_replay_refuses_to_overwrite_its_own_run(work, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(work["student"], run)
    _assert_refused(["evaluate", "--from-manifest", str(run / "manifest.json"),
                     "--out", str(run)], run, run, capsys)


@pytest.mark.parametrize("section, key", [("eval", "accuracy"), ("final_train", "loss")])
def test_replay_checks_the_recorded_metrics(work, tmp_path, capsys, section, key):
    # `final_train` is in no file, so only this check covers it
    run = tmp_path / "run"
    shutil.copytree(work["teacher"], run)
    doc = json.loads((run / "manifest.json").read_text())
    value = doc["metrics"][section][key]
    doc["metrics"][section][key] = 0.123
    (run / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["evaluate", "--from-manifest", str(run / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: IntegrityError: {run / 'manifest.json'}: the rerun's "
                            f"metrics.{section}.{key} is {value!r}, not 0.123\n")
    assert "reproduced" not in captured.out


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
    assert captured.err.startswith(f"error: IntegrityError: {run / 'manifest.json'}: "
                                   f"the rerun's files.checkpoint/{param.name}.sha256 is ")
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
    "train-teacher": ["--seed", "0", "--dataset", "d", "--out", "o", "--eval-dataset", "d"],
    "distill": ["--seed", "0", "--dataset", "d", "--teacher", "t", "--out", "o",
                "--eval-dataset", "d"],
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
        monkeypatch.setattr(distill, "T_EVAL", value)
        dump = evaluate_model(load_checkpoint(run / "checkpoint"), load_dataset(work["data"]))
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
                  "--eval-dataset", "synth", "--arch", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert not out.exists()


def test_an_optimizer_setting_out_of_range_fails_before_anything_is_written(
        work, grid_data, tmp_path, monkeypatch, capsys):
    # a fit of zero epochs takes no SGD step, and the grid fits every teacher before a
    # student takes one: the config refuses the value before the run writes anything
    monkeypatch.chdir(tmp_path)
    assert main(["train-teacher", "--seed", "0", "--dataset", str(work["data"]), "--out", "run",
                 "--eval-dataset", str(work["data"]), "--arch", "student-mlp",
                 "--epochs", "0", "--lr", "-1", "--momentum", "3"]) == 1
    assert capsys.readouterr().err == "error: ValueError: learning rate must be >= 0, got -1.0\n"
    assert main(_mini_grid_argv(grid_data, "grid", "--student-lr", "-1")) == 1
    assert capsys.readouterr().err == "error: ValueError: learning rate must be >= 0, got -1.0\n"
    assert list(tmp_path.iterdir()) == []


def test_evaluate_argument_combinations(work, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--dataset", str(work["data"]), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--checkpoint", str(work["teacher"])])
    assert exc.value.code == 2


def test_report_from_stored_dump(work, tmp_path, capsys):
    # every report the dump supports, the bytes that the run's seal wrote
    out = tmp_path / "rep"
    assert main(["report", "--dump", str(work["student"] / "dump"), "--out", str(out)]) == 0
    assert _tree(out) == _tree(work["student"] / "reports")
    assert len(capsys.readouterr().out.splitlines()) == len(_tree(out)) == 9


def test_report_unknown_name_fails_cleanly(work, tmp_path, capsys):
    # no report is chosen by name
    out = tmp_path / "rep"
    with pytest.raises(SystemExit) as exc:
        main(["report", "--dump", str(work["student"] / "dump"), "--out", str(out),
              "--reports", "metrics"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --reports metrics" in capsys.readouterr().err
    assert not out.exists()


def test_report_on_a_dump_whose_labels_do_not_fit_names_the_dump(work, tmp_path, capsys):
    dump = tmp_path / "dump"
    shutil.copytree(work["student"] / "dump", dump)
    save_array(load_array(dump / "labels.arr")[:-1], dump / "labels.arr")
    assert main(["report", "--dump", str(dump), "--out", str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: FormatError: {dump / 'labels.arr'}: true_labels shape")


def test_bad_dataset_path_reports_error(tmp_path, capsys):
    code = main(["train-teacher", "--seed", "0", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o"), "--eval-dataset", str(tmp_path / "missing")])
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


def test_every_grid_manifest_records_its_plan_runs_config(grid_data, tmp_path):
    # what the plan describes is what each run's manifest records, so each run replays
    out = tmp_path / "grid"
    assert _mini_grid(grid_data, out) == 0
    plan = grid.plan(build_parser().parse_args(_mini_grid_argv(grid_data, out)))
    assert {run.out.name for run in plan if run.teacher} == \
        {f"{strat}-{arm}" for strat in cli.STRATEGY_KINDS for arm in grid.ARMS}
    for run in plan:
        m = read_manifest(run.out / "manifest.json", verify=True)
        assert (m.run_id, m.role, m.config) == \
            (run.run_id, "student" if run.teacher else "teacher", run.config())


@pytest.mark.parametrize("human", [True, False], ids=["human-labels", "no-human-labels"])
def test_grid_tables_are_a_function_of_the_manifests(grid_data, tmp_path, capsys, human):
    data = grid_data  # synthetic: every human_kld is nan, and must come back as nan
    if human:
        data = tmp_path / "data"
        save_dataset(with_human_labels(load_dataset(grid_data), seed=21), data)
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


WRITERS = ("synth", "train-teacher", "distill", "evaluate --checkpoint",
           "evaluate --from-manifest", "report", "matrix")


def _writer_argv(command, work, out):
    """`command`, reading the shared data set and teacher run, with --out `out`."""
    data, teacher = str(work["data"]), work["teacher"]
    fit = ["--seed", "3", "--dataset", data, "--eval-dataset", data, "--arch", "student-mlp",
           "--epochs", "1", "--batch-size", "8"]
    return {
        "synth": ["synth", "--seed", "1", "--classes", "2", "--per-class", "3", "--side", "4"],
        "train-teacher": ["train-teacher", *fit],
        "distill": ["distill", "--teacher", str(teacher), *fit],
        "evaluate --checkpoint": ["evaluate", "--checkpoint", str(teacher), "--dataset", data],
        "evaluate --from-manifest": ["evaluate", "--from-manifest", str(teacher / "manifest.json")],
        "report": ["report", "--dump", str(teacher / "dump")],
        "matrix": ["matrix", "--seed", "5", "--dataset", data, *MINI_GRID],
    }[command] + ["--out", str(out)]


@pytest.mark.parametrize("used", ["run", "file"])
@pytest.mark.parametrize("command", WRITERS)
def test_every_command_refuses_an_out_that_is_not_empty(work, tmp_path, capsys, command, used):
    # an --out holding an earlier run, or a file: a command writing into a used
    # directory would leave the files it found beside its own
    out = tmp_path / "out"
    if used == "run":
        shutil.copytree(work["teacher"], out)
    else:
        out.write_text("not a directory\n")
    _assert_refused(_writer_argv(command, work, out), out, tmp_path, capsys)


@pytest.mark.parametrize("command", WRITERS)
def test_every_command_writes_into_an_empty_out_directory(work, tmp_path, command):
    absent, empty = tmp_path / "absent", tmp_path / "empty"
    empty.mkdir()
    assert main(_writer_argv(command, work, absent)) == 0
    assert main(_writer_argv(command, work, empty)) == 0
    assert _tree(empty) == _tree(absent) != {}


@pytest.mark.parametrize("teacher", ["", "teacher"], ids=["run", "teacher-copy"])
def test_a_student_cannot_be_written_over_its_teacher(work, tmp_path, capsys, teacher):
    # the run directory itself resolves to its checkpoint/; a student run's teacher/
    # is a checkpoint too
    run = tmp_path / "run"
    shutil.copytree(work["student"], run)
    _assert_refused(["distill", "--seed", "3", "--dataset", str(work["data"]),
                     "--teacher", str(run / teacher), "--out", str(run),
                     "--eval-dataset", str(work["data"]),
                     "--arch", "student-mlp", "--epochs", "1", "--batch-size", "8"],
                    run, run, capsys)


@pytest.mark.parametrize("teacher, out", [("ckpt", "ckpt"), ("run", "run/checkpoint")],
                         ids=["bare-checkpoint", "run-checkpoint"])
def test_a_student_cannot_be_written_into_its_teacher_checkpoint(work, tmp_path, capsys,
                                                                 teacher, out):
    # a checkpoint is never an empty --out
    shutil.copytree(work["teacher"] / "checkpoint", tmp_path / "ckpt")
    shutil.copytree(work["teacher"], tmp_path / "run")
    _assert_refused(["distill", "--seed", "3", "--dataset", str(work["data"]),
                     "--teacher", str(tmp_path / teacher), "--out", str(tmp_path / out),
                     "--eval-dataset", str(work["data"]),
                     "--arch", "student-mlp", "--epochs", "1", "--batch-size", "8"],
                    tmp_path / out, tmp_path, capsys)


def test_a_student_written_under_its_bare_teacher_checkpoint_replays(work, tmp_path):
    # the run's teacher/ is written from the loaded teacher network, not copied from
    # the checkpoint directory, so an --out inside that directory holds no copy of itself
    ckpt = tmp_path / "ckpt"
    shutil.copytree(work["teacher"] / "checkpoint", ckpt)
    before = _tree(ckpt)
    assert main(["distill", "--seed", "3", "--dataset", str(work["data"]),
                 "--teacher", str(ckpt), "--out", str(ckpt / "student"),
                 "--eval-dataset", str(work["data"]),
                 "--arch", "student-mlp", "--epochs", "1", "--batch-size", "8"]) == 0
    assert _tree(ckpt / "student" / "teacher") == _tree(work["teacher"] / "checkpoint")
    assert {path: data for path, data in _tree(ckpt).items()
            if path.parts[0] != "student"} == before
    assert main(["evaluate", "--from-manifest", str(ckpt / "student" / "manifest.json"),
                 "--out", str(tmp_path / "rerun")]) == 0
    assert _tree(tmp_path / "rerun") == _tree(ckpt / "student")


# Each input below lies in the --out of the command that reads it, where a writer that
# cleared its directories before writing would delete it.  No --out that holds anything
# is written to, so each is refused before anything is read or written.

@pytest.mark.parametrize("run, under", [("teacher", "teacher"), ("student", "teacher"),
                                        ("teacher", "reports/old")])
def test_a_replay_cannot_clear_the_run_it_replays(work, tmp_path, capsys, run, under):
    out = tmp_path / "runs"
    replayed = out / under
    shutil.copytree(work[run], replayed)
    _assert_refused(["evaluate", "--from-manifest", str(replayed / "manifest.json"),
                     "--out", str(out)], out, out, capsys)


def test_a_run_refuses_a_data_set_that_its_writer_clears(work, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(work["teacher"], run)
    evalset = run / "reports" / "ev"
    shutil.copytree(work["data"], evalset)
    _assert_refused(["train-teacher", "--seed", "1", "--dataset", str(work["data"]),
                     "--eval-dataset", str(evalset), "--out", str(run),
                     "--arch", "student-mlp", "--epochs", "1", "--batch-size", "8"],
                    run, tmp_path, capsys)


def test_a_replay_refuses_a_data_set_that_its_writer_clears(work, tmp_path, capsys):
    # the run reads its eval set from the reports/ of the directory it is replayed into
    run, rerun = tmp_path / "run", tmp_path / "rerun"
    evalset = rerun / "reports" / "ev"
    shutil.copytree(work["data"], evalset)
    assert main(["train-teacher", "--seed", "1", "--dataset", str(work["data"]),
                 "--eval-dataset", str(evalset), "--out", str(run), "--arch", "student-mlp",
                 "--epochs", "1", "--batch-size", "8"]) == 0
    _assert_refused(["evaluate", "--from-manifest", str(run / "manifest.json"),
                     "--out", str(rerun)], rerun, tmp_path, capsys)


@pytest.mark.parametrize("under", ["dump", "reports"])
def test_evaluate_refuses_a_data_set_that_it_clears(work, tmp_path, capsys, under):
    out = tmp_path / "eval"
    argv = ["evaluate", "--checkpoint", str(work["teacher"]), "--out", str(out), "--dataset"]
    assert main([*argv, str(work["data"])]) == 0
    evalset = out / under / "x"
    shutil.copytree(work["data"], evalset)
    _assert_refused([*argv, str(evalset)], out, tmp_path, capsys)


@pytest.mark.parametrize("under", ["dump", "reports"])
def test_evaluate_refuses_a_checkpoint_that_it_clears(work, tmp_path, capsys, under):
    out = tmp_path / "eval"
    argv = ["evaluate", "--dataset", str(work["data"]), "--out", str(out), "--checkpoint"]
    assert main([*argv, str(work["teacher"])]) == 0
    ckpt = out / under / "ck"
    shutil.copytree(work["teacher"] / "checkpoint", ckpt)
    _assert_refused([*argv, str(ckpt)], out, tmp_path, capsys)


def test_a_grid_refuses_a_data_set_in_one_of_its_runs(grid_data, tmp_path, capsys):
    out = tmp_path / "grid"
    data = out / "teachers" / "none" / "data"
    shutil.copytree(grid_data, data)
    _assert_refused(_mini_grid_argv(data, out), out, tmp_path, capsys)


def test_a_cell_fit_hands_back_no_parameters(tmp_path, monkeypatch):
    # the grid's own data sets and their descriptors, so `fit` is what a worker sends
    args = build_parser().parse_args(["matrix", "--seed", "0", "--out", str(tmp_path)])
    fitter = runs.Fitter(*grid.datasets(args))
    fitter(runs.Run(tmp_path / "teacher", None, TrainConfig(epochs=1), "student-mlp", "teacher"))
    monkeypatch.setattr(grid, "_cell_fitter", fitter)
    fit = grid._fit_cell(runs.Run(tmp_path / "cell", tmp_path / "teacher", TrainConfig(epochs=1),
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
_STRATEGY = {"strategy": ("none", None, False, STRATS)}
_RUN = {"seed": (None, int, True, None), "dataset": (None, None, True, None),
        "out": (None, None, True, None), "eval_dataset": (None, None, True, None)}
_KD = {"temperature": (20.0, float, False, None), "distill_weight": (0.5, float, False, None)}
# every flag's (default, type, required, choices) as released; the changes since are
# that evaluate's --out became required, that the gradcheck command and synth's
# --contrast and --brightness were removed, and that --t-eval and --bins left the five
# commands that took them (every run is evaluated at T = 1 with 15 ECE bins), that
# --pad, --n-holes, --hole-size, --fill, --no-size-jitter, --beta-alpha, --beta-a and
# --beta-b left train-teacher and distill (every strategy runs at its fixed params), that
# --reports left report (it writes every report the dump supports), and that
# --eval-dataset became required on train-teacher and distill (every run is evaluated)
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
    "report": {"dump": (None, None, True, None), "out": (None, None, True, None)},
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


def test_readme_quick_start_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    script = quick_start.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line.split("distillab ", 1)[1]) for line in script.splitlines()
                if "distillab " in line and not line.lstrip().startswith("#")]
    assert [argv[0] for argv in commands] == ["synth", "train-teacher", "distill", "evaluate",
                                              "report", "evaluate", "matrix"]
    for argv in commands:
        build_parser().parse_args(argv)
