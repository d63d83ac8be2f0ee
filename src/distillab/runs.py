"""Run directories: fit a run, seal it, and replay it from its manifest.

Every run lands in a self-contained directory: manifest.json (hash-referenced
file inventory + config + metrics), checkpoint/, dump/ and reports/.  A student
run also carries a copy of its teacher checkpoint, so `replay` can re-run any run
from its directory alone and check every byte it writes against the manifest.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from . import data as D
from . import metrics as M
from . import runstore as R
from .distill import T_EVAL, TrainConfig, TrainedModel, evaluate_model, train_student, train_teacher
from .errors import FormatError, IntegrityError


def path_dataset(spec: str) -> tuple[D.Dataset, dict]:
    """Load a path dataset with its descriptor, which records each of its paths made
    absolute, so a replay from any working directory reads the same files."""
    ds = D.resolve_dataset(spec)
    spec = ",".join(str(Path(part).resolve()) for part in spec.split(",", 1))
    return ds, {"kind": "path", "spec": spec, "digest": ds.digest()}


def dataset_paths(desc: dict) -> list[Path]:
    """The paths that a dataset descriptor reads: a path set's, or a split's parent's."""
    while desc["kind"] == "split":
        desc = desc["parent"]
    return [Path(spec) for spec in desc["spec"].split(",", 1)] if desc["kind"] == "path" else []


def dataset_from_desc(desc: dict) -> D.Dataset:
    """Rebuild a dataset from a manifest descriptor, verifying its digest."""
    if desc["kind"] == "synthetic":
        ds = D.make_synthetic(**desc["params"])
    elif desc["kind"] == "path":
        ds = D.resolve_dataset(desc["spec"])
    elif desc["kind"] == "split":
        parent = dataset_from_desc(desc["parent"])
        ds = D.split(parent, desc["fractions"], desc["seed"])[desc["index"]]
    else:
        raise FormatError(f"unknown dataset descriptor kind {desc['kind']!r}")
    if ds.digest() != desc["digest"]:
        raise IntegrityError(f"dataset content digest {ds.digest()} does not match "
                             f"manifest record {desc['digest']}")
    return ds


def write_reports(out: Path, dump: M.EvalDump) -> tuple[dict[str, Path], dict]:
    """Write every report of one dump; returns (name -> file, summary metrics)."""
    written = R.emit_report(dump, out / "reports")
    return {f"reports/{name}": p for name, p in written.items()}, M.summary_metrics(dump)


# The directories that a run's writers own.  A writer removes them before it writes, so
# each holds only what this run wrote: the fit's, whose files `seal` lists from disk,
# and the reports'.
FIT_DIRS = ("checkpoint", "teacher", "dump")
RUN_DIRS = FIT_DIRS + ("reports",)


def clear(out: Path, dirs) -> None:
    """Remove the manifest of an earlier run in `out`, so the directory is complete
    again only once a new one is written, then its directories `dirs`."""
    (out / "manifest.json").unlink(missing_ok=True)
    for name in dirs:
        if (out / name).exists():
            shutil.rmtree(out / name)


def resolve_checkpoint(path: Path) -> Path:
    """Accept a run directory (with manifest + checkpoint/) or a bare checkpoint dir."""
    if (path / "network.json").exists():
        return path
    if (path / "checkpoint" / "network.json").exists():
        return path / "checkpoint"
    raise FormatError(f"{path}: neither a checkpoint directory nor a run directory")


def refuse_to_clear(what: str, paths, out: Path, dirs=RUN_DIRS, writer: str = "run") -> None:
    """Refuse a `writer` into `out` that reads `paths` (its `what`) and clears the
    directories `dirs` of `out`, if one of the paths lies at or under one of them."""
    for path in paths:
        for name in dirs:
            if path.resolve().is_relative_to((out / name).resolve()):
                raise ValueError(f"{what} {path} lies under {out / name}, which the {writer} "
                                 f"written to {out} clears")


class Fitter:
    """Fits runs on one train set and writes what each fit determines.  Every run of
    every command is fitted here.  It loads each teacher checkpoint once and computes
    each teacher's train-set logit table once, whichever of its students need them.
    Each data set comes with its manifest descriptor."""

    def __init__(self, train: tuple[D.Dataset, dict], evalset: tuple[D.Dataset, dict]):
        self.train_ds, self.train_desc = train
        self.eval_ds, self.eval_desc = evalset
        self.reads = dataset_paths(self.train_desc) + dataset_paths(self.eval_desc)
        self.teachers: dict[Path, tuple[TrainedModel, dict]] = {}  # checkpoint -> (model, tables)

    def __call__(self, out: Path, cfg: TrainConfig, arch: str, teacher_ckpt: Path | None = None,
                 run_id: str | None = None, checkpointed=None) -> R.RunManifest:
        """Fit a teacher, or a student of the teacher at `teacher_ckpt`, and write
        checkpoint/, a student's teacher/ copy and the eval set's dump/, once
        `clear` has removed what an earlier run left in `out`.  A data set or teacher
        checkpoint under one of the cleared directories, or a teacher checkpoint that
        `out` lies in, is refused before the fit.  `checkpointed()` runs as soon as the
        checkpoint and teacher copy are on disk, before evaluation.  Returns the run's
        manifest for `seal`, without its parameters and files, which are on disk, so a
        grid worker sends back about a kilobyte."""
        refuse_to_clear("data set", self.reads, out)
        if teacher_ckpt is None:
            model = train_teacher(cfg, self.train_ds, arch=arch)
        else:
            refuse_to_clear("teacher checkpoint", [teacher_ckpt], out)
            if out.resolve().is_relative_to(teacher_ckpt.resolve()):
                raise ValueError(f"{out} lies in teacher checkpoint {teacher_ckpt}, which the "
                                 f"run copies into {out / 'teacher'}")
            if teacher_ckpt not in self.teachers:
                teacher = TrainedModel(net=R.load_checkpoint(teacher_ckpt), role="teacher",
                                       config=TrainConfig(), history=[])
                self.teachers[teacher_ckpt] = (teacher, {})
            teacher, tables = self.teachers[teacher_ckpt]
            model = train_student(cfg, teacher, self.train_ds, arch=arch, logit_tables=tables)
        out.mkdir(parents=True, exist_ok=True)
        clear(out, RUN_DIRS)
        R.save_checkpoint(model.net, out / "checkpoint")
        if teacher_ckpt is not None:
            shutil.copytree(teacher_ckpt, out / "teacher")
        if checkpointed is not None:
            checkpointed()
        R.save_eval_dump(evaluate_model(model.net, self.eval_ds), out / "dump")
        return R.RunManifest(
            run_id=run_id or f"{model.role}-{model.config.strategy.kind}-seed{model.config.seed}",
            role=model.role,
            config={"train": model.config.to_dict(), "arch": arch, "t_eval": T_EVAL,
                    "n_bins": M.N_BINS},
            dataset={"train": self.train_desc, "eval": self.eval_desc},
            metrics={"final_train": model.history[-1] if model.history else {}})


def seal(out: Path, manifest: R.RunManifest) -> R.RunManifest:
    """Finish a run directory that a `Fitter` wrote, given the manifest the fit
    returned: the reports of its dump (read back from disk), then manifest.json, last.
    The manifest lists every file under the fit's directories and every report, hashes
    each from disk, and is the run's seal: a directory without one is not a complete
    run.  Returns the manifest."""
    files = {f"{name}/{p.name}": p for name in FIT_DIRS if (out / name).is_dir()
             for p in (out / name).iterdir()}
    reports, manifest.metrics["eval"] = write_reports(out, R.load_eval_dump(out / "dump"))
    files.update(reports)
    for name, p in files.items():
        manifest.add_file(name, p, out)
    R.write_manifest(manifest, out / "manifest.json")
    return manifest


def replay(manifest_path: Path, out: Path) -> tuple[R.RunManifest, R.RunManifest]:
    """Re-run a recorded run into `out` with its own writer; returns the recorded
    manifest and the one the re-run wrote, for the caller to compare file by file."""
    m = R.read_manifest(manifest_path)
    if m.role not in ("teacher", "student"):
        raise FormatError(f"{manifest_path}: unknown role {m.role!r}")
    if out.resolve() == manifest_path.parent.resolve():
        raise FormatError(f"{out}: a replay cannot overwrite the run it replays")
    refuse_to_clear("replayed run", [manifest_path.parent], out)
    missing = [f"{section}.{key}" for section, key in
               (("config", "train"), ("config", "arch"), ("dataset", "train"),
                ("dataset", "eval"))
               if key not in getattr(m, section)]
    if missing:
        raise FormatError(f"{manifest_path}: manifest records no {', '.join(missing)}")
    # every run is evaluated at one protocol; a manifest without these keys predates them
    for key, want in (("t_eval", T_EVAL), ("n_bins", M.N_BINS)):
        if m.config.get(key, want) != want:
            raise FormatError(f"{manifest_path}: config.{key} is {m.config[key]!r}, not {want!r}")

    def build(record: str, make, value):
        try:
            return make(value)
        except (KeyError, TypeError, IndexError) as exc:
            raise FormatError(f"{manifest_path}: malformed {record} "
                              f"({type(exc).__name__}: {exc})") from None

    cfg = build("config.train", TrainConfig.from_dict, m.config["train"])
    # every run augments at one protocol too: each strategy's parameters are fixed
    params = cfg.strategy.to_dict()["params"]
    recorded = m.config["train"].get("strategy", {}).get("params", params)
    if recorded != params:
        raise FormatError(f"{manifest_path}: config.train.strategy.params is {recorded!r}, "
                          f"not {params!r}")
    train_ds = build("dataset.train", dataset_from_desc, m.dataset["train"])
    eval_ds = build("dataset.eval", dataset_from_desc, m.dataset["eval"])
    teacher = manifest_path.parent / "teacher" if m.role == "student" else None
    fitter = Fitter((train_ds, m.dataset["train"]), (eval_ds, m.dataset["eval"]))
    return m, seal(out, fitter(out, cfg, m.config["arch"], teacher, run_id=m.run_id))
