"""Command-line front door: train, distill, evaluate, report, and the full grid.

Every run lands in a self-contained directory: manifest.json (hash-referenced
file inventory + config + metrics), checkpoint/, and optionally dump/ and
reports/.  A student run also carries a copy of its teacher checkpoint, so
`evaluate --from-manifest` can re-run any run from its directory alone and check
every byte it writes against the manifest.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import data as D
from . import metrics as M
from . import runstore as R
from .augment import STRATEGY_KINDS, AugmentStrategy
from .distill import TrainConfig, TrainedModel, evaluate_model, train_student, train_teacher
from .errors import FormatError, IntegrityError
from .gradcheck import run_all
from .nn import ARCHITECTURES

# arm -> (teacher augmented, student augmented)
ARMS = {"teacher-aug": (True, False), "student-aug": (False, True), "both": (True, True)}
T_EVAL, N_BINS = 1.0, 15
STUDENT_LR = 0.02  # the tau^2-scaled soft-target gradient runs hotter than plain CE
_TRAIN_FLAGS = ("epochs", "batch_size", "lr", "momentum", "weight_decay")
_KD_FLAGS = ("temperature", "distill_weight")
# strategy parameter -> flag type; a flag left at None was not given
_STRATEGY_PARAMS = {"pad": int, "n_holes": int, "hole_size": int, "fill": float,
                    "beta_alpha": float, "beta_a": float, "beta_b": float}


def _strategy_from_args(args) -> AugmentStrategy:
    """Pass on only the flags given; AugmentStrategy rejects any the strategy does not take."""
    params = {k: getattr(args, k) for k in _STRATEGY_PARAMS if getattr(args, k) is not None}
    if args.no_size_jitter:
        params["size_jitter"] = False
    return AugmentStrategy(args.strategy, params)


def _add_config_flags(p: argparse.ArgumentParser, names, **defaults) -> None:
    """One flag per TrainConfig field, typed and defaulted from TrainConfig unless overridden."""
    for name in names:
        default = defaults.get(name, getattr(TrainConfig, name))
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)


def _add_eval_flags(p: argparse.ArgumentParser, t_eval=T_EVAL, bins=N_BINS) -> None:
    p.add_argument("--t-eval", type=float, default=t_eval)
    p.add_argument("--bins", type=int, default=bins)


def _path_dataset(spec: str) -> tuple[D.Dataset, dict]:
    """Load a path dataset with its descriptor, which records each of its paths made
    absolute, so a replay from any working directory reads the same files."""
    ds = D.resolve_dataset(spec)
    spec = ",".join(str(Path(part).resolve()) for part in spec.split(",", 1))
    return ds, {"kind": "path", "spec": spec, "digest": ds.digest()}


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


def _write_reports(out: Path, dump: M.EvalDump, n_bins: int) -> tuple[dict[str, Path], dict]:
    """Write every report of one dump; returns (name -> file, summary metrics)."""
    written = R.emit_report(dump, out / "reports", reports="all", n_bins=n_bins)
    return ({f"reports/{name}": p for name, p in written.items()},
            M.summary_metrics(dump, n_bins=n_bins))


# The directories that a run's writers own.  A writer removes them before it writes, so
# each holds only what this run wrote: the fit's, whose files `_seal` lists from disk,
# and the reports'.
_FIT_DIRS = ("checkpoint", "teacher", "dump")
_RUN_DIRS = _FIT_DIRS + ("reports",)


def _clear(out: Path, dirs) -> None:
    """Remove the manifest of an earlier run in `out`, so the directory is complete
    again only once a new one is written, then its directories `dirs`."""
    (out / "manifest.json").unlink(missing_ok=True)
    for name in dirs:
        if (out / name).exists():
            shutil.rmtree(out / name)


class _Fitter:
    """Fits runs on one train set and writes what each fit determines.  Every run of
    every command is fitted here.  It loads each teacher checkpoint once and computes
    each teacher's train-set logit table once, whichever of its students need them.
    Each data set comes with its manifest descriptor; the eval set may be None."""

    def __init__(self, train: tuple[D.Dataset, dict], evalset: tuple[D.Dataset, dict] | None,
                 t_eval: float, n_bins: int):
        self.train_ds, self.train_desc = train
        self.eval_ds, self.eval_desc = evalset or (None, None)
        self.t_eval, self.n_bins = t_eval, n_bins
        self.teachers: dict[Path, tuple[TrainedModel, dict]] = {}  # checkpoint -> (model, tables)

    def __call__(self, out: Path, cfg: TrainConfig, arch: str, teacher_ckpt: Path | None = None,
                 run_id: str | None = None, checkpointed=None) -> R.RunManifest:
        """Fit a teacher, or a student of the teacher at `teacher_ckpt`, and write
        checkpoint/, a student's teacher/ copy and, given an eval set, dump/, once
        `_clear` has removed what an earlier run left in `out`.  A teacher checkpoint
        under one of the cleared directories is refused before the fit.
        `checkpointed()` runs as soon as the checkpoint and teacher copy are on disk,
        before evaluation.  Returns the run's manifest for `_seal`, without its
        parameters and files, which are on disk, so a grid worker sends back about a
        kilobyte."""
        if teacher_ckpt is None:
            model = train_teacher(cfg, self.train_ds, arch=arch)
        else:
            held, root = teacher_ckpt.resolve(), out.resolve()
            for name in _RUN_DIRS:
                if held.is_relative_to(root / name):
                    raise ValueError(f"teacher checkpoint {teacher_ckpt} lies under "
                                     f"{out / name}, which the run written to {out} clears")
            if teacher_ckpt not in self.teachers:
                teacher = TrainedModel(net=R.load_checkpoint(teacher_ckpt), role="teacher",
                                       config=TrainConfig(), history=[])
                self.teachers[teacher_ckpt] = (teacher, {})
            teacher, tables = self.teachers[teacher_ckpt]
            model = train_student(cfg, teacher, self.train_ds, arch=arch, logit_tables=tables)
        out.mkdir(parents=True, exist_ok=True)
        _clear(out, _RUN_DIRS)
        R.save_checkpoint(model.net, out / "checkpoint")
        if teacher_ckpt is not None:
            shutil.copytree(teacher_ckpt, out / "teacher")
        if checkpointed is not None:
            checkpointed()
        if self.eval_ds is not None:
            R.save_eval_dump(evaluate_model(model.net, self.eval_ds, t_eval=self.t_eval),
                             out / "dump")
        return R.RunManifest(
            run_id=run_id or f"{model.role}-{model.config.strategy.kind}-seed{model.config.seed}",
            role=model.role,
            config={"train": model.config.to_dict(), "arch": arch, "t_eval": self.t_eval,
                    "n_bins": self.n_bins},
            dataset={"train": self.train_desc, "eval": self.eval_desc},
            metrics={"final_train": model.history[-1] if model.history else {}})


def _seal(out: Path, manifest: R.RunManifest) -> R.RunManifest:
    """Finish a run directory that a `_Fitter` wrote, given the manifest the fit
    returned: the reports of its dump (read back from disk) when it has an eval set,
    then manifest.json, last.  The manifest lists every file under the fit's
    directories and every report, hashes each from disk, and is the run's seal: a
    directory without one is not a complete run.  Returns the manifest."""
    files = {f"{name}/{p.name}": p for name in _FIT_DIRS if (out / name).is_dir()
             for p in (out / name).iterdir()}
    if manifest.dataset["eval"] is not None:
        reports, manifest.metrics["eval"] = _write_reports(
            out, R.load_eval_dump(out / "dump"), manifest.config["n_bins"])
        files.update(reports)
    for name, p in files.items():
        manifest.add_file(name, p, out)
    R.write_manifest(manifest, out / "manifest.json")
    return manifest


def _resolve_teacher(path: Path) -> Path:
    """Accept a run directory (with manifest + checkpoint/) or a bare checkpoint dir."""
    if (path / "network.json").exists():
        return path
    if (path / "checkpoint" / "network.json").exists():
        return path / "checkpoint"
    raise FormatError(f"{path}: neither a checkpoint directory nor a run directory")


def _cmd_synth(args) -> int:
    ds = D.make_synthetic(seed=args.seed, n_classes=args.classes, per_class=args.per_class,
                          img_side=args.side, difficulty=args.difficulty,
                          channels=args.channels, contrast=args.contrast,
                          brightness=args.brightness)
    D.save_dataset(ds, args.out)
    print(f"wrote {ds.n_samples} samples, {ds.n_classes} classes -> {args.out}")
    return 0


# command -> (role, summary line, default arch, help)
_TRAIN_COMMANDS = {
    "train-teacher": ("teacher", "teacher trained", "teacher-cnn",
                      "train a teacher under an augmentation strategy"),
    "distill": ("student", "student distilled", "student-mlp",
                "distill a teacher checkpoint into a student"),
}


def _config_flags(role: str) -> tuple[str, ...]:
    return _TRAIN_FLAGS + (_KD_FLAGS if role == "student" else ())


def _cmd_train(args) -> int:
    role, done, _, _ = _TRAIN_COMMANDS[args.command]
    cfg = TrainConfig(seed=args.seed, strategy=_strategy_from_args(args),
                      **{k: getattr(args, k) for k in _config_flags(role)})
    train = _path_dataset(args.dataset)
    ckpt = _resolve_teacher(Path(args.teacher)) if role == "student" else None
    evalset = _path_dataset(args.eval_dataset) if args.eval_dataset else None
    fitter = _Fitter(train, evalset, args.t_eval, args.bins)
    metrics = _seal(Path(args.out), fitter(Path(args.out), cfg, args.arch, ckpt)).metrics
    acc = metrics.get("eval", {}).get("accuracy", metrics["final_train"].get("accuracy"))
    print(f"{done}: accuracy {acc}")
    return 0


def _rerun_from_manifest(manifest_path: Path, out: Path) -> int:
    """Re-run a recorded run into `out` with its own writer; every file written must
    hash as the manifest records it."""
    m = R.read_manifest(manifest_path)
    if m.role not in ("teacher", "student"):
        raise FormatError(f"{manifest_path}: unknown role {m.role!r}")
    if m.dataset.get("eval") is None:
        raise FormatError(f"{manifest_path}: run recorded no eval dataset to reproduce")
    if out.resolve() == manifest_path.parent.resolve():
        raise FormatError(f"{out}: a replay cannot overwrite the run it replays")
    missing = [f"{section}.{key}" for section, key in
               (("config", "train"), ("config", "arch"), ("dataset", "train"))
               if key not in getattr(m, section)]
    if missing:
        raise FormatError(f"{manifest_path}: manifest records no {', '.join(missing)}")

    def build(record: str, make, value):
        try:
            return make(value)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{manifest_path}: malformed {record} "
                              f"({type(exc).__name__}: {exc})") from None

    cfg = build("config.train", TrainConfig.from_dict, m.config["train"])
    train_ds = build("dataset.train", dataset_from_desc, m.dataset["train"])
    eval_ds = build("dataset.eval", dataset_from_desc, m.dataset["eval"])
    teacher = manifest_path.parent / "teacher" if m.role == "student" else None
    fitter = _Fitter((train_ds, m.dataset["train"]), (eval_ds, m.dataset["eval"]),
                     m.config.get("t_eval", T_EVAL), m.config.get("n_bins", N_BINS))
    rerun = _seal(out, fitter(out, cfg, m.config["arch"], teacher, run_id=m.run_id))
    for name, ref in rerun.files.items():
        if m.files.get(name, {}).get("sha256") != ref["sha256"]:
            print(f"error: {name} differs from manifest", file=sys.stderr)
            return 1
    print(f"rerun reproduced all {len(rerun.files)} files bitwise")
    return 0


def _cmd_evaluate(args, parser: argparse.ArgumentParser) -> int:
    if args.from_manifest:
        given = [flag for flag, v in (("--dataset", args.dataset), ("--t-eval", args.t_eval),
                                      ("--bins", args.bins)) if v is not None]
        if given:
            parser.error(f"{', '.join(given)} cannot be combined with --from-manifest; "
                         "the replay uses the manifest's values")
        return _rerun_from_manifest(Path(args.from_manifest), Path(args.out))
    if not args.dataset:
        parser.error("--dataset is required with --checkpoint")
    net = R.load_checkpoint(_resolve_teacher(Path(args.checkpoint)))
    ds = D.resolve_dataset(args.dataset)
    dump = evaluate_model(net, ds, t_eval=T_EVAL if args.t_eval is None else args.t_eval)
    _clear(Path(args.out), ("dump", "reports"))
    R.save_eval_dump(dump, Path(args.out) / "dump")
    _, vals = _write_reports(Path(args.out), dump, N_BINS if args.bins is None else args.bins)
    print(f"evaluated {ds.n_samples} samples: accuracy {vals['accuracy']}")
    return 0


def _cmd_report(args) -> int:
    dump = R.load_eval_dump(args.dump)
    selection = "all" if args.reports == "all" else [s.strip() for s in args.reports.split(",")]
    written = R.emit_report(dump, args.out, reports=selection, n_bins=args.bins)
    for name in sorted(written):
        print(f"wrote {name}: {written[name]}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_all(args.seed, instances=args.instances)
    failed = False
    for kind in sorted(results):
        status = "ok" if results[kind] < args.tolerance else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{kind:14s} max relative error {results[kind]:.3e}  {status}")
    return 1 if failed else 0


MATRIX_COLUMNS = ("cell", "strategy", "arm", "teacher_accuracy") + R.METRIC_COLUMNS


# the grid's _Fitter in a worker process, set by the pool's initializer
_cell_fitter: _Fitter | None = None


def _init_cell_fitter(fitter: _Fitter) -> None:
    global _cell_fitter
    _cell_fitter = fitter


def _fit_cell(run: Path, cfg: TrainConfig, arch: str, teacher_ckpt: Path,
              run_id: str) -> R.RunManifest:
    """Fit one grid student in a worker against its teacher's checkpoint (the bytes that
    its run directory's `teacher/` copy holds and that a replay reads) and write it."""
    return _cell_fitter(run, cfg, arch, teacher_ckpt, run_id)


def _os_threads() -> int:
    """OS threads of this process, BLAS threads included; 0 where there is no
    `/proc/self/task` (off Linux), so the grid fits every cell in one process there."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _cell_pool(n_cells: int, fitter: _Fitter):
    """A fork pool with one worker per usable CPU beyond this process, which trains the
    teachers and seals every run, or None to fit every cell here.  Each worker fits and
    writes its cells through its own copy of `fitter`.  Forking needs a single-threaded
    process: a multi-threaded BLAS already spreads each fit over the CPUs, its spinning
    threads starve the workers (a 1-epoch grid ran 2-4x slower), and a forked
    multi-threaded process may deadlock.  Fork hands each worker the data sets once."""
    jobs = min(len(os.sched_getaffinity(0)) - 1, n_cells) if _os_threads() == 1 else 0
    if jobs < 1:
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_cell_fitter, initargs=(fitter,))


def _grid_plan(args) -> list[tuple[Path, Path | None, TrainConfig]]:
    """The grid's 20 runs in write order, teachers first: (run directory, its teacher's
    run directory or None, config).  Run j is seeded by generate_state(22)[2 + j]; [0]
    and [1] seed the synthetic set and its split."""
    seeds = np.random.SeedSequence(args.seed).generate_state(22)
    out = Path(args.out)
    teachers = {strat: out / "teachers" / strat for strat in STRATEGY_KINDS}
    base = {k: getattr(args, k) for k in _TRAIN_FLAGS}
    student = dict(base, lr=args.student_lr, epochs=args.student_epochs,
                   **{k: getattr(args, k) for k in _KD_FLAGS})
    runs = [(teachers[strat], None, strat, base) for strat in STRATEGY_KINDS] + [
        (out / "cells" / f"{strat}-{arm}", teachers[strat if teacher_aug else "none"],
         strat if student_aug else "none", student)
        for strat in STRATEGY_KINDS for arm, (teacher_aug, student_aug) in ARMS.items()]
    return [(run, teacher, TrainConfig(seed=int(seeds[2 + j]), strategy=AugmentStrategy(strat),
                                       **flags))
            for j, (run, teacher, strat, flags) in enumerate(runs)]


def _grid_datasets(args) -> list[tuple[D.Dataset, dict]]:
    """The grid's train and eval sets, each with its descriptor: a 2:1 split, seeded by
    generate_state(22)[1], of --dataset or of a synthetic set seeded by [0]."""
    seeds = np.random.SeedSequence(args.seed).generate_state(22)
    synth_params = {"seed": int(seeds[0]), "n_classes": 4, "per_class": 750,
                    "img_side": 12, "difficulty": args.difficulty, "channels": 1}
    if args.dataset == "synth":
        full = D.make_synthetic(**synth_params)
        full_desc = {"kind": "synthetic", "params": synth_params, "digest": full.digest()}
    else:
        full, full_desc = _path_dataset(args.dataset)
    fractions, split_seed = [2 / 3, 1 / 3], int(seeds[1])
    return [(ds, {"kind": "split", "parent": full_desc, "fractions": fractions,
                  "seed": split_seed, "index": i, "digest": ds.digest()})
            for i, ds in enumerate(D.split(full, fractions, split_seed))]


def _cmd_matrix(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # Each student fits in a worker process, submitted once its teacher's checkpoint is
    # on disk, and the worker writes its checkpoint/, teacher/ and dump/.  This process
    # trains and writes the teachers and seals every run in plan order: reports, then
    # the manifest.  A file creation costs this process's kernel time, so the workers
    # create most of them.
    plan = _grid_plan(args)
    cells = len(plan) - len(STRATEGY_KINDS)
    fitter = _Fitter(*_grid_datasets(args), args.t_eval, args.bins)
    # the tables are the grid's seal: none stands beside runs of another grid
    for name in ("matrix_metrics.csv", "trends.txt"):
        (out / name).unlink(missing_ok=True)
    pool = _cell_pool(cells, fitter)
    # plan index of a cell -> its pool future, or a call that fits and writes it here
    fits = {}

    def submit(teacher_run: Path) -> None:
        for j, (run, needs, cfg) in enumerate(plan):
            if needs == teacher_run:
                cell = (run, cfg, args.student_arch, teacher_run / "checkpoint", f"cell-{run.name}")
                fits[j] = (pool.submit(_fit_cell, *cell) if pool
                           else functools.partial(fitter, *cell))

    sealed = 0
    try:
        for run, teacher, cfg in plan:
            if teacher is None:
                fit = fitter(run, cfg, args.teacher_arch, run_id=f"teacher-{run.name}",
                             checkpointed=functools.partial(submit, run))
            else:
                job = fits.pop(sealed)
                fit = job.result() if pool else job()
            ev = _seal(run, fit).metrics["eval"]
            sealed += 1
            print(f"{run.relative_to(out).as_posix()} eval accuracy {ev['accuracy']:.4f}")
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        # Past a failure, the runs after the last seal hold what workers wrote ahead of
        # it, or an earlier grid's runs: remove them, so a failed grid leaves the same
        # files for any worker count and every run in it is of this grid.
        for run, _, _ in plan[sealed:]:
            if run.exists():
                shutil.rmtree(run)
    _write_tables(out, plan)
    print(f"matrix complete: {cells} cells -> {out / 'matrix_metrics.csv'}")
    return 0


def _write_tables(out: Path, plan) -> None:
    """Build matrix_metrics.csv and trends.txt from the plan's manifests alone.  The
    trends compare directionally against the reference full-scale findings (reported,
    not asserted)."""
    ev = {run: R.read_manifest(run / "manifest.json", verify=False).metrics["eval"]
          for run, _, _ in plan}
    rows = [(run.name, *run.name.split("-", 1), R.format_float(ev[teacher]["accuracy"]),
             *(R.format_float(ev[run][c]) for c in R.METRIC_COLUMNS))
            for run, teacher, _ in plan if teacher]
    with open(out / "matrix_metrics.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([MATRIX_COLUMNS, *rows])
    lines = []
    for strat in ("mixup", "cutmix"):
        for metric in ("separability", "discrimination"):
            got, base = (ev[out / "teachers" / s][metric] for s in (strat, "none"))
            lines.append(f"{metric}[{strat}]={got!r} vs baseline={base!r} higher={got > base}")
        got, base = (ev[out / "cells" / f"{s}-teacher-aug"]["accuracy"] for s in (strat, "none"))
        lines.append(f"student_accuracy[{strat}-teacher-aug]={got!r} "
                     f"vs baseline-student={base!r} beats_baseline={got > base}")
    (out / "trends.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print("trend:", line)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps no state
    between calls, so every call to `main` may share it."""
    parser = argparse.ArgumentParser(
        prog="distillab",
        description="Deterministic desk-scale distillation and augmentation laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=500)
    p.add_argument("--side", type=int, default=12)
    p.add_argument("--difficulty", type=float, default=0.5)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--contrast", type=float, default=1.0)
    p.add_argument("--brightness", type=float, default=0.0)

    for command, (role, _, arch, help_text) in _TRAIN_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dataset", required=True)
        if role == "student":
            p.add_argument("--teacher", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--eval-dataset", default=None)
        p.add_argument("--arch", choices=ARCHITECTURES, default=arch)
        _add_eval_flags(p)
        _add_config_flags(p, _config_flags(role),
                          lr=STUDENT_LR if role == "student" else TrainConfig.lr)
        p.add_argument("--strategy", choices=STRATEGY_KINDS, default="none")
        for name, kind in _STRATEGY_PARAMS.items():
            p.add_argument("--" + name.replace("_", "-"), type=kind, default=None)
        p.add_argument("--no-size-jitter", action="store_true")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint, or re-run a manifest")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint", default=None)
    source.add_argument("--from-manifest", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--out", required=True)
    _add_eval_flags(p, t_eval=None, bins=None)

    p = sub.add_parser("report", help="emit CSV reports from a stored evaluation dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reports", default="all")
    p.add_argument("--bins", type=int, default=N_BINS)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-5)

    p = sub.add_parser("matrix", help="run the 5-strategy x 3-arm distillation grid")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dataset", default="synth")
    p.add_argument("--out", required=True)
    p.add_argument("--teacher-arch", choices=ARCHITECTURES, default="teacher-cnn")
    p.add_argument("--student-arch", choices=ARCHITECTURES, default="student-mlp")
    p.add_argument("--difficulty", type=float, default=1.0)
    _add_eval_flags(p)
    _add_config_flags(p, _TRAIN_FLAGS + _KD_FLAGS)
    p.add_argument("--student-lr", type=float, default=STUDENT_LR)
    p.add_argument("--student-epochs", type=int, default=TrainConfig.epochs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"synth": _cmd_synth, "train-teacher": _cmd_train, "distill": _cmd_train,
                "evaluate": lambda a: _cmd_evaluate(a, parser), "report": _cmd_report,
                "gradcheck": _cmd_gradcheck, "matrix": _cmd_matrix}
    try:
        return commands[args.command](args)
    except (FormatError, IntegrityError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())