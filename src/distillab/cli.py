"""The `distillab` command: parses each command and dispatches it to `distillab.runs`,
which writes and replays run directories, or `distillab.grid`, which runs the grid."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import data as D
from . import grid as G
from . import metrics as M
from . import runs
from . import runstore as R
from .augment import STRATEGY_KINDS, AugmentStrategy
from .distill import TrainConfig, evaluate_model
from .errors import FormatError, IntegrityError
from .nn import ARCHITECTURES

STUDENT_LR = 0.02  # the tau^2-scaled soft-target gradient runs hotter than plain CE


def _add_config_flags(p: argparse.ArgumentParser, names, **defaults) -> None:
    """One flag per TrainConfig field, typed and defaulted from TrainConfig unless overridden."""
    for name in names:
        default = defaults.get(name, getattr(TrainConfig, name))
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)


def _cmd_synth(args) -> int:
    ds = D.make_synthetic(seed=args.seed, n_classes=args.classes, per_class=args.per_class,
                          img_side=args.side, difficulty=args.difficulty,
                          channels=args.channels)
    D.save_dataset(ds, args.out)
    print(f"wrote {ds.n_samples} samples, {ds.n_classes} classes -> {args.out}")
    return 0


# command -> (role, summary line, default arch, help, TrainConfig flags)
_TRAIN_COMMANDS = {
    "train-teacher": ("teacher", "teacher trained", "teacher-cnn",
                      "train a teacher under an augmentation strategy", G.TRAIN_FLAGS),
    "distill": ("student", "student distilled", "student-mlp",
                "distill a teacher checkpoint into a student", G.TRAIN_FLAGS + G.KD_FLAGS),
}


def _cmd_train(args) -> int:
    role, done, _, _, flags = _TRAIN_COMMANDS[args.command]
    cfg = TrainConfig(seed=args.seed, strategy=AugmentStrategy(args.strategy),
                      **{k: getattr(args, k) for k in flags})
    run = runs.Run(Path(args.out), Path(args.teacher) if role == "student" else None, cfg,
                   args.arch, f"{role}-{args.strategy}-seed{args.seed}")
    fitter = runs.Fitter(runs.path_dataset(args.dataset), runs.path_dataset(args.eval_dataset))
    metrics = runs.seal(run.out, fitter(run)).metrics
    print(f"{done}: accuracy {metrics['eval']['accuracy']}")
    return 0


def _cmd_evaluate(args, parser: argparse.ArgumentParser) -> int:
    if args.from_manifest:
        # --checkpoint is refused by its group
        if args.dataset is not None:
            parser.error("--dataset cannot be combined with --from-manifest; "
                         "the replay uses the manifest's values")
        rerun = runs.replay(Path(args.from_manifest), Path(args.out))
        print(f"rerun reproduced all {len(rerun.files)} files bitwise")
        return 0
    if not args.dataset:
        parser.error("--dataset is required with --checkpoint")
    out = Path(args.out)
    net = R.load_checkpoint(runs.resolve_checkpoint(Path(args.checkpoint)))
    dump = evaluate_model(net, D.resolve_dataset(args.dataset))
    R.save_eval_dump(dump, out / "dump")
    R.emit_report(dump, out / "reports")
    print(f"evaluated {dump.n_samples} samples: accuracy {M.summary_metrics(dump)['accuracy']}")
    return 0


def _cmd_report(args) -> int:
    written = R.emit_report(R.load_eval_dump(args.dump), args.out)
    for name in sorted(written):
        print(f"wrote {name}: {written[name]}")
    return 0


def _cmd_matrix(args) -> int:
    out = Path(args.out)
    plan = G.plan(args)
    cells = sum(run.teacher is not None for run in plan)
    fitter = runs.Fitter(*G.datasets(args))
    # the tables, written last, are the grid's seal
    G.execute(plan, fitter, G.cell_pool(cells, fitter))
    G.write_tables(out, plan)
    print(f"matrix complete: {cells} cells -> {out / 'matrix_metrics.csv'}")
    return 0


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

    for command, (role, _, arch, help_text, flags) in _TRAIN_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dataset", required=True)
        if role == "student":
            p.add_argument("--teacher", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--eval-dataset", required=True)
        p.add_argument("--arch", choices=ARCHITECTURES, default=arch)
        _add_config_flags(p, flags,
                          lr=STUDENT_LR if role == "student" else TrainConfig.lr)
        p.add_argument("--strategy", choices=STRATEGY_KINDS, default="none")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint, or re-run a manifest")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint", default=None)
    source.add_argument("--from-manifest", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="emit CSV reports from a stored evaluation dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("matrix", help="run the 5-strategy x 3-arm distillation grid")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dataset", default="synth")
    p.add_argument("--out", required=True)
    p.add_argument("--teacher-arch", choices=ARCHITECTURES, default="teacher-cnn")
    p.add_argument("--student-arch", choices=ARCHITECTURES, default="student-mlp")
    p.add_argument("--difficulty", type=float, default=1.0)
    _add_config_flags(p, G.TRAIN_FLAGS + G.KD_FLAGS)
    p.add_argument("--student-lr", type=float, default=STUDENT_LR)
    p.add_argument("--student-epochs", type=int, default=TrainConfig.epochs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Every command writes into its --out, which must be absent or
    an empty directory, so that what it holds afterwards is what this command wrote,
    and no command deletes what it did not write."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"synth": _cmd_synth, "train-teacher": _cmd_train, "distill": _cmd_train,
                "evaluate": lambda a: _cmd_evaluate(a, parser), "report": _cmd_report,
                "matrix": _cmd_matrix}
    try:
        out = Path(args.out)
        if out.exists() and (not out.is_dir() or any(out.iterdir())):
            raise FileExistsError(f"--out {out} is not an empty directory")
        return commands[args.command](args)
    except (FormatError, IntegrityError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())