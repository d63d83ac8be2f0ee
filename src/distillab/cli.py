"""The `distillab` command: parses each command and dispatches it to `distillab.runs`,
which writes and replays run directories, or `distillab.grid`, which runs the grid."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import data as D
from . import grid as G
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
    train = runs.path_dataset(args.dataset)
    ckpt = runs.resolve_checkpoint(Path(args.teacher)) if role == "student" else None
    evalset = runs.path_dataset(args.eval_dataset) if args.eval_dataset else None
    fitter = runs.Fitter(train, evalset)
    metrics = runs.seal(Path(args.out), fitter(Path(args.out), cfg, args.arch, ckpt)).metrics
    acc = metrics.get("eval", {}).get("accuracy", metrics["final_train"].get("accuracy"))
    print(f"{done}: accuracy {acc}")
    return 0


def _cmd_evaluate(args, parser: argparse.ArgumentParser) -> int:
    if args.from_manifest:
        # --checkpoint is refused by its group
        if args.dataset is not None:
            parser.error("--dataset cannot be combined with --from-manifest; "
                         "the replay uses the manifest's values")
        recorded, rerun = runs.replay(Path(args.from_manifest), Path(args.out))
        for name, ref in rerun.files.items():
            if recorded.files.get(name, {}).get("sha256") != ref["sha256"]:
                print(f"error: {name} differs from manifest", file=sys.stderr)
                return 1
        print(f"rerun reproduced all {len(rerun.files)} files bitwise")
        return 0
    if not args.dataset:
        parser.error("--dataset is required with --checkpoint")
    out = Path(args.out)
    ckpt = runs.resolve_checkpoint(Path(args.checkpoint))
    for what, paths in (("data set", runs.dataset_paths({"kind": "path", "spec": args.dataset})),
                        ("checkpoint", [ckpt])):
        runs.refuse_to_clear(what, paths, out, ("dump", "reports"), "evaluation")
    net = R.load_checkpoint(ckpt)
    dump = evaluate_model(net, D.resolve_dataset(args.dataset))
    runs.clear(out, ("dump", "reports"))
    R.save_eval_dump(dump, out / "dump")
    _, vals = runs.write_reports(out, dump)
    print(f"evaluated {dump.n_samples} samples: accuracy {vals['accuracy']}")
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
    # a failed grid removes every plan run it did not seal, whatever lies in it
    runs.refuse_to_clear("data set", fitter.reads, out,
                         [run.out.relative_to(out) for run in plan], "grid")
    out.mkdir(parents=True, exist_ok=True)
    # the tables are the grid's seal: none stands beside runs of another grid
    for name in ("matrix_metrics.csv", "trends.txt"):
        (out / name).unlink(missing_ok=True)
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
        p.add_argument("--eval-dataset", default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"synth": _cmd_synth, "train-teacher": _cmd_train, "distill": _cmd_train,
                "evaluate": lambda a: _cmd_evaluate(a, parser), "report": _cmd_report,
                "matrix": _cmd_matrix}
    try:
        return commands[args.command](args)
    except (FormatError, IntegrityError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())