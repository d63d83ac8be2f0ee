"""Command-line front door: train, distill, evaluate, report, and the full grid.

Every run lands in a self-contained directory: manifest.json (hash-referenced
file inventory + config + metrics), checkpoint/, and optionally dump/ and
reports/.  A student run also carries a copy of its teacher checkpoint, so
`evaluate --from-manifest` can rebuild any result from the manifest alone.
"""

from __future__ import annotations

import argparse
import csv
import datetime
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

ARMS = ("teacher-aug", "student-aug", "both")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _strategy_from_args(args) -> AugmentStrategy:
    params = {}
    for flag, key in (("pad", "pad"), ("n_holes", "n_holes"), ("hole_size", "hole_size"),
                      ("fill", "fill"), ("beta_alpha", "beta_alpha"),
                      ("beta_a", "beta_a"), ("beta_b", "beta_b")):
        v = getattr(args, flag, None)
        if v is not None:
            params[key] = v
    if getattr(args, "no_size_jitter", False):
        params["size_jitter"] = False
    defaults = AugmentStrategy(args.strategy).params
    params = {k: v for k, v in params.items() if k in defaults}
    return AugmentStrategy(args.strategy, params)


def _add_strategy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=STRATEGY_KINDS, default="none")
    p.add_argument("--pad", type=int, default=None)
    p.add_argument("--n-holes", dest="n_holes", type=int, default=None)
    p.add_argument("--hole-size", dest="hole_size", type=int, default=None)
    p.add_argument("--fill", type=float, default=None)
    p.add_argument("--no-size-jitter", dest="no_size_jitter", action="store_true")
    p.add_argument("--beta-alpha", dest="beta_alpha", type=float, default=None)
    p.add_argument("--beta-a", dest="beta_a", type=float, default=None)
    p.add_argument("--beta-b", dest="beta_b", type=float, default=None)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.08)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=1e-4)


def _dataset_desc(spec: str, ds: D.Dataset) -> dict:
    return {"kind": "path", "spec": spec, "digest": ds.digest()}


def _synth_desc(params: dict, ds: D.Dataset) -> dict:
    return {"kind": "synthetic", "params": params, "digest": ds.digest()}


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


def _emit_run(out: Path, model: TrainedModel, arch: str, train_desc: dict,
              eval_ds: D.Dataset | None, eval_desc: dict | None, t_eval: float,
              n_bins: int, teacher_ckpt_src: Path | None = None,
              run_id: str | None = None) -> dict:
    """Write checkpoint, optional dump+reports, and the manifest for one run."""
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for p in R.save_checkpoint(model.net, out / "checkpoint"):
        files[f"checkpoint/{p.name}"] = p
    if teacher_ckpt_src is not None:
        tdir = out / "teacher"
        if tdir.exists():
            shutil.rmtree(tdir)
        shutil.copytree(teacher_ckpt_src, tdir)
        for p in sorted(tdir.iterdir()):
            files[f"teacher/{p.name}"] = p
    metrics: dict = {"final_train": model.history[-1] if model.history else {}}
    if eval_ds is not None:
        dump = evaluate_model(model, eval_ds, t_eval=t_eval)
        for p in R.save_eval_dump(dump, out / "dump"):
            files[f"dump/{p.name}"] = p
        written = R.emit_report(dump, out / "reports", reports="all", n_bins=n_bins)
        for name, p in written.items():
            files[f"reports/{name}"] = p
        metrics["eval"] = M.summary_metrics(dump, n_bins=n_bins)
    manifest = R.RunManifest(
        run_id=run_id or f"{model.role}-{model.config.strategy.kind}-seed{model.config.seed}",
        created=_now(),
        role=model.role,
        config={"train": model.config.to_dict(), "arch": arch, "t_eval": t_eval,
                "n_bins": n_bins},
        dataset={"train": train_desc, "eval": eval_desc},
        metrics=metrics,
    )
    for name, p in files.items():
        manifest.add_file(name, p, out)
    R.write_manifest(manifest, out / "manifest.json")
    return metrics


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


def _cmd_train_teacher(args) -> int:
    ds = D.resolve_dataset(args.dataset)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                      momentum=args.momentum, weight_decay=args.weight_decay,
                      seed=args.seed, strategy=_strategy_from_args(args))
    model = train_teacher(cfg, ds, arch=args.arch)
    eval_ds = D.resolve_dataset(args.eval_dataset) if args.eval_dataset else None
    metrics = _emit_run(Path(args.out), model, args.arch, _dataset_desc(args.dataset, ds),
                        eval_ds, _dataset_desc(args.eval_dataset, eval_ds) if eval_ds else None,
                        args.t_eval, args.bins)
    acc = metrics.get("eval", {}).get("accuracy", metrics["final_train"].get("accuracy"))
    print(f"teacher trained: accuracy {acc}")
    return 0


def _cmd_distill(args) -> int:
    ds = D.resolve_dataset(args.dataset)
    ckpt = _resolve_teacher(Path(args.teacher))
    teacher_net = R.load_checkpoint(ckpt)
    teacher = TrainedModel(net=teacher_net, role="teacher", config=TrainConfig(), history=[])
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                      momentum=args.momentum, weight_decay=args.weight_decay,
                      seed=args.seed, strategy=_strategy_from_args(args),
                      temperature=args.temperature, distill_weight=args.distill_weight)
    model = train_student(cfg, teacher, ds, arch=args.arch)
    eval_ds = D.resolve_dataset(args.eval_dataset) if args.eval_dataset else None
    metrics = _emit_run(Path(args.out), model, args.arch, _dataset_desc(args.dataset, ds),
                        eval_ds, _dataset_desc(args.eval_dataset, eval_ds) if eval_ds else None,
                        args.t_eval, args.bins, teacher_ckpt_src=ckpt)
    acc = metrics.get("eval", {}).get("accuracy", metrics["final_train"].get("accuracy"))
    print(f"student distilled: accuracy {acc}")
    return 0


def _rerun_from_manifest(manifest_path: Path, out: Path, n_bins_override=None) -> int:
    m = R.read_manifest(manifest_path)
    base = manifest_path.parent
    cfg = TrainConfig.from_dict(m.config["train"])
    train_ds = dataset_from_desc(m.dataset["train"])
    if m.dataset.get("eval") is None:
        raise FormatError(f"{manifest_path}: run recorded no eval dataset to reproduce")
    eval_ds = dataset_from_desc(m.dataset["eval"])
    if m.role == "teacher":
        model = train_teacher(cfg, train_ds, arch=m.config["arch"])
    elif m.role == "student":
        teacher_net = R.load_checkpoint(base / "teacher")
        teacher = TrainedModel(net=teacher_net, role="teacher", config=TrainConfig(), history=[])
        model = train_student(cfg, teacher, train_ds, arch=m.config["arch"])
    else:
        raise FormatError(f"{manifest_path}: unknown role {m.role!r}")
    n_bins = n_bins_override if n_bins_override is not None else m.config.get("n_bins", 15)
    dump = evaluate_model(model, eval_ds, t_eval=m.config.get("t_eval", 1.0))
    out.mkdir(parents=True, exist_ok=True)
    R.emit_report(dump, out, reports="all", n_bins=n_bins)
    recomputed = M.summary_metrics(dump, n_bins=n_bins)
    recorded = m.metrics.get("eval", {})
    mismatched = [k for k, v in recorded.items()
                  if not (recomputed.get(k) == v or (v != v and recomputed.get(k) != recomputed.get(k)))]
    if mismatched:
        print(f"error: rerun metrics differ from manifest on {mismatched}", file=sys.stderr)
        return 1
    print(f"rerun reproduced {len(recorded)} recorded metrics bitwise")
    return 0


def _cmd_evaluate(args, parser: argparse.ArgumentParser) -> int:
    if args.from_manifest:
        if not args.out:
            parser.error("--out is required")
        if args.t_eval is not None:
            parser.error("--t-eval cannot be combined with --from-manifest; "
                         "the replay uses the manifest's t_eval")
        return _rerun_from_manifest(Path(args.from_manifest), Path(args.out), args.bins)
    if not args.checkpoint:
        parser.error("--checkpoint is required (or use --from-manifest)")
    if not args.dataset:
        parser.error("--dataset is required")
    if not args.out:
        parser.error("--out is required")
    n_bins = args.bins if args.bins is not None else 15
    net = R.load_checkpoint(_resolve_teacher(Path(args.checkpoint)))
    ds = D.resolve_dataset(args.dataset)
    dump = evaluate_model(net, ds, t_eval=args.t_eval if args.t_eval is not None else 1.0)
    out = Path(args.out)
    R.save_eval_dump(dump, out / "dump")
    R.emit_report(dump, out / "reports", reports="all", n_bins=n_bins)
    vals = M.summary_metrics(dump, n_bins=n_bins)
    print(f"evaluated {dump.n_samples} samples: accuracy {vals['accuracy']}")
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


def _cmd_matrix(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).generate_state(22)
    synth_params = {"seed": int(seeds[0]), "n_classes": 4, "per_class": 750,
                    "img_side": 12, "difficulty": args.difficulty, "channels": 1}
    if args.dataset == "synth":
        full = D.make_synthetic(**synth_params)
        full_desc = _synth_desc(synth_params, full)
    else:
        full = D.resolve_dataset(args.dataset)
        full_desc = _dataset_desc(args.dataset, full)
    n = full.n_samples
    fractions = [2000 / 3000, 1000 / 3000] if n == 3000 else [2 / 3, 1 / 3]
    split_seed = int(seeds[1])
    train_ds, eval_ds = D.split(full, fractions, split_seed)
    train_desc = {"kind": "split", "parent": full_desc, "fractions": fractions,
                  "seed": split_seed, "index": 0, "digest": train_ds.digest()}
    eval_desc = {"kind": "split", "parent": full_desc, "fractions": fractions,
                 "seed": split_seed, "index": 1, "digest": eval_ds.digest()}

    teacher_cfg_base = dict(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                            momentum=args.momentum, weight_decay=args.weight_decay)
    teachers: dict[str, tuple[TrainedModel, Path, float]] = {}
    for i, strat in enumerate(STRATEGY_KINDS):
        cfg = TrainConfig(seed=int(seeds[2 + i]), strategy=AugmentStrategy(strat),
                          **teacher_cfg_base)
        model = train_teacher(cfg, train_ds, arch=args.teacher_arch)
        tdir = out / "teachers" / strat
        tmetrics = _emit_run(tdir, model, args.teacher_arch, train_desc, eval_ds, eval_desc,
                             args.t_eval, args.bins, run_id=f"teacher-{strat}")
        acc = tmetrics["eval"]["accuracy"]
        teachers[strat] = (model, tdir / "checkpoint", acc)
        print(f"teacher[{strat}] eval accuracy {acc:.4f}")

    rows = []
    cell_index = 0
    for strat in STRATEGY_KINDS:
        for arm in ARMS:
            t_strat = strat if arm in ("teacher-aug", "both") else "none"
            s_strat = strat if arm in ("student-aug", "both") else "none"
            teacher_model, teacher_ckpt, teacher_acc = teachers[t_strat]
            student_cfg = dict(teacher_cfg_base, lr=args.student_lr, epochs=args.student_epochs)
            cfg = TrainConfig(seed=int(seeds[7 + cell_index]),
                              strategy=AugmentStrategy(s_strat),
                              temperature=args.temperature,
                              distill_weight=args.distill_weight, **student_cfg)
            student = train_student(cfg, teacher_model, train_ds, arch=args.student_arch)
            cell = f"{strat}-{arm}"
            cdir = out / "cells" / cell
            metrics = _emit_run(cdir, student, args.student_arch, train_desc, eval_ds,
                                eval_desc, args.t_eval, args.bins,
                                teacher_ckpt_src=teacher_ckpt, run_id=f"cell-{cell}")
            svals = metrics["eval"]
            rows.append([cell, strat, arm, teacher_acc] + [svals[c] for c in R.METRIC_COLUMNS])
            print(f"cell[{cell}] teacher acc {teacher_acc:.4f} student acc {svals['accuracy']:.4f}")
            cell_index += 1

    agg = out / "matrix_metrics.csv"
    with open(agg, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(MATRIX_COLUMNS)
        for row in rows:
            w.writerow([row[0], row[1], row[2]] + [R.format_float(v) for v in row[3:]])
    _write_trends(out, teachers, rows)
    print(f"matrix complete: {len(rows)} cells -> {agg}")
    return 0


def _write_trends(out: Path, teachers, rows) -> None:
    """Directional comparison against the reference full-scale findings (reported, not asserted)."""
    sep = {}
    disc = {}
    for strat, (model, ckpt_dir, acc) in teachers.items():
        m = R.read_manifest(out / "teachers" / strat / "manifest.json", verify=False)
        sep[strat] = m.metrics["eval"]["separability"]
        disc[strat] = m.metrics["eval"]["discrimination"]
    student_acc = {row[0]: row[3 + 1] for row in rows}  # accuracy column
    lines = []
    for strat in ("mixup", "cutmix"):
        lines.append(f"separability[{strat}]={sep[strat]!r} vs baseline={sep['none']!r} "
                     f"higher={sep[strat] > sep['none']}")
        lines.append(f"discrimination[{strat}]={disc[strat]!r} vs baseline={disc['none']!r} "
                     f"higher={disc[strat] > disc['none']}")
        lines.append(f"student_accuracy[{strat}-teacher-aug]={student_acc[f'{strat}-teacher-aug']!r} "
                     f"vs baseline-student={student_acc['none-teacher-aug']!r} "
                     f"beats_baseline={student_acc[f'{strat}-teacher-aug'] > student_acc['none-teacher-aug']}")
    (out / "trends.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print("trend:", line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distillab",
        description="Deterministic desk-scale distillation and augmentation laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", dest="per_class", type=int, default=500)
    p.add_argument("--side", type=int, default=12)
    p.add_argument("--difficulty", type=float, default=0.5)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--contrast", type=float, default=1.0)
    p.add_argument("--brightness", type=float, default=0.0)

    p = sub.add_parser("train-teacher", help="train a teacher under an augmentation strategy")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eval-dataset", dest="eval_dataset", default=None)
    p.add_argument("--arch", choices=ARCHITECTURES, default="teacher-cnn")
    p.add_argument("--t-eval", dest="t_eval", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=15)
    _add_train_flags(p)
    _add_strategy_flags(p)

    p = sub.add_parser("distill", help="distill a teacher checkpoint into a student")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eval-dataset", dest="eval_dataset", default=None)
    p.add_argument("--arch", choices=ARCHITECTURES, default="student-mlp")
    p.add_argument("--t-eval", dest="t_eval", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--temperature", type=float, default=20.0)
    p.add_argument("--distill-weight", dest="distill_weight", type=float, default=0.5)
    _add_train_flags(p)
    _add_strategy_flags(p)
    # the tau^2-scaled soft-target gradient runs hotter than plain CE
    p.set_defaults(lr=0.02)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint, or re-run a manifest")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--from-manifest", dest="from_manifest", default=None)
    p.add_argument("--t-eval", dest="t_eval", type=float, default=None)
    p.add_argument("--bins", type=int, default=None)

    p = sub.add_parser("report", help="emit CSV reports from a stored evaluation dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reports", default="all")
    p.add_argument("--bins", type=int, default=15)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-5)

    p = sub.add_parser("matrix", help="run the 5-strategy x 3-arm distillation grid")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dataset", default="synth")
    p.add_argument("--out", required=True)
    p.add_argument("--teacher-arch", dest="teacher_arch", choices=ARCHITECTURES,
                   default="teacher-cnn")
    p.add_argument("--student-arch", dest="student_arch", choices=ARCHITECTURES,
                   default="student-mlp")
    p.add_argument("--difficulty", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=20.0)
    p.add_argument("--distill-weight", dest="distill_weight", type=float, default=0.5)
    p.add_argument("--t-eval", dest="t_eval", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--student-lr", dest="student_lr", type=float, default=0.02)
    p.add_argument("--student-epochs", dest="student_epochs", type=int, default=15)
    _add_train_flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "train-teacher":
            return _cmd_train_teacher(args)
        if args.command == "distill":
            return _cmd_distill(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args, parser)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        if args.command == "matrix":
            return _cmd_matrix(args)
        parser.error(f"unknown command {args.command!r}")
    except (FormatError, IntegrityError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())