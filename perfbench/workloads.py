"""The benchmark's workloads: what one pass runs, its set-up, and its output check.

Each workload builds every input from the benchmark seed during `setup()`,
runs one closed-loop pass in `run()` (the timed region), and checks and
digests that pass's outputs in `check()`, outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from distillab import cli
from distillab import data as D
from distillab import runstore as R
from distillab.augment import AugmentStrategy
from distillab.distill import TrainConfig, train_student, train_teacher
from distillab.errors import FormatError, IntegrityError

# Epochs per fit in a pass, for teachers and students alike.  The CLI default
# is 15; one epoch keeps a grid pass near 8 s on 2 cores, so a run holds
# several passes.
EPOCHS = 1
STRATEGIES = ("none", "standard", "cutout", "mixup", "cutmix")
# arm -> (teacher trained with the cell's strategy, student trained with it)
ARMS = {"teacher-aug": (True, False), "student-aug": (False, True), "both": (True, True)}
GRID_TRAIN_N = 2000  # the grid's train split of its 3,000-sample synthetic set
GRID_RUNS = len(STRATEGIES) * (1 + len(ARMS))  # teacher and cell run directories
EVAL_N = 4000  # eval-io's stored eval set: its N x N float64 Gram is 128 MB
EVAL_BANK = (("teacher-cnn", "none"), ("teacher-cnn", "mixup"),
             ("student-mlp", "none"), ("student-mlp", "cutmix"))


@dataclass
class Check:
    """What one pass's outputs showed: operations checked, failures, digest, bytes."""

    attempted: int
    failed: int
    digest: str
    artifact_bytes: int = 0
    unique_bytes: int = 0


def call_cli(argv: list[str]) -> int:
    """Run one distillab command with its stdout discarded; raising counts as failing."""
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except Exception:  # a crashing command is a failed operation, not a crashed benchmark
        traceback.print_exc()
        return -1


def digest_tree(root: Path) -> tuple[str, int, int]:
    """sha256 over every file under root, plus total and distinct-content bytes.

    A manifest is hashed with its `created` field blanked: that field is
    wall-clock time, the one byte range of a run that is not deterministic.
    """
    h = hashlib.sha256()
    total = 0
    distinct: dict[str, int] = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        raw = path.read_bytes()
        total += len(raw)
        content = hashlib.sha256(raw).hexdigest()
        distinct[content] = len(raw)
        if path.name == "manifest.json":
            doc = json.loads(raw)
            doc["created"] = ""
            content = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        h.update(f"{path.relative_to(root).as_posix()}\0{content}\n".encode())
    return h.hexdigest(), total, sum(distinct.values())


def _grid_seeds(seed: int) -> np.ndarray:
    # the same derivation `distillab matrix` uses: dataset, split, 5 teachers, 15 cells
    return np.random.SeedSequence(seed).generate_state(22)


class Grid:
    """`distillab matrix` on the default synthetic set: every layer, with full artifact I/O."""

    samples_per_pass = GRID_RUNS * EPOCHS * GRID_TRAIN_N
    runs_per_pass = GRID_RUNS

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        # warm-up: a mini grid that runs every code path a pass runs
        warm = self.work / "warmup"
        shutil.rmtree(warm, ignore_errors=True)
        D.save_dataset(D.make_synthetic(seed=self.seed, per_class=40), warm / "data")
        rc = call_cli(["matrix", "--seed", str(self.seed), "--dataset", str(warm / "data"),
                       "--out", str(warm / "out"), "--epochs", "1", "--student-epochs", "1"])
        if rc != 0:
            raise RuntimeError(f"warm-up grid exited with {rc}")
        shutil.rmtree(warm)

    def run(self, out: Path) -> list[int]:
        return [call_cli(["matrix", "--seed", str(self.seed), "--out", str(out),
                          "--epochs", str(EPOCHS), "--student-epochs", str(EPOCHS)])]

    def check(self, out: Path, rcs: list[int]) -> Check:
        failed = sum(rc != 0 for rc in rcs)
        manifests = sorted(out.glob("*/*/manifest.json"))
        for path in manifests:
            try:
                R.read_manifest(path, verify=True)
            except (FormatError, IntegrityError, OSError) as exc:
                print(f"check failed: {path.relative_to(out)}: {exc}")
                failed += 1
        failed += len(manifests) != GRID_RUNS
        try:
            with open(out / "matrix_metrics.csv", newline="", encoding="utf-8") as fh:
                cells = len(list(csv.reader(fh))) - 1
        except OSError:
            cells = 0
        if cells != len(STRATEGIES) * len(ARMS):
            print(f"check failed: matrix_metrics.csv has {cells} cell rows")
            failed += 1
        digest, total, unique = digest_tree(out)
        return Check(len(rcs) + GRID_RUNS + 2, failed, digest, total, unique)


class Distill:
    """The grid's 15 student fits against 5 teachers trained in set-up; no evaluation, no files."""

    samples_per_pass = len(STRATEGIES) * len(ARMS) * EPOCHS * GRID_TRAIN_N
    runs_per_pass = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        args = cli.build_parser().parse_args(["matrix", "--seed", str(self.seed),
                                              "--out", str(self.work)])
        seeds = _grid_seeds(self.seed)
        full = D.make_synthetic(seed=int(seeds[0]), n_classes=4, per_class=750, img_side=12,
                                difficulty=args.difficulty, channels=1)
        self.train, _ = D.split(full, [2000 / 3000, 1000 / 3000], int(seeds[1]))
        base = dict(epochs=EPOCHS, batch_size=args.batch_size, lr=args.lr,
                    momentum=args.momentum, weight_decay=args.weight_decay)
        teachers = {
            strat: train_teacher(TrainConfig(seed=int(seeds[2 + i]), strategy=AugmentStrategy(strat),
                                             **base), self.train, arch=args.teacher_arch)
            for i, strat in enumerate(STRATEGIES)}
        self.arch = args.student_arch
        self.cells = []
        cells = [(strat, arm) for strat in STRATEGIES for arm in ARMS]
        for k, (strat, arm) in enumerate(cells):
            teacher_aug, student_aug = ARMS[arm]
            cfg = TrainConfig(seed=int(seeds[7 + k]),
                              strategy=AugmentStrategy(strat if student_aug else "none"),
                              temperature=args.temperature, distill_weight=args.distill_weight,
                              **dict(base, lr=args.student_lr))
            self.cells.append((cfg, teachers[strat if teacher_aug else "none"]))
        # warm-up: one short augmented fit on a slice of the train set
        warm, = D.split(self.train, [0.05], self.seed)
        cfg, teacher = self.cells[-1]
        train_student(cfg, teacher, warm, arch=self.arch)

    def run(self, out: Path) -> list[str | None]:
        digests = []
        for cfg, teacher in self.cells:
            try:
                digests.append(train_student(cfg, teacher, self.train, arch=self.arch)
                               .net.params_digest())
            except Exception:  # a failed fit is counted, and the pass goes on
                traceback.print_exc()
                digests.append(None)
        return digests

    def check(self, out: Path, digests: list[str | None]) -> Check:
        joined = "\n".join(str(d) for d in digests)
        return Check(len(digests), digests.count(None), hashlib.sha256(joined.encode()).hexdigest())


class EvalIO:
    """`evaluate` then `report` over a bank of stored checkpoints and a stored 4,000-sample eval set."""

    samples_per_pass = EVAL_N * len(EVAL_BANK)
    runs_per_pass = len(EVAL_BANK)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        shutil.rmtree(self.work / "bank", ignore_errors=True)
        seeds = np.random.SeedSequence(self.seed).generate_state(2 + len(EVAL_BANK))
        full = D.make_synthetic(seed=int(seeds[0]), per_class=(GRID_TRAIN_N + EVAL_N) // 4,
                                difficulty=1.0)
        train, evalset = D.split(full, [GRID_TRAIN_N / full.n_samples, EVAL_N / full.n_samples],
                                 int(seeds[1]))
        self.dataset = self.work / "bank" / "eval-data"
        D.save_dataset(evalset, self.dataset)
        self.checkpoints = []
        for i, (arch, strat) in enumerate(EVAL_BANK):
            cfg = TrainConfig(epochs=1, seed=int(seeds[2 + i]), strategy=AugmentStrategy(strat))
            ckpt = self.work / "bank" / f"{i}-{arch}-{strat}"
            R.save_checkpoint(train_teacher(cfg, train, arch=arch).net, ckpt)
            self.checkpoints.append(ckpt)
        # warm-up: evaluate and report one checkpoint on a small stored set
        warm = self.work / "warmup"
        shutil.rmtree(warm, ignore_errors=True)
        D.save_dataset(D.split(train, [0.1], self.seed)[0], warm / "data")
        rc = call_cli(["evaluate", "--checkpoint", str(self.checkpoints[0]),
                       "--dataset", str(warm / "data"), "--out", str(warm / "out")])
        rc = rc or call_cli(["report", "--dump", str(warm / "out" / "dump"),
                             "--out", str(warm / "report")])
        if rc != 0:
            raise RuntimeError(f"warm-up evaluation exited with {rc}")
        shutil.rmtree(warm)

    def run(self, out: Path) -> list[int]:
        rcs = []
        for i, ckpt in enumerate(self.checkpoints):
            d = out / str(i)
            rcs.append(call_cli(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(self.dataset),
                                 "--out", str(d)]))
            rcs.append(call_cli(["report", "--dump", str(d / "dump"), "--out", str(d / "report")]))
        return rcs

    def check(self, out: Path, rcs: list[int]) -> Check:
        failed = sum(rc != 0 for rc in rcs)
        for i in range(len(self.checkpoints)):
            # `report` re-emits from the stored dump what `evaluate` emitted from memory
            a, b = out / str(i) / "reports", out / str(i) / "report"
            same = a.is_dir() and b.is_dir()
            names = sorted(p.name for p in a.iterdir()) if same else []
            same = same and bool(names) and names == sorted(p.name for p in b.iterdir()) and all(
                (a / n).read_bytes() == (b / n).read_bytes() for n in names)
            if not same:
                print(f"check failed: reports of model {i} differ between evaluate and report")
                failed += 1
        digest, total, unique = digest_tree(out)
        return Check(len(rcs) + len(self.checkpoints), failed, digest, total, unique)


WORKLOADS = {"grid": Grid, "distill": Distill, "eval-io": EvalIO}
