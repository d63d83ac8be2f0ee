"""The grid as a plan of run records, and the executor that fits and seals a plan.

Each student fits in a worker process, submitted once its teacher's checkpoint is on
disk, and the worker writes its checkpoint/, teacher/ and dump/.  This process trains
and writes the teachers and seals every run in plan order: reports, then the manifest.
A file creation costs this process's kernel time, so the workers create most of them.
"""

from __future__ import annotations

import csv
import functools
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as D
from . import runstore as R
from .augment import STRATEGY_KINDS, AugmentStrategy
from .distill import TrainConfig
from .runs import Fitter, path_dataset, seal

# arm -> (teacher augmented, student augmented)
ARMS = {"teacher-aug": (True, False), "student-aug": (False, True), "both": (True, True)}
# the TrainConfig fields that every fit takes from flags, and those only a student takes
TRAIN_FLAGS = ("epochs", "batch_size", "lr", "momentum", "weight_decay")
KD_FLAGS = ("temperature", "distill_weight")
MATRIX_COLUMNS = ("cell", "strategy", "arm", "teacher_accuracy") + R.METRIC_COLUMNS


@dataclass(frozen=True)
class Run:
    """One run of a plan; a teacher's has no teacher run directory."""

    out: Path
    teacher: Path | None
    cfg: TrainConfig
    arch: str
    run_id: str


def plan(args) -> list[Run]:
    """The grid's 20 runs in write order, teachers first, from the `matrix` flags in
    `args`.  Run j is seeded by generate_state(22)[2 + j]; [0] and [1] seed the
    synthetic set and its split."""
    seeds = np.random.SeedSequence(args.seed).generate_state(22)
    out = Path(args.out)
    teachers = {strat: out / "teachers" / strat for strat in STRATEGY_KINDS}
    base = {k: getattr(args, k) for k in TRAIN_FLAGS}
    student = dict(base, lr=args.student_lr, epochs=args.student_epochs,
                   **{k: getattr(args, k) for k in KD_FLAGS})
    runs = [(teachers[strat], None, strat, base, args.teacher_arch, f"teacher-{strat}")
            for strat in STRATEGY_KINDS] + [
        (out / "cells" / f"{strat}-{arm}", teachers[strat if teacher_aug else "none"],
         strat if student_aug else "none", student, args.student_arch, f"cell-{strat}-{arm}")
        for strat in STRATEGY_KINDS for arm, (teacher_aug, student_aug) in ARMS.items()]
    return [Run(run, teacher, TrainConfig(seed=int(seeds[2 + j]), strategy=AugmentStrategy(strat),
                                          **flags), arch, run_id)
            for j, (run, teacher, strat, flags, arch, run_id) in enumerate(runs)]


def datasets(args) -> list[tuple[D.Dataset, dict]]:
    """The grid's train and eval sets, each with its descriptor: a 2:1 split, seeded by
    generate_state(22)[1], of --dataset or of a synthetic set seeded by [0]."""
    seeds = np.random.SeedSequence(args.seed).generate_state(22)
    synth_params = {"seed": int(seeds[0]), "n_classes": 4, "per_class": 750,
                    "img_side": 12, "difficulty": args.difficulty, "channels": 1}
    if args.dataset == "synth":
        full = D.make_synthetic(**synth_params)
        full_desc = {"kind": "synthetic", "params": synth_params, "digest": full.digest()}
    else:
        full, full_desc = path_dataset(args.dataset)
    fractions, split_seed = [2 / 3, 1 / 3], int(seeds[1])
    return [(ds, {"kind": "split", "parent": full_desc, "fractions": fractions,
                  "seed": split_seed, "index": i, "digest": ds.digest()})
            for i, ds in enumerate(D.split(full, fractions, split_seed))]


# the grid's Fitter in a worker process, set by the pool's initializer
_cell_fitter: Fitter | None = None


def _init_cell_fitter(fitter: Fitter) -> None:
    global _cell_fitter
    _cell_fitter = fitter


def _fit_cell(run: Run, fitter: Fitter | None = None) -> R.RunManifest:
    """Fit and write one student of a plan against its teacher's checkpoint (the bytes
    that its run directory's `teacher/` copy holds and that a replay reads), through
    `fitter`, or in a worker through the worker's copy of the grid's."""
    return (fitter or _cell_fitter)(run.out, run.cfg, run.arch, run.teacher / "checkpoint",
                                    run.run_id)


def _os_threads() -> int:
    """OS threads of this process, BLAS threads included; 0 where there is no
    `/proc/self/task` (off Linux), so the grid fits every cell in one process there."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def cell_pool(n_cells: int, fitter: Fitter):
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


def execute(runs: list[Run], fitter: Fitter, pool=None) -> None:
    """Fit and seal every run of a plan whose teachers come before their students.
    This process fits the teachers; a teacher's students are submitted to `pool` as
    soon as its checkpoint is on disk, or fitted here after it without a pool.  Runs
    are sealed in plan order, each with a line on stdout.  `pool` is shut down on
    return."""
    # plan index of a student -> its pool future, or a call that fits and writes it here
    fits = {}

    def submit(teacher: Path) -> None:
        for j, run in enumerate(runs):
            if run.teacher == teacher:
                fits[j] = (pool.submit(_fit_cell, run) if pool
                           else functools.partial(_fit_cell, run, fitter))

    sealed = 0
    try:
        for run in runs:
            if run.teacher is None:
                fit = fitter(run.out, run.cfg, run.arch, run_id=run.run_id,
                             checkpointed=functools.partial(submit, run.out))
            else:
                job = fits.pop(sealed)
                fit = job.result() if pool else job()
            ev = seal(run.out, fit).metrics["eval"]
            sealed += 1
            print(f"{run.out.parent.name}/{run.out.name} eval accuracy {ev['accuracy']:.4f}")
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        # Past a failure, the runs after the last seal hold what workers wrote ahead of
        # it, or an earlier grid's runs: remove them, so a failed grid leaves the same
        # files for any worker count and every run in it is of this grid.
        for run in runs[sealed:]:
            if run.out.exists():
                shutil.rmtree(run.out)


def write_tables(out: Path, runs: list[Run]) -> None:
    """Build matrix_metrics.csv and trends.txt from the plan's manifests alone.  The
    trends compare directionally against the reference full-scale findings (reported,
    not asserted)."""
    ev = {run.out: R.read_manifest(run.out / "manifest.json", verify=False).metrics["eval"]
          for run in runs}
    rows = [(run.out.name, *run.out.name.split("-", 1),
             R.format_float(ev[run.teacher]["accuracy"]),
             *(R.format_float(ev[run.out][c]) for c in R.METRIC_COLUMNS))
            for run in runs if run.teacher]
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
