"""Run directories: fit a run, seal it, and replay it from its manifest.

Every run lands in a self-contained directory: manifest.json (hash-referenced
file inventory + config + metrics), checkpoint/, dump/ and reports/.  A student
run also carries its teacher/, the teacher network it was distilled from in checkpoint
format, so `replay` can re-run any run from its directory alone and check every byte it
writes against the manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import data as D
from . import metrics as M
from . import runstore as R
from .distill import T_EVAL, TrainConfig, TrainedModel, evaluate_model, train_student, train_teacher
from .errors import FormatError, IntegrityError
from .nn import ARCHITECTURES


def path_dataset(spec: str) -> tuple[D.Dataset, dict]:
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
        raise ValueError(f"unknown dataset descriptor kind {desc['kind']!r}")
    if ds.digest() != desc["digest"]:
        raise IntegrityError(f"dataset content digest {ds.digest()} does not match "
                             f"manifest record {desc['digest']}")
    return ds


@dataclass(frozen=True)
class Run:
    """One run, as a plan, a train command and a replay describe it: where it is
    written, the run or checkpoint directory of the teacher it distills (None for a
    teacher), its training config, its architecture and its id."""

    out: Path
    teacher: Path | None
    cfg: TrainConfig
    arch: str
    run_id: str

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}; choose from {ARCHITECTURES}")

    def config(self) -> dict:
        """The run's `config` record, as its manifest holds it."""
        return {"train": self.cfg.to_dict(), "arch": self.arch, "t_eval": T_EVAL,
                "n_bins": M.N_BINS}


# the directories that a fit writes, whose files `seal` lists from disk
FIT_DIRS = ("checkpoint", "teacher", "dump")


def resolve_checkpoint(path: Path) -> Path:
    """Accept a run directory (with manifest + checkpoint/) or a bare checkpoint dir."""
    if (path / "network.json").exists():
        return path
    if (path / "checkpoint" / "network.json").exists():
        return path / "checkpoint"
    raise FormatError(f"{path}: neither a checkpoint directory nor a run directory")


class Fitter:
    """Fits runs on one train set and writes what each fit determines.  Every run of
    every command is fitted here.  It loads each teacher checkpoint once and computes
    each teacher's train-set logit table once, whichever of its students need them.
    Each data set comes with its manifest descriptor."""

    def __init__(self, train: tuple[D.Dataset, dict], evalset: tuple[D.Dataset, dict]):
        self.train_ds, self.train_desc = train
        self.eval_ds, self.eval_desc = evalset
        self.teachers: dict[Path, tuple[TrainedModel, dict]] = {}  # checkpoint -> (model, tables)

    def __call__(self, run: Run, checkpointed=None) -> R.RunManifest:
        """Fit `run`, a teacher or a student of the teacher at `run.teacher`, and write
        checkpoint/, a student's teacher/ (the loaded teacher network, saved again) and
        the eval set's dump/ into `run.out`, which is absent or empty: it deletes
        nothing.  `checkpointed()` runs as soon as the checkpoint and teacher/ are on
        disk, before evaluation.  Returns the run's manifest for `seal`, without its
        parameters and files, which are on disk, so a grid worker sends back about a
        kilobyte."""
        out, cfg = run.out, run.cfg
        if run.teacher is None:
            model = train_teacher(cfg, self.train_ds, arch=run.arch)
        else:
            ckpt = resolve_checkpoint(run.teacher)
            if ckpt not in self.teachers:
                teacher = TrainedModel(net=R.load_checkpoint(ckpt), role="teacher", history=[])
                self.teachers[ckpt] = (teacher, {})
            teacher, tables = self.teachers[ckpt]
            model = train_student(cfg, teacher, self.train_ds, arch=run.arch, logit_tables=tables)
        out.mkdir(parents=True, exist_ok=True)
        R.save_checkpoint(model.net, out / "checkpoint")
        if run.teacher is not None:
            R.save_checkpoint(teacher.net, out / "teacher")
        if checkpointed is not None:
            checkpointed()
        R.save_eval_dump(evaluate_model(model.net, self.eval_ds), out / "dump")
        return R.RunManifest(
            run_id=run.run_id, role=model.role, config=run.config(),
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
    dump = R.load_eval_dump(out / "dump")
    files.update({f"reports/{name}": p for name, p in R.emit_report(dump, out / "reports").items()})
    manifest.metrics["eval"] = M.summary_metrics(dump)
    for name, p in files.items():
        manifest.add_file(name, p, out)
    R.write_manifest(manifest, out / "manifest.json")
    return manifest


class _Absent:
    def __repr__(self) -> str:
        return "absent"


def first_difference(got, want, path: str) -> str | None:
    """`<path> is <got>, not <want>` for the first field, by dotted path in key order,
    at which the record `got` differs from `want`; None where they are equal.  NaN
    equals NaN: a run without human labels records its `human_kld` as NaN."""
    if not (isinstance(got, dict) and isinstance(want, dict)):
        same = got == want or (got != got and want != want)
        return None if same else f"{path} is {got!r}, not {want!r}"
    found = (first_difference(got.get(key, _Absent()), want.get(key, _Absent()),
                              f"{path}.{key}") for key in sorted(got.keys() | want.keys()))
    return next(filter(None, found), None)


def replay(manifest_path: Path, out: Path) -> R.RunManifest:
    """Re-run a recorded run into `out`, absent or empty, with its own writer, and check
    it against its record; returns the manifest the re-run wrote.  A manifest whose
    config is not its run's, field for field, is refused before anything is written:
    every run fits and evaluates at one protocol.  The re-run's `files` and `metrics`
    records must then equal the recorded ones, each key of either side checked in
    sorted order, so a replay that passes wrote the run's directory byte for byte."""
    m = R.read_manifest(manifest_path)
    if m.role not in ("teacher", "student"):
        raise FormatError(f"{manifest_path}: unknown role {m.role!r}")

    def build(section: str, key: str, make):
        if key not in getattr(m, section):
            raise FormatError(f"{manifest_path}: manifest records no {section}.{key}")
        try:
            return make(getattr(m, section)[key])
        except FormatError:  # a dataset file's, which names the file and offset
            raise
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise FormatError(f"{manifest_path}: malformed {section}.{key} "
                              f"({type(exc).__name__}: {exc})") from None

    cfg = build("config", "train", lambda train: TrainConfig(**train))
    teacher = manifest_path.parent / "teacher" if m.role == "student" else None
    run = build("config", "arch", lambda arch: Run(out, teacher, cfg, arch, m.run_id))
    difference = first_difference(m.config, run.config(), "config")
    if difference:
        raise FormatError(f"{manifest_path}: {difference}")
    train, evalset = (build("dataset", key, lambda desc: (dataset_from_desc(desc), desc))
                      for key in ("train", "eval"))
    rerun = seal(out, Fitter(train, evalset)(run))
    difference = (first_difference(rerun.files, m.files, "files")
                  or first_difference(rerun.metrics, m.metrics, "metrics"))
    if difference:
        raise IntegrityError(f"{manifest_path}: the rerun's {difference}")
    return rerun
