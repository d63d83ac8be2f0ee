"""On-disk artifacts: array containers, run manifests, checkpoints, CSV reports.

The array container is a fixed little-endian binary layout (magic, version,
dtype code, ndim, shape, payload) that round-trips bitwise.  Manifests are
sorted-key JSON carrying content hashes for every file they reference, so a
completed run can be audited and re-run.  CSVs format floats with ``repr``,
the shortest decimal that parses back to the identical double.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import FormatError, IntegrityError
from . import metrics as M

ARRAY_MAGIC = b"DLABARR\0"
ARRAY_VERSION = 1
_DTYPE_CODES = {1: "<f4", 2: "<f8", 3: "u1", 4: "<i8"}
_CODES_BY_KIND = {np.dtype(v): k for k, v in _DTYPE_CODES.items()}


def save_array(arr: np.ndarray, path: str | Path) -> None:
    """Serialize an array to the container format (f32/f64/u8/i64 only)."""
    arr = np.asarray(arr)
    canon = {"f": {4: "<f4", 8: "<f8"}, "u": {1: "u1"}, "i": {8: "<i8"}}
    try:
        dt = np.dtype(canon[arr.dtype.kind][arr.dtype.itemsize])
    except KeyError:
        raise ValueError(f"unsupported dtype {arr.dtype} for array container") from None
    code = _CODES_BY_KIND[dt]
    with open(path, "wb") as fh:
        fh.write(ARRAY_MAGIC)
        fh.write(struct.pack("<III", ARRAY_VERSION, code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype=dt).reshape(-1).view(np.uint8))  # no copy


def load_array(path: str | Path) -> np.ndarray:
    """Read a container file back; errors carry the byte offset of the defect.

    The header is checked against the file's size before the payload is read,
    once, straight into the returned array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(20)
        if len(head) < 8 or head[:8] != ARRAY_MAGIC:
            raise FormatError(f"{path}: bad magic at offset 0 (expected {ARRAY_MAGIC!r})")
        if size < 20:
            raise FormatError(f"{path}: header truncated at offset {size} (need 20 bytes)")
        version, code, ndim = struct.unpack_from("<III", head, 8)
        if version != ARRAY_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at offset 8")
        if code not in _DTYPE_CODES:
            raise FormatError(f"{path}: unknown dtype code {code} at offset 12")
        shape_end = 20 + 8 * ndim
        if size < shape_end:
            raise FormatError(f"{path}: shape truncated at offset {size} (need {shape_end} bytes)")
        shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        dt = np.dtype(_DTYPE_CODES[code])
        expected = math.prod(shape) * dt.itemsize  # Python ints: no shape overflows
        actual = size - shape_end
        if actual != expected:
            raise FormatError(
                f"{path}: payload at offset {shape_end} has {actual} bytes, expected {expected}")
        arr = np.empty(shape, dtype=dt)  # writable, native layout
        got = fh.readinto(arr.reshape(-1).view(np.uint8))
    if got != expected:
        raise FormatError(f"{path}: payload at offset {shape_end} ended after {got} bytes, "
                          f"expected {expected}")
    return arr


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Auditable record of one training/evaluation run."""

    run_id: str
    role: str
    config: dict
    dataset: dict
    metrics: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # name -> {"path": rel, "sha256": hex}

    def add_file(self, name: str, path: str | Path, base_dir: str | Path) -> None:
        """Register a file reference with its hash, stored relative to base_dir.  The
        path is compared as written, without resolving links: it must start with
        base_dir and hold no `..` after it."""
        rel = Path(path).relative_to(base_dir)
        if ".." in rel.parts:
            raise ValueError(f"{path} is not under {base_dir}")
        self.files[name] = {"path": str(rel), "sha256": sha256_file(path)}


def write_manifest(m: RunManifest, path: str | Path) -> None:
    # the fields as they are: `asdict` would deep-copy every nested dict first
    text = json.dumps({f.name: getattr(m, f.name) for f in fields(m)},
                      sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_manifest(path: str | Path, verify: bool = True) -> RunManifest:
    """Load a manifest; with verify=True every referenced file must exist and hash-match."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid manifest JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: manifest must be a JSON object, got {type(doc).__name__}")
    missing = {"run_id", "role", "config", "dataset"} - doc.keys()
    if missing:
        raise FormatError(f"{path}: manifest missing fields {sorted(missing)}")
    wrong = [k for k in ("config", "dataset", "metrics", "files")
             if not isinstance(doc.get(k, {}), dict)]
    if wrong:
        raise FormatError(f"{path}: manifest fields {wrong} must be JSON objects")
    for name, ref in doc.get("files", {}).items():
        if not (isinstance(ref, dict) and all(isinstance(ref.get(k), str) for k in ("path", "sha256"))):
            raise FormatError(f"{path}: files entry {name!r} needs string path and sha256")
    # other keys, such as the wall-clock `created` of older manifests, are ignored
    m = RunManifest(run_id=doc["run_id"], role=doc["role"],
                    config=doc["config"], dataset=doc["dataset"],
                    metrics=doc.get("metrics", {}), files=doc.get("files", {}))
    if verify:
        base = path.parent
        for name, ref in m.files.items():
            target = base / ref["path"]
            if not target.exists():
                raise IntegrityError(f"{name}: referenced file {target} is missing")
            digest = sha256_file(target)
            if digest != ref["sha256"]:
                raise IntegrityError(
                    f"{name}: content hash of {target} is {digest}, manifest records {ref['sha256']}")
    return m


# ---------------------------------------------------------------------------
# Array directories: one container file `<name>.arr` per array.  Datasets and
# evaluation dumps are stored this way; checkpoints add a shape check on load.


def save_arrays(dir_path: str | Path, arrays: dict) -> list[Path]:
    """Write each non-None array of `arrays` as `<name>.arr`; returns the files written."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    written = []
    for name, arr in arrays.items():
        if arr is not None:
            p = d / f"{name}.arr"
            save_array(arr, p)
            written.append(p)
    return written


def load_arrays(dir_path: str | Path, names, optional=()) -> dict:
    """Read `<name>.arr` for every name; an absent optional one reads as None."""
    d = Path(dir_path)
    return {name: load_array(d / f"{name}.arr")
            if name in names or (d / f"{name}.arr").exists() else None
            for name in (*names, *optional)}


def save_eval_dump(dump: M.EvalDump, dir_path: str | Path) -> list[Path]:
    return save_arrays(dir_path, {"probs": dump.probs, "embeddings": dump.embeddings,
                                  "labels": dump.true_labels.astype(np.int64),
                                  "human_probs": dump.human_probs})


def load_eval_dump(dir_path: str | Path) -> M.EvalDump:
    a = load_arrays(dir_path, ("probs", "embeddings", "labels"), optional=("human_probs",))
    return M.EvalDump(probs=a["probs"], embeddings=a["embeddings"], true_labels=a["labels"],
                      human_probs=a["human_probs"])


# ---------------------------------------------------------------------------
# Checkpoints: a directory holding the architecture spec plus one array
# container per parameter.


def save_checkpoint(net, dir_path: str | Path) -> list[Path]:
    """Write network architecture + parameters; returns the files written."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    spec_path = d / "network.json"
    spec_path.write_text(json.dumps(net.spec_dict(), sort_keys=True, indent=2) + "\n",
                         encoding="utf-8")
    return [spec_path, *save_arrays(d, {f"param-{key}": arr
                                        for key, _, _, arr in net.param_items()})]


def load_checkpoint(dir_path: str | Path):
    """Rebuild a Network from a checkpoint directory."""
    from .nn import Network

    d = Path(dir_path)
    spec_path = d / "network.json"
    if not spec_path.exists():
        raise FormatError(f"{d}: no network.json; not a checkpoint directory")
    try:
        net = Network.from_spec(json.loads(spec_path.read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{spec_path}: not valid JSON ({exc})") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{spec_path}: malformed network spec ({type(exc).__name__}: {exc})") from None
    for key, layer, pname, arr in net.param_items():
        p = d / f"param-{key}.arr"
        if not p.exists():
            raise FormatError(f"{d}: checkpoint missing parameter file {p.name}")
        loaded = load_array(p)
        if loaded.shape != arr.shape:
            raise FormatError(
                f"{p.name}: stored shape {loaded.shape} does not match architecture {arr.shape}")
        setattr(layer, pname, loaded.astype(net.dtype, copy=False))
    return net


# ---------------------------------------------------------------------------
# CSV report emission.  Floats are written with repr(): the shortest decimal
# string that parses back to the identical IEEE double.


def format_float(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if np.isnan(f):
        return "nan"
    return repr(f)


METRIC_COLUMNS = ("accuracy", "human_kld", "ece", "precision", "recall", "f1",
                  "separability", "cohesion", "adhesion", "discrimination")

# name -> (file name, the dump's C x C matrix, diagonal masked).  `means(field)` is the
# class-mean table of the dump's "probs" or "human_probs", built once per emit_report
# call.  The lambdas look each metric up when called, so a patched or traced `metrics`
# function is the one used.  A masked report is its unmasked twin with the diagonal
# cells written empty.
MATRIX_REPORTS = {
    "confusion": ("confusion_matrix.csv",
                  lambda d, means: M.confusion_metrics(d)["confusion_matrix"], False),
    "confidence": ("confidence_matrix.csv", lambda d, means: means("probs"), False),
    "confidence_masked": ("confidence_matrix_masked.csv",
                          lambda d, means: means("probs"), True),
    "kld_matrix": ("kld_matrix.csv",
                   lambda d, means: M.kl_matrix(means("human_probs"), means("probs")), False),
    "human_confidence": ("human_confidence_matrix.csv",
                         lambda d, means: means("human_probs"), False),
    "human_confidence_masked": ("human_confidence_matrix_masked.csv",
                                lambda d, means: means("human_probs"), True),
}
HUMAN_REPORTS = frozenset({"kld_matrix", "human_confidence", "human_confidence_masked"})
ALL_REPORTS = ("metrics", "reliability") + tuple(MATRIX_REPORTS)


def write_matrix_csv(path: str | Path, mat: np.ndarray, mask_diagonal: bool = False) -> None:
    """Square matrix as headerless CSV rows; masked diagonal cells are empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        for i, row in enumerate(np.asarray(mat)):
            out = []
            for j, v in enumerate(row):
                if mask_diagonal and i == j:
                    out.append("")
                else:
                    out.append(format_float(v))
            w.writerow(out)


def read_matrix_csv(path: str | Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[float(c) if c else float("nan") for c in row] for row in csv.reader(fh)]
    return np.asarray(rows, dtype=np.float64)


def read_metrics_csv(path: str | Path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.DictReader(fh)
        row = next(iter(r))
    return {k: float(v) for k, v in row.items()}


def read_reliability_csv(path: str | Path) -> M.ReliabilityReport:
    bins = []
    n = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            b = M.BinStat(lo=float(row["bin_lo"]), hi=float(row["bin_hi"]),
                          count=int(row["count"]), conf=float(row["conf"]),
                          acc=float(row["acc"]))
            bins.append(b)
            n += b.count
    report = M.ReliabilityReport(bins=bins, ece=0.0, n_samples=n)
    report.ece = report.recompute_ece()
    return report


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _write_metrics_csv(path: Path, dump: M.EvalDump, n_bins: int) -> None:
    vals = M.summary_metrics(dump, n_bins=n_bins)
    _write_rows(path, [METRIC_COLUMNS, [format_float(vals[c]) for c in METRIC_COLUMNS]])


def _write_reliability_csv(path: Path, dump: M.EvalDump, n_bins: int) -> None:
    _write_rows(path, [("bin_lo", "bin_hi", "count", "conf", "acc")] + [
        (format_float(b.lo), format_float(b.hi), str(b.count), format_float(b.conf),
         format_float(b.acc)) for b in M.ece(dump, n_bins).bins])


def _write_scale_csv(path: Path, mat: np.ndarray) -> Path:
    _write_rows(path, [("vmin", "vmax"), (format_float(mat.min()), format_float(mat.max()))])
    return path


_TABLE_WRITERS = {"metrics": _write_metrics_csv, "reliability": _write_reliability_csv}


def emit_report(dump: M.EvalDump, out_dir: str | Path, reports="all",
                n_bins: int = 15) -> dict[str, Path]:
    """Write the selected CSV reports for one dump; returns name -> path.

    reports may be "all" (everything computable from the dump's fields) or an
    explicit iterable of report names; explicitly requesting a human-label
    report on a dump without human_probs is an error.
    """
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    if reports == "all":
        selected = [r for r in ALL_REPORTS
                    if dump.human_probs is not None or r not in HUMAN_REPORTS]
    else:
        selected = list(reports)
        unknown = set(selected) - set(ALL_REPORTS)
        if unknown:
            raise ValueError(f"unknown report names {sorted(unknown)}")
        blocked = [r for r in selected if r in HUMAN_REPORTS and dump.human_probs is None]
        if blocked:
            raise ValueError(f"dump has no human_probs; cannot emit {sorted(blocked)}")
    means = functools.cache(lambda attr: M.class_means(dump, getattr(dump, attr)))
    written: dict[str, Path] = {}
    for name in selected:
        if name in MATRIX_REPORTS:
            file_name, matrix_of, masked = MATRIX_REPORTS[name]
            p = d / file_name
            mat = matrix_of(dump, means)
            write_matrix_csv(p, mat, mask_diagonal=masked)
            if name == "kld_matrix":
                written["kld_matrix_scale"] = _write_scale_csv(d / "kld_matrix_scale.csv", mat)
        else:
            p = d / f"{name}.csv"
            _TABLE_WRITERS[name](p, dump, n_bins)
        written[name] = p
    return written
