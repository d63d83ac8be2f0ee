"""On-disk artifacts: array containers, run manifests, checkpoints, CSV reports.

The array container is a fixed little-endian binary layout (magic, version,
dtype code, ndim, shape, payload) that round-trips bitwise.  Manifests are
sorted-key JSON carrying content hashes for every file they reference, so a
completed run can be audited and re-run.  CSVs format floats with ``repr``,
the shortest decimal that parses back to the identical double.
"""

from __future__ import annotations

import csv
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
    try:  # either byte order; a dtype with no byte order to swap raises TypeError
        dt = arr.dtype.newbyteorder("<")
        code = _CODES_BY_KIND[dt]
    except (KeyError, TypeError):
        raise ValueError(f"unsupported dtype {arr.dtype} for array container") from None
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
        rel = Path(ref["path"])
        if rel.is_absolute() or ".." in rel.parts:
            raise FormatError(f"{path}: files entry {name!r} points outside the run directory "
                              f"({ref['path']!r})")
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


def save_arrays(dir_path: str | Path, arrays: dict) -> None:
    """Write each array of `arrays` as `<name>.arr`, and delete `<name>.arr` for each
    that is None, so no file of an earlier save stands in for it."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    for name, arr in arrays.items():
        if arr is None:
            (d / f"{name}.arr").unlink(missing_ok=True)
        else:
            save_array(arr, d / f"{name}.arr")


def load_arrays(dir_path: str | Path, names, optional=()) -> dict:
    """Read `<name>.arr` for every name; an absent optional one reads as None."""
    d = Path(dir_path)
    return {name: load_array(d / f"{name}.arr")
            if name in names or (d / f"{name}.arr").exists() else None
            for name in (*names, *optional)}


def misfit_error(dir_path: str | Path, exc: ValueError, stems=None) -> FormatError:
    """`exc`, raised for arrays of a directory that do not fit together, as a
    FormatError naming the file of the array its message starts with (a field, which
    `stems` maps to its file stem where the two differ), or the directory if it holds
    no such file."""
    field = str(exc).split(" ", 1)[0]
    path = Path(dir_path) / f"{(stems or {}).get(field, field)}.arr"
    return FormatError(f"{path if path.is_file() else dir_path}: {exc}")


def save_eval_dump(dump: M.EvalDump, dir_path: str | Path) -> None:
    save_arrays(dir_path, {"probs": dump.probs, "embeddings": dump.embeddings,
                           "labels": dump.true_labels.astype(np.int64),
                           "human_probs": dump.human_probs})


def load_eval_dump(dir_path: str | Path) -> M.EvalDump:
    a = load_arrays(dir_path, ("probs", "embeddings", "labels"), optional=("human_probs",))
    try:
        return M.EvalDump(probs=a["probs"], embeddings=a["embeddings"], true_labels=a["labels"],
                          human_probs=a["human_probs"])
    except ValueError as exc:
        raise misfit_error(dir_path, exc, {"true_labels": "labels"}) from None


# ---------------------------------------------------------------------------
# Checkpoints: a directory holding the architecture spec plus one array
# container per parameter.


def save_checkpoint(net, dir_path: str | Path) -> None:
    """Write network architecture + parameters."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    (d / "network.json").write_text(json.dumps(net.spec_dict(), sort_keys=True, indent=2) + "\n",
                                    encoding="utf-8")
    save_arrays(d, {f"param-{key}": arr for key, _, _, arr in net.param_items()})


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


def _matrix_rows(mat: np.ndarray, mask_diagonal: bool = False) -> list[list[str]]:
    """Square matrix as headerless CSV rows; masked diagonal cells are empty."""
    return [["" if mask_diagonal and i == j else format_float(v) for j, v in enumerate(row)]
            for i, row in enumerate(np.asarray(mat))]


def _metrics_rows(d: M.EvalDump, tables) -> list:
    vals = M.summary_metrics(d)
    return [METRIC_COLUMNS, [format_float(vals[c]) for c in METRIC_COLUMNS]]


def _reliability_rows(d: M.EvalDump, tables) -> list:
    return [("bin_lo", "bin_hi", "count", "conf", "acc")] + [
        (format_float(b.lo), format_float(b.hi), str(b.count), format_float(b.conf),
         format_float(b.acc)) for b in M.ece(d).bins]


def _scale_rows(d: M.EvalDump, tables) -> list:
    kld = tables["kld"]
    return [("vmin", "vmax"), (format_float(kld.min()), format_float(kld.max()))]


# name -> (file name, needs human labels, rows(dump, tables)), in write order.  `tables`
# holds the class-mean tables of the dump's "probs" and "human_probs" and their "kld"
# matrix, each built once per emit_report call.  The metrics and reliability rows take
# `metrics.N_BINS` bins.  `metrics` functions are looked up when called, so a patched or
# traced one is the one used.  A masked report is its unmasked twin with the diagonal
# cells empty.
REPORTS = {
    "metrics": ("metrics.csv", False, _metrics_rows),
    "reliability": ("reliability.csv", False, _reliability_rows),
    "confusion": ("confusion_matrix.csv", False,
                  lambda d, t: _matrix_rows(M.confusion_metrics(d)["confusion_matrix"])),
    "confidence": ("confidence_matrix.csv", False, lambda d, t: _matrix_rows(t["probs"])),
    "confidence_masked": ("confidence_matrix_masked.csv", False,
                          lambda d, t: _matrix_rows(t["probs"], True)),
    "kld_matrix": ("kld_matrix.csv", True, lambda d, t: _matrix_rows(t["kld"])),
    "kld_matrix_scale": ("kld_matrix_scale.csv", True, _scale_rows),
    "human_confidence": ("human_confidence_matrix.csv", True,
                         lambda d, t: _matrix_rows(t["human_probs"])),
    "human_confidence_masked": ("human_confidence_matrix_masked.csv", True,
                                lambda d, t: _matrix_rows(t["human_probs"], True)),
}


def _write_csv(path: Path, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def emit_report(dump: M.EvalDump, out_dir: str | Path) -> dict[str, Path]:
    """Write every CSV report that the dump supports, the human-label ones only when it
    has human_probs; returns name -> path."""
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    tables = {"probs": M.class_means(dump, dump.probs)}
    if dump.human_probs is not None:
        tables["human_probs"] = M.class_means(dump, dump.human_probs)
        tables["kld"] = M.kl_matrix(tables["human_probs"], tables["probs"])
    return {name: _write_csv(d / file_name, rows(dump, tables))
            for name, (file_name, human, rows) in REPORTS.items()
            if dump.human_probs is not None or not human}
