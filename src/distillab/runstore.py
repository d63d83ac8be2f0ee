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
import struct
from dataclasses import dataclass, field, asdict
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
        fh.write(np.ascontiguousarray(arr, dtype=dt).tobytes())


def load_array(path: str | Path) -> np.ndarray:
    """Read a container file back; errors carry the byte offset of the defect."""
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:8] != ARRAY_MAGIC:
        raise FormatError(f"{path}: bad magic at offset 0 (expected {ARRAY_MAGIC!r})")
    if len(raw) < 20:
        raise FormatError(f"{path}: header truncated at offset {len(raw)} (need 20 bytes)")
    version, code, ndim = struct.unpack_from("<III", raw, 8)
    if version != ARRAY_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 8")
    if code not in _DTYPE_CODES:
        raise FormatError(f"{path}: unknown dtype code {code} at offset 12")
    shape_end = 20 + 8 * ndim
    if len(raw) < shape_end:
        raise FormatError(f"{path}: shape truncated at offset {len(raw)} (need {shape_end} bytes)")
    shape = struct.unpack_from(f"<{ndim}Q", raw, 20)
    dt = np.dtype(_DTYPE_CODES[code])
    expected = int(np.prod(shape, dtype=np.int64)) * dt.itemsize if ndim else dt.itemsize
    actual = len(raw) - shape_end
    if actual != expected:
        raise FormatError(
            f"{path}: payload at offset {shape_end} has {actual} bytes, expected {expected}")
    arr = np.frombuffer(raw[shape_end:], dtype=dt).reshape(shape)
    return arr.copy()  # writable, native layout


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
    created: str
    role: str
    config: dict
    dataset: dict
    metrics: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # name -> {"path": rel, "sha256": hex}

    def add_file(self, name: str, path: str | Path, base_dir: str | Path) -> None:
        """Register a file reference with its hash, stored relative to base_dir."""
        rel = Path(path).resolve().relative_to(Path(base_dir).resolve())
        self.files[name] = {"path": str(rel), "sha256": sha256_file(path)}


def write_manifest(m: RunManifest, path: str | Path) -> None:
    text = json.dumps(asdict(m), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_manifest(path: str | Path, verify: bool = True) -> RunManifest:
    """Load a manifest; with verify=True every referenced file must exist and hash-match."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid manifest JSON ({exc})") from None
    missing = {"run_id", "created", "role", "config", "dataset"} - doc.keys()
    if missing:
        raise FormatError(f"{path}: manifest missing fields {sorted(missing)}")
    m = RunManifest(run_id=doc["run_id"], created=doc["created"], role=doc["role"],
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
# Checkpoints: a directory holding the architecture spec plus one array
# container per parameter.


def save_checkpoint(net, dir_path: str | Path) -> list[Path]:
    """Write network architecture + parameters; returns the files written."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    written = []
    spec_path = d / "network.json"
    spec_path.write_text(json.dumps(net.spec_dict(), sort_keys=True, indent=2) + "\n",
                         encoding="utf-8")
    written.append(spec_path)
    for key, _, _, arr in net.param_items():
        p = d / f"param-{key}.arr"
        save_array(arr, p)
        written.append(p)
    return written


def load_checkpoint(dir_path: str | Path):
    """Rebuild a Network from a checkpoint directory."""
    from .nn import Network

    d = Path(dir_path)
    spec_path = d / "network.json"
    if not spec_path.exists():
        raise FormatError(f"{d}: no network.json; not a checkpoint directory")
    net = Network.from_spec(json.loads(spec_path.read_text(encoding="utf-8")))
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
# Evaluation dumps: a directory of array containers.


def save_eval_dump(dump: M.EvalDump, dir_path: str | Path) -> list[Path]:
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    written = []
    for name, arr in (("probs", dump.probs), ("embeddings", dump.embeddings),
                      ("labels", dump.true_labels.astype(np.int64))):
        p = d / f"{name}.arr"
        save_array(arr, p)
        written.append(p)
    if dump.human_probs is not None:
        p = d / "human_probs.arr"
        save_array(dump.human_probs, p)
        written.append(p)
    return written


def load_eval_dump(dir_path: str | Path) -> M.EvalDump:
    d = Path(dir_path)
    human = d / "human_probs.arr"
    return M.EvalDump(
        probs=load_array(d / "probs.arr"),
        embeddings=load_array(d / "embeddings.arr"),
        true_labels=load_array(d / "labels.arr"),
        human_probs=load_array(human) if human.exists() else None,
    )


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

HUMAN_REPORTS = frozenset({"kld_matrix", "human_confidence", "human_confidence_masked"})
ALL_REPORTS = ("metrics", "reliability", "confusion", "confidence", "confidence_masked",
               "kld_matrix", "human_confidence", "human_confidence_masked", "embeddings")


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
    written: dict[str, Path] = {}
    for name in selected:
        if name == "metrics":
            p = d / "metrics.csv"
            vals = M.summary_metrics(dump, n_bins=n_bins)
            with open(p, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(METRIC_COLUMNS)
                w.writerow([format_float(vals[c]) for c in METRIC_COLUMNS])
        elif name == "reliability":
            p = d / "reliability.csv"
            rel = M.ece(dump, n_bins)
            with open(p, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["bin_lo", "bin_hi", "count", "conf", "acc"])
                for b in rel.bins:
                    w.writerow([format_float(b.lo), format_float(b.hi), str(b.count),
                                format_float(b.conf), format_float(b.acc)])
        elif name == "confusion":
            p = d / "confusion_matrix.csv"
            write_matrix_csv(p, M.confusion_metrics(dump)["confusion_matrix"])
        elif name == "confidence":
            p = d / "confidence_matrix.csv"
            write_matrix_csv(p, M.confidence_matrix(dump, source="model"))
        elif name == "confidence_masked":
            p = d / "confidence_matrix_masked.csv"
            write_matrix_csv(p, M.confidence_matrix(dump, masked=True, source="model"),
                             mask_diagonal=True)
        elif name == "kld_matrix":
            p = d / "kld_matrix.csv"
            mat = M.kld_confusion_matrix(dump)
            write_matrix_csv(p, mat)
            scale = d / "kld_matrix_scale.csv"
            with open(scale, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["vmin", "vmax"])
                w.writerow([format_float(mat.min()), format_float(mat.max())])
            written["kld_matrix_scale"] = scale
        elif name == "human_confidence":
            p = d / "human_confidence_matrix.csv"
            write_matrix_csv(p, M.confidence_matrix(dump, source="human"))
        elif name == "human_confidence_masked":
            p = d / "human_confidence_matrix_masked.csv"
            write_matrix_csv(p, M.confidence_matrix(dump, masked=True, source="human"),
                             mask_diagonal=True)
        elif name == "embeddings":
            p = d / "embeddings.arr"
            save_array(np.asarray(dump.embeddings), p)
            save_array(dump.true_labels.astype(np.int64), d / "embedding_labels.arr")
            written["embedding_labels"] = d / "embedding_labels.arr"
        written[name] = p
    return written
