import dataclasses
import gc
import json
import struct
import weakref

import numpy as np
import pytest

from distillab.augment import AugmentStrategy
from distillab.distill import TrainConfig
from distillab.errors import FormatError, IntegrityError
from distillab.metrics import EvalDump, class_means, ece, kl_matrix, summary_metrics
from distillab.nn import build_network
from distillab.runstore import (ARRAY_MAGIC, REPORTS, RunManifest, emit_report, format_float,
                                load_array, load_arrays, load_checkpoint, load_eval_dump,
                                misfit_error, read_manifest, save_array, save_arrays,
                                save_checkpoint, save_eval_dump, sha256_file, write_manifest)

from oracles import random_dump_arrays, read_matrix_csv, read_metrics_csv, read_reliability_csv


def _rt(arr, tmp_path, name="a.arr"):
    p = tmp_path / name
    save_array(arr, p)
    return load_array(p)


# --- array container --------------------------------------------------------

def test_array_round_trip_all_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    cases = [
        rng.normal(size=(3, 4)).astype(np.float32),
        rng.normal(size=(2, 3, 5)).astype(np.float64),
        rng.integers(0, 256, size=(7,)).astype(np.uint8),
        rng.integers(-100, 100, size=(4, 2)).astype(np.int64),
    ]
    for i, arr in enumerate(cases):
        back = _rt(arr, tmp_path, f"case{i}.arr")
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)
        assert back.flags.writeable


def test_array_round_trip_scalar_and_empty(tmp_path):
    back = _rt(np.float64(3.25), tmp_path, "scalar.arr")
    assert back.shape == () and back[()] == 3.25
    back = _rt(np.zeros((0, 5), dtype=np.float32), tmp_path, "empty.arr")
    assert back.shape == (0, 5)


def test_array_canonicalizes_byte_order(tmp_path):
    arr = np.arange(4, dtype=">f8")
    back = _rt(arr, tmp_path)
    assert back.dtype == np.dtype("<f8")
    assert np.array_equal(back, arr.astype("<f8"))


def test_array_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError, match="unsupported dtype"):
        save_array(np.zeros(3, dtype=np.float16), tmp_path / "x.arr")
    with pytest.raises(ValueError, match="unsupported dtype"):
        save_array(np.zeros(3, dtype=np.complex128), tmp_path / "x.arr")


def _write(tmp_path, data, name="bad.arr"):
    p = tmp_path / name
    p.write_bytes(data)
    return p


def test_array_bad_magic(tmp_path):
    p = _write(tmp_path, b"WRONGMG\0" + b"\0" * 20)
    with pytest.raises(FormatError, match="magic at offset 0"):
        load_array(p)


def test_array_truncated_header(tmp_path):
    p = _write(tmp_path, ARRAY_MAGIC + b"\x01\x00")
    with pytest.raises(FormatError, match="truncated at offset 10"):
        load_array(p)


def test_array_unsupported_version(tmp_path):
    p = _write(tmp_path, ARRAY_MAGIC + struct.pack("<III", 2, 1, 0) + b"\0" * 4)
    with pytest.raises(FormatError, match="version 2 at offset 8"):
        load_array(p)


def test_array_unknown_dtype_code(tmp_path):
    p = _write(tmp_path, ARRAY_MAGIC + struct.pack("<III", 1, 9, 0) + b"\0" * 4)
    with pytest.raises(FormatError, match="dtype code 9 at offset 12"):
        load_array(p)


def test_array_truncated_shape(tmp_path):
    p = _write(tmp_path, ARRAY_MAGIC + struct.pack("<III", 1, 1, 2) + struct.pack("<Q", 3))
    with pytest.raises(FormatError, match="shape truncated at offset 28"):
        load_array(p)


def test_array_payload_size_mismatch(tmp_path):
    head = ARRAY_MAGIC + struct.pack("<III", 1, 1, 1) + struct.pack("<Q", 2)
    p = _write(tmp_path, head + b"\0" * 5)
    with pytest.raises(FormatError, match="has 5 bytes, expected 8"):
        load_array(p)


def test_array_shape_too_large_for_int64(tmp_path):
    # 2**62 * 4 elements of 4 bytes wraps to 0 in int64, the size of an empty payload
    head = ARRAY_MAGIC + struct.pack("<III", 1, 1, 2) + struct.pack("<2Q", 2**62, 4)
    p = _write(tmp_path, head)
    with pytest.raises(FormatError,
                       match=rf"bad\.arr: payload at offset 36 has 0 bytes, expected {2**66}$"):
        load_array(p)


def _big_array_file(tmp_path):
    arr = np.random.default_rng(0).normal(size=(500, 1000))  # 4 MB
    p = tmp_path / "big.arr"
    save_array(arr, p)
    load_array(p)  # first-call allocations
    return arr, p


def test_save_array_writes_without_a_copy(tmp_path, traced_peak):
    arr, p = _big_array_file(tmp_path)
    assert traced_peak(lambda: save_array(arr, p)) < 0.5 * arr.nbytes
    assert load_array(p).tobytes() == arr.tobytes()


def test_load_array_reads_the_payload_once(tmp_path, traced_peak):
    arr, p = _big_array_file(tmp_path)
    assert traced_peak(lambda: load_array(p)) < 1.5 * arr.nbytes


# --- manifests --------------------------------------------------------------

def _manifest(tmp_path):
    sub = tmp_path / "arrays"
    sub.mkdir(exist_ok=True)
    f = sub / "weights.arr"
    save_array(np.arange(6, dtype=np.float64), f)
    m = RunManifest(run_id="r1", role="teacher",
                    config={"lr": 0.08}, dataset={"kind": "synthetic", "seed": 0},
                    metrics={"accuracy": 0.5})
    m.add_file("weights", f, tmp_path)
    return m, f


def test_manifest_round_trip_with_verification(tmp_path):
    m, f = _manifest(tmp_path)
    path = tmp_path / "manifest.json"
    write_manifest(m, path)
    back = read_manifest(path, verify=True)
    assert back == m
    assert back.files["weights"]["path"] == "arrays/weights.arr"
    assert back.files["weights"]["sha256"] == sha256_file(f)
    # the older form: a wall-clock `created` field and file entries beyond today's set
    doc = json.loads(path.read_text())
    doc["created"] = "2026-01-01T00:00:00+00:00"
    doc["files"]["reports/embeddings"] = dict(doc["files"]["weights"])
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    old = read_manifest(path, verify=True)
    assert old.files.pop("reports/embeddings") == m.files["weights"]
    assert old == m


def test_manifest_refuses_a_file_outside_its_base(tmp_path):
    m, f = _manifest(tmp_path)
    for outside in (f, tmp_path / "run" / ".." / "arrays" / "weights.arr"):
        with pytest.raises(ValueError):
            m.add_file("weights", outside, tmp_path / "run")


def test_manifest_is_sorted_key_json(tmp_path):
    m, _ = _manifest(tmp_path)
    m.config = {"train": TrainConfig(strategy=AugmentStrategy("mixup", {"beta_alpha": 0.4})).to_dict(),
                "arch": "student-mlp"}
    path = tmp_path / "manifest.json"
    write_manifest(m, path)
    doc = json.loads(path.read_text())
    assert list(doc) == sorted(doc)
    assert path.read_text() == json.dumps(dataclasses.asdict(m), sort_keys=True, indent=2) + "\n"


def test_manifest_detects_tampered_file(tmp_path):
    m, f = _manifest(tmp_path)
    path = tmp_path / "manifest.json"
    write_manifest(m, path)
    save_array(np.arange(6, dtype=np.float64) + 1, f)
    with pytest.raises(IntegrityError, match="weights"):
        read_manifest(path, verify=True)
    # without verification the tamper goes unnoticed by design
    assert read_manifest(path, verify=False).run_id == "r1"


def test_manifest_detects_missing_file(tmp_path):
    m, f = _manifest(tmp_path)
    path = tmp_path / "manifest.json"
    write_manifest(m, path)
    f.unlink()
    with pytest.raises(IntegrityError, match="missing"):
        read_manifest(path, verify=True)


def test_manifest_rejects_bad_json_and_missing_fields(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{nope")
    with pytest.raises(FormatError, match="JSON"):
        read_manifest(p)
    p.write_text(json.dumps({"run_id": "x", "created": "t"}))
    with pytest.raises(FormatError, match="missing fields"):
        read_manifest(p)


@pytest.mark.parametrize("doc, why", [
    ([], "must be a JSON object"),
    ({"run_id": "x", "role": "teacher", "config": {}, "dataset": {}, "files": []},
     r"\['files'\] must be JSON objects"),
    ({"run_id": "x", "role": "teacher", "config": [], "dataset": 3},
     r"\['config', 'dataset'\] must be JSON objects"),
    ({"run_id": "x", "role": "teacher", "config": {}, "dataset": {},
      "files": {"w": {"sha256": "ab"}}}, "'w' needs string path and sha256"),
    ({"run_id": "x", "role": "teacher", "config": {}, "dataset": {},
      "files": {"w": {"path": "w.arr", "sha256": 7}}}, "'w' needs string path and sha256"),
    ({"run_id": "x", "role": "teacher", "config": {}, "dataset": {}, "files": {"w": "w.arr"}},
     "'w' needs string path and sha256"),
    # hand-edited entries: add_file refuses to write a path that leaves the run
    *(({"run_id": "x", "role": "teacher", "config": {}, "dataset": {},
        "files": {"w": {"path": outside, "sha256": "ab"}}},
       f"'w' points outside the run directory \\('{outside}'\\)")
      for outside in ("../outside.txt", "arrays/../../outside.txt", "/outside.txt")),
])
def test_manifest_rejects_wrong_shape_naming_the_file(tmp_path, doc, why):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    for verify in (True, False):
        with pytest.raises(FormatError, match=why) as info:
            read_manifest(p, verify=verify)
        assert str(p) in str(info.value)


# --- checkpoints ------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    net = build_network("student-mlp", (1, 6, 6), 3, rng)
    save_checkpoint(net, tmp_path / "ckpt")
    back = load_checkpoint(tmp_path / "ckpt")
    assert back.params_digest() == net.params_digest()
    x = rng.random((2, 1, 6, 6)).astype(np.float32)
    a, ea = net.forward(x, record=False)
    b, eb = back.forward(x, record=False)
    assert np.array_equal(a, b)
    assert np.array_equal(ea, eb)


def test_checkpoint_missing_spec_or_param(tmp_path):
    with pytest.raises(FormatError, match="network.json"):
        load_checkpoint(tmp_path)
    rng = np.random.default_rng(2)
    net = build_network("student-mlp", (1, 6, 6), 3, rng)
    save_checkpoint(net, tmp_path / "c")
    param = sorted((tmp_path / "c").glob("param-*.arr"))[0]
    param.unlink()
    with pytest.raises(FormatError, match="missing parameter"):
        load_checkpoint(tmp_path / "c")


def test_checkpoint_shape_mismatch(tmp_path):
    rng = np.random.default_rng(3)
    net = build_network("student-mlp", (1, 6, 6), 3, rng)
    save_checkpoint(net, tmp_path / "c")
    param = sorted((tmp_path / "c").glob("param-*.arr"))[0]
    save_array(np.zeros((2, 2), dtype=np.float32), param)
    with pytest.raises(FormatError, match="does not match architecture"):
        load_checkpoint(tmp_path / "c")


def test_checkpoint_unparsable_spec_names_the_file(tmp_path):
    rng = np.random.default_rng(5)
    save_checkpoint(build_network("student-mlp", (1, 6, 6), 3, rng), tmp_path / "c")
    spec_path = tmp_path / "c" / "network.json"
    spec_path.write_text("{bad")
    with pytest.raises(FormatError, match="network.json: not valid JSON"):
        load_checkpoint(tmp_path / "c")


def test_checkpoint_malformed_layer_names_the_file(tmp_path):
    rng = np.random.default_rng(6)
    save_checkpoint(build_network("student-mlp", (1, 6, 6), 3, rng), tmp_path / "c")
    spec_path = tmp_path / "c" / "network.json"
    spec = json.loads(spec_path.read_text())
    dense = next(layer for layer in spec["layers"] if layer["kind"] == "dense")
    del dense["out_features"]
    spec_path.write_text(json.dumps(spec))
    with pytest.raises(FormatError, match="network.json: malformed network spec"):
        load_checkpoint(tmp_path / "c")


# --- eval dumps -------------------------------------------------------------

def _dump_pair(with_human=True):
    rng = np.random.default_rng(4)
    probs, emb, labels, human, _ = random_dump_arrays(rng, n_max=40, with_human=with_human)
    return EvalDump(probs=probs, embeddings=emb, true_labels=labels, human_probs=human)


def test_eval_dump_round_trip(tmp_path):
    d = _dump_pair()
    save_eval_dump(d, tmp_path / "dump")
    back = load_eval_dump(tmp_path / "dump")
    assert np.array_equal(back.probs, d.probs)
    assert np.array_equal(back.embeddings, d.embeddings)
    assert np.array_equal(back.true_labels, d.true_labels)
    assert np.array_equal(back.human_probs, d.human_probs)


def test_eval_dump_round_trip_without_humans(tmp_path):
    d = _dump_pair(with_human=False)
    save_eval_dump(d, tmp_path / "dump")
    assert load_eval_dump(tmp_path / "dump").human_probs is None


@pytest.mark.parametrize("name, bad, why", [
    ("labels", lambda d: d.true_labels[:-1], "true_labels shape"),
    ("labels", lambda d: np.full(d.n_samples, 99), "true_labels outside"),
    ("embeddings", lambda d: d.embeddings[:-1], "embeddings shape"),
    ("human_probs", lambda d: d.human_probs[:-1], "human_probs shape"),
    ("probs", lambda d: d.probs * 2, "probs row"),
])
def test_eval_dump_arrays_that_do_not_fit_name_the_directory(tmp_path, name, bad, why):
    d = _dump_pair()
    save_eval_dump(d, tmp_path / "dump")
    save_array(bad(d), tmp_path / "dump" / f"{name}.arr")
    with pytest.raises(FormatError, match=why) as info:
        load_eval_dump(tmp_path / "dump")
    # the directory, and in it the file whose array does not fit
    assert str(info.value).startswith(f"{tmp_path / 'dump' / name}.arr: ")


def test_a_misfit_naming_no_file_of_the_directory_names_the_directory(tmp_path):
    assert str(misfit_error(tmp_path, ValueError("arrays differ in N"))) == \
        f"{tmp_path}: arrays differ in N"


def test_array_directory_skips_none_and_reads_optional_as_none(tmp_path):
    a = np.arange(3, dtype=np.int64)
    save_arrays(tmp_path / "d", {"a": a, "b": None})
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["a.arr"]
    back = load_arrays(tmp_path / "d", ("a",), optional=("b",))
    assert back["b"] is None and np.array_equal(back["a"], a)
    with pytest.raises(FileNotFoundError):
        load_arrays(tmp_path / "d", ("b",))


def test_array_directory_saved_again_deletes_an_array_now_none(tmp_path):
    a = np.arange(3, dtype=np.int64)
    save_arrays(tmp_path / "d", {"a": a, "b": a + 1})
    save_arrays(tmp_path / "d", {"a": a + 2, "b": None})
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["a.arr"]
    back = load_arrays(tmp_path / "d", ("a",), optional=("b",))
    assert back["b"] is None and np.array_equal(back["a"], a + 2)


# --- CSV formatting ---------------------------------------------------------

def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(5)
    vals = list(rng.normal(0, 1e6, 50)) + [0.1, 1e-300, 7.0, float(np.pi)]
    for v in vals:
        assert float(format_float(v)) == v
    assert format_float(3) == "3"
    assert format_float(float("nan")) == "nan"


def test_matrix_csv_round_trip_bitwise(tmp_path):
    d = _dump_pair()
    written = emit_report(d, tmp_path, reports=["confidence", "kld_matrix"])
    means = class_means(d, d.probs)
    assert np.array_equal(read_matrix_csv(written["confidence"]), means)
    assert np.array_equal(read_matrix_csv(written["kld_matrix"]),
                          kl_matrix(class_means(d, d.human_probs), means))


def test_matrix_csv_masked_diagonal_is_empty_then_nan(tmp_path):
    d = _dump_pair()
    mat = class_means(d, d.human_probs)
    written = emit_report(d, tmp_path, reports=["human_confidence_masked"])
    text = written["human_confidence_masked"].read_text()
    assert text.splitlines()[0].startswith(",")  # masked cell is truly empty
    back = read_matrix_csv(written["human_confidence_masked"])
    assert np.all(np.isnan(np.diag(back)))
    off = ~np.eye(d.n_classes, dtype=bool)
    assert np.array_equal(back[off], mat[off])


# --- report battery ---------------------------------------------------------

def test_emit_report_all_with_humans(tmp_path):
    d = _dump_pair()
    written = emit_report(d, tmp_path)
    assert set(REPORTS) <= set(written)
    assert "kld_matrix_scale" in written
    # the dump already holds the embeddings; reports are CSV only
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv"] * len(written)
    for p in written.values():
        assert p.exists()
    # metrics.csv reparses to the exact summary values
    vals = summary_metrics(d)
    back = read_metrics_csv(written["metrics"])
    for k, v in vals.items():
        assert back[k] == v or (np.isnan(back[k]) and np.isnan(v))


def test_emit_report_all_skips_human_reports_when_absent(tmp_path):
    d = _dump_pair(with_human=False)
    written = emit_report(d, tmp_path)
    assert "kld_matrix" not in written
    assert "human_confidence" not in written
    assert "metrics" in written
    back = read_metrics_csv(written["metrics"])
    assert np.isnan(back["human_kld"])


def test_emit_report_builds_each_class_mean_table_once(tmp_path, monkeypatch):
    from distillab import metrics

    calls = []
    original = metrics.class_means

    def counted(dump, rows):
        calls.append(rows)
        return original(dump, rows)

    monkeypatch.setattr(metrics, "class_means", counted)  # looked up when called
    d = _dump_pair()
    emit_report(d, tmp_path, reports=[r for r in REPORTS if r not in ("metrics", "reliability")])
    assert [id(rows) for rows in calls] == [id(d.probs), id(d.human_probs)]


def test_emit_report_frees_its_dump_without_the_garbage_collector(tmp_path):
    # a memo that holds a reference cycle would keep the dump until a collection
    d = _dump_pair()
    ref = weakref.ref(d)
    enabled = gc.isenabled()
    gc.disable()
    try:
        emit_report(d, tmp_path)
        del d
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_emit_report_explicit_human_request_fails_without_humans(tmp_path):
    d = _dump_pair(with_human=False)
    with pytest.raises(ValueError, match="human_probs"):
        emit_report(d, tmp_path, reports=["kld_matrix"])
    with pytest.raises(ValueError, match="unknown report"):
        emit_report(d, tmp_path, reports=["metrics", "heatmap"])


def test_emit_report_reliability_reparses_to_same_ece(tmp_path):
    d = _dump_pair()
    written = emit_report(d, tmp_path, reports=["reliability"])
    bins, back_ece = read_reliability_csv(written["reliability"])
    rel = ece(d, 15)
    assert back_ece == rel.ece
    assert sum(b[2] for b in bins) == d.n_samples
    assert bins == [dataclasses.astuple(b) for b in rel.bins]


def test_emit_report_kld_scale_brackets_matrix(tmp_path):
    d = _dump_pair()
    written = emit_report(d, tmp_path, reports=["kld_matrix"])
    mat = read_matrix_csv(written["kld_matrix"])
    with open(written["kld_matrix_scale"]) as fh:
        header, row = fh.read().strip().splitlines()
    assert header == "vmin,vmax"
    vmin, vmax = (float(x) for x in row.split(","))
    assert vmin == mat.min() and vmax == mat.max()