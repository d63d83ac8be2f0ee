"""Self-checks of the benchmark: its counts repeat exactly and match the program's known counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from distillab import data as D
from tracer import Tracer, count_signature, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_METRICS = ("augment.calls", "nn.forward_norecord.calls", "nn.maxpool2d.argmax_use_ratio",
                 "distill.kd_loss.calls", "probs.kl_div.calls", "metrics.class_discrimination.calls",
                 "metrics.ece.calls", "metrics.summary_calls_per_run", "runstore.save_array.bytes",
                 "runstore.sha256_file.bytes")


def traced_pass(tracer: Tracer, fn):
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.snapshot()


def test_benchmark_json_names_what_the_benchmark_emits():
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == ["grid", "eval-io"]
    per_pass = set(layer_metrics({}, {}, 1.0, 1))
    added = {"artifact_bytes", "runstore.unique_byte_ratio", "trace_overhead_ratio"}
    assert {m["name"] for m in SPEC["per_layer"]} == per_pass | added
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "setup_s", "samples_per_s",
                                                       "peak_rss_mb"}


def test_small_grid_counts_repeat_and_match_known_counts(tmp_path):
    D.save_dataset(D.make_synthetic(seed=3, per_class=30), tmp_path / "data")
    tracer = Tracer()
    passes = []
    for i in range(2):
        out = tmp_path / f"grid-{i}"
        argv = ["matrix", "--seed", "5", "--dataset", str(tmp_path / "data"), "--out", str(out),
                "--epochs", "1", "--student-epochs", "1"]
        stats, samples = traced_pass(tracer, lambda: workloads.call_cli(argv))
        digest, total, unique = workloads.digest_tree(out)
        passes.append((stats, samples, layer_metrics(stats, samples, 1.0, workloads.GRID_RUNS),
                       digest, unique / total))
    (s0, x0, m0, d0, u0), (s1, x1, m1, d1, u1) = passes
    assert count_signature(s0, x0) == count_signature(s1, x1)
    assert {k: m0[k] for k in COUNT_METRICS} == {k: m1[k] for k in COUNT_METRICS}
    assert (d0, u0) == (d1, u1)
    # today's known counts: summary_metrics twice and ece three times per run directory
    assert s0["metrics.summary_metrics"].calls == 2 * workloads.GRID_RUNS
    assert s0["metrics.ece"].calls == 3 * workloads.GRID_RUNS
    assert m0["metrics.summary_calls_per_run"] == 2
    assert 0 < m0["nn.maxpool2d.argmax_use_ratio"] < 1
    assert 0 < u0 < 1
    assert s0["cli.main"].calls == 1


def test_eval_io_counts_three_summaries_per_model(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "EVAL_N", 400)
    wl = workloads.EvalIO(seed=2, work=tmp_path)
    wl.setup()
    tracer = Tracer()
    stats, samples = traced_pass(tracer, lambda: wl.run(tmp_path / "out"))
    check = wl.check(tmp_path / "out", [0])
    assert check.failed == 0
    m = layer_metrics(stats, samples, 1.0, wl.runs_per_pass)
    assert m["metrics.summary_calls_per_run"] == 3
    assert m["augment.calls"] == 0 and m["distill.kd_loss.calls"] == 0


def test_tracer_restores_every_original():
    from distillab import cli, metrics, nn, probs

    before = (cli.main, metrics.kl_div, probs.kl_div, nn.Conv2d.forward, nn.Network.forward)
    tracer = Tracer()
    tracer.install()
    assert metrics.kl_div is not before[1]
    tracer.uninstall()
    assert (cli.main, metrics.kl_div, probs.kl_div, nn.Conv2d.forward, nn.Network.forward) == before


def test_self_time_excludes_children():
    from distillab import metrics, probs

    tracer = Tracer()
    p = probs.softmax_t(np.ones((1, 4)), 1.0)[0]
    stats, _ = traced_pass(tracer, lambda: [metrics.kl_div(p, p) for _ in range(50)])
    assert stats["probs.kl_div"].calls == 50
    assert stats["probs.check_prob_vector"].calls == 100
    kl = stats["probs.kl_div"]
    assert 0 < kl.self_s < sum(kl.durations)


@pytest.mark.parametrize("n, p", [(1, None), (19, None), (20, 50), (100, 90), (999, 90),
                                  (1000, 99), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
