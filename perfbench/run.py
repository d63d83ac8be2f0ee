"""distillab benchmark: one workload per process, closed loop, result as JSON on the last line.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 1

Run from the root of a source checkout; the program is imported from its
`src/` tree, so an installed distillab is never measured.  The load is a
closed loop: each pass starts when the previous one ends, in this one
process.  With `--trace 0` the result holds the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and the result holds the
per-layer metrics.  `--workload all` runs every workload in a fresh process
of its own.  perfbench/README.md explains every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# names only: workloads.py imports numpy, which must wait for the thread settings
WORKLOADS = ("grid", "distill", "eval-io")
# 1 and 2 BLAS threads gave the same grid time within noise on 2 cores
# (README); one thread leaves a core to the rest of the machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_PASSES = 2  # so every run compares a pass's digest with the first one's
PERCENTILES = (50, 90, 99, 99.9)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of n samples beyond it, if any."""
    fit = [p for p in PERCENTILES if round(n * (100 - p) / 100, 6) >= 10]
    return fit[-1] if fit else None


def summarize(values: list[float], unit: str) -> str:
    import numpy as np

    text = f"median {statistics.median(values):.6g} {unit}"
    p = tail_percentile(len(values))
    if p is not None:
        text += f", p{p:g} {float(np.percentile(values, p)):.6g} {unit}"
    return f"{text}, n={len(values)}"


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import workloads
    from tracer import Tracer, count_signature, layer_metrics

    wl = workloads.WORKLOADS[workload](seed, work)
    setup_s = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - t0)
    print(f"setup_s: {[round(t, 4) for t in setup_s]}")

    tracer = Tracer()
    walls = {False: [], True: []}
    layers, signatures, checks = [], [], []
    deadline = perf_counter() + seconds
    step = 0.0  # duration of the last pass with its check; no pass starts that would overrun
    while len(checks) < MIN_PASSES or perf_counter() + step < deadline:
        started = perf_counter()
        traced = trace and len(checks) % 2 == 0
        out = work / f"pass-{len(checks)}"
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            raw = wl.run(out)
        finally:
            wall = perf_counter() - t0
            tracer.uninstall()
        check = wl.check(out, raw)
        shutil.rmtree(out, ignore_errors=True)
        if checks:
            check.attempted += 1
            if check.digest != checks[0].digest:
                print(f"check failed: pass {len(checks)} digest differs from the first pass")
                check.failed += 1
        checks.append(check)
        walls[traced].append(wall)
        print(f"pass {len(checks) - 1}: {'traced' if traced else 'untraced'} wall_s {wall:.4f} "
              f"failed {check.failed}/{check.attempted} digest {check.digest}")
        if traced:
            stats, samples = tracer.snapshot()
            m = layer_metrics(stats, samples, wall, wl.runs_per_pass)
            m["artifact_bytes"] = check.artifact_bytes
            m["runstore.unique_byte_ratio"] = (check.unique_bytes / check.artifact_bytes
                                               if check.artifact_bytes else 0.0)
            layers.append((stats, samples, wall, m))
            signatures.append(count_signature(stats, samples))
        step = perf_counter() - started

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for sig in signatures[1:]:
        attempted += 1
        if sig != signatures[0]:
            print("check failed: a traced pass's counts differ from the first traced pass")
            failed += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = walls[False]
    wall_s = statistics.median(untraced)
    print(f"digest {checks[0].digest}")
    print(f"end to end, {workload}, passes untraced n={len(untraced)}:")
    print(f"  wall_s {summarize(untraced, 's')}")
    print(f"  setup_s {summarize(setup_s, 's')}")
    label = "eval_samples_per_s" if workload == "eval-io" else "train_samples_per_s"
    rates = [wl.samples_per_pass / w for w in untraced]
    print(f"  samples_per_s as {label}, {wl.samples_per_pass} samples a pass: {summarize(rates, '1/s')}")
    print(f"  peak_rss_mb {peak_rss_mb:.6g} MiB, n=1")
    print(f"  artifact_bytes {checks[0].artifact_bytes} bytes a pass, n={len(checks)}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")

    if trace:
        metrics = {name: statistics.median(m[name] for *_, m in layers) for name in layers[0][3]}
        metrics["trace_overhead_ratio"] = statistics.median(walls[True]) / wall_s - 1
        print_trace(workload, layers, metrics)
    else:
        metrics = {"wall_s": wall_s, "setup_s": statistics.median(setup_s),
                   "samples_per_s": statistics.median(rates), "peak_rss_mb": peak_rss_mb}
    units = metric_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_trace(workload: str, layers, metrics: dict) -> None:
    import numpy as np

    stats, _, wall, _ = layers[0]
    print(f"trace, {workload}, first traced pass, wall_s {wall:.4f}:")
    print(f"  {'span':36s} {'calls':>8s} {'self_s':>9s} {'share':>6s}  per call (ms)")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        per_call = f"p50 {np.median(st.durations) * 1e3:.4g}"
        p = tail_percentile(st.calls)
        if p is not None and p > 50:
            per_call += f", p{p:g} {np.percentile(st.durations, p) * 1e3:.4g}"
        print(f"  {name:36s} {st.calls:8d} {st.self_s:9.4f} {st.self_s / wall:6.1%}  {per_call}")
    print(f"per-layer metrics, {workload}, median of {len(layers)} traced passes:")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g}")


def run_all(args) -> int:
    """Every workload, each in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "distillab" / "__init__.py").is_file():
        print(f"error: no distillab source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # fixed before numpy is imported, so OpenBLAS starts with this many threads
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import distillab

    if Path(distillab.__file__).resolve().parent != SRC / "distillab":
        print(f"error: imported distillab from {distillab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"machine: {json.dumps(machine_record(), sort_keys=True)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
