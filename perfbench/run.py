"""Host-time benchmark for funnelsim.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk_funnel --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Each iteration runs in a fresh interpreter, which imports the package
from ./src, builds the workload's inputs from the seed, runs it and
checks its outputs.  Iterations repeat while the next one is expected
to end within --seconds of the start (at least two run, so that two
same-seed traces can be compared byte for byte).

With --trace 0 the iterations are untraced and the result holds the
end-to-end metrics: means over the iterations, the median for setup_s.
With --trace 1, untraced and traced iterations alternate; the result
holds the per-layer metrics of the traced iterations (medians) and the
tracing overhead, traced minus untraced total_s.

The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.  An iteration counts as failed
when its output checks fail, when its trace differs from the first
iteration's, or, for the default seed 0, when its simulated statistics
differ from the recorded ones in reference.json.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
# The workloads BENCHMARK.json gates, then the ones that only run on request.
GATED_WORKLOADS = ("desk_funnel", "wide_pilot", "surrogate_eval")
WORKLOAD_NAMES = GATED_WORKLOADS + ("overlay_fanout",)
# Children share one string-hash seed, so dict and set layouts, and the
# time spent on them, do not differ from one iteration to the next.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 160.0

END_TO_END = {
    "total_s": "s", "setup_s": "s", "run_s": "s", "io_s": "s",
    "work_per_s": "1/s", "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# one iteration, in a fresh interpreter

def child(args) -> None:
    import resource

    import numpy  # noqa: F401  numpy's own import stays outside setup_s

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import funnelsim.analysis
    import funnelsim.campaign
    import funnelsim.cli
    import funnelsim.engine
    import funnelsim.overlay
    import funnelsim.pilot
    import funnelsim.trace
    import funnelsim.workload
    import_s = time.perf_counter() - t0
    fs = funnelsim

    import spans
    import workloads

    out_dir = Path(args.out)
    tracer = spans.Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        tracer.install()
    phase = workloads.Phases(tracer)
    out = workloads.WORKLOADS[args.child](fs, args.seed, Path(args.data), out_dir, phase)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = dict(phase.times)
    if "setup" in times:
        times["setup"] += import_s
    times["total"] = sum(times.values())
    out.update(times={f"{k}_s": v for k, v in times.items()}, rss_mb=rss_mb)
    if tracer is not None:
        tracer.write(out_dir / "spans.csv")
        bench = {**out.get("counters", {}), "total_s": times["total"],
                 "run_s": times.get("run", 0.0),
                 "worker_busy_mean": out.get("stats", {}).get("worker_busy_mean")}
        out["layers"] = spans.layer_metrics(tracer, bench)
    print(json.dumps(out))


def run_iteration(workload: str, seed: int, traced: bool, data_dir: Path, out_dir: Path,
                  run_id: str) -> dict:
    out_dir.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--data", str(data_dir),
           "--out", str(out_dir), "--run-id", run_id]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"iteration timed out after {CHILD_TIMEOUT_S:.0f} s"]}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"iteration exited {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# a benchmark run: repeated iterations of one workload

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    q = statistics.quantiles(values, n=100, method="inclusive")
    return p, q[p - 1]


def reference_problems(workload: str, seed: int, stats: dict) -> list[str]:
    if seed != DEFAULT_SEED:
        return []
    want = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})
    return [f"{key} {stats.get(key)!r} != recorded {value!r}"
            for key, value in want.items() if stats.get(key) != value]


def bench_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    start = time.perf_counter()
    run_dir = WORK / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workloads.prepare(workload, seed, run_dir)
    # Byte-compile once, so that the first iteration's setup_s does not
    # include compiling the package.
    compileall.compile_dir(SRC, quiet=1)
    results: list[tuple[bool, dict]] = []
    digest = None
    while True:
        traced = trace and len(results) % 2 == 1
        res = run_iteration(workload, seed, traced, run_dir, run_dir / f"it{len(results):03d}",
                            f"{workload}-{seed}-{len(results)}")
        problems = list(res.get("problems", ["no result"]))
        if "digest" in res:
            digest = digest or res["digest"]
            if res["digest"] != digest:
                problems.append(f"output digest {res['digest'][:16]} != first {digest[:16]}")
        if "stats" in res:
            problems += reference_problems(workload, seed, res["stats"])
        res["problems"] = problems
        if "times" in res:
            kind = "traced" if traced else "untraced"
            print(f"{workload} iteration {len(results)} ({kind}): "
                  + " ".join(f"{k}={v:.4f}" for k, v in res["times"].items()))
        for p in problems:
            print(f"{workload}: iteration {len(results)} failed: {p}", file=sys.stderr)
        results.append((traced, res))
        # Stop unless an iteration of average length still ends within --seconds.
        elapsed = time.perf_counter() - start
        per_iteration = elapsed / len(results)
        if elapsed >= RUN_LIMIT_S or (elapsed + per_iteration > seconds
                                      and len(results) >= MIN_ITERATIONS):
            break

    ok = [(traced, r) for traced, r in results if not r["problems"]]
    # With no correct iteration, time the incorrect ones; the result then
    # reads correct: false.
    timed = ok or [(traced, r) for traced, r in results if "work" in r]
    plain = [r for traced, r in timed if not traced]
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for r in plain:
        for key in ("total_s", "setup_s", "run_s", "io_s"):
            samples[key].append(r["times"][key])
        samples["work_per_s"].append(r["work"] / r["times"]["run_s"])
        samples["peak_rss_mb"].append(r["rss_mb"])
    layers: dict[str, list[float]] = {}
    for traced, r in timed:
        if traced:
            for key, value in r["layers"].items():
                layers.setdefault(key, []).append(value)
    traced_total = [r["times"]["total_s"] for traced, r in timed if traced]
    return {"attempted": len(results), "failed": len(results) - len(ok),
            "samples": samples, "layers": layers, "traced_total": traced_total,
            "digest": digest}


def summarize(name: str, values: list[float]) -> float:
    """The metric's value for the result: the mean over the run's
    iterations, except setup_s, which is their median.  The host's speed
    drifts by tens of percent within a minute, so the median of a handful
    of multi-second iterations jumps between speed levels; their mean
    is steadier (see README.md).  A rate takes the harmonic mean, which
    matches the mean of run_s because the work per iteration is fixed."""
    if name == "setup_s":
        return statistics.median(values)
    if name == "work_per_s":
        return statistics.harmonic_mean(values)
    return statistics.fmean(values)


def report(workload: str, run: dict, trace: bool) -> dict:
    """Print every metric of one workload; return the result's metrics."""
    import spans

    attempted, failed = run["attempted"], run["failed"]
    print(f"== {workload}: {attempted} iterations, {failed} failed, "
          f"failed_fraction {failed / attempted:.3f}")
    print(f"   trace digest {run['digest']}  (information only)")
    metrics = {}
    samples = run["samples"]
    for name, unit in END_TO_END.items():
        values = samples[name]
        if not values:
            continue
        value = summarize(name, values)
        tail = tail_percentile(values)
        tail_txt = f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile has 10 samples above it"
        print(f"   {name:<12} {value:>12.6g} {unit:<5} n={len(values)} "
              f"median {statistics.median(values):.6g}; {tail_txt}")
        if not trace:
            metrics[name] = {"value": value, "unit": unit}
    if trace:
        layers = {k: statistics.median(v) for k, v in run["layers"].items()}
        if samples["total_s"] and run["traced_total"]:
            layers["bench.trace_overhead_s"] = (statistics.fmean(run["traced_total"])
                                                - statistics.fmean(samples["total_s"]))
        for name, value in sorted(layers.items()):
            unit = spans.LAYER_METRICS[name][0] if name in spans.LAYER_METRICS else "s"
            print(f"   {name:<32} {value:>14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--data", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--run-id", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        child(args)
        return 0
    if not (SRC / "funnelsim" / "__init__.py").is_file():
        print(f"error: no funnelsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = GATED_WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        run = bench_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += run["attempted"]
        failed += run["failed"]
        if not run["samples"]["total_s"]:
            print(f"error: no iteration of {name} produced timings", file=sys.stderr)
            return 1
        for key, value in report(name, run, bool(args.trace)).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
