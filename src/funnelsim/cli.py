"""Command-line surface: run campaigns from a JSON config, analyze score
and point-set files, and turn traces into plot-ready CSV reports.

Config schema (unknown keys are rejected):

{
  "resource": {"nodes": int, "cpus_per_node": int, "gpus_per_node": int,
               "walltime_s": num, "backend": "simulated"|"local",
               "bootstrap_s": num, "sched_gap_s": num, "gpu_host_cpu": bool},
  "funnel":   {"library_size": int, "s1_fraction": num, "cg_count": int,
               "top_binders": int, "outliers_per_binder": int,
               "noise_sigma": num, "frames_per_replica": int},
  "cost_model": {STAGE: {"median_node_hours": num,
                         "tail": {"kind": "lognormal", "sigma": num} |
                                 {"kind": "pareto_mix", "alpha": num, "mix": num},
                         "nodes_per_task": num, "throughput_per_gpu": num}},
  "overlay": {"n_masters": int, "workers_per_master": int, "bulk_size": int,
              "rebalance_policy": str, "low_water": int},
  "seed": int, "time_scale": num, "mode": "concurrent"|"sequential_pipelines"
}
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import analysis, workload
from .campaign import validate_campaign
from .engine import run_campaign
from .errors import ConfigError, FunnelsimError, InputError
from .overlay import MasterConfig
from .pilot import PilotSpec
from .trace import TraceColumns, TraceSink, load_trace, throughput_from_times, timeline


def _check_keys(doc: dict, allowed: set[str], where: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def parse_resource(doc: dict) -> PilotSpec:
    _check_keys(doc, {"nodes", "cpus_per_node", "gpus_per_node", "walltime_s",
                      "backend", "bootstrap_s", "sched_gap_s", "gpu_host_cpu"}, "resource")
    try:
        return PilotSpec(
            nodes=int(doc["nodes"]),
            cpus_per_node=int(doc["cpus_per_node"]),
            gpus_per_node=int(doc["gpus_per_node"]),
            walltime_s=float(doc["walltime_s"]),
            backend=str(doc.get("backend", "simulated")),
            bootstrap_s=float(doc.get("bootstrap_s", 0.0)),
            sched_gap_s=float(doc.get("sched_gap_s", 0.0)),
            gpu_host_cpu=bool(doc.get("gpu_host_cpu", True)),
        )
    except KeyError as exc:
        raise ConfigError(f"resource is missing key {exc}") from exc


def parse_funnel(doc: dict) -> workload.FunnelConfig:
    _check_keys(doc, {"library_size", "s1_fraction", "cg_count", "top_binders",
                      "outliers_per_binder", "noise_sigma", "frames_per_replica"}, "funnel")
    base = workload.FunnelConfig()
    return workload.FunnelConfig(
        library_size=int(doc.get("library_size", base.library_size)),
        s1_fraction=float(doc.get("s1_fraction", base.s1_fraction)),
        cg_count=int(doc.get("cg_count", base.cg_count)),
        top_binders=int(doc.get("top_binders", base.top_binders)),
        outliers_per_binder=int(doc.get("outliers_per_binder", base.outliers_per_binder)),
        noise_sigma=float(doc.get("noise_sigma", base.noise_sigma)),
        frames_per_replica=int(doc.get("frames_per_replica", base.frames_per_replica)),
    )


def parse_cost_model(doc: dict) -> workload.CostModel:
    model = workload.default_cost_model()
    for stage, entry in doc.items():
        _check_keys(entry, {"median_node_hours", "tail", "nodes_per_task",
                            "throughput_per_gpu"}, f"cost_model.{stage}")
        tail = entry.get("tail", {"kind": "lognormal", "sigma": 0.0})
        kind = tail.get("kind", "lognormal")
        if kind == "lognormal":
            _check_keys(tail, {"kind", "sigma"}, f"cost_model.{stage}.tail")
            params = (float(tail.get("sigma", 0.0)),)
        elif kind == "pareto_mix":
            _check_keys(tail, {"kind", "alpha", "mix"}, f"cost_model.{stage}.tail")
            params = (float(tail["alpha"]), float(tail["mix"]))
        else:
            raise ConfigError(f"cost_model.{stage}.tail has unknown kind {kind!r}")
        base = model.stages.get(stage)
        model.stages[stage] = workload.StageCost(
            median_node_hours=float(entry.get(
                "median_node_hours", base.median_node_hours if base else 1.0)),
            tail_kind=kind, tail_params=params,
            nodes_per_task=float(entry.get(
                "nodes_per_task", base.nodes_per_task if base else 1.0)),
            throughput_per_gpu=(float(entry["throughput_per_gpu"])
                                if entry.get("throughput_per_gpu") is not None else None),
        )
        problems = model.stages[stage].validate()
        if problems:
            raise ConfigError(f"cost_model.{stage}: " + "; ".join(problems))
    return model


def parse_overlay(doc: dict) -> MasterConfig:
    _check_keys(doc, {"n_masters", "workers_per_master", "bulk_size",
                      "rebalance_policy", "low_water"}, "overlay")
    base = MasterConfig()
    cfg = MasterConfig(
        n_masters=int(doc.get("n_masters", base.n_masters)),
        workers_per_master=int(doc.get("workers_per_master", base.workers_per_master)),
        bulk_size=int(doc.get("bulk_size", base.bulk_size)),
        rebalance_policy=str(doc.get("rebalance_policy", base.rebalance_policy)),
        low_water=int(doc.get("low_water", base.low_water)),
    )
    problems = cfg.validate()
    if problems:
        raise ConfigError("overlay: " + "; ".join(problems))
    return cfg


def load_config(path: str, seed_override: int | None = None,
                force_backend: str | None = None):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    _check_keys(doc, {"resource", "funnel", "cost_model", "overlay", "seed",
                      "time_scale", "mode"}, "config")
    if "resource" not in doc:
        raise ConfigError("config needs a resource section")
    resource = parse_resource(doc["resource"])
    if force_backend is not None:
        resource.backend = force_backend
    funnel = parse_funnel(doc.get("funnel", {}))
    cost_model = parse_cost_model(doc.get("cost_model", {}))
    overlay = parse_overlay(doc["overlay"]) if "overlay" in doc else None
    if overlay is not None and resource.backend == "local":
        # S1 payloads are ligand items, not calls of registered functions.
        raise ConfigError("an overlay section needs the simulated backend")
    seed = int(doc.get("seed", 0)) if seed_override is None else seed_override
    time_scale = float(doc.get("time_scale", 1e-4))
    mode = doc.get("mode", "concurrent")
    if mode not in ("concurrent", "sequential_pipelines"):
        raise ConfigError(f"mode must be concurrent or sequential_pipelines, got {mode!r}")
    funnel.seed = seed
    spec = workload.build_funnel_campaign(
        funnel, cost_model=cost_model, resource=resource, time_scale=time_scale,
        pipeline_mode="sequential" if mode == "sequential_pipelines" else "concurrent",
        overlay_stage_kind="function" if overlay is not None else "simulated")
    return spec, overlay, funnel


def _trace_metrics(trace, bucket_width: float | None):
    """Utilization and overhead from one timeline; each completed stage's
    throughput and the funnel counts (per-stage task births and distinct
    selected conformations) from masks on the trace's columns."""
    run = timeline(trace)
    cols = TraceColumns.of(trace)
    reports, born, confs = {}, {}, set()
    for stage in {tail[4] for tail in cols.tails if tail[4]}:
        starts = cols.t[cols.task_rows("running", stage)].tolist()
        dones = cols.t[cols.task_rows("done", stage)].tolist()
        if starts and dones:
            reports[stage] = throughput_from_times(stage, starts, dones)
        pending = cols.task_rows("pending", stage)
        if len(pending):
            born[stage] = len(pending)
        if stage == "S3FG":
            ids = {cols.ids[i] for i in pending.tolist()}
            # Only an id with a part that starts with "c" can name a conformation.
            for eid in (eid for eid in ids if eid.startswith("c") or ".c" in eid):
                conf = next((p for p in eid.split(".") if p.startswith("c") and p[1:].isdigit()),
                            None)
                if conf:
                    confs.add(conf)
    funnel = {f"{stage}_tasks": n for stage, n in sorted(born.items())}
    if confs:
        funnel["selected_conformations"] = len(confs)
    return run.utilization(bucket_width), run.overhead(), dict(sorted(reports.items())), funnel


def _write_utilization_csv(path: Path, util) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t0", "busy_node_fraction"])
        for t0, frac in util.rows():
            writer.writerow([f"{t0:.9g}", f"{frac:.9g}"])


def write_summary(result, sink, out_dir: Path, bucket_width: float | None) -> dict:
    util, ovh, reports, funnel = _trace_metrics(sink, bucket_width)
    summary = {
        "makespan_s": result.makespan,
        "walltime_hit": result.walltime_hit,
        "utilization_mean": util.mean(),
        "overhead_fraction": ovh.fraction_of_makespan,
        "overhead_per_task_ms": ovh.per_task_ms,
        "stage_throughput_per_s": {tag: rep.overall_per_s for tag, rep in reports.items()},
        "funnel": funnel,
        "pipelines": {pid: st["status"] for pid, st in result.final_states.items()},
    }
    _write_utilization_csv(out_dir / "metrics.csv", util)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return summary


def cmd_simulate(args) -> int:
    backend = "local" if args.command == "run-local" else None
    spec, overlay, _funnel = load_config(args.config, args.seed, force_backend=backend)
    violations = validate_campaign(spec)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    if trace_path.exists() and not args.force:
        print(f"refusing to overwrite {trace_path} (use --force)", file=sys.stderr)
        return 2
    sink = TraceSink()
    try:
        result = run_campaign(spec, overlay=overlay, sink=sink)
    finally:
        # A run that raises still leaves the events recorded so far.  The
        # sink raises before it keeps an illegal event, so they are legal.
        sink.save(trace_path)
    summary = write_summary(result, sink, out_dir, args.bucket_width)
    if not args.quiet:
        print(f"makespan_s: {summary['makespan_s']:.6g}")
        print(f"utilization_mean: {summary['utilization_mean']:.4f}")
        print(f"overhead_fraction: {summary['overhead_fraction']:.4f}")
        for tag, rate in summary["stage_throughput_per_s"].items():
            print(f"throughput[{tag}]: {rate:.6g} /s")
        for key, val in summary["funnel"].items():
            print(f"funnel.{key}: {val}")
        for pid, status in summary["pipelines"].items():
            print(f"pipeline[{pid}]: {status}")
    bad = {pid: st for pid, st in summary["pipelines"].items() if st != "done"}
    if bad:
        print(f"campaign did not complete cleanly: {bad}", file=sys.stderr)
        return 1
    return 0


def cmd_analyze(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metric = args.metric
    if metric in ("res", "recall"):
        if not args.scores:
            print("--scores is required for res/recall", file=sys.stderr)
            return 2
        scored = analysis.ScoredSet.from_csv(args.scores)
        if metric == "res":
            grid = analysis.compute_res(scored)
            grid.to_csv(out_dir / "res.csv")
            if not args.quiet:
                print(f"res grid {grid.cells.shape[0]}x{grid.cells.shape[1]} -> {out_dir/'res.csv'}")
        else:
            k = args.k if args.k is not None else max(1, scored.u // 10000)
            delta = args.delta if args.delta is not None else max(1, scored.u // 1000)
            try:
                value = analysis.top_k_recall(scored, k, delta)
            except ValueError as exc:  # --k or --delta outside [1, u]
                raise InputError(str(exc)) from exc
            with open(out_dir / "recall.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["k", "delta", "recall"])
                writer.writerow([k, delta, f"{value:.10g}"])
            if not args.quiet:
                print(f"recall(k={k}, delta={delta}) = {value:.6g}")
    elif metric == "lof":
        if not args.points:
            print("--points is required for lof", file=sys.stderr)
            return 2
        pts = analysis.load_points_csv(args.points)
        k = args.k if args.k is not None else min(10, len(pts) - 1)
        try:
            scores = analysis.lof(pts, k)
        except ValueError as exc:  # --k outside [1, n - 1]
            raise InputError(str(exc)) from exc
        with open(out_dir / "lof.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "lof"])
            for i, s in enumerate(scores):
                writer.writerow([i, f"{s:.10g}"])
        if not args.quiet:
            print(f"lof scores for {len(pts)} points -> {out_dir/'lof.csv'}")
    elif metric == "chamfer":
        if not args.points or not args.points_b:
            print("--points and --points-b are required for chamfer", file=sys.stderr)
            return 2
        a = analysis.load_points_csv(args.points)
        b = analysis.load_points_csv(args.points_b)
        value = analysis.chamfer(a, b)
        with open(out_dir / "chamfer.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["chamfer"])
            writer.writerow([f"{value:.12g}"])
        if not args.quiet:
            print(f"chamfer = {value:.10g}")
    else:
        print(f"unknown metric {metric}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    events = load_trace(args.trace)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    util, ovh, reports, _funnel = _trace_metrics(events, args.bucket_width)
    _write_utilization_csv(out_dir / "utilization.csv", util)
    with open(out_dir / "throughput.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "window_t0", "completions_per_s"])
        for tag, rep in reports.items():
            writer.writerow([tag, "overall", f"{rep.overall_per_s:.9g}"])
            for t0, rate in rep.windows:
                writer.writerow([tag, f"{t0:.9g}", f"{rate:.9g}"])
    (out_dir / "overhead.json").write_text(json.dumps({
        "total_node_s": ovh.total_s,
        "fraction_of_makespan": ovh.fraction_of_makespan,
        "per_task_ms": ovh.per_task_ms,
        "bootstrap_node_s": ovh.bootstrap_node_s,
        "scheduling_node_s": ovh.scheduling_node_s,
        "makespan_s": ovh.makespan_s,
        "n_tasks": ovh.n_tasks,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if not args.quiet:
        if not events:
            print("warning: empty trace", file=sys.stderr)
        print(f"report written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funnelsim",
        description="Desk-scale ensemble-campaign engine and analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--quiet", action="store_true")

    helps = {"simulate": "run a simulated campaign from a JSON config",
             "run-local": "run a campaign on this host from a JSON config"}
    for name in ("simulate", "run-local"):
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--force", action="store_true", help="overwrite an existing trace")
        p.add_argument("--bucket-width", type=float, default=None)
        common(p)
        p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="run analysis metrics over CSV inputs")
    p.add_argument("--metric", required=True, choices=["res", "recall", "lof", "chamfer"])
    p.add_argument("--scores", help="scores CSV (ligand_id,true_score,predicted_score)")
    p.add_argument("--points", help="point-set CSV, one point per row")
    p.add_argument("--points-b", help="second point-set CSV (chamfer)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="turn a trace into plot-ready CSVs")
    p.add_argument("--trace", required=True)
    p.add_argument("--bucket-width", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    width = getattr(args, "bucket_width", None)
    if width is not None and not 0 < width < math.inf:
        parser.error(f"argument --bucket-width: must be a positive finite number, got {width}")
    try:
        return args.func(args)
    except InputError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    except (ConfigError, FunnelsimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
