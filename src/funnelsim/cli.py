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
                         "nodes_per_task": num, "throughput_per_gpu": num|null}},
  "overlay": {"n_masters": int, "workers_per_master": int, "bulk_size": int,
              "rebalance_policy": str, "low_water": int},
  "seed": int, "time_scale": num, "mode": "concurrent"|"sequential_pipelines"
}

The resource, funnel and overlay sections are read from the fields of
``PilotSpec``, ``FunnelConfig`` and ``MasterConfig``.  Values are not
cast: an int takes an integer or an integral float, a num any finite
number (NaN and Infinity are rejected), a bool only true or false, and
a str only a string; no bool counts as a number.  Every config error
exits 2 before anything runs or is written.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import MISSING, fields
from functools import cache
from pathlib import Path
from typing import Optional, get_type_hints

from . import analysis, workload
from .campaign import validate_campaign
from .engine import Engine
from .errors import ConfigError, FunnelsimError, InputError
from .overlay import MasterConfig
from .pilot import PilotSpec
from .trace import MAX_BUCKETS, TraceSink, load_trace, stage_tasks, throughput_from_times, timeline


def _object(doc, where: str) -> dict:
    if type(doc) is not dict:
        raise ConfigError(f"{where} must be a JSON object, got {json.dumps(doc)}")
    return doc


def _check_keys(doc, allowed: set[str], where: str):
    unknown = sorted(set(_object(doc, where)) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _typed(value, kind, where: str):
    """``value`` if it fits the type ``kind``: a number is a finite int or
    float and never a bool, and an integer may be an integral float."""
    if kind == Optional[float]:
        return None if value is None else _typed(value, float, where)
    if kind in (int, float):
        finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
        if finite and (kind is float or value == int(value)):
            return kind(value)
    elif type(value) is kind:
        return value
    raise ConfigError(f"{where} must be {_KINDS[kind]}, got {json.dumps(value)}")


def _get(doc: dict, key: str, kind, where: str, default=MISSING):
    if key not in doc and default is MISSING:
        raise ConfigError(f"{where} is missing key '{key}'")
    return _typed(doc.get(key, default), kind, f"{where}.{key}")


_hints = cache(get_type_hints)  # it evaluates the annotation strings on each call


def _read(cls, doc, where: str, **given):
    """A ``cls`` from the section ``doc``, whose keys are the fields not
    ``given``: one without a default is required, each fits its type."""
    hints = _hints(cls)
    own = [f for f in fields(cls) if f.name not in given]
    _check_keys(doc, {f.name for f in own}, where)
    return cls(**given, **{f.name: _get(doc, f.name, hints[f.name], where, f.default)
                           for f in own})


# Each tail kind's parameters and their defaults; MISSING marks a required one.
_TAILS = {"lognormal": {"sigma": 0.0}, "pareto_mix": {"alpha": MISSING, "mix": MISSING}}


def parse_cost_model(doc) -> workload.CostModel:
    """The default cost model with the given stages overridden: an omitted
    tail is lognormal with sigma 0, an omitted throughput_per_gpu is None."""
    model = workload.default_cost_model()
    for stage, entry in _object(doc, "cost_model").items():
        where = f"cost_model.{stage}"
        _check_keys(entry, {"median_node_hours", "tail", "nodes_per_task",
                            "throughput_per_gpu"}, where)
        tail = _object(entry.get("tail", {}), f"{where}.tail")
        kind = _get(tail, "kind", str, f"{where}.tail", "lognormal")
        if kind not in _TAILS:
            raise ConfigError(f"{where}.tail has unknown kind {kind!r}")
        _check_keys(tail, {"kind", *_TAILS[kind]}, f"{where}.tail")
        base = model.stages.get(stage, workload.StageCost(1.0))
        model.stages[stage] = workload.StageCost(
            median_node_hours=_get(entry, "median_node_hours", float, where,
                                   base.median_node_hours),
            tail_kind=kind,
            tail_params=tuple(_get(tail, key, float, f"{where}.tail", default)
                              for key, default in _TAILS[kind].items()),
            nodes_per_task=_get(entry, "nodes_per_task", float, where, base.nodes_per_task),
            throughput_per_gpu=_get(entry, "throughput_per_gpu", Optional[float], where, None))
        problems = model.stages[stage].validate()
        if problems:
            raise ConfigError(f"{where}: " + "; ".join(problems))
    return model


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
    resource = _read(PilotSpec, doc["resource"], "resource")
    if force_backend is not None:
        resource.backend = force_backend
    seed = _get(doc, "seed", int, "config", 0)
    funnel = _read(workload.FunnelConfig, doc.get("funnel", {}), "funnel",
                   seed=seed if seed_override is None else seed_override)
    cost_model = parse_cost_model(doc.get("cost_model", {}))
    overlay = _read(MasterConfig, doc["overlay"], "overlay") if "overlay" in doc else None
    if overlay is not None:
        problems = overlay.validate()
        if problems:
            raise ConfigError("overlay: " + "; ".join(problems))
        if resource.backend == "local":
            # S1 payloads are ligand items, not calls of registered functions.
            raise ConfigError("an overlay section needs the simulated backend")
    time_scale = _get(doc, "time_scale", float, "config", 1e-4)
    mode = doc.get("mode", "concurrent")
    if mode not in ("concurrent", "sequential_pipelines"):
        raise ConfigError(f"mode must be concurrent or sequential_pipelines, got {mode!r}")
    spec = workload.build_funnel_campaign(
        funnel, cost_model=cost_model, resource=resource, time_scale=time_scale,
        pipeline_mode="sequential" if mode == "sequential_pipelines" else "concurrent")
    return spec, overlay, funnel


def _trace_metrics(trace, bucket_width: float | None, windows: bool = True):
    """Utilization and overhead from one timeline; each completed stage's
    throughput (windowed only if ``windows``) and the funnel counts
    (per-stage task births and distinct selected conformations) from one
    walk of the trace's task events."""
    run = timeline(trace)
    try:
        util = run.utilization(bucket_width)
    except ValueError as exc:   # main checked the width, so the run has too many buckets
        raise InputError(str(exc).replace("bucket width", "--bucket-width", 1)) from exc
    reports, funnel, confs = {}, {}, set()
    for stage, (starts, dones, pending) in sorted(stage_tasks(trace).items()):
        if starts and dones:
            reports[stage] = throughput_from_times(stage, starts, dones,
                                                   None if windows else 0.0)
        if pending:
            funnel[f"{stage}_tasks"] = len(pending)
        if stage == "S3FG":
            for eid in set(pending):
                conf = next((p for p in eid.split(".") if p.startswith("c") and p[1:].isdigit()),
                            None)
                if conf:
                    confs.add(conf)
    if confs:
        funnel["selected_conformations"] = len(confs)
    return util, run.overhead(), reports, funnel


def _load(load, path):
    """``load(path)``; a file that cannot be opened, decoded as UTF-8 or
    split as CSV is an InputError that names it."""
    try:
        return load(path)
    except OSError as exc:
        why = exc.strerror or str(exc)
    except UnicodeDecodeError:
        why = "not UTF-8 text"
    except csv.Error as exc:
        why = str(exc)
    raise InputError(f"cannot read {path}: {why}")


def _out_dir(args) -> Path:
    """The output directory, created once the inputs are read."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_utilization_csv(path: Path, util) -> None:
    _write_csv(path, ["t0", "busy_node_fraction"],
               ([f"{t0:.9g}", f"{frac:.9g}"] for t0, frac in util.rows()))


def write_summary(result, sink, out_dir: Path, bucket_width: float | None) -> dict:
    util, ovh, reports, funnel = _trace_metrics(sink, bucket_width, windows=False)
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
    sink = TraceSink()
    engine = Engine(spec, sink=sink, overlay=overlay)   # refuses an overlay that never fits
    out_dir = _out_dir(args)
    trace_path = out_dir / "trace.jsonl"
    if trace_path.exists() and not args.force:
        print(f"refusing to overwrite {trace_path} (use --force)", file=sys.stderr)
        return 2
    try:
        result = engine.run()
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
    metric = args.metric
    if metric in ("res", "recall"):
        if not args.scores:
            print("--scores is required for res/recall", file=sys.stderr)
            return 2
        scored = _load(analysis.ScoredSet.from_csv, args.scores)
        if metric == "res":
            grid = analysis.compute_res(scored)
            out_dir = _out_dir(args)
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
            _write_csv(_out_dir(args) / "recall.csv", ["k", "delta", "recall"],
                       [[k, delta, f"{value:.10g}"]])
            if not args.quiet:
                print(f"recall(k={k}, delta={delta}) = {value:.6g}")
    elif metric == "lof":
        if not args.points:
            print("--points is required for lof", file=sys.stderr)
            return 2
        pts = _load(analysis.load_points_csv, args.points)
        k = args.k if args.k is not None else min(10, len(pts) - 1)
        try:
            scores = analysis.lof(pts, k)
        except ValueError as exc:  # --k outside [1, n - 1]
            raise InputError(str(exc)) from exc
        out_dir = _out_dir(args)
        _write_csv(out_dir / "lof.csv", ["index", "lof"],
                   ([i, f"{s:.10g}"] for i, s in enumerate(scores)))
        if not args.quiet:
            print(f"lof scores for {len(pts)} points -> {out_dir/'lof.csv'}")
    elif metric == "chamfer":
        if not args.points or not args.points_b:
            print("--points and --points-b are required for chamfer", file=sys.stderr)
            return 2
        a = _load(analysis.load_points_csv, args.points)
        b = _load(analysis.load_points_csv, args.points_b)
        value = analysis.chamfer(a, b)
        _write_csv(_out_dir(args) / "chamfer.csv", ["chamfer"], [[f"{value:.12g}"]])
        if not args.quiet:
            print(f"chamfer = {value:.10g}")
    else:
        print(f"unknown metric {metric}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    events = _load(load_trace, args.trace)
    util, ovh, reports, _funnel = _trace_metrics(events, args.bucket_width)
    out_dir = _out_dir(args)
    _write_utilization_csv(out_dir / "utilization.csv", util)
    rows = []
    for tag, rep in reports.items():
        rows.append([tag, "overall", f"{rep.overall_per_s:.9g}"])
        rows.extend([tag, f"{t0:.9g}", f"{rate:.9g}"] for t0, rate in rep.windows)
    _write_csv(out_dir / "throughput.csv", ["stage", "window_t0", "completions_per_s"], rows)
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
    except FunnelsimError as exc:   # an InputError's text names its line
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
