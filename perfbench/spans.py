"""Span tracing for the benchmark's traced run, installed from outside the
package: public functions and methods of each module are replaced by
wrappers that record a span per call.

A span is (name, start, end, parent, run id).  Spans stay in memory and
are written out once the iteration ends.  A span's self time is its
duration minus the durations of its direct children; since the
simulator is single-threaded, children never overlap each other.

Layer per-call metrics derived from the spans are listed in LAYER_METRICS.
A target that no longer exists is skipped with a warning, and every
metric that needs it is left out.
"""
from __future__ import annotations

import csv
import importlib
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("workload", "campaign", "pilot", "engine", "overlay", "trace", "analysis", "cli")


def _count_hook(counters, args, kwargs, out):
    outputs = kwargs.get("outputs", args[1] if len(args) > 1 else ())
    counters["hook_input_bytes"] += sum(len(raw) for _tid, raw in outputs)
    counters["hook_items_kept"] += len(out)


def _count_materialized(counters, args, kwargs, out):
    counters["materialized_tasks"] += len(out)


def _count_place(counters, args, kwargs, out):
    if out is None:
        counters["place_misses"] += 1


def _count_dispatch(counters, args, kwargs, out):
    bulk = kwargs.get("bulk", args[1] if len(args) > 1 else None)
    counters["dispatched_tasks"] += len(bulk.tasks)


# (layer, module, attribute path, counter) for every wrapped target.
TARGETS = [
    ("workload", "funnelsim.workload", "generate_library", None),
    ("workload", "funnelsim.workload", "surrogate_scores", None),
    ("workload", "funnelsim.workload", "build_funnel_campaign", None),
    ("workload", "funnelsim.workload", "duration_uniforms", None),
    ("campaign", "funnelsim.campaign", "validate_campaign", None),
    ("campaign", "funnelsim.campaign", "apply_post_hook", _count_hook),
    ("campaign", "funnelsim.campaign", "materialize_tasks", _count_materialized),
    ("campaign", "funnelsim.campaign", "PipelineState.mark_scheduled", None),
    ("campaign", "funnelsim.campaign", "PipelineState.mark_running", None),
    ("campaign", "funnelsim.campaign", "PipelineState.on_task_complete", None),
    ("pilot", "funnelsim.pilot", "acquire_pilot", None),
    ("pilot", "funnelsim.pilot", "Pilot.place_one", _count_place),
    ("pilot", "funnelsim.pilot", "Pilot.release", None),
    ("pilot", "funnelsim.pilot", "Pilot.schedule", None),
    ("engine", "funnelsim.engine", "run_campaign", None),
    ("engine", "funnelsim.engine", "run_executor", None),
    ("engine", "funnelsim.engine", "run_overlay", None),
    ("overlay", "funnelsim.overlay", "partition_bulks", None),
    ("overlay", "funnelsim.overlay", "round_robin_assign", None),
    ("overlay", "funnelsim.overlay", "Master.dispatch", _count_dispatch),
    ("overlay", "funnelsim.overlay", "Master.wants_refill", None),
    ("trace", "funnelsim.trace", "TraceSink.record", None),
    ("trace", "funnelsim.trace", "TraceSink.save", None),
    ("trace", "funnelsim.trace", "load_trace", None),
    ("trace", "funnelsim.trace", "utilization", None),
    ("trace", "funnelsim.trace", "stage_throughput", None),
    ("trace", "funnelsim.trace", "overhead", None),
    ("analysis", "funnelsim.analysis", "ScoredSet.from_csv", None),
    ("analysis", "funnelsim.analysis", "top_k_recall", None),
    ("analysis", "funnelsim.analysis", "compute_res", None),
    ("analysis", "funnelsim.analysis", "RESGrid.to_csv", None),
    ("analysis", "funnelsim.analysis", "lof", None),
    ("cli", "funnelsim.cli", "load_config", None),
    ("cli", "funnelsim.cli", "write_summary", None),
]


class Tracer:
    """Records spans for one iteration.  Phase spans (setup, run, io) are
    the roots; every wrapped call nests under the innermost open span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[list] = []       # [name index, start, end, parent index]
        self.stack: list[int] = [-1]
        self.counters = dict.fromkeys(("place_misses", "dispatched_tasks", "hook_input_bytes",
                                       "hook_items_kept", "materialized_tasks"), 0)
        self.missing: list[str] = []

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- phases -------------------------------------------------------------

    def enter_phase(self, phase: str) -> None:
        self.spans.append([self._name_index(f"bench.{phase}"), time.perf_counter(), 0.0, -1])
        self.stack.append(len(self.spans) - 1)

    def exit_phase(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, count):
        sid = self._name_index(name)
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [sid, clock(), 0.0, stack[-1]]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target.  A module-level function is replaced in its
        own module and in every loaded package module that imported it by
        name, so callers that bound it at import time are traced too."""
        for layer, module_name, path, count in TARGETS:
            name = f"{layer}.{path}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                print(f"warning: trace target {module_name}.{path} not found; "
                      f"its metrics are left out", file=sys.stderr)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self._wrap(raw.__func__, name, count)))
            elif outer:
                setattr(owner, attr, self._wrap(raw, name, count))
            else:
                wrapped = self._wrap(raw, name, count)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "funnelsim" and getattr(mod, attr, None) is raw:
                        setattr(mod, attr, wrapped)

    # -- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as CSV: name, start, end, parent, run id."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "run_id"])
            for i, (sid, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, self.names[sid], f"{start:.9f}", f"{end:.9f}",
                                 parent, self.run_id])

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, and self
        seconds spent under the run phase."""
        n = len(self.spans)
        child = [0.0] * n
        phase_of = [""] * n
        for i, (sid, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                phase_of[i] = phase_of[parent]
            else:
                phase_of[i] = self.names[sid]
        stats: dict[str, list[float]] = {}
        for i, (sid, start, end, _parent) in enumerate(self.spans):
            s = stats.setdefault(self.names[sid], [0, 0.0, 0.0, 0.0])
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[i]
            if phase_of[i] == "bench.run":
                s[3] += end - start - child[i]
        return stats


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# Per-layer metrics: name -> (unit, span names needed, value function).
# The value function gets (calls, total, bench): calls and total map a
# span name to its call count and inclusive seconds; bench holds the
# iteration's counters, phase times and per-layer self seconds.

def _seconds(*names):
    return ("s", list(names), lambda c, t, b: sum(t[n] for n in names))


def _calls(name):
    return ("count", [name], lambda c, t, b: c[name])


def _us_per(name, per=None):
    """Microseconds in ``name`` per call, or per bench counter ``per``."""
    return ("us", [name], lambda c, t, b: _per(t[name], b.get(per, 0) if per else c[name], 1e6))


def _counter(unit, key, name=None):
    return (unit, [name] if name else [], lambda c, t, b: b.get(key, 0))


def _layer(unit, fn):
    return (unit, [], fn)


PLACE, DISPATCH = "pilot.Pilot.place_one", "overlay.Master.dispatch"
HOOK, MATERIALIZE = "campaign.apply_post_hook", "campaign.materialize_tasks"

LAYER_METRICS = {
    "workload.library_s": _seconds("workload.generate_library", "workload.surrogate_scores"),
    "workload.ml1_payload_bytes": _counter("bytes", "ml1_payload_bytes"),
    "workload.duration_draws": _calls("workload.duration_uniforms"),
    "workload.duration_us_per_draw": _us_per("workload.duration_uniforms"),
    "campaign.validate_s": _seconds("campaign.validate_campaign"),
    "campaign.hook_calls": _calls(HOOK),
    "campaign.hook_s": _seconds(HOOK),
    "campaign.hook_input_bytes": _counter("bytes", "hook_input_bytes", HOOK),
    "campaign.hook_items_kept": _counter("count", "hook_items_kept", HOOK),
    "campaign.materialize_s": _seconds(MATERIALIZE),
    "campaign.materialized_tasks": _counter("count", "materialized_tasks", MATERIALIZE),
    "pilot.place_calls": _calls(PLACE),
    "pilot.place_misses": _counter("count", "place_misses", PLACE),
    "pilot.place_hit_ratio": ("ratio", [PLACE],
                              lambda c, t, b: _per(c[PLACE] - b["place_misses"], c[PLACE])),
    "pilot.place_us_per_call": _us_per(PLACE),
    "pilot.release_us_per_call": _us_per("pilot.Pilot.release"),
    "pilot.schedule_s": _seconds("pilot.Pilot.schedule"),
    "engine.self_s": _layer("s", lambda c, t, b: b["layer_self"]["engine"]),
    "engine.self_us_per_event": _layer("us", lambda c, t, b: _per(
        b["layer_self"]["engine"], b.get("trace_events", 0), 1e6)),
    "engine.trace_events": _counter("count", "trace_events"),
    "engine.tasks_terminal": _counter("count", "tasks_terminal"),
    "overlay.bulks_dispatched": _calls(DISPATCH),
    "overlay.dispatched_tasks": _counter("count", "dispatched_tasks", DISPATCH),
    "overlay.dispatch_us_per_task": _us_per(DISPATCH, per="dispatched_tasks"),
    "overlay.refill_checks": _calls("overlay.Master.wants_refill"),
    "overlay.refill_us_per_check": _us_per("overlay.Master.wants_refill"),
    "overlay.worker_busy_mean": _layer("ratio", lambda c, t, b: b.get("worker_busy_mean") or 0.0),
    "trace.record_us_per_event": _us_per("trace.TraceSink.record"),
    "trace.save_us_per_event": _us_per("trace.TraceSink.save", per="trace_events"),
    "trace.load_us_per_event": _us_per("trace.load_trace", per="trace_events"),
    "trace.bytes": _counter("bytes", "trace_bytes"),
    "trace.metrics_s": _seconds("trace.utilization", "trace.stage_throughput", "trace.overhead"),
    "analysis.from_csv_s": _seconds("analysis.ScoredSet.from_csv"),
    "analysis.recall_s": _seconds("analysis.top_k_recall"),
    "analysis.res_s": _seconds("analysis.compute_res"),
    "analysis.lof_calls": _calls("analysis.lof"),
    "analysis.lof_s": _seconds("analysis.lof"),
    "cli.load_config_s": _seconds("cli.load_config"),
    "cli.summary_s": _seconds("cli.write_summary"),
}
for _name in LAYERS:
    LAYER_METRICS[f"{_name}.self_s"] = _layer("s", lambda c, t, b, _l=_name: b["layer_self"][_l])
    LAYER_METRICS[f"{_name}.share"] = _layer(
        "ratio", lambda c, t, b, _l=_name: _per(b["layer_self"][_l], b["total_s"]))
LAYER_METRICS["pilot.run_share"] = _layer(
    "ratio", lambda c, t, b: _per(b["layer_run_self"]["pilot"], b["run_s"]))


def layer_metrics(tracer: Tracer, bench: dict) -> dict[str, float]:
    """Every per-layer metric whose spans were all installed.  ``bench``
    carries the iteration's counters and phase times."""
    stats = tracer.aggregate()
    calls = dict.fromkeys(tracer.names, 0)
    total = dict.fromkeys(tracer.names, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_run_self = dict.fromkeys(LAYERS, 0.0)
    for name, (n, incl, excl, run_excl) in stats.items():
        calls[name], total[name] = n, incl
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += excl
            layer_run_self[layer] += run_excl
    bench = {**tracer.counters, **bench, "layer_self": layer_self,
             "layer_run_self": layer_run_self}
    out = {}
    for metric, (_unit, needs, fn) in LAYER_METRICS.items():
        if any(name in tracer.missing for name in needs):
            continue
        out[metric] = float(fn(calls, total, bench))
    return out
