"""Event trace collection and the performance metrics computed from it.

Every state transition in a run is recorded as a TraceEvent.  Metrics
(utilization series, per-stage throughput, engine overhead) are pure
functions of the trace, so a persisted trace can be re-analyzed at any
time and merged traces from disjoint runs behave additively.
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Optional

from .errors import InputError, TraceError

# Legal transition graphs, per entity kind.  ``None`` keys are the legal
# birth transitions for that entity.
_TASK_GRAPH = {
    None: {"pending"},
    "pending": {"scheduled", "canceled"},
    "scheduled": {"running", "canceled"},
    "running": {"done", "failed", "canceled"},
}
_PILOT_GRAPH = {
    None: {"acquired"},
    "acquired": {"agent_ready", "released"},
    "agent_ready": {"released"},
}
_NODE_GRAPH = {
    None: {"busy"},
    "busy": {"idle"},
    "idle": {"busy"},
}
_PIPELINE_GRAPH = {
    None: {"started"},
    "started": {"done", "failed", "canceled"},
}
_STAGE_GRAPH = {
    None: {"started"},
    "started": {"completed", "failed"},
}
_WORKER_GRAPH = {
    None: {"ready"},
    "ready": {"busy", "stopped"},
    "busy": {"idle", "stopped"},
    "idle": {"busy", "stopped"},
}
_MASTER_GRAPH = {
    None: {"ready"},
    "ready": {"bulk_created", "stopped"},
    "bulk_created": {"bulk_created", "stopped"},
}

LEGAL_GRAPHS = {
    "task": _TASK_GRAPH,
    "pilot": _PILOT_GRAPH,
    "node": _NODE_GRAPH,
    "pipeline": _PIPELINE_GRAPH,
    "stage": _STAGE_GRAPH,
    "worker": _WORKER_GRAPH,
    "master": _MASTER_GRAPH,
}

TERMINAL_TASK_STATES = {"done", "failed", "canceled"}

# Every legal (entity, previous transition, next transition), so that
# recording an event checks legality with one set lookup.
_LEGAL_STEPS = frozenset((entity, prev, nxt) for entity, graph in LEGAL_GRAPHS.items()
                         for prev, nexts in graph.items() for nxt in nexts)
_NEVER_SEEN = (-math.inf, None)


@dataclass(slots=True)
class TraceEvent:
    t: float
    entity: str
    entity_id: str
    transition: str
    nodes: Optional[int] = None
    cpus: Optional[int] = None
    gpus: Optional[int] = None
    stage: Optional[str] = None
    pipeline: Optional[str] = None

    def to_json(self) -> str:
        """The event's line in ``trace.jsonl``, without the newline: the
        text of ``json.dumps`` with compact separators, keys in field order
        and the optional keys that are None left out."""
        return _encode(self, _QuotedStrings())


# -- encoding ---------------------------------------------------------------
#
# The fast forms below are what json.dumps itself emits: ``repr`` of a
# finite float or of an exact int, and json's own ASCII string quoting.
# Any other value (a bool, a numpy scalar, a non-finite float, an int
# time) goes through json.dumps.

_dumps = json.JSONEncoder(separators=(",", ":")).encode
_SAVE_BATCH = 4096      # lines per write in TraceSink.save


class _QuotedStrings(dict):
    """Maps a trace string to its JSON form, computing each one once."""

    def __missing__(self, value):
        if not isinstance(value, str):
            return _dumps(value)
        quoted = self[value] = _json_str(value)
        return quoted


def _encode(ev: TraceEvent, quoted: _QuotedStrings) -> str:
    t, eid = ev.t, ev.entity_id
    # t - t is 0.0 only when t is finite.
    line = (f'{{"t":{repr(t) if type(t) is float and t - t == 0.0 else _dumps(t)},'
            f'"entity":{quoted[ev.entity]},'
            f'"id":{_json_str(eid) if isinstance(eid, str) else _dumps(eid)},'
            f'"transition":{quoted[ev.transition]}')
    n = ev.nodes
    if n is not None:
        line += f',"nodes":{repr(n) if type(n) is int else _dumps(n)}'
    n = ev.cpus
    if n is not None:
        line += f',"cpus":{repr(n) if type(n) is int else _dumps(n)}'
    n = ev.gpus
    if n is not None:
        line += f',"gpus":{repr(n) if type(n) is int else _dumps(n)}'
    if ev.stage is not None:
        line += f',"stage":{quoted[ev.stage]}'
    if ev.pipeline is not None:
        line += f',"pipeline":{quoted[ev.pipeline]}'
    return line + "}"


# -- decoding ---------------------------------------------------------------
#
# A line in the canonical form ``_encode`` writes is parsed by one regular
# expression.  Its numbers follow JSON's grammar, a time always has a
# fraction or an exponent (as ``repr`` of a float does) and a count is an
# int of at most 18 digits, so ``float`` and ``int`` of the matched text
# give what json.loads gives.  Its strings are printable ASCII without
# ``"`` or ``\``, which JSON reads literally.  Every other line goes
# through json.loads in ``event_from_json``.

_STR = r'"([ !#-\[\]-~]*)"'
_INT = r'(-?(?:0|[1-9][0-9]{0,17}))'
_TIME = r'(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))'
CANONICAL_LINE = re.compile(
    rf'\{{"t":{_TIME},"entity":{_STR},"id":{_STR},"transition":{_STR}'
    rf'(?:,"nodes":{_INT})?(?:,"cpus":{_INT})?(?:,"gpus":{_INT})?'
    rf'(?:,"stage":{_STR})?(?:,"pipeline":{_STR})?\}}\n?')


def event_from_json(line: str, lineno: int | None = None) -> TraceEvent:
    try:
        rec = json.loads(line)
        return TraceEvent(
            t=float(rec["t"]), entity=str(rec["entity"]),
            entity_id=str(rec["id"]), transition=str(rec["transition"]),
            nodes=rec.get("nodes"), cpus=rec.get("cpus"), gpus=rec.get("gpus"),
            stage=rec.get("stage"), pipeline=rec.get("pipeline"))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad trace line {lineno}: {exc}", line=lineno) from exc


class TraceSink:
    """Collects TraceEvents, validating legality as they are recorded.

    ``mode`` is "reject" (raise TraceError on an illegal transition) or
    "flag" (record the event and remember it in ``flagged``).
    """

    def __init__(self, mode: str = "reject"):
        if mode not in ("reject", "flag"):
            raise ValueError(f"unknown sink mode {mode!r}")
        self.mode = mode
        self.events: list[TraceEvent] = []
        self.flagged: list[TraceEvent] = []
        self._last: dict[tuple[str, str], tuple[float, str]] = {}

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def record(self, event: TraceEvent) -> None:
        key = (event.entity, event.entity_id)
        prev_t, prev_tr = self._last.get(key, _NEVER_SEEN)
        if (event.entity, prev_tr, event.transition) in _LEGAL_STEPS and not event.t < prev_t:
            self._last[key] = (event.t, event.transition)
        elif event.entity not in LEGAL_GRAPHS:
            self._illegal(event, f"unknown entity kind {event.entity!r}")
        elif event.t < prev_t:
            self._illegal(event, f"event at t={event.t} before t={prev_t}")
        else:
            self._illegal(event, f"illegal transition {prev_tr} -> {event.transition}")
        self.events.append(event)

    def _illegal(self, event: TraceEvent, why: str) -> None:
        if self.mode == "reject":
            raise TraceError(f"{event.entity} {event.entity_id}: {why}")
        self.flagged.append(event)

    def save(self, path) -> None:
        """Write one line per event.  Lines go out in batches, so the
        file's text is never held in memory whole."""
        quoted = _QuotedStrings()
        events = self.events
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, len(events), _SAVE_BATCH):
                fh.writelines([_encode(ev, quoted) + "\n"
                               for ev in events[i:i + _SAVE_BATCH]])


def load_trace(path) -> list[TraceEvent]:
    """Read a trace written by ``TraceSink.save``, or any file with one
    JSON object per line; blank lines are skipped.  Entity kinds,
    transitions, stages and pipelines are interned, so a loaded trace
    shares one copy of each."""
    events = []
    append = events.append
    match = CANONICAL_LINE.fullmatch
    intern = sys.intern
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            m = match(line)
            if m is None:
                line = line.strip()
                if line:
                    append(event_from_json(line, lineno))
                continue
            t, entity, eid, transition, nodes, cpus, gpus, stage, pipeline = m.groups()
            append(TraceEvent(
                float(t), intern(entity), eid, intern(transition),
                None if nodes is None else int(nodes),
                None if cpus is None else int(cpus),
                None if gpus is None else int(gpus),
                None if stage is None else intern(stage),
                None if pipeline is None else intern(pipeline)))
    return events


def merge_traces(traces: Iterable[list[TraceEvent]]) -> list[TraceEvent]:
    """Merge traces from disjoint runs, namespacing colliding entity ids."""
    traces = list(traces)
    merged: list[TraceEvent] = []
    for i, events in enumerate(traces):
        prefix = f"r{i}:" if len(traces) > 1 else ""
        for ev in events:
            merged.append(TraceEvent(
                t=ev.t, entity=ev.entity, entity_id=prefix + ev.entity_id,
                transition=ev.transition, nodes=ev.nodes, cpus=ev.cpus,
                gpus=ev.gpus, stage=ev.stage, pipeline=ev.pipeline))
    merged.sort(key=lambda ev: ev.t)
    return merged


# ---------------------------------------------------------------------------
# metrics


@dataclass
class UtilizationSeries:
    bucket_width_s: float
    t0s: list[float]
    busy_node_fraction: list[float]

    def mean(self) -> float:
        if not self.busy_node_fraction:
            return 0.0
        return sum(self.busy_node_fraction) / len(self.busy_node_fraction)

    def rows(self):
        return list(zip(self.t0s, self.busy_node_fraction))


def _pilot_totals(trace: list[TraceEvent]) -> int:
    nodes = 0
    for ev in trace:
        if ev.entity == "pilot" and ev.transition == "acquired":
            nodes += ev.nodes or 0
    return nodes


def _span(trace: list[TraceEvent]) -> tuple[float, float]:
    """(min, max) of the event times, with the comparisons min() and
    max() make, in one pass."""
    if not trace:
        return 0.0, 0.0
    lo = hi = trace[0].t
    for ev in trace:
        t = ev.t
        if t < lo:
            lo = t
        if t > hi:
            hi = t
    return lo, hi


def _node_busy_intervals(trace: list[TraceEvent], t_end: float):
    """Busy intervals per node, from node busy/idle transitions."""
    open_at: dict[str, float] = {}
    intervals: list[tuple[float, float]] = []
    for ev in trace:
        if ev.entity != "node":
            continue
        if ev.transition == "busy":
            open_at[ev.entity_id] = ev.t
        elif ev.transition == "idle":
            start = open_at.pop(ev.entity_id, None)
            if start is not None:
                intervals.append((start, ev.t))
    for start in open_at.values():
        intervals.append((start, t_end))
    return intervals


def utilization(trace: list[TraceEvent], bucket_width_s: float | None = None) -> UtilizationSeries:
    """Node-granularity utilization: a node counts busy while any of its
    slots is occupied by a running task.

    Default bucket width is makespan / 200.
    """
    total_nodes = _pilot_totals(trace)
    t_start, t_end = _span(trace)
    span = t_end - t_start
    if total_nodes == 0 or span <= 0:
        return UtilizationSeries(bucket_width_s or 0.0, [], [])
    if bucket_width_s is None:
        bucket_width_s = span / 200.0
    n_buckets = max(1, math.ceil(span / bucket_width_s - 1e-12))
    busy = [0.0] * n_buckets
    for start, end in _node_busy_intervals(trace, t_end):
        b0 = int((start - t_start) / bucket_width_s)
        b1 = int((end - t_start) / bucket_width_s)
        b1 = min(b1, n_buckets - 1)
        for b in range(b0, b1 + 1):
            lo = t_start + b * bucket_width_s
            hi = lo + bucket_width_s
            busy[b] += max(0.0, min(end, hi) - max(start, lo))
    denom = total_nodes * bucket_width_s
    t0s = [t_start + b * bucket_width_s for b in range(n_buckets)]
    fractions = [min(1.0, bs / denom) for bs in busy]
    return UtilizationSeries(bucket_width_s, t0s, fractions)


@dataclass
class ThroughputReport:
    stage_tag: str
    completions: int
    overall_per_s: float
    window_s: float
    windows: list[tuple[float, float]]  # (t0, completions per second)


def stage_throughput(trace: list[TraceEvent], stage_tag: str,
                     window_s: float | None = None) -> Optional[ThroughputReport]:
    """Completions per second for one stage: overall rate over the span
    from the stage's first task start to its last completion, plus a
    windowed series for sustained-rate checks.

    Returns None (absent, not zero) when the stage has no completions.
    """
    starts, dones = [], []
    for ev in trace:
        if ev.entity != "task" or ev.stage != stage_tag:
            continue
        if ev.transition == "running":
            starts.append(ev.t)
        elif ev.transition == "done":
            dones.append(ev.t)
    if not dones or not starts:
        return None
    t0 = min(starts)
    t1 = max(dones)
    span = t1 - t0
    overall = len(dones) / span if span > 0 else math.inf
    if window_s is None:
        window_s = span / 10 if span > 0 else 1.0
    windows: list[tuple[float, float]] = []
    if window_s > 0 and span > 0:
        n_win = max(1, math.ceil(span / window_s - 1e-12))
        counts = [0] * n_win
        for t in dones:
            b = min(n_win - 1, int((t - t0) / window_s))
            counts[b] += 1
        windows = [(t0 + i * window_s, c / window_s) for i, c in enumerate(counts)]
    return ThroughputReport(stage_tag, len(dones), overall, window_s, windows)


@dataclass
class OverheadReport:
    total_s: float                # idle node-seconds over the run window
    fraction_of_makespan: float   # idle / (makespan * nodes)
    per_task_ms: float            # scheduling-gap node-seconds per task
    bootstrap_node_s: float
    scheduling_node_s: float      # idle node-seconds while work was queued
    makespan_s: float
    n_tasks: int


def overhead(trace: list[TraceEvent]) -> OverheadReport:
    """Engine overhead: node-seconds not covered by busy nodes.

    Bootstrap (acquired to agent_ready, across all nodes) is measured
    separately.  Scheduling overhead counts idle node-seconds only while
    tasks were waiting to run; idle time with nothing queued is workload
    shape, not engine overhead, and appears only in ``total_s``.
    """
    total_nodes = _pilot_totals(trace)
    t_start, t_end = _span(trace)
    makespan = t_end - t_start
    boot_start = boot_end = None
    for ev in trace:
        if ev.entity == "pilot" and ev.transition == "acquired":
            boot_start = ev.t if boot_start is None else min(boot_start, ev.t)
        if ev.entity == "pilot" and ev.transition == "agent_ready":
            boot_end = ev.t if boot_end is None else max(boot_end, ev.t)
    bootstrap = 0.0
    if boot_start is not None and boot_end is not None:
        bootstrap = max(0.0, boot_end - boot_start) * total_nodes
    busy = sum(e - s for s, e in _node_busy_intervals(trace, t_end))
    n_tasks = sum(1 for ev in trace
                  if ev.entity == "task" and ev.transition in TERMINAL_TASK_STATES)

    # Sweep: accumulate idle node-seconds over intervals with queued work
    # (a task counts as queued from its pending event until it runs or is
    # canceled without ever running).
    deltas: dict[float, list[int]] = {}

    def bump(t, busy_nodes=0, queued=0):
        d = deltas.setdefault(t, [0, 0])
        d[0] += busy_nodes
        d[1] += queued

    in_queue: dict[str, bool] = {}
    for ev in trace:
        if ev.entity == "node":
            bump(ev.t, busy_nodes=1 if ev.transition == "busy" else -1)
        elif ev.entity == "task":
            if ev.transition == "pending":
                in_queue[ev.entity_id] = True
                bump(ev.t, queued=1)
            elif ev.transition in ("running", "canceled"):
                if in_queue.pop(ev.entity_id, False):
                    bump(ev.t, queued=-1)
    sched = 0.0
    busy_nodes = queued = 0
    after_boot = boot_end if boot_end is not None else t_start
    times = sorted(deltas)
    for i, t in enumerate(times):
        nxt = times[i + 1] if i + 1 < len(times) else t_end
        busy_nodes += deltas[t][0]
        queued += deltas[t][1]
        lo = max(t, after_boot)
        if nxt > lo and queued > 0:
            sched += (total_nodes - busy_nodes) * (nxt - lo)

    total_node_s = makespan * total_nodes
    idle = max(0.0, total_node_s - busy)
    sched = min(sched, max(0.0, idle - bootstrap))
    per_task_ms = 1000.0 * sched / n_tasks if n_tasks else 0.0
    fraction = idle / total_node_s if total_node_s > 0 else 0.0
    return OverheadReport(idle, fraction, per_task_ms, bootstrap, sched,
                          makespan, n_tasks)


def peak_concurrency(trace: list[TraceEvent]) -> int:
    """Maximum number of simultaneously running tasks."""
    deltas: list[tuple[float, int]] = []
    for ev in trace:
        if ev.entity != "task":
            continue
        if ev.transition == "running":
            deltas.append((ev.t, 1))
        elif ev.transition in TERMINAL_TASK_STATES:
            deltas.append((ev.t, -1))
    deltas.sort(key=lambda d: (d[0], d[1]))
    peak = cur = 0
    for _, d in deltas:
        cur += d
        peak = max(peak, cur)
    return peak


def busy_node_seconds(trace: list[TraceEvent]) -> float:
    _, t_end = _span(trace)
    return sum(e - s for s, e in _node_busy_intervals(trace, t_end))


def stage_node_seconds(trace: list[TraceEvent]) -> dict[str, float]:
    """Modeled node-seconds charged per stage: task duration times its
    node-equivalent span (a 1-of-6 gpu task counts as 1/6 node)."""
    cpn = gpn = 0
    for ev in trace:
        if ev.entity == "pilot" and ev.transition == "acquired":
            cpn = max(cpn, ev.cpus or 0)
            gpn = max(gpn, ev.gpus or 0)
    started: dict[str, TraceEvent] = {}
    totals: dict[str, float] = {}
    for ev in trace:
        if ev.entity != "task":
            continue
        if ev.transition == "running":
            started[ev.entity_id] = ev
        elif ev.transition == "done" and ev.entity_id in started:
            start = started.pop(ev.entity_id)
            cpu_frac = (start.cpus or 0) / cpn if cpn else 0.0
            gpu_frac = (start.gpus or 0) / gpn if gpn else 0.0
            node_equiv = (start.nodes or 1) * max(cpu_frac, gpu_frac, 0.0)
            stage = start.stage or "other"
            totals[stage] = totals.get(stage, 0.0) + (ev.t - start.t) * node_equiv
    return totals
