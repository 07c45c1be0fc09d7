"""Event trace collection and the performance metrics computed from it.

Every state transition in a run is recorded as a TraceEvent.  Metrics
(utilization series, per-stage throughput, engine overhead) are pure
functions of the trace, so a persisted trace can be re-analyzed at any
time and merged traces from disjoint runs behave additively.

Node and queue metrics (utilization, overhead, busy node-seconds, peak
concurrency) are views of one Timeline: the busy nodes, queued tasks and
running tasks over time, from one walk of the events.  A node is busy from
its ``busy`` event until the next ``idle`` of the same id; a task is queued
from ``pending`` and running from ``running`` until it ends.  An event that
would put an entity back into a count it has reached changes nothing.  A
given utilization bucket width must be a positive finite number.

``load_trace`` and the simulated event loop allocate an object per event
by the hundred thousand, and almost none of them become garbage; each
pauses CPython's cyclic collector while it runs (``gc_paused``), because
a collection would only walk the growing heap and free nothing.  A saved
trace repeats few distinct line endings (transition, counts, stage and
pipeline), so ``save`` encodes and ``load_trace`` parses each one once.
"""
from __future__ import annotations

import gc
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Optional

import numpy as np

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


@contextmanager
def gc_paused():
    """Turn CPython's cyclic garbage collector off for the body, and back
    on afterwards, also when the body raises, if it was on before."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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
    return (f'{{"t":{repr(t) if type(t) is float and t - t == 0.0 else _dumps(t)},'
            f'"entity":{quoted[ev.entity]},'
            f'"id":{_json_str(eid) if isinstance(eid, str) else _dumps(eid)}'
            + _encode_tail(quoted, ev.transition, ev.nodes, ev.cpus, ev.gpus,
                           ev.stage, ev.pipeline))


def _encode_tail(quoted: _QuotedStrings, transition, nodes, cpus, gpus, stage,
                 pipeline) -> str:
    """The line from ``,"transition":`` on, closing brace included."""
    line = f',"transition":{quoted[transition]}'
    if nodes is not None:
        line += f',"nodes":{repr(nodes) if type(nodes) is int else _dumps(nodes)}'
    if cpus is not None:
        line += f',"cpus":{repr(cpus) if type(cpus) is int else _dumps(cpus)}'
    if gpus is not None:
        line += f',"gpus":{repr(gpus) if type(gpus) is int else _dumps(gpus)}'
    if stage is not None:
        line += f',"stage":{quoted[stage]}'
    if pipeline is not None:
        line += f',"pipeline":{quoted[pipeline]}'
    return line + "}"


class _EncodedTails(dict):
    """Maps (transition, nodes, cpus, gpus, stage, pipeline) to the line's
    text after the id, newline included, computing each one once."""

    def __init__(self, quoted: _QuotedStrings):
        super().__init__()
        self.quoted = quoted

    def __missing__(self, key):
        tail = self[key] = _encode_tail(self.quoted, *key) + "\n"
        return tail


def _line(ev: TraceEvent, quoted: _QuotedStrings, tails: _EncodedTails) -> str:
    """The event's line, newline included.  The cached tail serves only
    events whose keyed values have exact types (int or None counts, str or
    None names), with a finite float time and a str id: True, 1, 1.0 and
    np.int64(1) are equal as dict keys, but json writes them apart or not
    at all."""
    t, eid, transition, stage, pipeline = ev.t, ev.entity_id, ev.transition, ev.stage, ev.pipeline
    nodes, cpus, gpus = ev.nodes, ev.cpus, ev.gpus
    if (type(t) is float and t - t == 0.0 and type(eid) is str and type(transition) is str
            and (nodes is None or type(nodes) is int) and (cpus is None or type(cpus) is int)
            and (gpus is None or type(gpus) is int) and (stage is None or type(stage) is str)
            and (pipeline is None or type(pipeline) is str)):
        return (f'{{"t":{t!r},"entity":{quoted[ev.entity]},"id":{_json_str(eid)}'
                + tails[transition, nodes, cpus, gpus, stage, pipeline])
    return _encode(ev, quoted) + "\n"


# -- decoding ---------------------------------------------------------------
#
# A line in the canonical form ``_encode`` writes is parsed by two regular
# expressions: one for its head, up to ``,"transition":``, and one for the
# rest, its tail.  Its numbers follow JSON's grammar, a time always has a
# fraction or an exponent (as ``repr`` of a float does) and a count is an
# int of at most 18 digits, so ``float`` and ``int`` of the matched text
# give what json.loads gives.  Its strings are printable ASCII without
# ``"`` or ``\``, which JSON reads literally.  Every other line goes
# through json.loads in ``event_from_json``.

_STR = r'"([ !#-\[\]-~]*)"'
_INT = r'(-?(?:0|[1-9][0-9]{0,17}))'
_TIME = r'(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))'
_HEAD = re.compile(rf'\{{"t":{_TIME},"entity":{_STR},"id":{_STR},"transition":')
_TAIL = re.compile(rf'{_STR}(?:,"nodes":{_INT})?(?:,"cpus":{_INT})?(?:,"gpus":{_INT})?'
                   rf'(?:,"stage":{_STR})?(?:,"pipeline":{_STR})?\}}\n?')
# A head's strings hold no '"', so a line is canonical exactly when its
# head matches and the rest of it is a tail.
CANONICAL_LINE = re.compile(_HEAD.pattern + _TAIL.pattern)


class _ParsedTails(dict):
    """Maps a line's tail to its TraceEvent fields (transition, nodes,
    cpus, gpus, stage, pipeline), parsing each one once; None for a tail
    not in the canonical form."""

    def __missing__(self, tail):
        m = _TAIL.fullmatch(tail)
        fields = None
        if m is not None:
            transition, nodes, cpus, gpus, stage, pipeline = m.groups()
            fields = (sys.intern(transition),
                      None if nodes is None else int(nodes),
                      None if cpus is None else int(cpus),
                      None if gpus is None else int(gpus),
                      None if stage is None else sys.intern(stage),
                      None if pipeline is None else sys.intern(pipeline))
        self[tail] = fields
        return fields


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
        tails = _EncodedTails(quoted)
        events = self.events
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, len(events), _SAVE_BATCH):
                fh.writelines([_line(ev, quoted, tails) for ev in events[i:i + _SAVE_BATCH]])


def load_trace(path) -> list[TraceEvent]:
    """Read a trace written by ``TraceSink.save``, or any file with one
    JSON object per line; blank lines are skipped.  Entity kinds,
    transitions, stages and pipelines are interned, so a loaded trace
    shares one copy of each."""
    events = []
    append = events.append
    head = _HEAD.match
    tails = _ParsedTails()
    intern = sys.intern
    with gc_paused(), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            m = head(line)
            fields = None if m is None else tails[line[m.end():]]
            if fields is None:
                line = line.strip()
                if line:
                    append(event_from_json(line, lineno))
                continue
            t, entity, eid = m.groups()
            append(TraceEvent(float(t), intern(entity), eid, *fields))
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

# The Timeline count each transition moves its entity into (0 busy nodes,
# 1 queued tasks, 2 running tasks), and those that take it out of its count.
_ENTERS = {"node": {"busy": 0}, "task": {"pending": 1, "running": 2}}
_LEAVES = {"node": {"idle"}, "task": TERMINAL_TASK_STATES}


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


@dataclass
class OverheadReport:
    total_s: float                # idle node-seconds over the run window
    fraction_of_makespan: float   # idle / (makespan * nodes)
    per_task_ms: float            # scheduling-gap node-seconds per task
    bootstrap_node_s: float
    scheduling_node_s: float      # idle node-seconds while work was queued
    makespan_s: float
    n_tasks: int


@dataclass
class Timeline:
    """A run as a step function: step i runs from ``times[i]`` to
    ``times[i + 1]`` with ``busy[i]`` busy nodes, ``queued[i]`` queued tasks
    and ``running[i]`` running tasks."""
    t_start: float
    total_nodes: int                # summed over acquired pilots
    boot_start: Optional[float]     # first pilot acquired
    boot_end: Optional[float]       # last pilot agent_ready
    times: np.ndarray               # sorted change points, then the run's end
    busy: np.ndarray
    queued: np.ndarray
    running: np.ndarray
    n_tasks: int                    # terminal task events

    def busy_node_seconds(self) -> float:
        return float(self.busy @ np.diff(self.times))

    def utilization(self, bucket_width_s: float | None = None) -> UtilizationSeries:
        """Node-granularity utilization: a node counts busy while any of its
        slots is occupied by a running task.  Each step is spread over the
        buckets it covers; the default bucket width is makespan / 200."""
        if bucket_width_s is not None and not 0 < bucket_width_s < math.inf:
            raise ValueError(f"bucket width must be positive and finite: {bucket_width_s!r}")
        t_start = self.t_start
        span = float(self.times[-1]) - t_start
        if self.total_nodes == 0 or span <= 0:
            return UtilizationSeries(bucket_width_s or 0.0, [], [])
        width = span / 200.0 if bucket_width_s is None else bucket_width_s
        n_buckets = max(1, math.ceil(span / width - 1e-12))
        # Neighbouring buckets share one computed edge.
        edges = [t_start + b * width for b in range(n_buckets + 1)]
        busy = [0.0] * n_buckets
        # Steps apart only in queued or running tasks are spread as one.
        runs = np.flatnonzero(np.diff(self.busy, prepend=-1))
        bounds = np.append(self.times[runs], self.times[-1]).tolist()
        for t0, t1, n in zip(bounds, bounds[1:], self.busy[runs].tolist()):
            last = min(int((t1 - t_start) / width), n_buckets - 1)
            for b in range(int((t0 - t_start) / width), last + 1):
                busy[b] += n * max(0.0, min(t1, edges[b + 1]) - max(t0, edges[b]))
        denom = self.total_nodes * width
        fractions = [min(1.0, bs / denom) for bs in busy]
        return UtilizationSeries(width, edges[:-1], fractions)

    def overhead(self) -> OverheadReport:
        """Engine overhead: node-seconds not covered by busy nodes.

        Bootstrap (acquired to agent_ready, across all nodes) is measured
        separately.  Scheduling overhead counts idle node-seconds only
        while tasks were waiting to run; idle time with nothing queued is
        workload shape, not engine overhead, and appears only in
        ``total_s``.
        """
        nodes = self.total_nodes
        makespan = float(self.times[-1]) - self.t_start
        bootstrap = 0.0
        if self.boot_start is not None and self.boot_end is not None:
            bootstrap = max(0.0, self.boot_end - self.boot_start) * nodes
        after_boot = self.boot_end if self.boot_end is not None else self.t_start
        t1 = self.times[1:]
        lo = np.maximum(self.times[:-1], after_boot)
        waiting = (t1 > lo) & (self.queued > 0)
        sched = float(((nodes - self.busy) * (t1 - lo))[waiting].sum())
        total_node_s = makespan * nodes
        idle = max(0.0, total_node_s - self.busy_node_seconds())
        sched = min(sched, max(0.0, idle - bootstrap))
        per_task_ms = 1000.0 * sched / self.n_tasks if self.n_tasks else 0.0
        fraction = idle / total_node_s if total_node_s > 0 else 0.0
        return OverheadReport(idle, fraction, per_task_ms, bootstrap, sched,
                              makespan, self.n_tasks)


def timeline(trace: list[TraceEvent]) -> Timeline:
    """The trace's Timeline, from one walk over events in any order."""
    enters, leaves = ([], [], []), ([], [], [])     # times, by count
    members: dict[str, dict[str, int]] = {entity: {} for entity in _ENTERS}  # id -> its count
    total_nodes = n_tasks = 0
    acquired, ready = [], []            # pilot acquired and agent_ready times
    t_start = t_end = trace[0].t if trace else 0.0
    for ev in trace:
        t, entity, transition = ev.t, ev.entity, ev.transition
        if t < t_start:
            t_start = t
        if t > t_end:
            t_end = t
        moves = _ENTERS.get(entity)
        if moves is not None:
            ids, eid = members[entity], ev.entity_id
            count, to = ids.get(eid), moves.get(transition)
            if to is not None and (count is None or count < to):
                ids[eid] = to
                enters[to].append(t)
                if count is not None:
                    leaves[count].append(t)
            elif transition in _LEAVES[entity]:
                n_tasks += entity == "task"         # a terminal task event
                if count is not None:
                    del ids[eid]
                    leaves[count].append(t)
        elif entity == "pilot" and transition == "acquired":
            total_nodes += ev.nodes or 0
            acquired.append(t)
        elif entity == "pilot" and transition == "agent_ready":
            ready.append(t)
    ins, outs = ([np.sort(np.array(ts, dtype=float)) for ts in side] for side in (enters, leaves))
    times = np.unique(np.concatenate(ins + outs))
    # A count after a change point: its entries up to then minus its exits.
    counts = (np.searchsorted(i, times, "right") - np.searchsorted(o, times, "right")
              for i, o in zip(ins, outs))
    return Timeline(t_start, total_nodes, min(acquired, default=None),
                    max(ready, default=None), np.append(times, t_end), *counts, n_tasks)


def utilization(trace: list[TraceEvent], bucket_width_s: float | None = None) -> UtilizationSeries:
    return timeline(trace).utilization(bucket_width_s)


def overhead(trace: list[TraceEvent]) -> OverheadReport:
    return timeline(trace).overhead()


def busy_node_seconds(trace: list[TraceEvent]) -> float:
    return timeline(trace).busy_node_seconds()


def peak_concurrency(trace: list[TraceEvent]) -> int:
    """Maximum number of simultaneously running tasks."""
    return int(timeline(trace).running.max(initial=0))


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
    return throughput_from_times(stage_tag, starts, dones, window_s)


def throughput_from_times(stage_tag: str, starts: list[float], dones: list[float],
                          window_s: float | None = None) -> Optional[ThroughputReport]:
    """``stage_throughput`` from a stage's task start and done times."""
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
