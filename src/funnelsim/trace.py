"""Event trace collection and the performance metrics computed from it.

Every state transition in a run is recorded as a TraceEvent.  Metrics
(utilization series, per-stage throughput, engine overhead) are pure
functions of the trace, so a persisted trace can be re-analyzed at any
time and merged traces from disjoint runs behave additively.

``TraceSink.record`` and ``load_trace`` refuse an event that breaks the
type rule (a finite float time; str entity, id and transition; int, not
bool, or None nodes, cpus and gpus; str or None stage and pipeline), so
the metrics and ``save`` read every event they hand on.

A TraceSink keeps columns, not events: per event its time, entity, id,
an instance code per distinct (entity, id) and a tail code per distinct
(transition, nodes, cpus, gpus, stage, pipeline).  ``save`` encodes each
run of equal times, each instance's entity and id and each tail once.

Metrics read the trace itself, a sink's columns or a list's events, and
keep no copy of it.  Node and queue metrics (utilization, overhead, busy
node-seconds, peak concurrency) are views of one Timeline, from one walk.
A node is busy from its ``busy`` event until the next ``idle`` of the
same id; a task is queued from ``pending`` and running from ``running``
until it ends.  An event that would put an entity back into a count it
has reached changes nothing.  Per-stage figures (task start and done
times, pending ids) come from one more walk, ``stage_tasks``.

``load_trace`` and the simulated run allocate objects by the hundred
thousand and free almost none, so each pauses CPython's cyclic collector
(``gc_paused``).  ``load_trace`` parses each distinct line tail once.
"""
from __future__ import annotations

import gc
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Optional

import numpy as np

from .errors import InputError, TraceError

# Legal transition graphs, per entity kind.  ``None`` keys are the legal
# birth transitions for that entity.
LEGAL_GRAPHS = {
    "task": {None: {"pending"}, "pending": {"scheduled", "canceled"},
             "scheduled": {"running", "canceled"}, "running": {"done", "failed", "canceled"}},
    "pilot": {None: {"acquired"}, "acquired": {"agent_ready", "released"},
              "agent_ready": {"released"}},
    "node": {None: {"busy"}, "busy": {"idle"}, "idle": {"busy"}},
    "pipeline": {None: {"started"}, "started": {"done", "failed", "canceled"}},
    "stage": {None: {"started"}, "started": {"completed", "failed"}},
    "worker": {None: {"ready"}, "ready": {"busy", "stopped"}, "busy": {"idle", "stopped"},
               "idle": {"busy", "stopped"}},
    "master": {None: {"ready"}, "ready": {"bulk_created", "stopped"},
               "bulk_created": {"bulk_created", "stopped"}},
}

TERMINAL_TASK_STATES = {"done", "failed", "canceled"}

# Every legal (entity, previous, next transition): legality is one set lookup.
_LEGAL_STEPS = frozenset((entity, prev, nxt) for entity, graph in LEGAL_GRAPHS.items()
                         for prev, nexts in graph.items() for nxt in nexts)
_NEVER_SEEN = (-math.inf, None)


@contextmanager
def gc_paused():
    """Pause the cyclic collector for the body; turn it back on after, if it was on."""
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
        """The event's line in ``trace.jsonl``, without the newline."""
        head = f'{{"t":{_dumps(self.t)},"entity":{_dumps(self.entity)},"id":{_dumps(self.entity_id)}'
        return head + _encode_tail(self.transition, self.nodes, self.cpus, self.gpus, self.stage,
                                   self.pipeline)


# The type rule: each field's key in trace.jsonl, attribute, type and kind.
_RULE = (("t", "t", float, "a finite number"), ("entity", "entity", str, "a string"),
         ("id", "entity_id", str, "a string"), ("transition", "transition", str, "a string"),
         *((key, key, int, "an integer or null") for key in ("nodes", "cpus", "gpus")),
         *((key, key, str, "a string or null") for key in ("stage", "pipeline")))


def _rule_break(ev: TraceEvent, show=repr) -> str | None:
    """How ``ev``'s first bad field breaks the type rule; None if none does."""
    for key, attr, cls, kind in _RULE:
        value = getattr(ev, attr)
        if not (type(value) is cls and (cls is not float or value - value == 0.0)
                or value is None and kind.endswith("null")):
            return f"{key} must be {kind}, got {show(value)}"
    return None


# -- encoding ---------------------------------------------------------------
#
# A line is the text json.dumps writes with compact separators; ``save``
# writes a finite float's ``repr`` and json's ASCII string quoting itself.

_dumps = json.JSONEncoder(separators=(",", ":")).encode
_SAVE_BATCH = 4096      # lines per write in TraceSink.save
_TAIL_KEYS = ("nodes", "cpus", "gpus", "stage", "pipeline")


def _encode_tail(transition, *values) -> str:
    """The line from ``,"transition":`` on, closing brace included."""
    fields = "".join(f',"{key}":{_dumps(value)}'
                     for key, value in zip(_TAIL_KEYS, values) if value is not None)
    return f',"transition":{_dumps(transition)}{fields}}}'


# -- decoding ---------------------------------------------------------------
#
# A canonical line is a head up to ``,"transition":`` and a tail, each parsed
# by one regular expression.  Its numbers follow JSON's grammar (a time has a
# fraction or an exponent, at most 16 integer digits and a 2-digit exponent, so
# it is finite; a count at most 18 digits) and its strings are printable ASCII
# without ``"`` or ``\``, so the parse gives what json.loads gives.  Every
# other line goes through json.loads (``event_from_json``).

_STR = r'"([ !#-\[\]-~]*)"'
_INT = r'(-?(?:0|[1-9][0-9]{0,17}))'
_TIME = r'(-?(?:0|[1-9][0-9]{0,15})(?:\.[0-9]+(?:[eE][-+]?[0-9]{1,2})?|[eE][-+]?[0-9]{1,2}))'
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
    """The event of a JSON object line, an int time read as a float; InputError
    naming the line for any other line or an event that breaks the type rule."""
    try:
        rec = json.loads(line)
        t = rec["t"]
        event = TraceEvent(float(t) if type(t) is int and abs(t) <= sys.float_info.max else t,
                           rec["entity"], rec["id"], rec["transition"], rec.get("nodes"),
                           rec.get("cpus"), rec.get("gpus"), rec.get("stage"), rec.get("pipeline"))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad trace line {lineno}: {exc}", line=lineno) from exc
    if (why := _rule_break(event, json.dumps)) is not None:
        raise InputError(f"bad trace line {lineno}: {why}", line=lineno)
    return event


class _Codes(dict):
    """Maps a key to its code, the number of keys that came before it."""

    def __missing__(self, key):
        code = self[key] = len(self)
        return code


class TraceSink:
    """Collects a run's events as columns.  ``record`` raises TraceError on
    an event that breaks the type rule, and on an illegal transition in mode
    "reject"; mode "flag" records that one and keeps it in ``flagged`` too."""

    def __init__(self, mode: str = "reject"):
        if mode not in ("reject", "flag"):
            raise ValueError(f"unknown sink mode {mode!r}")
        self.mode = mode
        self.flagged: list[TraceEvent] = []
        # (entity, id) -> its last legal time and transition, its instance code
        self._last: dict[tuple, tuple[float, str, int]] = {}
        self._tails = _Codes()      # (transition, nodes, cpus, gpus, stage, pipeline) -> code
        self.events = []

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self):
        return iter(self.events)

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events, built from the columns."""
        tails = list(self._tails)
        return [TraceEvent(t, entity, eid, *tails[code])
                for t, entity, eid, code in zip(self._t, self._entity, self._id, self._tail)]

    @events.setter
    def events(self, events: Iterable[TraceEvent]) -> None:
        """Replace the events, unchecked for legality; TraceError if one breaks the type rule."""
        events = list(events)
        for ev in events:
            if (why := _rule_break(ev)) is not None:
                raise TraceError(f"{ev.entity} {ev.entity_id}: {why}")
        # Per event: time, entity, id, instance and tail code.
        last, tails = self._last, self._tails
        self._t = [ev.t for ev in events]
        self._entity = [ev.entity for ev in events]
        self._id = [ev.entity_id for ev in events]
        self._inst = [last.setdefault((ev.entity, ev.entity_id), (*_NEVER_SEEN, len(last)))[2]
                      for ev in events]
        self._tail = [tails[ev.transition, ev.nodes, ev.cpus, ev.gpus, ev.stage, ev.pipeline]
                      for ev in events]

    def record(self, event: TraceEvent) -> None:
        t, entity, eid, transition = event.t, event.entity, event.entity_id, event.transition
        nodes, cpus, gpus, stage, pipeline = (event.nodes, event.cpus, event.gpus, event.stage,
                                              event.pipeline)
        # The type rule (t - t is 0.0 for a finite t); tail keys need it, as 1 == 1.0 == True.
        if not (type(t) is float and t - t == 0.0 and type(entity) is str and type(eid) is str
                and type(transition) is str and (nodes is None or type(nodes) is int)
                and (cpus is None or type(cpus) is int) and (gpus is None or type(gpus) is int)
                and (stage is None or type(stage) is str)
                and (pipeline is None or type(pipeline) is str)):
            raise TraceError(f"{entity} {eid}: {_rule_break(event)}")
        key = (entity, eid)
        last = self._last.get(key)
        prev_t, prev_tr, inst = (*_NEVER_SEEN, len(self._last)) if last is None else last
        if (entity, prev_tr, transition) in _LEGAL_STEPS and t >= prev_t:
            self._last[key] = (t, transition, inst)
        else:
            why = (f"unknown entity kind {entity!r}" if entity not in LEGAL_GRAPHS
                   else f"event at t={t} before t={prev_t}" if t < prev_t
                   else f"illegal transition {prev_tr} -> {transition}")
            if self.mode == "reject":
                raise TraceError(f"{entity} {eid}: {why}")
            self.flagged.append(event)
            if last is None:
                self._last[key] = (prev_t, prev_tr, inst)
        self._t.append(t)
        self._entity.append(entity)
        self._id.append(eid)
        self._inst.append(inst)
        self._tail.append(self._tails[transition, nodes, cpus, gpus, stage, pipeline])

    def save(self, path) -> None:
        """Write one line per event, in batches, so the file's text is
        never held in memory whole.  A time is encoded once per run of
        equal times, an entity and id once per instance, a tail once."""
        tails = [_encode_tail(*tail) + "\n" for tail in self._tails]
        heads: list[str | None] = [None] * len(self._last)
        columns = (self._t, self._entity, self._id, self._inst, self._tail)
        prev = time = None
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, len(self._t), _SAVE_BATCH):
                j = i + _SAVE_BATCH
                pieces = []
                for t, entity, eid, inst, code in zip(*(col[i:j] for col in columns)):
                    if t != prev or t == 0.0:       # 0.0 == -0.0, but repr tells them apart
                        prev, time = t, f'{{"t":{t!r},"entity":'
                    head = heads[inst]
                    if head is None:
                        head = heads[inst] = f'{_json_str(entity)},"id":{_json_str(eid)}'
                    pieces += (time, head, tails[code])
                fh.write("".join(pieces))


def load_trace(path) -> list[TraceEvent]:
    """Read a trace written by ``TraceSink.save``, or any file with one
    JSON object per line that follows the type rule; blank lines are
    skipped.  Entity kinds, transitions, stages and pipelines are
    interned, so a loaded trace shares one copy of each."""
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
    prefixes = [f"r{i}:" if len(traces) > 1 else "" for i in range(len(traces))]
    return sorted((replace(ev, entity_id=prefix + ev.entity_id)
                   for prefix, events in zip(prefixes, traces) for ev in events),
                  key=lambda ev: ev.t)


# ---------------------------------------------------------------------------
# metrics

# The Timeline count each transition moves its entity into (0 busy nodes,
# 1 queued tasks, 2 running tasks), and those that take it out of its count.
_ENTERS = {"node": {"busy": 0}, "task": {"pending": 1, "running": 2}}
_LEAVES = {"node": {"idle"}, "task": TERMINAL_TASK_STATES}
MAX_BUCKETS = 10**6     # utilization buckets one run may be cut into


@dataclass
class UtilizationSeries:
    bucket_width_s: float
    t0s: list[float]
    busy_node_fraction: list[float]

    def mean(self) -> float:
        fractions = self.busy_node_fraction
        return sum(fractions) / len(fractions) if fractions else 0.0

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
        buckets it covers; the default bucket width is makespan / 200.
        ValueError for more than MAX_BUCKETS buckets."""
        if bucket_width_s is not None and not 0 < bucket_width_s < math.inf:
            raise ValueError(f"bucket width must be positive and finite: {bucket_width_s!r}")
        t_start = self.t_start
        span = float(self.times[-1]) - t_start
        if bucket_width_s is not None and span / bucket_width_s > MAX_BUCKETS:
            raise ValueError(f"bucket width {bucket_width_s:g} cuts the {span:g} s run into "
                             f"more than {MAX_BUCKETS} buckets")
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
        apart.  Scheduling overhead counts idle node-seconds only while
        tasks waited to run; idle time with nothing queued is workload
        shape, not engine overhead, and appears only in ``total_s``."""
        nodes = self.total_nodes
        makespan = float(self.times[-1]) - self.t_start
        bootstrap = (max(0.0, self.boot_end - self.boot_start) * nodes
                     if self.boot_start is not None and self.boot_end is not None else 0.0)
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


def event_rows(trace):
    """Each event's (t, entity, id, transition, nodes): a TraceSink's from
    its columns, a list's from its TraceEvents."""
    if not isinstance(trace, TraceSink):
        return ((ev.t, ev.entity, ev.entity_id, ev.transition, ev.nodes) for ev in trace)
    transitions, nodes = [tail[0] for tail in trace._tails], [tail[1] for tail in trace._tails]
    return zip(trace._t, trace._entity, trace._id, [transitions[code] for code in trace._tail],
               [nodes[code] for code in trace._tail])


def timeline(trace) -> Timeline:
    """The Timeline of a TraceSink or a list of TraceEvents in any order, from
    one walk; a list is walked as it is, which costs less than coding it."""
    enters, leaves = ([], [], []), ([], [], [])     # times, by count
    members: dict[str, dict[str, int]] = {entity: {} for entity in _ENTERS}  # id -> its count
    total_nodes = n_tasks = 0
    acquired, ready = [], []            # pilot acquired and agent_ready times
    t_start = t_end = None
    for t, entity, eid, transition, nodes in event_rows(trace):
        if t_start is None:
            t_start = t_end = t
        if t < t_start:
            t_start = t
        if t > t_end:
            t_end = t
        moves = _ENTERS.get(entity)
        if moves is not None:
            ids = members[entity]
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
            total_nodes += nodes or 0
            acquired.append(t)
        elif entity == "pilot" and transition == "agent_ready":
            ready.append(t)
    ins, outs = ([np.sort(np.array(ts, dtype=float)) for ts in side] for side in (enters, leaves))
    times = np.unique(np.concatenate(ins + outs))
    # A count after a change point: its entries up to then minus its exits.
    counts = (np.searchsorted(i, times, "right") - np.searchsorted(o, times, "right")
              for i, o in zip(ins, outs))
    if t_start is None:
        t_start = t_end = 0.0
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
    """Completions per second for one stage over the span from its first
    task start to its last completion, plus a windowed series for
    sustained-rate checks; None (absent, not zero) with no completions."""
    starts, dones = [], []
    for ev in trace:
        if ev.entity != "task" or ev.stage != stage_tag:
            continue
        if ev.transition == "running":
            starts.append(ev.t)
        elif ev.transition == "done":
            dones.append(ev.t)
    return throughput_from_times(stage_tag, starts, dones, window_s)


# The list of a stage's (running times, done times, pending ids) a task event joins.
_STAGE_LISTS = {"running": 0, "done": 1, "pending": 2}


def stage_tasks(trace) -> dict:
    """For each stage named on a ``running``, ``done`` or ``pending`` event
    of a TraceSink or a list of TraceEvents, from one walk: the times of
    its ``running`` and its ``done`` task events and the ids of its
    ``pending`` ones, each in trace order.  A sink's tails are classified
    once each, not once per event."""
    stages: dict = {}

    def joins(transition, stage):
        """The append of the list such an event joins, and whether it takes the id."""
        k = _STAGE_LISTS.get(transition)
        if k is not None and stage:
            return (stages.get(stage) or stages.setdefault(stage, ([], [], [])))[k].append, k == 2

    if isinstance(trace, TraceSink):
        by_code = [joins(tail[0], tail[4]) for tail in trace._tails]
        rows = zip(trace._t, trace._entity, trace._id, map(by_code.__getitem__, trace._tail))
    else:
        rows = ((ev.t, ev.entity, ev.entity_id, joins(ev.transition, ev.stage)) for ev in trace)
    for t, entity, eid, join in rows:
        if join is not None and entity == "task":
            append, takes_id = join
            append(eid if takes_id else t)
    return stages


def throughput_from_times(stage_tag: str, starts: list[float], dones: list[float],
                          window_s: float | None = None) -> Optional[ThroughputReport]:
    """``stage_throughput`` from a stage's task start and done times;
    ``window_s`` 0 builds no windowed series."""
    if not dones or not starts:
        return None
    t0 = min(starts)
    span = max(dones) - t0
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
    pilots = [ev for ev in trace if ev.entity == "pilot" and ev.transition == "acquired"]
    cpn = max([0] + [ev.cpus or 0 for ev in pilots])
    gpn = max([0] + [ev.gpus or 0 for ev in pilots])
    started, totals = {}, {}
    for ev in trace:
        if ev.entity == "task" and ev.transition == "running":
            started[ev.entity_id] = ev
        elif ev.entity == "task" and ev.transition == "done" and ev.entity_id in started:
            start = started.pop(ev.entity_id)
            cpu_frac = (start.cpus or 0) / cpn if cpn else 0.0
            gpu_frac = (start.gpus or 0) / gpn if gpn else 0.0
            node_s = (ev.t - start.t) * ((start.nodes or 1) * max(cpu_frac, gpu_frac, 0.0))
            totals[start.stage or "other"] = totals.get(start.stage or "other", 0.0) + node_s
    return totals
