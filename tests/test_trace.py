"""Trace recording, legality, persistence, and the derived metrics."""
import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest

from funnelsim.campaign import FixedDuration, TaskDescriptor
from funnelsim.cli import load_config
from funnelsim.engine import run_campaign, run_executor
from funnelsim.errors import InputError, TraceError
from funnelsim.pilot import PilotSpec
from funnelsim.trace import (CANONICAL_LINE, LEGAL_GRAPHS, MAX_BUCKETS, TERMINAL_TASK_STATES,
                             OverheadReport, Timeline, TraceEvent, TraceSink, UtilizationSeries,
                             _rule_break, busy_node_seconds, event_from_json, load_trace,
                             merge_traces, overhead, peak_concurrency, stage_throughput,
                             timeline, utilization)
from funnelsim.workload import FunnelConfig, build_funnel_campaign

from test_pinned_traces import run_overlay_funnel
from test_properties import random_campaign


def ev(t, entity, eid, transition, **kw):
    return TraceEvent(t, entity, eid, transition, **kw)


class TestRecord:
    def test_legal_task_chain_accepted(self):
        sink = TraceSink()
        for i, tr in enumerate(["pending", "scheduled", "running", "done"]):
            sink.record(ev(float(i), "task", "t1", tr))
        assert len(sink) == 4

    def test_illegal_edge_rejected(self):
        sink = TraceSink()
        sink.record(ev(0.0, "task", "t1", "pending"))
        with pytest.raises(TraceError):
            sink.record(ev(1.0, "task", "t1", "done"))

    def test_time_regression_rejected(self):
        sink = TraceSink()
        sink.record(ev(5.0, "task", "t1", "pending"))
        with pytest.raises(TraceError):
            sink.record(ev(4.0, "task", "t1", "scheduled"))

    def test_setter_takes_an_illegal_stream(self):
        sink = TraceSink()
        sink.events = [ev(0.0, "task", "t1", "pending"), ev(1.0, "task", "t1", "done")]
        assert len(sink) == 2
        with pytest.raises(TraceError, match="illegal transition None -> done"):
            sink.record(ev(1.0, "task", "t2", "done"))

    def test_million_events_round_trip(self, tmp_path):
        sink = TraceSink()
        n_entities = 250_000
        for i in range(n_entities):
            tid = f"t{i:06d}"
            t = float(i)
            sink.record(ev(t, "task", tid, "pending"))
            sink.record(ev(t, "task", tid, "scheduled"))
            sink.record(ev(t + 1, "task", tid, "running"))
            sink.record(ev(t + 2, "task", tid, "done"))
        assert len(sink) == 1_000_000
        path = tmp_path / "big.jsonl"
        sink.save(path)
        sink.events.clear()
        loaded = load_trace(path)
        assert len(loaded) == 1_000_000
        seen = {}
        order = ["pending", "scheduled", "running", "done"]
        for e in loaded:
            idx = seen.get(e.entity_id, -1)
            assert order.index(e.transition) == idx + 1
            seen[e.entity_id] = idx + 1


class TestUtilization:
    def pilot_events(self, nodes=2):
        return [ev(0.0, "pilot", "pilot-0", "acquired", nodes=nodes, cpus=1, gpus=0)]

    def test_no_tasks_all_zero(self):
        events = self.pilot_events() + [ev(10.0, "pilot", "pilot-0", "released")]
        series = utilization(events, 1.0)
        assert len(series.busy_node_fraction) == 10
        assert all(f == 0.0 for f in series.busy_node_fraction)

    def test_full_occupancy_all_ones(self):
        events = self.pilot_events(nodes=1) + [
            ev(0.0, "node", "pilot-0/0", "busy"),
            ev(10.0, "node", "pilot-0/0", "idle"),
            ev(10.0, "pilot", "pilot-0", "released"),
        ]
        series = utilization(events, 1.0)
        assert all(f == pytest.approx(1.0) for f in series.busy_node_fraction)

    def test_half_bucket_one_of_two_nodes(self):
        # node 0 busy for exactly the first half of each 1s bucket.
        events = self.pilot_events(nodes=2)
        for k in range(4):
            events.append(ev(k + 0.0, "node", "pilot-0/0", "busy"))
            events.append(ev(k + 0.5, "node", "pilot-0/0", "idle"))
        events.append(ev(4.0, "pilot", "pilot-0", "released"))
        series = utilization(events, 1.0)
        assert series.busy_node_fraction == pytest.approx([0.25] * 4)

    def test_busy_seconds_match_task_durations_for_exclusive_nodes(self):
        res = PilotSpec(nodes=3, cpus_per_node=1, gpus_per_node=0, walltime_s=1e6)
        tasks = [TaskDescriptor(f"t{i}", cpus=1, duration_model=FixedDuration(2.0))
                 for i in range(9)]
        r = run_executor(res, tasks)
        assert busy_node_seconds(r.sink.events) == pytest.approx(18.0)
        series = utilization(r.sink.events, 1.0)
        total = sum(series.busy_node_fraction) * series.bucket_width_s * 3
        assert total == pytest.approx(18.0)


class TestThroughput:
    def test_uniform_completions(self):
        events = [ev(0.0, "pilot", "p", "acquired", nodes=1, cpus=1, gpus=0)]
        for i in range(100):
            tid = f"t{i}"
            events.append(ev(0.0, "task", tid, "pending", stage="S1"))
            events.append(ev(0.0, "task", tid, "scheduled", stage="S1"))
            events.append(ev(0.0, "task", tid, "running", stage="S1"))
            events.append(ev((i + 1) * 0.1, "task", tid, "done", stage="S1"))
        rep = stage_throughput(events, "S1")
        assert rep.completions == 100
        assert rep.overall_per_s == pytest.approx(10.0)

    def test_empty_stage_absent_not_zero(self):
        events = [ev(0.0, "pilot", "p", "acquired", nodes=1, cpus=1, gpus=0)]
        assert stage_throughput(events, "S1") is None

    def test_windowed_series_sums_to_total(self):
        rng = np.random.default_rng(0)
        events = []
        for i, dt in enumerate(np.cumsum(rng.random(50))):
            tid = f"t{i}"
            events.append(ev(0.0, "task", tid, "pending", stage="X"))
            events.append(ev(0.0, "task", tid, "scheduled", stage="X"))
            events.append(ev(0.0, "task", tid, "running", stage="X"))
            events.append(ev(float(dt), "task", tid, "done", stage="X"))
        rep = stage_throughput(events, "X", window_s=5.0)
        counted = sum(rate * 5.0 for _, rate in rep.windows)
        assert counted == pytest.approx(50)


class TestOverhead:
    def test_back_to_back_overhead_is_bootstrap_only(self):
        res = PilotSpec(nodes=2, cpus_per_node=1, gpus_per_node=0,
                        walltime_s=1e6, bootstrap_s=3.0)
        tasks = [TaskDescriptor(f"t{i}", cpus=1, duration_model=FixedDuration(1.0))
                 for i in range(10)]
        r = run_executor(res, tasks)
        rep = overhead(r.sink.events)
        assert rep.bootstrap_node_s == pytest.approx(6.0)
        assert rep.scheduling_node_s == pytest.approx(0.0, abs=1e-9)
        assert rep.total_s == pytest.approx(6.0)

    def test_injected_gap_recovered_per_task(self):
        # 10 ms dispatch gap per scheduling round on one node: per-task
        # overhead must come back as 10 ms within 10%.
        res = PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=0,
                        walltime_s=1e6, sched_gap_s=0.010)
        tasks = [TaskDescriptor(f"t{i}", cpus=1, duration_model=FixedDuration(0.5))
                 for i in range(200)]
        r = run_executor(res, tasks)
        rep = overhead(r.sink.events)
        assert rep.per_task_ms == pytest.approx(10.0, rel=0.10)

    def test_fraction_of_makespan(self):
        res = PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=0,
                        walltime_s=1e6, bootstrap_s=5.0)
        tasks = [TaskDescriptor("t", cpus=1, duration_model=FixedDuration(5.0))]
        r = run_executor(res, tasks)
        rep = overhead(r.sink.events)
        assert rep.fraction_of_makespan == pytest.approx(0.5)


class TestMerge:
    def run_small(self, nodes, n_tasks, dur, seed):
        res = PilotSpec(nodes=nodes, cpus_per_node=1, gpus_per_node=0, walltime_s=1e6)
        tasks = [TaskDescriptor(f"t{i}", cpus=1, stage_tag="S1",
                                duration_model=FixedDuration(dur))
                 for i in range(n_tasks)]
        return run_executor(res, tasks, seed=seed)

    def test_merged_utilization_is_resource_weighted(self):
        a = self.run_small(nodes=2, n_tasks=4, dur=4.0, seed=0)   # busy 16 of 16
        b = self.run_small(nodes=6, n_tasks=6, dur=2.0, seed=1)   # busy 12 of 48
        ua = utilization(a.sink.events, 8.0).mean()
        ub = utilization(b.sink.events, 8.0).mean()
        merged = merge_traces([a.sink.events, b.sink.events])
        um = utilization(merged, 8.0).mean()
        expect = (ua * 2 + ub * 6) / 8
        assert um == pytest.approx(expect)

    def test_merged_throughput_adds(self):
        a = self.run_small(nodes=2, n_tasks=8, dur=2.0, seed=0)
        b = self.run_small(nodes=2, n_tasks=8, dur=2.0, seed=1)
        ra = stage_throughput(a.sink.events, "S1").overall_per_s
        merged = merge_traces([a.sink.events, b.sink.events])
        rm = stage_throughput(merged, "S1").overall_per_s
        assert rm == pytest.approx(2 * ra)

    def test_merge_namespaces_ids(self):
        a = self.run_small(2, 2, 1.0, 0)
        merged = merge_traces([a.sink.events, a.sink.events])
        pilots = {e.entity_id for e in merged if e.entity == "pilot"}
        assert pilots == {"r0:pilot-0", "r1:pilot-0"}


def saved_lines(events, path):
    """The lines ``save`` writes for ``events``."""
    sink = TraceSink()
    sink.events = events
    sink.save(path)
    return path.read_text(encoding="utf-8").splitlines()


class TestJsonlFormat:
    def test_schema_keys(self, tmp_path):
        e = ev(1.5, "task", "t1", "running", nodes=1, cpus=2, gpus=3,
               stage="S1", pipeline="p0")
        [line] = saved_lines([e], tmp_path / "t.jsonl")
        assert json.loads(line) == {"t": 1.5, "entity": "task", "id": "t1",
                                    "transition": "running", "nodes": 1, "cpus": 2,
                                    "gpus": 3, "stage": "S1", "pipeline": "p0"}

    def test_optional_keys_omitted(self, tmp_path):
        [line] = saved_lines([ev(0.0, "pilot", "p", "released")], tmp_path / "t.jsonl")
        assert set(json.loads(line)) == {"t", "entity", "id", "transition"}


# ---------------------------------------------------------------------------
# The codec and the legality check against straightforward references: the
# dict-and-json.dumps encoder, the per-line json.loads loader and the
# graph-walking record that the trace module used before its fast paths,
# each refusing an event that breaks the type rule, field by field.

def reference_rule_break(e, show=repr):
    """The first field of ``e``, in trace.jsonl order, that breaks the type
    rule, with what it must be; None if none does."""
    for key, value in [("t", e.t), ("entity", e.entity), ("id", e.entity_id),
                       ("transition", e.transition), ("nodes", e.nodes), ("cpus", e.cpus),
                       ("gpus", e.gpus), ("stage", e.stage), ("pipeline", e.pipeline)]:
        if key == "t":
            ok, kind = type(value) is float and math.isfinite(value), "a finite number"
        elif key in ("entity", "id", "transition"):
            ok, kind = type(value) is str, "a string"
        elif key in ("nodes", "cpus", "gpus"):
            ok, kind = value is None or type(value) is int, "an integer or null"
        else:
            ok, kind = value is None or type(value) is str, "a string or null"
        if not ok:
            return f"{key} must be {kind}, got {show(value)}"
    return None


def refuse_rule_break(e):
    """TraceError, as a sink raises it, if ``e`` breaks the type rule."""
    why = reference_rule_break(e)
    if why is not None:
        raise TraceError(f"{e.entity} {e.entity_id}: {why}")


def reference_to_json(e):
    rec = {"t": e.t, "entity": e.entity, "id": e.entity_id, "transition": e.transition}
    for key in ("nodes", "cpus", "gpus", "stage", "pipeline"):
        if getattr(e, key) is not None:
            rec[key] = getattr(e, key)
    return json.dumps(rec, separators=(",", ":"))


def reference_load(path):
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                e = TraceEvent(
                    t=rec["t"], entity=rec["entity"], entity_id=rec["id"],
                    transition=rec["transition"], nodes=rec.get("nodes"), cpus=rec.get("cpus"),
                    gpus=rec.get("gpus"), stage=rec.get("stage"), pipeline=rec.get("pipeline"))
            except (ValueError, KeyError, TypeError) as exc:
                raise InputError(f"bad trace line {lineno}: {exc}", line=lineno) from exc
            if type(e.t) is int:
                try:
                    e.t = float(e.t)
                except OverflowError:
                    pass
            why = reference_rule_break(e, json.dumps)
            if why is not None:
                raise InputError(f"bad trace line {lineno}: {why}", line=lineno)
            events.append(e)
    return events


class ReferenceSink:
    """Legality as a walk of LEGAL_GRAPHS; ``record`` returns the message
    of an illegal event, or None, and raises TraceError for an event that
    breaks the type rule."""

    def __init__(self):
        self._last = {}

    def record(self, e):
        refuse_rule_break(e)
        graph = LEGAL_GRAPHS.get(e.entity)
        if graph is None:
            return f"{e.entity} {e.entity_id}: unknown entity kind {e.entity!r}"
        key = (e.entity, e.entity_id)
        prev = self._last.get(key)
        prev_t, prev_tr = prev if prev else (-math.inf, None)
        if e.t < prev_t:
            return f"{e.entity} {e.entity_id}: event at t={e.t} before t={prev_t}"
        if e.transition not in graph.get(prev_tr, set()):
            return f"{e.entity} {e.entity_id}: illegal transition {prev_tr} -> {e.transition}"
        self._last[key] = (e.t, e.transition)
        return None


ODD_STRINGS = ["", "plain", 'quo"te', "back\\slash", "tab\there", "nl\nx", "\x00\x1f\x7f",
               "café", " sep", "astral \U0001F600", "\ud800", "/slash", "sp ace"]
ODD_TIMES = [0.0, -0.0, 1e-300, 1e300, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3,
             123456789.125, -2.5, math.inf, -math.inf, math.nan]
ODD_COUNTS = [0, 1, 42, -3, 10**20, True, False, np.int64(3), np.int32(7)]
NOT_STRINGS = [1, True, 1.0, 0, False, None]    # 1 == True == 1.0 as dict keys


def random_event(rng):
    def pick(options):
        return options[int(rng.integers(len(options)))]

    def text():
        r = rng.random()
        if r < 0.03:
            return pick(NOT_STRINGS)
        return pick(ODD_STRINGS) if r < 0.3 else f"x{int(rng.integers(1000))}"

    r = rng.random()
    if r < 0.4:
        t = pick(ODD_TIMES)
    elif r < 0.5:
        t = int(rng.integers(-5, 10**6))        # an int time goes through json.dumps
    elif r < 0.55:
        t = np.float64(rng.random())
    else:
        t = float(rng.random() * 10.0 ** int(rng.integers(-8, 12)))
    opt = {}
    for key in ("nodes", "cpus", "gpus"):
        if rng.random() < 0.5:
            opt[key] = pick(ODD_COUNTS) if rng.random() < 0.2 else int(rng.integers(64))
    for key in ("stage", "pipeline"):
        if rng.random() < 0.5:
            opt[key] = text()
    entity = pick(list(LEGAL_GRAPHS)) if rng.random() < 0.8 else text()
    return TraceEvent(t, entity, text(), text(), **opt)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def loaded(fn, path):
    got = outcome(fn, path)
    # repr tells -0.0 from 0.0 and 1 from 1.0, and makes NaN equal to NaN.
    return ("ok", [repr(e) for e in got[1]]) if got[0] == "ok" else got


def random_events(n):
    """Random events, split into those that follow the type rule and those
    that break it."""
    rng = np.random.default_rng(11)
    events = [random_event(rng) for _ in range(n)]
    good = [e for e in events if reference_rule_break(e) is None]
    return good, [e for e in events if reference_rule_break(e) is not None]


class TestCodec:
    def test_encoder_matches_json_dumps(self, tmp_path):
        rng = np.random.default_rng(7)
        events = [random_event(rng) for _ in range(4000)]
        good = [e for e in events if reference_rule_break(e) is None]
        assert len(good) > 2000
        assert saved_lines(good, tmp_path / "t.jsonl") == [reference_to_json(e) for e in good]

    def test_save_and_load_match_the_references(self, tmp_path):
        # save shares one cache of quoted strings across all its events.
        good, bad = random_events(3000)
        assert len(good) > 1500 and len(bad) > 1000
        sink = TraceSink()
        sink.events = good
        path = tmp_path / "t.jsonl"
        sink.save(path)
        assert path.read_text(encoding="utf-8") == \
            "".join(reference_to_json(e) + "\n" for e in good)
        assert loaded(load_trace, path) == loaded(reference_load, path) == \
            ("ok", [repr(e) for e in good])
        for e in bad[:100]:
            # Refused whole, and the events before are kept.
            assert outcome(setattr, sink, "events", [good[0], e])[:2] == \
                outcome(refuse_rule_break, e)[:2], repr(e)
            assert len(sink) == len(good)

    @pytest.mark.parametrize("variant", [
        "{canon}", " {canon}", "{canon}  ", "{canon}\r{canon}", "\t{canon}\t", "{canon}\r", "{canon}\r\r", "",
        "   ", "\f", "{reordered}", "{canon_spaced}",
        '{{"t":1,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":-0,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":01,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":1.,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":.5,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":+1.5,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":1e400,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":1' + "0" * 400 + ',"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":1E+2,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":"1.5","entity":"task","id":"a","transition":"pending"}}',
        '{{"t":true,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":NaN,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":Infinity,"entity":"task","id":"a","transition":"pending"}}',
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","nodes":1.0}}',
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","nodes":01}}',
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","nodes":-0}}',
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","nodes":' + "9" * 30 + "}}",
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","nodes":' + "9" * 5000 + "}}",
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","nodes":null}}',
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","stage":""}}',
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","stage":7}}',
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","extra":1}}',
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending","t":2.0}}',
        '{{"t":1.0,"entity":"task","id":"a\\u00e9","transition":"pending"}}',
        '{{"t":1.0,"entity":"task","id":"aé","transition":"pending"}}',
        '{{"t":1.0,"entity":"task","id":"a\\"b","transition":"pending"}}',
        '{{"t":1.0,"entity":"task","id":"a\x7f","transition":"pending"}}',
        '{{"t":1.0,"entity":"task","id":"a\tb","transition":"pending"}}',
        '{{"t":1.0,"entity":"task","transition":"pending"}}',
        '{{"t":1.0,"entity":"task","id":"a","transition":"pending"}} x',
        '[1.0,"task","a","pending"]',
        "not json",
    ])
    def test_loader_matches_reference_on_hand_written_lines(self, variant, tmp_path):
        canon = reference_to_json(ev(2.5, "task", "p0.S1.t1", "running", nodes=1, cpus=2, gpus=0,
                                     stage="S1", pipeline="p0"))
        rec = json.loads(canon)
        line = variant.format(
            canon=canon,
            reordered=json.dumps(dict(reversed(list(rec.items()))), separators=(",", ":")),
            canon_spaced=json.dumps(rec))
        other = reference_to_json(ev(1.0, "node", "pilot-0/3", "busy"))
        path = tmp_path / "t.jsonl"
        # Bytes, so that a \r reaches the reader as written.
        path.write_bytes(f"{other}\n{line}\n{other}".encode("utf-8"))
        assert loaded(load_trace, path) == loaded(reference_load, path)

    def test_loaded_names_are_interned(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TraceSink()
        for i in range(3):
            sink.record(ev(float(i), "task", f"t{i}", "pending", stage="S1", pipeline="p0"))
        sink.save(path)
        a, b, _ = load_trace(path)
        assert a.entity is b.entity and a.transition is b.transition
        assert a.stage is b.stage and a.pipeline is b.pipeline


def trace_event(**fields):
    """A task event with every optional key, some of them replaced."""
    plain = dict(t=2.5, entity="task", entity_id="a", transition="running",
                 nodes=1, cpus=1, gpus=1, stage="S1", pipeline="p0")
    return TraceEvent(**{**plain, **fields})


SEP = ',"transition":'
GOOD_HEADS = ['{"t":1.0,"entity":"task","id":"a"', '{"t":2.5e-05,"entity":"node","id":"pilot-0/3"',
              '{"t":-0.0,"entity":"stage","id":""', '{"t":3.0,"entity":"task","id":"p0.S1.t2"']
# Heads json.loads reads but the canonical pattern does not.
BAD_HEADS = ['{"t":1,"entity":"task","id":"a"', '{"t":1.0,"entity":"task","id":"a\\"b"',
             ' {"t":1.0,"entity":"task","id":"a"', '{"t": 1.0,"entity":"task","id":"a"',
             '{"t":1.0,"entity":"task","id":"a\\u00e9"', '{"t":1.0,"entity":"task","id":"é"']
GOOD_TAILS = ['"pending","stage":"S1","pipeline":"p0"}', '"busy"}',
              '"running","nodes":1,"cpus":2,"gpus":0,"stage":"S1","pipeline":"p0"}']
BAD_TAILS = ['"running","gpus":0,"nodes":1}', '"running","nodes":-0}',
             '"pending","stage":"S\\u00e9"}', '"pending","stage":"é"}',
             '"pending", "stage":"S1"}', '"pending","pipeline":"p0","stage":"S1"}', '"pending"} ']
# Tails json.loads reads but whose values break the type rule.
RULE_BREAKING_TAILS = ['"running","nodes":1.0}', '"running","cpus":true}', '"pending","stage":7}',
                       '"pending","pipeline":null,"gpus":"1"}']


def write_lines(path, lines, ending="\n"):
    # Bytes, so that a \r reaches the reader as written.
    path.write_bytes("".join(line + ending for line in lines).encode("utf-8"))


class TestCodecCaches:
    """``save`` encodes each distinct line tail once and ``load_trace``
    parses each one once.  Equal keys of other types, and one tail after
    other heads, must still give what the references give."""

    # Values equal as dict keys to the plain event's (1 == True == 1.0 ==
    # np.int64(1)) or of another type; json writes each apart, or not at all.
    ODD = [("nodes", True), ("cpus", 1.0), ("gpus", np.int64(1)), ("nodes", False),
           ("cpus", 0.0), ("gpus", np.int32(0)), ("stage", 1), ("stage", True),
           ("stage", "1"), ("pipeline", 1.0), ("transition", 1), ("transition", True),
           ("entity", True), ("entity", 1), ("t", 2), ("t", True), ("t", np.float64(2.5)),
           ("entity_id", 1), ("entity_id", True)]

    @pytest.mark.parametrize("field, value", ODD, ids=[f"{f}={v!r}" for f, v in ODD])
    def test_equal_keys_of_other_types_refused_alike(self, field, value, tmp_path):
        plain = trace_event(transition="pending")
        odd = trace_event(**{"entity_id": "b", "transition": "pending", field: value})
        want = outcome(refuse_rule_break, odd)
        assert (want[0] == "ok") == ((field, value) == ("stage", "1"))
        path, old_path = tmp_path / "t.jsonl", tmp_path / "old.jsonl"
        # With the plain event's tail cached, both sinks refuse the odd
        # event, or keep it apart from the plain one.
        new, old = TraceSink(), ListSink()
        new.record(plain)
        old.record(plain)
        assert outcome(new.record, odd)[:2] == outcome(old.record, odd)[:2] == want[:2]
        new.save(path)
        old.save(old_path)
        assert path.read_bytes() == old_path.read_bytes()
        assert loaded(load_trace, path) == ("ok", [repr(e) for e in old.events])
        # Both loaders refuse the line json writes for it, naming the line;
        # an int or a numpy float time reads back as a float.
        if outcome(reference_to_json, odd)[0] == "ok":
            write_lines(path, [reference_to_json(e) for e in (plain, odd, plain)])
            got = loaded(load_trace, path)
            assert got == loaded(reference_load, path)
            readable = field == "t" and value is not True or want[0] == "ok"
            assert got[0] == "ok" if readable else got[:1] + got[2:] == ("InputError", 2)

    def test_one_tail_after_many_heads(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, [head + SEP + tail for tail in GOOD_TAILS + BAD_TAILS
                           for head in GOOD_HEADS + BAD_HEADS])
        got = loaded(load_trace, path)
        assert got[0] == "ok"
        assert got == loaded(reference_load, path)

    def test_good_tail_after_bad_head_and_bad_tail_after_good_head(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good, bad = GOOD_TAILS[2], BAD_TAILS[0]
        write_lines(path, [BAD_HEADS[1] + SEP + good, GOOD_HEADS[0] + SEP + good,
                           GOOD_HEADS[0] + SEP + bad, GOOD_HEADS[3] + SEP + bad,
                           BAD_HEADS[0] + SEP + good, GOOD_HEADS[1] + SEP + good])
        got = loaded(load_trace, path)
        assert got[0] == "ok"
        assert got == loaded(reference_load, path)

    @pytest.mark.parametrize("ending", ["\r", "\r\n", "\r\r\n", "\n\r"])
    def test_carriage_returns_on_repeated_tails(self, ending, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, [head + SEP + tail for tail in GOOD_TAILS for head in GOOD_HEADS * 2],
                    ending)
        got = loaded(load_trace, path)
        assert got[0] == "ok"
        assert got == loaded(reference_load, path)

    def test_random_mix_of_heads_tails_and_endings(self, tmp_path):
        rng = np.random.default_rng(5)
        heads, tails = GOOD_HEADS + BAD_HEADS, GOOD_TAILS + BAD_TAILS
        endings = ["\n", "\n", "\r\n", "\r", "\n\n"]
        text = "".join(heads[int(rng.integers(len(heads)))] + SEP
                       + tails[int(rng.integers(len(tails)))]
                       + endings[int(rng.integers(len(endings)))] for _ in range(1000))
        path = tmp_path / "t.jsonl"
        path.write_bytes(text.encode("utf-8"))
        got = loaded(load_trace, path)
        assert got[0] == "ok"
        assert got == loaded(reference_load, path)

    @pytest.mark.parametrize("first", [GOOD_TAILS[0], BAD_TAILS[0]])
    @pytest.mark.parametrize("last", ['"running","nodes":01}', *RULE_BREAKING_TAILS])
    def test_unreadable_line_after_a_cached_tail_names_its_line(self, first, last, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, [GOOD_HEADS[0] + SEP + first, GOOD_HEADS[1] + SEP + first,
                           GOOD_HEADS[2] + SEP + last])
        got = loaded(load_trace, path)
        assert got[:1] == ("InputError",) and got[2] == 3
        assert got == loaded(reference_load, path)


class TestTypeRule:
    """``record``'s inline check, the helper that names the bad field and
    the reference agree on every odd value, in every field."""

    FIELDS = ["t", "entity", "entity_id", "transition", "nodes", "cpus", "gpus", "stage",
              "pipeline"]
    VALUES = ODD_TIMES + ODD_COUNTS + NOT_STRINGS + ODD_STRINGS + [
        value for _, value in TestCodecCaches.ODD]

    def test_inline_check_and_helper_agree(self):
        refused = 0
        for field in self.FIELDS:
            for value in self.VALUES:
                e = trace_event(**{"transition": "pending", field: value})
                why = _rule_break(e)
                assert why == reference_rule_break(e), repr(e)
                # The type rule is checked before legality.
                illegal = None if why is not None else ReferenceSink().record(e)
                got = outcome(TraceSink().record, e)
                assert got[:2] == (("ok", None) if why is None and illegal is None else
                                   ("TraceError", illegal or f"{e.entity} {e.entity_id}: {why}")), \
                    repr(e)
                refused += why is not None
        assert 0 < refused < len(self.FIELDS) * len(self.VALUES)

    def test_canonical_times_are_finite(self):
        # Every float repr from 1e-99 up to 1e100 takes load_trace's fast
        # path; a time the bounded pattern misses reads through json.loads.
        rng = np.random.default_rng(3)
        for exp in range(-99, 100):
            for t in (10.0 ** exp, (1 + 9 * float(rng.random())) * 10.0 ** exp, -(10.0 ** exp)):
                line = reference_to_json(ev(t, "task", "a", "pending"))
                assert CANONICAL_LINE.fullmatch(line), line
        for text in ["1e100", "1" + "0" * 16 + ".0", "1.5e+308", "5e-324", "1.0e-100"]:
            line = f'{{"t":{text},"entity":"task","id":"a","transition":"pending"}}'
            assert not CANONICAL_LINE.fullmatch(line)
            assert event_from_json(line).t == float(text)

    @pytest.mark.parametrize("t, why", [
        ("1" + "0" * 400, "t must be a finite number, got 1" + "0" * 400),
        ("1e400", "t must be a finite number, got Infinity"),
        ("-Infinity", "t must be a finite number, got -Infinity"),
        ("true", "t must be a finite number, got true"),
        ("null", "t must be a finite number, got null"),
        ("12", None), ("-0", None)])
    def test_loader_reads_an_int_time_as_a_float(self, t, why):
        line = f'{{"t":{t},"entity":"task","id":"a","transition":"pending"}}'
        got = outcome(event_from_json, line, 4)
        if why is None:
            assert got[0] == "ok" and repr(got[1].t) == repr(float(int(t)))
        else:
            assert got == ("InputError", f"bad trace line 4: {why}", 4)


class TestCollectorPaused:
    """load_trace and the simulated event loop pause the cyclic collector
    and leave it as they found it, also when they raise."""

    @pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        yield request.param
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def small_run(self, sink=None):
        res = PilotSpec(nodes=2, cpus_per_node=1, gpus_per_node=0, walltime_s=100.0)
        tasks = [TaskDescriptor(f"t{i}", duration_model=FixedDuration(1.0)) for i in range(4)]
        return run_executor(res, tasks, sink=sink)

    def test_load_trace(self, collector, tmp_path):
        path = tmp_path / "t.jsonl"
        self.small_run().sink.save(path)
        assert len(load_trace(path)) > 0
        assert gc.isenabled() is collector

    def test_load_trace_that_raises(self, collector, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(reference_to_json(trace_event()) + "\nnot json\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_trace(path)
        assert gc.isenabled() is collector

    def test_simulated_run(self, collector):
        seen = []

        class WatchingSink(TraceSink):
            def record(self, event):
                seen.append(gc.isenabled())
                super().record(event)

        self.small_run(WatchingSink())
        assert gc.isenabled() is collector
        # Paused inside the loop; before it, as the caller left it.
        assert seen[0] is collector and False in seen

    def test_simulated_run_that_raises(self, collector):
        sink = TraceSink()
        # Node 0 is busy already, so the loop's first task start records an
        # illegal busy -> busy.
        sink.record(ev(0.0, "node", "pilot-0/0", "busy"))
        with pytest.raises(TraceError, match="busy -> busy"):
            self.small_run(sink)
        assert gc.isenabled() is collector


class TestRecordAgainstReference:
    TRANSITIONS = sorted({tr for graph in LEGAL_GRAPHS.values()
                          for nexts in graph.values() for tr in nexts})

    @pytest.mark.parametrize("seed", range(4))
    def test_same_decisions_and_messages(self, seed):
        rng = np.random.default_rng(seed)
        ref, sink = ReferenceSink(), TraceSink()
        illegal = 0
        t = 0.0
        for _ in range(3000):
            r = rng.random()
            entity = "bogus" if r < 0.03 else list(LEGAL_GRAPHS)[int(rng.integers(7))]
            eid = f"e{int(rng.integers(6))}"
            prev = ref._last.get((entity, eid), (None, None))[1]
            legal = sorted(LEGAL_GRAPHS.get(entity, {}).get(prev, ()))
            if legal and rng.random() < 0.7:
                transition = legal[int(rng.integers(len(legal)))]
            else:
                transition = self.TRANSITIONS[int(rng.integers(len(self.TRANSITIONS)))]
            r = rng.random()
            if r < 0.05:
                when = math.nan
            elif r < 0.15:
                when = t - float(rng.integers(1, 5))
            else:
                t += float(rng.integers(0, 2))
                when = t
            e = ev(when, entity, eid, transition)
            want = outcome(ref.record, e)
            try:
                sink.record(e)
                got = None
            except TraceError as exc:
                got = str(exc)
            assert got == want[1], repr(e)
            illegal += want[0] == "ok" and want[1] is not None
        assert 0 < illegal and len(sink) < 3000


# ---------------------------------------------------------------------------
# The node and queue metrics against the code the trace module had before
# the Timeline, copied as it was: a separate walk of the trace per metric,
# with busy intervals built twice, once as (start, end) pairs and once as a
# dict of deltas.

def _ref_pilot_totals(trace: list[TraceEvent]) -> int:
    nodes = 0
    for ev in trace:
        if ev.entity == "pilot" and ev.transition == "acquired":
            nodes += ev.nodes or 0
    return nodes


def _ref_span(trace: list[TraceEvent]) -> tuple[float, float]:
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


def _ref_node_busy_intervals(trace: list[TraceEvent], t_end: float):
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


def ref_utilization(trace: list[TraceEvent], bucket_width_s: float | None = None) -> UtilizationSeries:
    total_nodes = _ref_pilot_totals(trace)
    t_start, t_end = _ref_span(trace)
    span = t_end - t_start
    if total_nodes == 0 or span <= 0:
        return UtilizationSeries(bucket_width_s or 0.0, [], [])
    if bucket_width_s is None:
        bucket_width_s = span / 200.0
    n_buckets = max(1, math.ceil(span / bucket_width_s - 1e-12))
    busy = [0.0] * n_buckets
    for start, end in _ref_node_busy_intervals(trace, t_end):
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


def ref_overhead(trace: list[TraceEvent]) -> OverheadReport:
    total_nodes = _ref_pilot_totals(trace)
    t_start, t_end = _ref_span(trace)
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
    busy = sum(e - s for s, e in _ref_node_busy_intervals(trace, t_end))
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


def ref_peak_concurrency(trace: list[TraceEvent]) -> int:
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


def ref_busy_node_seconds(trace: list[TraceEvent]) -> float:
    _, t_end = _ref_span(trace)
    return sum(e - s for s, e in _ref_node_busy_intervals(trace, t_end))


def close(a, b):
    return a == pytest.approx(b, rel=1e-9)


def assert_metrics_match_reference(events):
    for width in (None, 0.37, 5.0):
        got, ref = utilization(events, width), ref_utilization(events, width)
        assert got.bucket_width_s == ref.bucket_width_s
        assert got.t0s == ref.t0s
        assert close(got.busy_node_fraction, ref.busy_node_fraction)
        assert close(got.mean(), ref.mean())
    got, ref = overhead(events), ref_overhead(events)
    for field in ("total_s", "fraction_of_makespan", "per_task_ms", "bootstrap_node_s",
                  "scheduling_node_s", "makespan_s", "n_tasks"):
        assert close(getattr(got, field), getattr(ref, field)), field
    assert close(busy_node_seconds(events), ref_busy_node_seconds(events))
    assert peak_concurrency(events) == ref_peak_concurrency(events)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def desk_funnel_events():
    spec, overlay, _ = load_config(str(CONFIGS / "desk_funnel.json"), seed_override=42)
    return run_campaign(spec, overlay=overlay).sink.events


def walltime_cut_events():
    # Cut during S1, at 1% of the uncut makespan: running tasks and tasks
    # still waiting for a slot are canceled at the cut.
    funnel = FunnelConfig(library_size=2000, cg_count=10, top_binders=2,
                          outliers_per_binder=2, seed=3)
    full = run_campaign(build_funnel_campaign(funnel)).makespan
    spec = build_funnel_campaign(funnel)
    spec.resource.walltime_s = full / 100
    r = run_campaign(spec)
    ran = {e.entity_id for e in r.sink.events if e.transition == "running"}
    canceled = {e.entity_id for e in r.sink.events if e.transition == "canceled"}
    assert r.walltime_hit and canceled & ran and canceled - ran
    return r.sink.events


@pytest.fixture(scope="module")
def run_traces():
    desk = desk_funnel_events()
    trials = [run_campaign(random_campaign(np.random.default_rng(trial), seed=trial)).sink.events
              for trial in range(5)]
    return {
        "desk_funnel_42": desk,
        # The partial trace a run that raises leaves: open busy intervals
        # and tasks still queued at its end.
        "desk_funnel_42_cut": desk[:len(desk) // 2],
        "walltime_cut": walltime_cut_events(),
        "overlay": run_overlay_funnel().sink.events,
        "merged": merge_traces([trials[0], trials[1], desk]),
        **{f"property_trial_{i}": events for i, events in enumerate(trials)},
    }


RUN_TRACES = ["desk_funnel_42", "desk_funnel_42_cut", "walltime_cut", "overlay", "merged",
              *(f"property_trial_{i}" for i in range(5))]


def pilot(t=0.0, nodes=2, pid="p"):
    return ev(t, "pilot", pid, "acquired", nodes=nodes, cpus=1, gpus=0)


def task_events(tid, pending, running=None, end=None, outcome="done"):
    out = [ev(pending, "task", tid, "pending"), ev(pending, "task", tid, "scheduled")]
    if running is not None:
        out.append(ev(running, "task", tid, "running"))
    if end is not None:
        out.append(ev(end, "task", tid, outcome))
    return out


HAND_MADE = {
    "empty": [],
    "no_pilot": [ev(0.0, "node", "p/0", "busy"), *task_events("t", 0.0, 0.0, 4.0),
                 ev(4.0, "node", "p/0", "idle")],
    "zero_span": [pilot(), ev(0.0, "node", "p/0", "busy"), *task_events("t", 0.0, 0.0, 0.0),
                  ev(0.0, "node", "p/0", "idle"), ev(0.0, "pilot", "p", "released")],
    # One node idles and goes busy again at t=2, as a task ends and the
    # next one starts on it.
    "idle_and_busy_at_once": [
        pilot(), ev(1.0, "pilot", "p", "agent_ready"),
        *task_events("a", 0.0), *task_events("b", 0.0),
        ev(1.0, "task", "a", "running"), ev(1.0, "node", "p/0", "busy"),
        ev(2.0, "task", "a", "done"), ev(2.0, "node", "p/0", "idle"),
        ev(2.0, "task", "b", "running"), ev(2.0, "node", "p/0", "busy"),
        ev(3.5, "task", "b", "done"), ev(3.5, "node", "p/0", "idle"),
        ev(4.0, "pilot", "p", "released")],
    # Work queues from t=0; the agent is ready at t=3.
    "queued_during_bootstrap": [
        pilot(nodes=3), *task_events("a", 0.0), *task_events("b", 0.5), *task_events("c", 1.0),
        ev(3.0, "pilot", "p", "agent_ready"),
        ev(3.0, "task", "a", "running"), ev(3.0, "node", "p/0", "busy"),
        ev(3.0, "task", "b", "running"), ev(3.0, "node", "p/1", "busy"),
        ev(5.0, "task", "a", "done"), ev(5.0, "node", "p/0", "idle"),
        ev(5.0, "task", "c", "running"), ev(5.0, "node", "p/0", "busy"),
        ev(6.0, "task", "b", "canceled"), ev(6.0, "node", "p/1", "idle"),
        ev(7.5, "task", "c", "done"), ev(7.5, "node", "p/0", "idle"),
        ev(8.0, "pilot", "p", "released")],
    # Each entity's events in time order, but not the trace's.
    "out_of_time_order": [
        pilot(), *task_events("a", 0.0, 1.0, 4.0),
        ev(1.0, "node", "p/0", "busy"), ev(4.0, "node", "p/0", "idle"),
        *task_events("b", 0.0, 0.5, 2.0),
        ev(0.5, "node", "p/1", "busy"), ev(2.0, "node", "p/1", "idle"),
        ev(5.0, "pilot", "p", "released")],
}


class TestMetricsAgainstReference:
    @pytest.mark.parametrize("name", RUN_TRACES)
    def test_run_traces(self, name, run_traces):
        assert_metrics_match_reference(run_traces[name])

    @pytest.mark.parametrize("name", sorted(HAND_MADE))
    def test_hand_made_traces(self, name):
        sink = TraceSink()
        for e in HAND_MADE[name]:
            sink.record(e)
        assert_metrics_match_reference(sink.events)

    def test_utilization_and_overhead_count_the_same_busy_time_in_flag_mode(self):
        # Node p/0 goes busy twice before it idles, and p/1 idles without
        # being busy; a task waits for the whole run.  The node is busy
        # from its first busy event, so 5 + 1 node-seconds are busy.  The
        # illegal stream goes into the sink through its setter.
        sink = TraceSink()
        sink.events = [pilot(), *task_events("t", 0.0),
                       ev(1.0, "node", "p/0", "busy"), ev(1.5, "node", "p/1", "idle"),
                       ev(3.0, "node", "p/0", "busy"), ev(6.0, "node", "p/0", "idle"),
                       ev(7.0, "node", "p/1", "busy"), ev(8.0, "node", "p/1", "idle"),
                       ev(10.0, "pilot", "p", "released")]
        events = sink.events
        series = utilization(events, 1.0)
        util_busy = sum(series.busy_node_fraction) * series.bucket_width_s * 2
        rep = overhead(events)
        assert busy_node_seconds(events) == util_busy == 6.0
        assert rep.total_s == 20.0 - 6.0
        # Work was queued throughout, so every idle node-second counts.
        assert rep.scheduling_node_s == rep.total_s
        # Before, utilization dropped the first busy span and the
        # scheduling sweep counted p/0 twice and p/1 below zero.
        ref = ref_overhead(events)
        ref_series = ref_utilization(events, 1.0)
        assert sum(ref_series.busy_node_fraction) * 2 == 4.0
        assert ref.scheduling_node_s != ref.total_s

    def test_a_repeated_task_event_changes_no_count(self):
        # A second pending and a second running, put into the sink through
        # its setter, neither requeue the running task nor start it again.
        sink = TraceSink()
        sink.events = [pilot(), *task_events("t", 0.0, 1.0), ev(2.0, "task", "t", "pending"),
                       ev(3.0, "task", "t", "running"), ev(4.0, "task", "t", "done"),
                       ev(5.0, "pilot", "p", "released")]
        run = timeline(sink.events)
        assert run.times.tolist() == [0.0, 1.0, 4.0, 5.0]
        assert [run.busy.tolist(), run.queued.tolist(), run.running.tolist()] == \
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]]

    def test_a_task_canceled_before_it_runs_does_not_lower_the_peak(self):
        # Task a waits and is canceled at t=1; b and c then run together.
        # The old sort took a's canceled event off the running count.
        events = [pilot(), *task_events("a", 0.0, end=1.0, outcome="canceled"),
                  *task_events("b", 0.0, 2.0, 3.0), *task_events("c", 0.0, 2.5, 4.0),
                  ev(5.0, "pilot", "p", "released")]
        sink = TraceSink()
        for e in events:
            sink.record(e)
        assert peak_concurrency(events) == 2
        assert ref_peak_concurrency(events) == 1

    @pytest.mark.parametrize("width", [0.0, -5.0, math.nan, math.inf, -math.inf])
    def test_bad_bucket_width_rejected(self, width):
        events = [pilot(), ev(1.0, "pilot", "p", "released")]
        with pytest.raises(ValueError, match="bucket width"):
            utilization(events, width)

    def test_bucket_limit(self):
        # Refused before any edge is built: 1,000,010 buckets took about a
        # second to build and sum.
        run = timeline([pilot(), ev(4.0, "pilot", "p", "released")])
        assert len(run.utilization(4.0 / MAX_BUCKETS).t0s) == MAX_BUCKETS
        width = 4.0 / (MAX_BUCKETS + 10)
        with pytest.raises(ValueError, match=f"^bucket width {width:g} cuts the 4 s run into "
                                             f"more than {MAX_BUCKETS} buckets$"):
            run.utilization(width)


# ---------------------------------------------------------------------------
# The column sink against the list sink the trace module had before: record
# kept each TraceEvent in a list, and save wrote one line per event, which
# TestCodec pins to the dict-and-json.dumps encoder.  Both refuse an event
# that breaks the type rule or is illegal.

class ListSink:
    _STEPS = frozenset((entity, prev, nxt) for entity, graph in LEGAL_GRAPHS.items()
                       for prev, nexts in graph.items() for nxt in nexts)

    def __init__(self):
        self.events = []
        self._last = {}

    def record(self, event):
        refuse_rule_break(event)
        key = (event.entity, event.entity_id)
        prev_t, prev_tr = self._last.get(key, (-math.inf, None))
        if (event.entity, prev_tr, event.transition) in self._STEPS and not event.t < prev_t:
            self._last[key] = (event.t, event.transition)
        else:
            why = (f"unknown entity kind {event.entity!r}" if event.entity not in LEGAL_GRAPHS
                   else f"event at t={event.t} before t={prev_t}" if event.t < prev_t
                   else f"illegal transition {prev_tr} -> {event.transition}")
            raise TraceError(f"{event.entity} {event.entity_id}: {why}")
        self.events.append(event)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, len(self.events), 4096):
                fh.writelines([reference_to_json(e) + "\n" for e in self.events[i:i + 4096]])


def legality_stream(rng, n):
    """The random events of TestRecordAgainstReference: mostly legal steps
    of a few entities, with unknown kinds, NaN times (which break the type
    rule) and times that go back."""
    ref = ReferenceSink()
    transitions = TestRecordAgainstReference.TRANSITIONS
    t = 0.0
    for _ in range(n):
        entity = "bogus" if rng.random() < 0.03 else list(LEGAL_GRAPHS)[int(rng.integers(7))]
        eid = f"e{int(rng.integers(6))}"
        prev = ref._last.get((entity, eid), (None, None))[1]
        legal = sorted(LEGAL_GRAPHS.get(entity, {}).get(prev, ()))
        if legal and rng.random() < 0.7:
            transition = legal[int(rng.integers(len(legal)))]
        else:
            transition = transitions[int(rng.integers(len(transitions)))]
        r = rng.random()
        if r < 0.05:
            when = math.nan
        elif r < 0.15:
            when = t - float(rng.integers(1, 5))
        else:
            t += float(rng.integers(0, 2))
            when = t
        e = ev(when, entity, eid, transition, stage=f"S{int(rng.integers(3))}")
        outcome(ref.record, e)
        yield e


def assert_same_timeline(a, b):
    for field in Timeline.__dataclass_fields__:
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), field
        else:
            assert repr(x) == repr(y), field


class TestSinkAgainstListSink:
    """Recording, the events view, error texts and saved bytes are those of
    the list sink, for legal, illegal and odd-typed events, also after the
    events are replaced.  Both refuse every odd-typed event.  Assigned, an
    illegal stream goes in unchecked for legality; record carries on."""

    def run_both(self, events, way, tmp_path, replace_at=None):
        new, old = TraceSink(), ListSink()
        if way == "assigned":
            good = [e for e in events if reference_rule_break(e) is None]
            bad = [e for e in events if reference_rule_break(e) is not None]
            assert outcome(setattr, new, "events", events)[:2] == \
                outcome(refuse_rule_break, bad[0])[:2]
            new.events, old.events = good, list(good)
        for i, e in enumerate(events):
            if i == replace_at:
                # Replaced without checks; legality state carries on.
                kept = old.events[::2]
                new.events, old.events = kept, list(kept)
            assert outcome(new.record, e) == outcome(old.record, e), repr(e)
        assert [repr(e) for e in new.events] == [repr(e) for e in old.events]
        assert len(new) == len(old.events)
        assert [repr(e) for e in new] == [repr(e) for e in old.events]
        a, b = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        saved = outcome(new.save, a)
        assert saved[:2] == outcome(old.save, b)[:2]
        if saved[0] == "ok":
            assert a.read_bytes() == b.read_bytes()
        return new

    @pytest.mark.parametrize("way", ["recorded", "assigned"])
    @pytest.mark.parametrize("seed", range(3))
    def test_legality_streams(self, way, seed, tmp_path):
        events = list(legality_stream(np.random.default_rng(seed), 2000))
        self.run_both(events, way, tmp_path, replace_at=1000 if seed == 2 else None)

    @pytest.mark.parametrize("way", ["recorded", "assigned"])
    @pytest.mark.parametrize("seed", range(3))
    def test_odd_typed_streams(self, way, seed, tmp_path):
        rng = np.random.default_rng(100 + seed)
        events = [random_event(rng) for _ in range(1500)]
        if seed == 1:
            # Equal keys of other types after the plain event they equal.
            events += [trace_event(**{f: v}) for f, v in TestCodecCaches.ODD] + [trace_event()]
        self.run_both(events, way, tmp_path, replace_at=700 if seed == 2 else None)

    def test_codec_events_assigned(self, tmp_path):
        events, bad = random_events(3000)
        new, old = TraceSink(), ListSink()
        new.events, old.events = events, list(events)
        assert [repr(e) for e in new.events] == [repr(e) for e in events]
        new.save(tmp_path / "new.jsonl")
        old.save(tmp_path / "old.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
        with pytest.raises(TraceError):
            new.events = events + bad[:1]
        assert len(new) == len(events)

    @pytest.mark.parametrize("name", RUN_TRACES + sorted(HAND_MADE))
    def test_timeline_of_sink_equals_timeline_of_list(self, name, run_traces):
        events = run_traces[name] if name in run_traces else HAND_MADE[name]
        want = timeline(events)
        recorded, assigned = TraceSink(), TraceSink()
        for e in events:
            recorded.record(e)
        assigned.events = events
        for sink in (recorded, assigned):
            assert_same_timeline(timeline(sink), want)


def walk_timeline(trace):
    """The Timeline as the trace module built it before its columns: one
    walk over TraceEvents, keeping each node's and task's current count."""
    enters_of = {"node": {"busy": 0}, "task": {"pending": 1, "running": 2}}
    leaves_of = {"node": {"idle"}, "task": TERMINAL_TASK_STATES}
    enters, leaves = ([], [], []), ([], [], [])
    members = {entity: {} for entity in enters_of}
    total_nodes = n_tasks = 0
    acquired, ready = [], []
    t_start = t_end = trace[0].t if trace else 0.0
    for e in trace:
        t, entity, transition = e.t, e.entity, e.transition
        if t < t_start:
            t_start = t
        if t > t_end:
            t_end = t
        moves = enters_of.get(entity)
        if moves is not None:
            ids, eid = members[entity], e.entity_id
            count, to = ids.get(eid), moves.get(transition)
            if to is not None and (count is None or count < to):
                ids[eid] = to
                enters[to].append(t)
                if count is not None:
                    leaves[count].append(t)
            elif transition in leaves_of[entity]:
                n_tasks += entity == "task"
                if count is not None:
                    del ids[eid]
                    leaves[count].append(t)
        elif entity == "pilot" and transition == "acquired":
            total_nodes += e.nodes or 0
            acquired.append(t)
        elif entity == "pilot" and transition == "agent_ready":
            ready.append(t)
    ins, outs = ([np.sort(np.array(ts, dtype=float)) for ts in side] for side in (enters, leaves))
    times = np.unique(np.concatenate(ins + outs))
    counts = (np.searchsorted(i, times, "right") - np.searchsorted(o, times, "right")
              for i, o in zip(ins, outs))
    return Timeline(t_start, total_nodes, min(acquired, default=None),
                    max(ready, default=None), np.append(times, t_end), *counts, n_tasks)


class TestTimelineAgainstWalk:
    """The timeline of a sink's columns and of a list equals the walk over
    events exactly, also on illegal streams with repeated steps and events
    out of time order, which go into a sink through its setter, and on
    lists with NaN times, which a sink refuses."""

    @pytest.mark.parametrize("name", RUN_TRACES + sorted(HAND_MADE))
    def test_traces(self, name, run_traces):
        events = run_traces[name] if name in run_traces else HAND_MADE[name]
        assert_same_timeline(timeline(events), walk_timeline(events))

    @pytest.mark.parametrize("seed", range(4))
    def test_flag_mode_streams(self, seed):
        events = list(legality_stream(np.random.default_rng(200 + seed), 3000))
        if seed % 2:
            events[0] = ev(math.nan, "node", "n0", "busy")
        assert_same_timeline(timeline(events), walk_timeline(events))
        sink = TraceSink()
        assert outcome(setattr, sink, "events", events)[0] == "TraceError"
        kept = [e for e in events if not math.isnan(e.t)]
        sink.events = kept
        assert len(sink) == len(kept) < len(events)
        want = walk_timeline(kept)
        assert_same_timeline(timeline(kept), want)
        assert_same_timeline(timeline(sink), want)
