"""Engine integration: barriers, pipeline modes, failures, overlay stages,
the local backend, and specs that a run leaves as they were."""
import copy
import json
import os
import signal
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from funnelsim.campaign import (CampaignSpec, FixedDuration, HookSpec, MaterializeSpec,
                                PipelineSpec, StageSpec, TaskDescriptor, validate_campaign)
from funnelsim.cli import main
from funnelsim.engine import Engine, run_campaign, run_executor
from funnelsim.errors import ConfigError, StateError, WorkerKilled
from funnelsim.overlay import MasterConfig
from funnelsim.pilot import PilotSpec
from funnelsim.trace import TraceSink
from funnelsim.workload import FUNCTIONS, FunnelConfig, build_funnel_campaign, select_top_k


def task(tid, dur=1.0, **kw):
    kw.setdefault("cpus", 1)
    return TaskDescriptor(tid, duration_model=FixedDuration(dur), **kw)


def pilot(**kw):
    base = dict(nodes=4, cpus_per_node=2, gpus_per_node=0, walltime_s=1e9)
    base.update(kw)
    return PilotSpec(**base)


def stage_barrier_ok(events):
    """No task of stage i+1 may be scheduled before every stage-i task of
    its pipeline is terminal: checked by scanning the trace."""
    stage_order: dict[str, list[str]] = {}
    open_tasks: dict[tuple[str, str], set] = {}
    for ev in events:
        if ev.entity != "task" or ev.pipeline is None:
            continue
        key = (ev.pipeline, ev.stage)
        if ev.transition == "pending":
            order = stage_order.setdefault(ev.pipeline, [])
            if ev.stage not in order:
                order.append(ev.stage)
            open_tasks.setdefault(key, set()).add(ev.entity_id)
        elif ev.transition == "scheduled":
            order = stage_order[ev.pipeline]
            for earlier in order[:order.index(ev.stage)]:
                if open_tasks.get((ev.pipeline, earlier)):
                    return False
        elif ev.transition in ("done", "failed", "canceled"):
            open_tasks.get(key, set()).discard(ev.entity_id)
    return True


class TestBarrier:
    def test_trace_scan_on_funnel(self):
        funnel = FunnelConfig(library_size=1000, s1_fraction=0.02, cg_count=8,
                              top_binders=2, outliers_per_binder=2, seed=5)
        r = run_campaign(build_funnel_campaign(funnel))
        assert r.final_states["p0"]["status"] == "done"
        assert stage_barrier_ok(r.sink.events)

    def test_trace_scan_on_two_pipelines(self):
        pipes = []
        for p in ("pa", "pb"):
            pipes.append(PipelineSpec(p, [
                StageSpec("s0", [task(f"{p}.a{i}", dur=1.0 + 0.1 * i) for i in range(4)]),
                StageSpec("s1", [task(f"{p}.b{i}", dur=0.5) for i in range(4)]),
            ]))
        spec = CampaignSpec(pipes, pilot(), seed=0)
        r = run_campaign(spec)
        assert stage_barrier_ok(r.sink.events)
        assert all(s["status"] == "done" for s in r.final_states.values())


class TestPipelineModes:
    def two_pipelines(self, mode):
        pipes = [PipelineSpec(p, [StageSpec("s0", [task(f"{p}.t{i}", dur=2.0)
                                                   for i in range(2)])])
                 for p in ("pa", "pb")]
        spec = CampaignSpec(pipes, pilot(nodes=4, cpus_per_node=1), seed=0,
                            pipeline_mode=mode)
        return run_campaign(spec)

    def test_concurrent_pipelines_interleave(self):
        r = self.two_pipelines("concurrent")
        first_b = min(ev.t for ev in r.sink.events
                      if ev.entity == "task" and ev.pipeline == "pb"
                      and ev.transition == "running")
        assert first_b == 0.0   # pb starts before pa finishes

    def test_sequential_pipelines_serialize(self):
        r = self.two_pipelines("sequential")
        last_a = max(ev.t for ev in r.sink.events
                     if ev.entity == "task" and ev.pipeline == "pa"
                     and ev.transition == "done")
        first_b = min(ev.t for ev in r.sink.events
                      if ev.entity == "task" and ev.pipeline == "pb"
                      and ev.transition == "running")
        assert first_b >= last_a


class TestFailurePaths:
    def test_bad_stage_output_fails_pipeline_and_releases_slots(self):
        # First stage output is not parseable by the hook: the pipeline
        # fails and the other pipeline still completes.
        bad = PipelineSpec("bad", [
            StageSpec("s0", [task("bad.t0", dur=1.0)],
                      post_hook=HookSpec(select_top_k, {"k": 1})),
            StageSpec("s1", [task("bad.t1")]),
        ])
        # payload None gives zero items -> select_top_k returns [] ->
        # next stage payload mismatch -> pipeline failed
        good = PipelineSpec("good", [StageSpec("s0", [task("good.t0", dur=3.0)])])
        spec = CampaignSpec([bad, good], pilot(), seed=0)
        r = run_campaign(spec)
        assert r.final_states["bad"]["status"] == "failed"
        assert r.final_states["good"]["status"] == "done"
        # stage 1 never became current, so its task was never born
        born = {ev.entity_id for ev in r.sink.events
                if ev.entity == "task" and ev.transition == "pending"}
        assert "bad.t1" not in born
        # every node went idle again: busy/idle transitions pair up
        per_node = {}
        for ev in r.sink.events:
            if ev.entity == "node":
                per_node[ev.entity_id] = ev.transition
        assert all(last == "idle" for last in per_node.values())

    def test_list_payload_of_a_hooked_stage_feeds_the_next_stage(self):
        # A task's output may be a bare list of items.
        items = [{"id": f"x{i}", "true_score": float(i)} for i in range(4)]
        spec = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [task("a0", payload=items[2:]), task("a1", payload=items[:2])],
                      post_hook=HookSpec(select_top_k, {"k": 2})),
            StageSpec("s1", [task("b0"), task("b1")]),
        ])], pilot(), seed=0)
        engine = Engine(spec)
        assert engine.run().final_states["p"]["status"] == "done"
        assert [t.payload for t in engine.states["p"].stage_tasks[1]] == items[:2]

    def test_int_payload_of_a_hooked_stage_fails_its_pipeline(self):
        # An int holds no items, so the hook cannot read the stage's
        # outputs: the stage and its pipeline fail once its last task ends.
        spec = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [task("a0", dur=1.0, payload=7), task("a1", dur=2.0)],
                      post_hook=HookSpec(select_top_k, {"k": 1})),
            StageSpec("s1", [task("b0")]),
        ])], pilot(), seed=0)
        r = run_campaign(spec)
        assert r.final_states["p"]["status"] == "failed"
        tail = [(ev.t, ev.entity, ev.entity_id, ev.transition) for ev in r.sink.events
                if ev.entity in ("task", "stage", "pipeline")][-3:]
        assert tail == [(2.0, "task", "a1", "done"), (2.0, "stage", "p/s0", "failed"),
                        (2.0, "pipeline", "p", "failed")]
        assert r.final_states["p"]["task_states"] == {"a0": "done", "a1": "done"}

    def test_unsatisfiable_task_raises(self):
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s", [task("t", cpus=99)])])],
                            pilot(), seed=0)
        with pytest.raises(ConfigError):
            run_campaign(spec)   # caught by validation before the engine runs

    def test_walltime_cancels_funnel(self):
        funnel = FunnelConfig(library_size=1000, s1_fraction=0.02, cg_count=4,
                              top_binders=1, outliers_per_binder=1, seed=2)
        spec = build_funnel_campaign(funnel)
        spec.resource.walltime_s = 1e-5
        r = run_campaign(spec)
        assert r.walltime_hit
        assert r.final_states["p0"]["status"] == "canceled"
        assert r.sink.events[-1].transition == "released"


@contextmanager
def alarm(seconds):
    """Fail rather than hang: a loop that never ends raises after ``seconds``."""
    def ring(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestNaNTimes:
    """A NaN time never ends the simulated loop, so none may reach it."""

    @pytest.mark.parametrize("field", ["walltime_s", "bootstrap_s", "sched_gap_s"])
    def test_nan_pilot_time_is_config_error(self, field):
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s", [task("t")])])],
                            pilot(**{field: float("nan")}))
        with pytest.raises(ConfigError, match=field):
            Engine(spec)

    def test_nan_time_scale_is_config_error(self):
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s", [task("t")])])],
                            pilot(), time_scale=float("nan"))
        with pytest.raises(ConfigError, match="time_scale"):
            Engine(spec)

    @pytest.mark.parametrize("seconds", [float("nan"), -1.0])
    def test_bad_drawn_duration_is_state_error(self, seconds):
        with alarm(5), pytest.raises(StateError, match="task bad drew duration"):
            run_executor(pilot(), [task("ok"), task("bad", dur=seconds)])

    def test_bad_sampled_duration_in_materialized_task_is_state_error(self):
        funnel = FunnelConfig(library_size=1000, s1_fraction=0.02, cg_count=4,
                              top_binders=1, outliers_per_binder=1, seed=2)
        spec = build_funnel_campaign(funnel)
        s1 = spec.pipelines[0].stages[1].materialize
        s1.params["duration"] = replace(s1.params["duration"], node_seconds=float("nan"))
        with alarm(5), pytest.raises(StateError, match="task p0.S1.L"):
            run_campaign(spec)


class TestTraceTypes:
    """A campaign that validation accepts records only events that follow
    the trace's type rule; an ill-typed id or count is a ConfigError
    before the first event."""

    @pytest.mark.parametrize("field, value", [
        ("cpus", np.int64(1)), ("cpus", True), ("gpus", np.int32(0)), ("nodes", 1.0),
        ("task_id", 7), ("stage_tag", None)])
    def test_ill_typed_task_is_config_error(self, field, value):
        # With cpus=np.int64(1) the run went through and save raised
        # TypeError; with cpus=True it wrote "cpus":true.
        bad = TaskDescriptor(**{"task_id": "t1", "duration_model": FixedDuration(1.0),
                                field: value})
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s", [task("t0"), bad])])], pilot())
        assert [(v.code, v.message) for v in validate_campaign(spec)] == \
            [("type", f"{field} must be {type(getattr(TaskDescriptor('x'), field)).__name__}, "
                      f"got {value!r}")]
        sink = TraceSink()
        with pytest.raises(ConfigError, match=f"{field} must be"):
            run_executor(pilot(), [task("t0"), bad], sink=sink)
        assert len(sink) == 0

    @pytest.mark.parametrize("bad, why", [
        (task("m0", kind="bogus"), "[kind] m0: unknown kind 'bogus'"),
        (task("m0", kind="function", nodes=3),
         "[multi_node_kind] m0: multi-node tasks must be kind=executable, got function"),
        (task("m0", cpus=np.int64(1)), f"[type] m0: cpus must be int, got {np.int64(1)!r}")])
    def test_ill_built_materialized_task_is_config_error(self, bad, why):
        # Validation never sees a materializer's tasks.  The first two ran
        # to done, and the third failed only at its pending event.
        build = MaterializeSpec(lambda params, items: [bad, task("m1")])
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s0", [task("t0")]),
                                                StageSpec("s1", materialize=build)])], pilot())
        assert validate_campaign(spec) == []
        sink = TraceSink()
        with alarm(5), pytest.raises(ConfigError) as exc:
            run_campaign(spec, sink=sink)
        assert str(exc.value) == f"stage p/s1 built invalid tasks: {why}"
        assert [(e.entity_id, e.transition) for e in sink.events if e.entity == "stage"] == \
            [("p/s0", "started"), ("p/s0", "completed")]
        assert all(e.entity_id == "t0" for e in sink.events if e.entity == "task")

    @pytest.mark.parametrize("field", ["nodes", "cpus_per_node", "gpus_per_node"])
    def test_ill_typed_pilot_count_is_config_error(self, field):
        res = pilot(**{field: np.int64(4)})
        assert res.validate() == [f"{field} must be int, got {np.int64(4)!r}"]
        with pytest.raises(ConfigError, match=field):
            run_executor(res, [task("t0")])

    def test_ill_typed_pipeline_id_and_infinite_walltime_are_violations(self):
        spec = CampaignSpec([PipelineSpec(3, [StageSpec("s", [task("t0")])])],
                            pilot(walltime_s=float("inf")))
        assert sorted(v.code for v in validate_campaign(spec)) == ["resource", "type"]

    def test_int_resource_times_and_numpy_duration_give_float_times(self, tmp_path):
        res = pilot(bootstrap_s=2, walltime_s=100, sched_gap_s=np.float64(0.5))
        tasks = [TaskDescriptor(f"t{i}", duration_model=FixedDuration(np.float64(1.0)))
                 for i in range(3)] + [task("late", dur=500.0)]
        r = run_executor(res, tasks)
        assert r.walltime_hit
        assert {type(ev.t) for ev in r.sink.events} == {float}
        trace = tmp_path / "trace.jsonl"
        r.sink.save(trace)
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep"),
                     "--quiet"]) == 0


class TestOverlayStage:
    def test_funnel_with_overlay_s1(self):
        funnel = FunnelConfig(library_size=5000, cg_count=20, seed=3)
        spec = build_funnel_campaign(funnel)
        cfg = MasterConfig(n_masters=2, workers_per_master=12, bulk_size=16)
        r = run_campaign(spec, overlay=cfg)
        assert r.final_states["p0"]["status"] == "done"
        births = {}
        for ev in r.sink.events:
            if ev.entity == "task" and ev.transition == "pending" and ev.stage:
                births[ev.stage] = births.get(ev.stage, 0) + 1
        assert births["S1"] == 50
        assert births["S3FG"] == 600
        assert sum(w.completed for w in r.overlay_workers) == 50
        assert stage_barrier_ok(r.sink.events)

    def test_overlay_and_plain_pipelines_share_pilot(self):
        fn_tasks = [TaskDescriptor(f"fn.t{i}", kind="function", cpus=1,
                                   duration_model=FixedDuration(1.0))
                    for i in range(12)]
        plain = [task(f"pl.t{i}", dur=1.0) for i in range(4)]
        spec = CampaignSpec(
            [PipelineSpec("fn", [StageSpec("s", fn_tasks)]),
             PipelineSpec("pl", [StageSpec("s", plain)])],
            pilot(nodes=4, cpus_per_node=2), seed=0)
        r = run_campaign(spec, overlay=MasterConfig(n_masters=1, workers_per_master=3,
                                                    bulk_size=4))
        assert all(s["status"] == "done" for s in r.final_states.values())

    @pytest.mark.parametrize("a_cpus", [4, 2])
    def test_overlay_waits_for_capacity(self, a_cpus):
        # Task a.t0 holds all or half of the pilot until t=10; the overlay
        # (3 cpus) waits for it instead of failing, holding no slots while
        # it waits, then runs 4 x 1 s on 2 workers.
        fn_tasks = [TaskDescriptor(f"b.t{i}", kind="function", cpus=1,
                                   duration_model=FixedDuration(1.0))
                    for i in range(4)]
        spec = CampaignSpec(
            [PipelineSpec("a", [StageSpec("s", [task("a.t0", dur=10.0, cpus=a_cpus)])]),
             PipelineSpec("b", [StageSpec("s", fn_tasks)])],
            pilot(nodes=1, cpus_per_node=4), seed=0)
        r = run_campaign(spec, overlay=MasterConfig(n_masters=1, workers_per_master=2,
                                                    bulk_size=2))
        assert {pid: s["status"] for pid, s in r.final_states.items()} == \
            {"a": "done", "b": "done"}
        assert r.makespan == 12.0

    def test_overlay_of_a_mixed_stage_stops_when_its_own_tasks_end(self):
        # Stage s0 mixes one 10 s plain task with eight 1 s function tasks.
        # All eight function tasks go to the overlay (3 cpus) and the plain
        # task to the pilot's fourth cpu, so both start in the first round.
        # The overlay must stop when its eight tasks end, while the plain
        # task still runs, or s1's 4-cpu task never fits.
        fn_tasks = [TaskDescriptor(f"f{i}", kind="function", cpus=1,
                                   duration_model=FixedDuration(1.0))
                    for i in range(8)]
        spec = CampaignSpec(
            [PipelineSpec("p", [StageSpec("s0", [task("long", dur=10.0)] + fn_tasks),
                                StageSpec("s1", [task("next", cpus=4)])])],
            pilot(nodes=1, cpus_per_node=4), seed=0)
        engine = Engine(spec, overlay=MasterConfig(n_masters=1, workers_per_master=2,
                                                   bulk_size=2))
        with alarm(5):
            r = engine.run()
        assert r.final_states["p"]["status"] == "done"
        events = r.sink.events
        s0_done = next(ev.t for ev in events
                       if ev.entity == "stage" and ev.entity_id == "p/s0"
                       and ev.transition == "completed")
        stops = [ev.t for ev in events
                 if ev.entity in ("master", "worker") and ev.transition == "stopped"]
        assert len(stops) == 3 and max(stops) < s0_done
        assert len(r.overlay_workers) == 2
        assert sum(w.completed for w in r.overlay_workers) == 8
        assert not engine.pilot.live


class TestSummaryShapes:
    def test_completion_stream_time_ordered(self):
        funnel = FunnelConfig(library_size=800, s1_fraction=0.02, cg_count=5,
                              top_binders=2, outliers_per_binder=2, seed=8)
        r = run_campaign(build_funnel_campaign(funnel))
        times = [c.t for c in r.completions]
        assert times == sorted(times)

    def test_events_time_ordered_globally(self):
        funnel = FunnelConfig(library_size=500, s1_fraction=0.02, cg_count=3,
                              top_binders=1, outliers_per_binder=2, seed=9)
        r = run_campaign(build_funnel_campaign(funnel))
        times = [ev.t for ev in r.sink.events]
        assert times == sorted(times)

    @pytest.mark.parametrize("which", ["walltime_cut", "overlay_funnel"])
    def test_completions_are_the_saved_terminal_task_events(self, which, tmp_path):
        from funnelsim.trace import load_trace
        from test_pinned_traces import run_overlay_funnel, walltime_cut_campaign
        if which == "walltime_cut":
            r = run_campaign(walltime_cut_campaign(),
                             overlay=MasterConfig(n_masters=1, workers_per_master=3, bulk_size=4))
        else:
            r = run_overlay_funnel()
        r.sink.save(tmp_path / "trace.jsonl")
        terminal = [(ev.t, ev.entity_id, ev.transition)
                    for ev in load_trace(tmp_path / "trace.jsonl")
                    if ev.entity == "task" and ev.transition in ("done", "failed", "canceled")]
        assert [(c.t, c.task_id, c.outcome) for c in r.completions] == terminal
        outcomes = {outcome for *_, outcome in terminal}
        assert outcomes == ({"done", "canceled"} if which == "walltime_cut" else {"done"})


def sleep_fn(tid, ms=1.0):
    return TaskDescriptor(tid, kind="function", cpus=1, duration_model=FixedDuration(0.0),
                          payload={"fn": "sleep_ms", "kwargs": {"ms": ms}})


def local_pilot():
    return pilot(nodes=1, cpus_per_node=1, walltime_s=3.0, backend="local")


class TestLocalBackend:
    @pytest.mark.parametrize("layout", ["two_pipelines", "two_stages"])
    def test_every_function_stage_gets_an_overlay(self, layout):
        if layout == "two_pipelines":
            pipes = [PipelineSpec(p, [StageSpec("s", [sleep_fn(f"{p}.t{i}") for i in range(4)])])
                     for p in ("p0", "p1")]
        else:
            pipes = [PipelineSpec("p0", [
                StageSpec(f"s{s}", [sleep_fn(f"s{s}.t{i}") for i in range(4)])
                for s in range(2)])]
        spec = CampaignSpec(pipes, local_pilot(), mode="local")
        r = run_campaign(spec, overlay=MasterConfig(n_masters=1, workers_per_master=2,
                                                    bulk_size=2))
        assert not r.walltime_hit
        assert {pid: s["status"] for pid, s in r.final_states.items()} == \
            {p.pipeline_id: "done" for p in pipes}

    def test_executable_stdout_feeds_the_next_stage(self):
        # An executable's stdout is the one output that arrives as JSON bytes.
        items = [{"id": f"x{i}", "true_score": float(-i)} for i in range(4)]
        exe = TaskDescriptor("exe", kind="executable", cpus=1, payload={
            "argv": [sys.executable, "-c", f"print({json.dumps({'items': items})!r})"]})
        spec = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [exe], post_hook=HookSpec(select_top_k, {"k": 2})),
            StageSpec("s1", [task("b0", dur=0.0), task("b1", dur=0.0)]),
        ])], pilot(nodes=1, cpus_per_node=1, walltime_s=30.0, backend="local"), mode="local")
        engine = Engine(spec)
        assert engine.run().final_states["p"]["status"] == "done"
        assert [t.payload for t in engine.states["p"].stage_tasks[1]] == [items[3], items[2]]

    def test_executable_killed_at_walltime(self, tmp_path):
        # The executable starts at t=0.5 s and would sleep for 30 s; the
        # 1.5 s walltime must kill it and reap it before run_campaign returns.
        pid_file = tmp_path / "pid"
        exe = TaskDescriptor("exe", kind="executable", cpus=1, payload={"argv": [
            sys.executable, "-c",
            "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); "
            "time.sleep(30)", str(pid_file)]})
        spec = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [task("a", dur=0.5)]),
            StageSpec("s1", [exe]),
        ])], pilot(nodes=1, cpus_per_node=1, walltime_s=1.5, backend="local"), mode="local")
        start = time.perf_counter()
        r = run_campaign(spec)
        assert time.perf_counter() - start < 5.0
        assert r.walltime_hit
        assert r.final_states["p"]["status"] == "canceled"
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two host cores")
    def test_completions_match_terminal_trace_events(self):
        # "bad" fails the pipeline while "slow" still runs; "slow" is
        # canceled, and that cancel is a completion like any other.
        def exe(tid, code):
            return TaskDescriptor(tid, kind="executable", cpus=1,
                                  payload={"argv": [sys.executable, "-c", code]})
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s0", [
            exe("bad", "raise SystemExit(1)"), exe("slow", "import time; time.sleep(3)")])])],
            pilot(nodes=1, cpus_per_node=2, walltime_s=30.0, backend="local"), mode="local")
        r = run_campaign(spec)
        terminal = [(ev.entity_id, ev.transition) for ev in r.sink.events
                    if ev.entity == "task" and ev.transition in ("done", "failed", "canceled")]
        assert [(c.task_id, c.outcome) for c in r.completions] == terminal
        assert terminal == [("bad", "failed"), ("slow", "canceled")]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two host cores")
    @pytest.mark.parametrize("stage", ["mixed", "function", "plain", "declared", "materialized",
                                       "fed", "fed_overlay"])
    def test_backends_reach_the_same_final_states(self, stage):
        # With an overlay config, a stage's function tasks run on its
        # overlay and its other tasks on the pilot, whatever the backend.
        # Without one ("declared", "materialized", "fed"), the pilot runs
        # every task, a function task declared in the spec or built by a
        # materializer alike.  A function task yields its payload on both
        # backends, so its outputs can feed a materializer ("fed").  Times
        # differ between the backends; outcomes must not.
        build = MaterializeSpec(lambda params, items: [sleep_fn("m0")])
        feed = MaterializeSpec(lambda params, items: [sleep_fn(f"m{i}")
                                                      for i in range(len(items))])
        stages = {
            "mixed": [StageSpec("s0", [task("plain", dur=0.2)] +
                                [sleep_fn(f"f{i}") for i in range(4)])],
            "function": [StageSpec("s0", [sleep_fn(f"f{i}") for i in range(4)])],
            "plain": [StageSpec("s0", [task(f"t{i}", dur=0.1) for i in range(3)])],
            "declared": [StageSpec("s0", [sleep_fn("f")])],
            "materialized": [StageSpec("s0", [task("plain", dur=0.05)]),
                             StageSpec("s1", materialize=build),
                             StageSpec("s2", [sleep_fn("f0")])],
            "fed": [StageSpec("s0", [sleep_fn("f0")]), StageSpec("s1", materialize=feed)],
        }[stage.removesuffix("_overlay")]
        overlay = (None if stage in ("declared", "materialized", "fed") else
                   MasterConfig(n_masters=1, workers_per_master=1, bulk_size=2))
        outcomes = {}
        for backend in ("simulated", "local"):
            spec = CampaignSpec([PipelineSpec("p", stages)],
                                pilot(nodes=1, cpus_per_node=2, walltime_s=10.0,
                                      backend=backend), mode=backend)
            r = run_campaign(spec, overlay=overlay)
            counts = Counter((ev.stage, ev.transition) for ev in r.sink.events
                             if ev.entity == "task")
            outcomes[backend] = (r.final_states, counts)
        assert outcomes["local"] == outcomes["simulated"]
        assert outcomes["local"][0]["p"]["status"] == "done"

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two host cores")
    def test_overlay_cut_at_walltime_books_no_busy_time_after_its_stop(self):
        # The one worker's 600 ms call outlives the 0.2 s walltime and
        # returns after the overlay stopped; that late return must not
        # add to the worker's busy time.
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s0", [
            sleep_fn(f"f{i}", ms=600.0) for i in range(2)])])],
            pilot(nodes=1, cpus_per_node=2, walltime_s=0.2, backend="local"), mode="local")
        r = run_campaign(spec, overlay=MasterConfig(n_masters=1, workers_per_master=1,
                                                    bulk_size=2))
        time.sleep(1.0)
        assert r.walltime_hit and len(r.overlay_workers) == 1
        assert all(w.busy_fraction() <= 1 + 1e-12 for w in r.overlay_workers)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two host cores")
    def test_materialized_multi_node_task_is_refused_before_its_stage_starts(self):
        # A local pilot's nodes share one host, so it runs single-node
        # tasks only; one that a materializer builds is refused as a
        # declared one is.
        two_node = TaskDescriptor("m0", kind="executable", cpus=1, nodes=2,
                                  payload={"argv": [sys.executable, "-c", "pass"]})
        build = MaterializeSpec(lambda params, items: [two_node])
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s0", [task("t0", dur=0.0)]),
                                                StageSpec("s1", materialize=build)])],
                            pilot(nodes=2, cpus_per_node=1, walltime_s=10.0, backend="local"),
                            mode="local")
        declared = replace(spec, pipelines=[PipelineSpec("p", [StageSpec("s0", [two_node])])])
        assert [str(v) for v in validate_campaign(declared)] == \
            ["[capacity] m0: needs 2 nodes, a local pilot runs single-node tasks only"]
        sink = TraceSink()
        with pytest.raises(ConfigError, match=r"p/s1 .*\[capacity\] m0"):
            run_campaign(spec, sink=sink)
        assert ("p/s1", "started") not in [(e.entity_id, e.transition) for e in sink.events]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two host cores")
    @pytest.mark.parametrize("case", ["fail_on_slot", "fail_on_worker", "fail_beside_worker",
                                      "kill_on_slot", "no_argv", "no_argv_beside_worker"])
    def test_failed_task_fails_its_pipeline_and_cancels_its_sibling(self, case):
        # A task that fails on a pilot slot or an overlay worker ends
        # ``failed`` with its message as its output; a kill on a pilot
        # slot has no worker to kill and fails the same way.  On the 1 x 1
        # overlay of "fail_on_worker" the failing task runs first and the
        # sibling waits; in the "beside" cases the sibling runs on a worker
        # as the task fails.  The failure stops the overlay at once, and
        # the sibling's late return adds no busy time.
        def fn(tid, name):
            return TaskDescriptor(tid, kind="function", cpus=1,
                                  duration_model=FixedDuration(0.0), payload={"fn": name})
        bad, message = {
            "fail_on_slot": (fn("bad", "fail"), "task failed"),
            "fail_on_worker": (fn("bad", "fail"), "task failed"),
            "fail_beside_worker": (fn("bad", "fail"), "task failed"),
            "kill_on_slot": (fn("bad", "kill_worker"), "worker killed by task"),
            "no_argv": (TaskDescriptor("bad", kind="executable", cpus=1), "no argv"),
            "no_argv_beside_worker": (TaskDescriptor("bad", kind="executable", cpus=1),
                                      "no argv"),
        }[case]
        spec = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [bad, sleep_fn("sib", ms=300.0)])])],
            pilot(nodes=1, cpus_per_node=2, walltime_s=10.0, backend="local"), mode="local")
        workers = {"fail_on_worker": 1, "fail_beside_worker": 2,
                   "no_argv_beside_worker": 1}.get(case)
        overlay = (MasterConfig(n_masters=1, workers_per_master=workers, bulk_size=2)
                   if workers else None)
        engine = Engine(spec, overlay=overlay)
        r = engine.run()
        assert r.final_states["p"]["status"] == "failed"
        assert r.final_states["p"]["task_states"] == {"bad": "failed", "sib": "canceled"}
        assert engine.states["p"].outputs["bad"] == message
        last = {e.entity_id: e.transition for e in r.sink.events if e.entity == "node"}
        on_slot = overlay is None or bad.kind == "executable"
        assert set(last.values()) == ({"idle"} if on_slot else set())
        assert engine.pilot.live == {}
        if overlay is None:
            return
        time.sleep(0.5)
        events = r.sink.events
        failed_at = [(e.entity, e.transition) for e in events].index(("pipeline", "failed"))
        stops = Counter(e.entity_id for e in events[:failed_at] if e.transition == "stopped")
        assert stops == {"ovl.p.s0.m00": 1, **{w.worker_id: 1 for w in r.overlay_workers}}
        assert len(r.overlay_workers) == workers
        assert not [e for e in events[failed_at:] if e.entity in ("worker", "master")]
        assert all(w.busy_fraction() <= 1 + 1e-12 for w in r.overlay_workers)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two host cores")
    @pytest.mark.parametrize("case", ["sibling_on_slot", "sibling_on_worker"])
    def test_late_notice_of_a_canceled_sibling_is_dropped(self, case):
        # Pipeline "a" fails at once and cancels its 300 ms sibling, whose
        # end still arrives while pipeline "b"'s 0.6 s task keeps the loop
        # running.  On a slot, ``Engine._finish`` drops that notice; on the
        # worker of a 1 x 1 overlay, ``_Overlay.on_fn_done`` does.
        if case == "sibling_on_slot":
            bad = TaskDescriptor("a.bad", kind="function", cpus=1,
                                 duration_model=FixedDuration(0.0), payload={"fn": "fail"})
            sib, overlay = task("a.sib", dur=0.3), None
        else:
            bad = TaskDescriptor("a.bad", kind="executable", cpus=1)
            sib = sleep_fn("a.sib", ms=300.0)
            overlay = MasterConfig(n_masters=1, workers_per_master=1, bulk_size=2)
        spec = CampaignSpec([PipelineSpec("a", [StageSpec("s0", [bad, sib])]),
                             PipelineSpec("b", [StageSpec("s0", [task("b.t", dur=0.6)])])],
                            pilot(nodes=1, cpus_per_node=2, walltime_s=10.0, backend="local"),
                            mode="local")
        r = run_campaign(spec, overlay=overlay)
        assert {pid: s["status"] for pid, s in r.final_states.items()} == \
            {"a": "failed", "b": "done"}
        events = r.sink.events
        assert [e.transition for e in events if e.entity_id == "a.sib"][-1] == "canceled"
        failed_at = [(e.entity_id, e.transition) for e in events].index(("a", "failed"))
        assert not [e for e in events[failed_at:]
                    if e.entity in ("worker", "master") and e.pipeline == "a"]
        assert len(r.overlay_workers) == (0 if overlay is None else 1)
        assert all(w.busy_fraction() <= 1 + 1e-12 for w in r.overlay_workers)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two host cores")
class TestLocalWorkerDeath:
    """A ``kill_worker`` task on a 1 x 3 local overlay: the first kill
    re-dispatches it to another worker, and the second fails it and the
    pipeline."""

    @pytest.fixture(scope="class")
    def run(self):
        kill = TaskDescriptor("k", kind="function", cpus=1, duration_model=FixedDuration(0.0),
                              payload={"fn": "kill_worker"})
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s0", [
            kill] + [sleep_fn(f"f{i}", ms=50.0) for i in range(5)])])],
            pilot(nodes=1, cpus_per_node=2, walltime_s=10.0, backend="local"), mode="local")
        engine = Engine(spec, overlay=MasterConfig(n_masters=1, workers_per_master=3,
                                                   bulk_size=6))
        return engine, engine.run()

    def test_killed_task_is_dispatched_again_once(self, run):
        _, r = run
        events = r.sink.events
        failed_at = next(i for i, e in enumerate(events)
                         if e.entity_id == "k" and e.transition == "failed")
        deaths = [e.entity_id for e in events[:failed_at] if e.transition == "stopped"]
        assert len(deaths) == 2 and len(set(deaths)) == 2
        assert [e.transition for e in events if e.entity_id == "k"] == \
            ["pending", "scheduled", "running", "failed"]

    def test_second_kill_fails_the_task_and_the_pipeline(self, run):
        engine, r = run
        assert r.final_states["p"]["status"] == "failed"
        assert r.final_states["p"]["task_states"]["k"] == "failed"
        assert engine.states["p"].outputs["k"] == "worker died twice"

    def test_each_worker_stops_once(self, run):
        _, r = run
        stopped = Counter(e.entity_id for e in r.sink.events
                          if e.entity == "worker" and e.transition == "stopped")
        assert stopped == {w.worker_id: 1 for w in r.overlay_workers}
        assert len(stopped) == 3

    def test_busy_fraction_at_most_one(self, run):
        _, r = run
        assert all(w.busy_fraction() <= 1 + 1e-12 for w in r.overlay_workers)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two host cores")
def test_master_that_loses_its_last_worker_fails_the_task():
    # On a 1 x 1 local overlay the kill leaves the master no worker to
    # re-dispatch to: the task fails, its pipeline fails, the waiting
    # sibling is canceled and the overlay tears down.  The run returns.
    kill = TaskDescriptor("k", kind="function", cpus=1, duration_model=FixedDuration(0.0),
                          payload={"fn": "kill_worker"})
    spec = CampaignSpec([PipelineSpec("p", [StageSpec("s0", [kill, sleep_fn("f0", ms=50.0)])])],
                        pilot(nodes=1, cpus_per_node=2, walltime_s=10.0, backend="local"),
                        mode="local")
    engine = Engine(spec, overlay=MasterConfig(n_masters=1, workers_per_master=1, bulk_size=2))
    r = engine.run()
    assert r.final_states["p"]["task_states"] == {"k": "failed", "f0": "canceled"}
    assert engine.states["p"].outputs["k"] == "master ovl.p.s0.m00 lost all workers"
    last = r.sink.events[-1]
    assert (last.entity, last.transition) == ("pilot", "released")
    stopped = Counter(e.entity_id for e in r.sink.events
                      if e.entity == "worker" and e.transition == "stopped")
    assert stopped == {"ovl.p.s0.w0000": 1}
    assert [w.worker_id for w in r.overlay_workers] == ["ovl.p.s0.w0000"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two host cores")
def test_death_of_a_task_canceled_while_it_ran_leaves_it_canceled(monkeypatch):
    # "bad" fails p at once, so "k" is canceled while it runs on p's 1 x 1
    # overlay, and the failure stops that overlay; pipeline q keeps the run
    # going until k's worker dies.  That late death is dropped and leaves k
    # canceled.
    def late_kill():
        time.sleep(0.2)
        raise WorkerKilled("late")
    monkeypatch.setitem(FUNCTIONS, "late_kill", late_kill)
    kill = TaskDescriptor("k", kind="function", cpus=1, duration_model=FixedDuration(0.0),
                          payload={"fn": "late_kill"})
    bad = TaskDescriptor("bad", kind="executable", cpus=1)
    spec = CampaignSpec([PipelineSpec("p", [StageSpec("s0", [kill, bad])]),
                         PipelineSpec("q", [StageSpec("s0", [task("long", dur=0.5)])])],
                        pilot(nodes=1, cpus_per_node=2, walltime_s=10.0, backend="local"),
                        mode="local")
    r = run_campaign(spec, overlay=MasterConfig(n_masters=1, workers_per_master=1, bulk_size=2))
    assert {pid: s["task_states"] for pid, s in r.final_states.items()} == \
        {"p": {"k": "canceled", "bad": "failed"}, "q": {"long": "done"}}
    assert [(e.entity_id, e.transition) for e in r.sink.events if e.entity == "worker"] == \
        [("ovl.p.s0.w0000", "ready"), ("ovl.p.s0.w0000", "busy"), ("ovl.p.s0.w0000", "stopped")]


def top_k_into_fixed_stage():
    items = [{"id": f"x{i}", "true_score": float(-i)} for i in range(4)]
    first = [task(f"a{i}", payload=item) for i, item in enumerate(items)]
    return CampaignSpec([PipelineSpec("p", [
        StageSpec("s0", first, post_hook=HookSpec(select_top_k, {"k": 2})),
        StageSpec("s1", [task("b0"), task("b1")]),
    ])], pilot(), seed=0)


def small_funnel():
    return build_funnel_campaign(FunnelConfig(library_size=1000, s1_fraction=0.04,
                                              cg_count=4, top_binders=1,
                                              outliers_per_binder=2, seed=4))


class TestSpecImmutability:
    @pytest.mark.parametrize("make_spec", [small_funnel, top_k_into_fixed_stage])
    def test_running_twice_leaves_spec_and_trace_unchanged(self, make_spec, tmp_path):
        spec = make_spec()
        snapshot = copy.deepcopy(spec)
        traces = []
        for i in range(2):
            r = run_campaign(spec)
            assert all(s["status"] == "done" for s in r.final_states.values())
            r.sink.save(tmp_path / f"trace{i}.jsonl")
            traces.append((tmp_path / f"trace{i}.jsonl").read_bytes())
        assert spec == snapshot
        assert traces[0] == traces[1]
        assert all(t.payload is None for t in spec.pipelines[0].stages[1].tasks)


class TestPerTaskState:
    def test_only_task_states_has_an_entry_per_task(self):
        # Whatever the run keeps per task lives in each pipeline's
        # task_states; no other map or set of the engine or its parts
        # is keyed by task.
        from test_pinned_traces import nearly_full_pilot_campaign
        spec = nearly_full_pilot_campaign()
        n_tasks = sum(len(st.tasks) for p in spec.pipelines for st in p.stages)
        engine = Engine(spec)
        r = engine.run()
        assert all(st["status"] == "done" for st in r.final_states.values())
        holders = [(engine, n_tasks), (engine.pilot, n_tasks), (engine.backend, n_tasks)]
        holders += [(st, len(st.task_states)) for st in engine.states.values()]
        for obj, n in holders:
            for attr, value in vars(obj).items():
                if attr != "task_states" and isinstance(value, (dict, set)):
                    assert len(value) < n, (type(obj).__name__, attr, len(value))
