"""Randomized campaigns through the engine, checking global invariants:
stage barriers, replay equality, determinism, and slot conservation.

One closed form is an exact oracle.  An overlay with one master, W workers
and ``bulk_size`` at least the task count n dispatches one bulk at the
bootstrap time b.  Least-outstanding dispatch breaks ties to the lowest
worker index, so task i goes to worker i mod W, and each worker runs its
tasks back to back.  Worker w's busy time is therefore ``sum(d[w::W])``,
and the makespan is the largest end time b + d[w] + d[w + W] + ...,
summed in that order.  A highest-index tie rule breaks the per-worker sums.
"""
from collections import deque

import numpy as np

from funnelsim.campaign import (CampaignSpec, FixedDuration, PipelineSpec,
                                SampledDuration, StageSpec, TaskDescriptor,
                                replay_trace)
from funnelsim.engine import Engine, run_campaign, run_overlay
from funnelsim.overlay import MasterConfig
from funnelsim.pilot import Pilot, PilotSpec
from funnelsim.trace import busy_node_seconds

from test_engine import stage_barrier_ok


def random_campaign(rng, seed):
    nodes = int(rng.integers(1, 6))
    cpn = int(rng.integers(1, 5))
    gpn = int(rng.integers(0, 3))
    pilot = PilotSpec(nodes=nodes, cpus_per_node=cpn, gpus_per_node=gpn,
                      walltime_s=1e9)
    pipelines = []
    for p in range(int(rng.integers(1, 4))):
        stages = []
        for s in range(int(rng.integers(1, 4))):
            tasks = []
            for t in range(int(rng.integers(1, 7))):
                gpus = int(rng.integers(0, gpn + 1))
                cpus = int(rng.integers(0 if gpus else 1, cpn + 1))
                if gpus and pilot.effective_cpus(cpus, gpus) > cpn:
                    cpus, gpus = 1, 0
                if rng.random() < 0.5:
                    dm = FixedDuration(float(rng.uniform(0.1, 3.0)))
                else:
                    dm = SampledDuration("S1", float(rng.uniform(0.5, 2.0)), 1.0,
                                         "lognormal", (float(rng.uniform(0, 1)),))
                tasks.append(TaskDescriptor(f"p{p}.s{s}.t{t}", cpus=cpus, gpus=gpus,
                                            duration_model=dm))
            stages.append(StageSpec(f"s{s}", tasks))
        pipelines.append(PipelineSpec(f"p{p}", stages))
    mode = "sequential" if rng.random() < 0.3 else "concurrent"
    return CampaignSpec(pipelines, pilot, seed=seed, pipeline_mode=mode)


def overlay_fits(pilot, config):
    """Whether the overlay's masters and workers all fit the idle pilot,
    with gpu workers on a pilot that has gpus and cpu workers otherwise."""
    gpu_workers = pilot.gpus_per_node > 0
    demands = deque(TaskDescriptor(f"m{m}", cpus=1) for m in range(config.n_masters))
    demands.extend(TaskDescriptor(f"w{w}", cpus=0 if gpu_workers else 1, gpus=int(gpu_workers))
                   for w in range(config.n_masters * config.workers_per_master))
    Pilot(pilot).schedule(demands)
    return not demands


def random_overlay_campaign(rng, seed):
    """A campaign whose stages are plain, function-only or mixed, with an
    overlay that fits the idle pilot (gpu workers if the pilot has gpus,
    else cpu workers), and a walltime that may cut the run at any point."""
    nodes = int(rng.integers(1, 4))
    cpn = int(rng.integers(2, 5))
    gpn = int(rng.integers(0, 3))
    walltime = float(rng.uniform(0.5, 12.0)) if rng.random() < 0.6 else 1e9
    pilot = PilotSpec(nodes=nodes, cpus_per_node=cpn, gpus_per_node=gpn, walltime_s=walltime,
                      sched_gap_s=float(rng.choice([0.0, 0.25])))
    pipelines = []
    for p in range(int(rng.integers(1, 4))):
        stages = []
        for s in range(int(rng.integers(1, 4))):
            function_share = float(rng.choice([0.0, 0.5, 1.0]))
            tasks = []
            for t in range(int(rng.integers(1, 9))):
                dm = FixedDuration(float(rng.uniform(0.1, 3.0)))
                if rng.random() < function_share:
                    gpus = int(gpn > 0 and rng.random() < 0.3)
                    tasks.append(TaskDescriptor(f"p{p}.s{s}.f{t}", kind="function", cpus=1,
                                                gpus=gpus, duration_model=dm))
                else:
                    gpus = int(rng.integers(0, gpn + 1))
                    tasks.append(TaskDescriptor(f"p{p}.s{s}.t{t}", duration_model=dm,
                                                cpus=int(rng.integers(1, cpn + 1)), gpus=gpus))
            stages.append(StageSpec(f"s{s}", tasks))
        pipelines.append(PipelineSpec(f"p{p}", stages))
    mode = "sequential" if rng.random() < 0.3 else "concurrent"
    while True:
        overlay = MasterConfig(n_masters=int(rng.integers(1, 3)),
                               workers_per_master=int(rng.integers(1, 4)),
                               bulk_size=int(rng.integers(1, 5)),
                               rebalance_policy=str(rng.choice(["least_outstanding",
                                                                "round_robin"])),
                               low_water=int(rng.integers(0, 3)))
        if overlay_fits(pilot, overlay):
            return CampaignSpec(pipelines, pilot, seed=seed, pipeline_mode=mode), overlay


def logged_releases(engine):
    """Log each placement the engine's pilot releases, with the number of
    events recorded before the release."""
    log, release = [], engine.pilot.release

    def logged(placement):
        log.append((len(engine.sink), placement))
        release(placement)

    engine.pilot.release = logged
    return log


def check_cut_order(engine, releases, trial):
    """A walltime cut stops pipelines as a failure does: their canceled
    events come pipeline by pipeline, each pipeline's in its current
    stage's declaration order, and a task that held slots is released
    before its cancel, with only the idle events of its nodes between."""
    events = engine.sink.events
    canceled = {ev.entity_id: i for i, ev in enumerate(events)
                if ev.entity == "task" and ev.transition == "canceled"}
    pids = [events[i].pipeline for i in canceled.values()]
    assert pids == sorted(pids, key=list(engine.states).index), trial
    for pid, state in engine.states.items():
        ids = [tid for tid, i in canceled.items() if events[i].pipeline == pid]
        assert ids == [task.task_id for task in state.current_tasks()
                       if task.task_id in ids], trial
    for at, pl in releases:
        if pl.task_id in canceled:
            assert at <= canceled[pl.task_id], trial
            nodes = {f"{engine.pilot.pilot_id}/{n}" for n in pl.node_indices}
            assert all(ev.transition == "idle" and ev.entity_id in nodes
                       for ev in events[at:canceled[pl.task_id]]), trial


def test_random_overlay_campaigns_hold_invariants(tmp_path):
    cuts = 0
    for trial in range(200):
        spec, overlay = random_overlay_campaign(np.random.default_rng(trial + 1000), seed=trial)
        traces, busy = [], []
        for run in range(2):
            engine = Engine(spec, overlay=overlay)
            releases = logged_releases(engine)
            r = engine.run()
            assert not engine.pilot.live, trial
            if r.walltime_hit:
                check_cut_order(engine, releases, trial)
            r.sink.save(tmp_path / f"{run}.jsonl")
            traces.append((tmp_path / f"{run}.jsonl").read_bytes())
            busy.append([w.busy_time_s for w in r.overlay_workers])
        assert traces[0] == traces[1], trial
        assert busy[0] == busy[1], trial
        cuts += r.walltime_hit
        finals = {s["status"] for s in r.final_states.values()}
        assert finals <= ({"done", "canceled"} if r.walltime_hit else {"done"}), trial
        assert stage_barrier_ok(r.sink.events), trial
        assert replay_trace(r.sink.events) == r.final_states, trial
        last = {}
        for ev in r.sink.events:
            if ev.entity == "node":
                last[ev.entity_id] = ev.transition
        assert all(tr == "idle" for tr in last.values()), trial
        # A worker's busy time is a sum of durations and its span a
        # difference of summed times, so the two may round apart.
        assert all(w.busy_fraction(r.makespan) <= 1 + 1e-12 for w in r.overlay_workers), trial
    assert 0 < cuts < 200


def test_one_bulk_overlay_matches_its_closed_form():
    for trial in range(200):
        rng = np.random.default_rng(trial + 2000)
        n_workers = int(rng.integers(1, 13))
        n_tasks = int(rng.integers(1, 81))
        bootstrap = float(rng.choice([0.0, 0.5]))
        # Room for the master and every worker on each node, with or
        # without gpus, so both worker kinds run.
        gpn = int(rng.integers(n_workers, n_workers + 3)) if rng.random() < 0.5 else 0
        pilot = PilotSpec(nodes=int(rng.integers(1, 4)), walltime_s=1e9,
                          cpus_per_node=int(rng.integers(n_workers + 1, n_workers + 4)),
                          gpus_per_node=gpn, bootstrap_s=bootstrap)
        overlay = MasterConfig(n_masters=1, workers_per_master=n_workers,
                               bulk_size=int(rng.integers(n_tasks, n_tasks + 5)),
                               low_water=int(rng.integers(0, 3)))
        durations = [float(d) for d in rng.uniform(0.1, 3.0, size=n_tasks)]
        tasks = [TaskDescriptor(f"f{i}", kind="function", cpus=1,
                                duration_model=FixedDuration(d))
                 for i, d in enumerate(durations)]
        r = run_overlay(pilot, overlay, tasks, seed=trial)
        assert [w.busy_time_s for w in r.overlay_workers] == \
            [sum(durations[w::n_workers]) for w in range(n_workers)], trial
        ends = []
        for w in range(n_workers):
            t = bootstrap
            for d in durations[w::n_workers]:
                t += d
            ends.append(t)
        assert r.makespan == max(ends), trial


def test_random_campaigns_hold_invariants():
    for trial in range(25):
        rng = np.random.default_rng(trial)
        spec = random_campaign(rng, seed=trial)
        r = run_campaign(spec)
        assert all(s["status"] == "done" for s in r.final_states.values()), trial
        assert stage_barrier_ok(r.sink.events), trial
        assert replay_trace(r.sink.events) == r.final_states, trial
        times = [ev.t for ev in r.sink.events]
        assert times == sorted(times), trial
        # every busy node returned to idle
        last = {}
        for ev in r.sink.events:
            if ev.entity == "node":
                last[ev.entity_id] = ev.transition
        assert all(tr == "idle" for tr in last.values()), trial


def test_random_campaigns_are_deterministic(tmp_path):
    for trial in range(5):
        rng1 = np.random.default_rng(trial + 100)
        rng2 = np.random.default_rng(trial + 100)
        r1 = run_campaign(random_campaign(rng1, seed=trial))
        r2 = run_campaign(random_campaign(rng2, seed=trial))
        r1.sink.save(tmp_path / "1.jsonl")
        r2.sink.save(tmp_path / "2.jsonl")
        assert (tmp_path / "1.jsonl").read_bytes() == (tmp_path / "2.jsonl").read_bytes()


def test_busy_node_seconds_matches_durations_for_full_node_tasks():
    for trial in range(10):
        rng = np.random.default_rng(trial + 50)
        nodes = int(rng.integers(1, 5))
        pilot = PilotSpec(nodes=nodes, cpus_per_node=2, gpus_per_node=0,
                          walltime_s=1e9)
        durations = rng.uniform(0.2, 4.0, size=int(rng.integers(1, 12)))
        tasks = [TaskDescriptor(f"t{i}", cpus=2,
                                duration_model=FixedDuration(float(d)))
                 for i, d in enumerate(durations)]
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s", tasks)])],
                            pilot, seed=trial)
        r = run_campaign(spec)
        assert abs(busy_node_seconds(r.sink.events) - durations.sum()) < 1e-9
