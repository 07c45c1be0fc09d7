"""Bulk partitioning, round-robin, least-outstanding dispatch, and the
overlay executor."""
import time

import numpy as np
import pytest

from funnelsim.campaign import FixedDuration, SampledDuration, TaskDescriptor
from funnelsim.engine import run_overlay
from funnelsim.errors import DispatchError
from funnelsim.overlay import (Bulk, Master, MasterConfig, WorkerState,
                               partition_bulks, round_robin_assign)
from funnelsim.pilot import Pilot, PilotSpec
from funnelsim.trace import TraceSink


def ftask(tid, dur=1.0, sigma=None):
    if sigma is None:
        dm = FixedDuration(dur)
    else:
        dm = SampledDuration("S1", dur, 1.0, "lognormal", (sigma,))
    return TaskDescriptor(tid, kind="function", cpus=1, gpus=0, duration_model=dm)


class TestPartition:
    def test_chunks_preserve_order(self):
        bulks = partition_bulks(list(range(10)), 4)
        assert [len(b.tasks) for b in bulks] == [4, 4, 2]
        assert bulks[0].tasks == [0, 1, 2, 3]
        assert bulks[2].tasks == [8, 9]

    def test_singletons(self):
        assert [b.tasks for b in partition_bulks([1, 2, 3, 4, 5], 1)] == [[1], [2], [3], [4], [5]]

    def test_empty(self):
        assert partition_bulks([], 8) == []

    def test_bad_bulk_size(self):
        with pytest.raises(ValueError):
            partition_bulks([1], 0)


class TestRoundRobin:
    def test_seven_items_three_bins(self):
        bins = round_robin_assign(list(range(7)), 3)
        assert [len(b) for b in bins] == [3, 2, 2]
        assert bins[0] == [0, 3, 6]

    def test_even_split(self):
        assert [len(b) for b in round_robin_assign(list(range(6)), 3)] == [2, 2, 2]

    def test_large_spread_at_most_one(self):
        sizes = [len(b) for b in round_robin_assign(list(range(10_000)), 7)]
        assert max(sizes) - min(sizes) <= 1


def make_master(outstanding, policy="least_outstanding"):
    workers = [WorkerState(f"w{i}", "m0", outstanding=o) for i, o in enumerate(outstanding)]
    return Master("m0", workers, policy=policy), workers


class TestDispatch:
    def test_single_worker_gets_everything(self):
        master, workers = make_master([0])
        got = master.dispatch(Bulk("b0", [ftask(f"t{i}") for i in range(5)]))
        assert {w: [t.task_id for t in ts] for w, ts in got.items()} == \
            {"w0": ["t0", "t1", "t2", "t3", "t4"]}
        assert workers[0].outstanding == 5

    def test_two_idle_workers_split_evenly(self):
        master, workers = make_master([0, 0])
        master.dispatch(Bulk("b0", [ftask(f"t{i}") for i in range(4)]))
        assert [w.outstanding for w in workers] == [2, 2]

    def test_least_outstanding_sequence(self):
        # workers at {3, 0, 1}, bulk of 3: w1 takes the first task, ties
        # at outstanding=1 go to the lowest worker, so w1 takes the
        # second and w2 the third; final counts {3, 2, 2}.
        master, workers = make_master([3, 0, 1])
        got = master.dispatch(Bulk("b0", [ftask("a"), ftask("b"), ftask("c")]))
        assert {w: [t.task_id for t in ts] for w, ts in got.items()} == \
            {"w1": ["a", "b"], "w2": ["c"]}
        assert [w.outstanding for w in workers] == [3, 2, 2]

    def test_no_workers_is_dispatch_error(self):
        master = Master("m0", [])
        with pytest.raises(DispatchError):
            master.dispatch(Bulk("b0", [ftask("t")]))

    def test_spread_at_most_one_from_idle_start(self):
        for n in (11, 16, 29):
            master, workers = make_master([0] * 8)
            master.dispatch(Bulk("b0", [ftask(f"t{i}") for i in range(n)]))
            counts = [w.outstanding for w in workers]
            assert max(counts) - min(counts) <= 1

    def test_worker_queue_preserves_assignment_order(self):
        master, workers = make_master([0, 0])
        master.dispatch(Bulk("b0", [ftask(f"t{i}") for i in range(6)]))
        for w in workers:
            ids = [t.task_id for t in w.queue]
            assert ids == sorted(ids, key=lambda s: int(s[1:]))


def overlay_pilot(cpus=12):
    return PilotSpec(nodes=2, cpus_per_node=cpus, gpus_per_node=0, walltime_s=1e9)


class TestRunOverlay:
    def test_ten_unit_tasks_two_workers_makespan_five(self):
        cfg = MasterConfig(n_masters=1, workers_per_master=2, bulk_size=4)
        tasks = [ftask(f"t{i}", dur=1.0) for i in range(10)]
        r = run_overlay(overlay_pilot(), cfg, tasks)
        assert len(r.completions) == 10
        assert max(c.t for c in r.completions) == 5.0

    def test_every_task_dispatched_exactly_once(self):
        cfg = MasterConfig(n_masters=2, workers_per_master=3, bulk_size=5)
        tasks = [ftask(f"t{i:03d}", dur=1.0, sigma=0.5) for i in range(200)]
        r = run_overlay(overlay_pilot(), cfg, tasks, seed=4)
        done = [c.task_id for c in r.completions if c.outcome == "done"]
        assert sorted(done) == sorted(t.task_id for t in tasks)
        assert len(done) == len(set(done))
        scheduled = [ev for ev in r.sink.events
                     if ev.entity == "task" and ev.transition == "scheduled"]
        assert len(scheduled) == 200

    def test_masters_serve_exactly_their_cap(self):
        cfg = MasterConfig(n_masters=2, workers_per_master=64, bulk_size=16)
        pilot = PilotSpec(nodes=10, cpus_per_node=13, gpus_per_node=0, walltime_s=1e9)
        tasks = [ftask(f"t{i}", dur=0.1) for i in range(50)]
        r = run_overlay(pilot, cfg, tasks)
        owners = {}
        for w in r.overlay_workers:
            owners.setdefault(w.master_id, 0)
            owners[w.master_id] += 1
        assert sorted(owners.values()) == [64, 64]

    def test_overlay_that_never_fits_is_refused_before_the_run(self):
        cfg = MasterConfig(n_masters=1, workers_per_master=3, bulk_size=8)
        gpu_task = TaskDescriptor("g", kind="function", cpus=0, gpus=1,
                                  duration_model=FixedDuration(1.0))
        sink = TraceSink()
        for spec, task in (
                (PilotSpec(nodes=1, cpus_per_node=3, gpus_per_node=0, walltime_s=10.0),
                 ftask("t")),
                (PilotSpec(nodes=1, cpus_per_node=3, gpus_per_node=6, walltime_s=10.0),
                 gpu_task),
                # No cpu for a master, whatever the workers take.
                (PilotSpec(nodes=2, cpus_per_node=0, gpus_per_node=8, walltime_s=10.0,
                           gpu_host_cpu=False), gpu_task)):
            with pytest.raises(DispatchError, match="lacks capacity for 1 masters [+] 3 workers"):
                run_overlay(spec, cfg, [task], sink=sink)
        assert sink.events == []
        # Gpu workers without a host cpu fit where cpu workers do not.
        spec = PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=3, walltime_s=10.0,
                         gpu_host_cpu=False)
        assert len(run_overlay(spec, cfg, [gpu_task]).completions) == 1

    def test_overlay_beyond_the_pilot_totals_is_refused_before_its_workers_are_built(self):
        # Each worker takes a gpu and, under gpu_host_cpu, a host cpu, so the
        # 16 cpus hold fewer than 16 workers; the million gpus do not help.
        spec = PilotSpec(nodes=8, cpus_per_node=2, gpus_per_node=10**6, walltime_s=10.0)
        assert spec.gpu_host_cpu
        cfg = MasterConfig(n_masters=1, workers_per_master=10**6)
        start = time.perf_counter()
        with pytest.raises(DispatchError,
                           match="^pilot lacks capacity for 1 masters [+] 1000000 workers$"):
            run_overlay(spec, cfg, [ftask("t")])
        assert time.perf_counter() - start < 0.5

    def test_workers_take_gpu_slots_on_a_pilot_with_gpus(self, monkeypatch):
        # The master takes one of the two cpus, so two cpu workers would not
        # fit; on a pilot with gpus the workers take gpus, whatever the tasks ask.
        placed = []
        real_schedule = Pilot.schedule

        def schedule(self, pool, shapes=None):
            placements = real_schedule(self, pool, shapes)
            placed.extend((pl.task_id, pl.cpus, pl.gpus) for pl in placements)
            return placements

        monkeypatch.setattr(Pilot, "schedule", schedule)
        spec = PilotSpec(nodes=1, cpus_per_node=2, gpus_per_node=2, walltime_s=10.0,
                         gpu_host_cpu=False)
        cfg = MasterConfig(n_masters=1, workers_per_master=2, bulk_size=8)
        r = run_overlay(spec, cfg, [ftask(f"t{i}", dur=1.0) for i in range(4)])
        assert r.final_states["exec"]["status"] == "done"
        assert r.makespan == 2.0
        assert [p for p in placed if p[0].startswith("ovl.exec.")] == [
            ("ovl.exec.batch.m00", 1, 0), ("ovl.exec.batch.w0000", 0, 1),
            ("ovl.exec.batch.w0001", 0, 1)]

    def test_overlay_needs_pilot_capacity(self):
        cfg = MasterConfig(n_masters=1, workers_per_master=64, bulk_size=8)
        with pytest.raises(DispatchError):
            run_overlay(PilotSpec(nodes=1, cpus_per_node=4, gpus_per_node=0,
                                  walltime_s=10.0), cfg, [ftask("t")])

    def test_throughput_monotone_in_worker_count(self):
        # Mean completion rate over 20 seeded runs must not decrease as
        # workers double.
        rates = {}
        for workers in (2, 4, 8):
            cfg = MasterConfig(n_masters=1, workers_per_master=workers, bulk_size=16)
            vals = []
            for seed in range(20):
                tasks = [ftask(f"t{seed}.{i:03d}", dur=1.0, sigma=0.8)
                         for i in range(160)]
                r = run_overlay(overlay_pilot(), cfg, tasks, seed=seed)
                span = max(c.t for c in r.completions)
                vals.append(len(r.completions) / span)
            rates[workers] = float(np.mean(vals))
        assert rates[2] < rates[4] < rates[8]

    def test_worker_busy_fraction_summary(self):
        cfg = MasterConfig(n_masters=1, workers_per_master=4, bulk_size=8)
        tasks = [ftask(f"t{i:03d}", dur=1.0) for i in range(40)]
        r = run_overlay(overlay_pilot(), cfg, tasks)
        assert len(r.overlay_workers) == 4
        for w in r.overlay_workers:
            assert w.completed == 10
            assert w.busy_fraction() == pytest.approx(1.0)

    def test_walltime_cut_charges_only_the_run_part_of_busy_time(self):
        # Two workers each start a 100 s task at t=0; the walltime cuts them at 30 s.
        cfg = MasterConfig(n_masters=1, workers_per_master=2, bulk_size=4)
        pilot = PilotSpec(nodes=1, cpus_per_node=4, gpus_per_node=0, walltime_s=30.0)
        r = run_overlay(pilot, cfg, [ftask(f"t{i}", dur=100.0) for i in range(4)])
        assert r.walltime_hit
        assert [(w.busy_time_s, w.stopped_t) for w in r.overlay_workers] == [(30.0, 30.0)] * 2
        assert all(w.busy_fraction() <= 1.0 for w in r.overlay_workers)

    def test_walltime_cut_keeps_busy_fraction_at_most_one(self):
        cfg = MasterConfig(n_masters=2, workers_per_master=5, bulk_size=3)
        for seed in range(5):
            tasks = [ftask(f"t{i:03d}", dur=2.0, sigma=1.0) for i in range(120)]
            r = run_overlay(PilotSpec(nodes=2, cpus_per_node=8, gpus_per_node=0,
                                      walltime_s=7.5), cfg, tasks, seed=seed)
            assert r.walltime_hit and len(r.overlay_workers) == 10
            assert all(0 < w.busy_fraction() <= 1.0 for w in r.overlay_workers)
