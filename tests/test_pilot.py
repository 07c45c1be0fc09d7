"""Slot map arithmetic, first-fit placement, and executor timing."""
from collections import deque

import numpy as np
import pytest

import funnelsim as fs
from funnelsim.campaign import FixedDuration, TaskDescriptor
from funnelsim.engine import run_executor
from funnelsim.errors import CapacityError, StateError, UnsatisfiableError
from funnelsim.pilot import PilotSpec, acquire_pilot
from funnelsim.trace import busy_node_seconds, peak_concurrency


def task(tid, cpus=1, gpus=0, nodes=1, dur=1.0):
    return TaskDescriptor(tid, cpus=cpus, gpus=gpus, nodes=nodes,
                          duration_model=FixedDuration(dur))


def schedule(pilot, tasks):
    """One first-fit round over a fresh pool: (placements, queued ids)."""
    pool = deque(tasks)
    placements = pilot.schedule(pool)
    return placements, [t.task_id for t in pool]


class TestAcquire:
    def test_slot_totals(self):
        pilot = acquire_pilot(PilotSpec(nodes=2, cpus_per_node=42, gpus_per_node=6,
                                        walltime_s=10.0))
        free_c, free_g = pilot.slots.total_free()
        assert (free_c, free_g) == (84, 12)

    def test_nonpositive_walltime_rejected(self):
        with pytest.raises(CapacityError):
            acquire_pilot(PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=0,
                                    walltime_s=0.0))

    def test_local_pilot_capped_by_host_cores(self):
        with pytest.raises(CapacityError):
            acquire_pilot(PilotSpec(nodes=1000, cpus_per_node=64, gpus_per_node=0,
                                    walltime_s=10.0, backend="local"))

    def test_local_pilot_has_no_gpus(self):
        with pytest.raises(CapacityError):
            acquire_pilot(PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=1,
                                    walltime_s=10.0, backend="local"))

    def test_zero_slot_pilot_rejected(self):
        with pytest.raises(CapacityError):
            acquire_pilot(PilotSpec(nodes=1, cpus_per_node=0, gpus_per_node=0,
                                    walltime_s=10.0))


class TestSchedule:
    def test_ten_thousand_tasks_on_thousand_nodes(self):
        pilot = acquire_pilot(PilotSpec(nodes=1000, cpus_per_node=1, gpus_per_node=0,
                                        walltime_s=1e9))
        tasks = [task(f"t{i:05d}") for i in range(10_000)]
        placements, queued = schedule(pilot, tasks)
        assert len(placements) == 1000
        assert len(queued) == 9000
        # queued order preserved
        assert queued == [f"t{i:05d}" for i in range(1000, 10_000)]

    def test_pool_keeps_queue_order_and_shape_counts(self):
        pilot = acquire_pilot(PilotSpec(nodes=1, cpus_per_node=2, gpus_per_node=0,
                                        walltime_s=1.0))
        pool = deque([task("a", cpus=2), task("b"), task("c", cpus=2), task("d")])
        shapes = {(2, 0, 1): 2, (1, 0, 1): 2}
        placements = pilot.schedule(pool, shapes)
        assert [p.task_id for p in placements] == ["a"]
        assert [t.task_id for t in pool] == ["b", "c", "d"]
        assert shapes == {(2, 0, 1): 1, (1, 0, 1): 2}

    def test_empty_ready_list(self):
        pilot = acquire_pilot(PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=0,
                                        walltime_s=1.0))
        assert schedule(pilot, []) == ([], [])

    def test_gpu_slots_filled_lowest_first(self):
        pilot = acquire_pilot(PilotSpec(nodes=1, cpus_per_node=2, gpus_per_node=2,
                                        walltime_s=1.0))
        placements, queued = schedule(pilot, [
            task("g1", cpus=0, gpus=1), task("g2", cpus=0, gpus=1),
            task("g3", cpus=0, gpus=1)])
        assert [p.task_id for p in placements] == ["g1", "g2"]
        assert placements[0].gpu_slot_indices == [[0]]
        assert placements[1].gpu_slot_indices == [[1]]
        assert queued == ["g3"]

    def test_first_fit_takes_lowest_indexed_nodes(self):
        pilot = acquire_pilot(PilotSpec(nodes=4, cpus_per_node=2, gpus_per_node=0,
                                        walltime_s=1.0))
        schedule(pilot, [task("hold", cpus=2)])
        placements, _ = schedule(pilot, [task("next", cpus=2)])
        assert placements[0].node_indices == [1]

    def test_multi_node_placement(self):
        pilot = acquire_pilot(PilotSpec(nodes=4, cpus_per_node=2, gpus_per_node=0,
                                        walltime_s=1.0))
        placements, _ = schedule(pilot, [task("wide", cpus=2, nodes=3, dur=1.0)])
        assert placements[0].node_indices == [0, 1, 2]

    def test_unsatisfiable_distinct_from_queued(self):
        pilot = acquire_pilot(PilotSpec(nodes=2, cpus_per_node=4, gpus_per_node=0,
                                        walltime_s=1.0))
        with pytest.raises(UnsatisfiableError):
            schedule(pilot, [task("giant", cpus=5)])
        with pytest.raises(UnsatisfiableError):
            schedule(pilot, [task("wide", cpus=1, nodes=3)])

    def test_gpu_task_consumes_host_cpu_slot(self):
        pilot = acquire_pilot(PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=2,
                                        walltime_s=1.0))
        placements, queued = schedule(pilot, [
            task("g1", cpus=0, gpus=1), task("g2", cpus=0, gpus=1)])
        # one cpu slot on the node, so only one gpu task fits
        assert len(placements) == 1 and queued == ["g2"]
        pilot2 = acquire_pilot(PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=2,
                                         walltime_s=1.0, gpu_host_cpu=False))
        placements, queued = schedule(pilot2, [
            task("g1", cpus=0, gpus=1), task("g2", cpus=0, gpus=1)])
        assert len(placements) == 2 and queued == []


class TestRelease:
    def test_place_release_restores_slotmap(self):
        pilot = acquire_pilot(PilotSpec(nodes=2, cpus_per_node=3, gpus_per_node=2,
                                        walltime_s=1.0))
        before = pilot.slots.total_free()
        placements, _ = schedule(pilot, [task("t", cpus=2, gpus=1)])
        assert pilot.slots.total_free() != before
        pilot.release(placements[0])
        assert pilot.slots.total_free() == before

    def test_double_release_is_state_error(self):
        pilot = acquire_pilot(PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=0,
                                        walltime_s=1.0))
        placements, _ = schedule(pilot, [task("t")])
        pilot.release(placements[0])
        with pytest.raises(StateError):
            pilot.release(placements[0])

    def test_interleaved_place_release_bookkeeping(self):
        # Conservation oracle: replay the same sequence against plain
        # counters; busy slot totals must match at every step.
        rng = np.random.default_rng(17)
        pilot = acquire_pilot(PilotSpec(nodes=8, cpus_per_node=4, gpus_per_node=2,
                                        walltime_s=1.0))
        total_c, total_g = 8 * 4, 8 * 2
        live = {}
        expect_busy_c = expect_busy_g = 0
        for i in range(100):
            if live and rng.random() < 0.4:
                tid = list(live)[int(rng.integers(len(live)))]
                pl, (c, g) = live.pop(tid)
                pilot.release(pl)
                expect_busy_c -= c
                expect_busy_g -= g
            else:
                c = int(rng.integers(0, 3))
                g = int(rng.integers(0, 2))
                if c + g == 0:
                    c = 1
                eff_c = pilot.spec.effective_cpus(c, g)
                placements, queued = schedule(pilot, [task(f"t{i}", cpus=c, gpus=g)])
                if placements:
                    live[f"t{i}"] = (placements[0], (eff_c, g))
                    expect_busy_c += eff_c
                    expect_busy_g += g
            busy_c, busy_g = pilot.slots.total_busy()
            assert (busy_c, busy_g) == (expect_busy_c, expect_busy_g)
            free_c, free_g = pilot.slots.total_free()
            assert free_c + busy_c == total_c
            assert free_g + busy_g == total_g


class TestExecutor:
    def test_two_fixed_tasks_complete_in_duration_order(self):
        res = PilotSpec(nodes=2, cpus_per_node=1, gpus_per_node=0, walltime_s=100.0)
        r = run_executor(res, [task("a", dur=5.0), task("b", dur=3.0)])
        assert [(c.t, c.task_id) for c in r.completions] == [(3.0, "b"), (5.0, "a")]

    def test_serial_tasks_on_one_node(self):
        res = PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=0, walltime_s=1e6)
        r = run_executor(res, [task(f"t{i}", dur=10.0) for i in range(3)])
        assert [c.t for c in r.completions] == [10.0, 20.0, 30.0]

    def test_walltime_cancels_third_task(self):
        res = PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=0, walltime_s=25.0)
        r = run_executor(res, [task(f"t{i}", dur=10.0) for i in range(3)])
        assert [(c.t, c.outcome) for c in r.completions] == [
            (10.0, "done"), (20.0, "done"), (25.0, "canceled")]
        assert r.walltime_hit
        assert r.final_states["exec"]["status"] == "canceled"

    def test_peak_concurrency_bounded_by_slots(self):
        # 3-gpu tasks on 2 nodes x 6 gpus: floor(12/3) = 4 concurrent.
        res = PilotSpec(nodes=2, cpus_per_node=12, gpus_per_node=6, walltime_s=1e6)
        tasks = [task(f"t{i}", cpus=0, gpus=3, dur=2.0) for i in range(10)]
        r = run_executor(res, tasks)
        assert peak_concurrency(r.sink.events) == 4

    def test_work_conservation_no_idle_while_feasible(self):
        # One long task plus shorts: the shorts keep the second slot busy
        # back to back; total busy time matches the sum of durations.
        res = PilotSpec(nodes=2, cpus_per_node=1, gpus_per_node=0, walltime_s=1e6)
        tasks = [task("long", dur=10.0)] + [task(f"s{i}", dur=1.0) for i in range(10)]
        r = run_executor(res, tasks)
        assert r.makespan == 10.0
        assert busy_node_seconds(r.sink.events) == 20.0

    def test_simulated_mode_deterministic_event_log(self):
        res = PilotSpec(nodes=3, cpus_per_node=2, gpus_per_node=0, walltime_s=1e6)

        def run_once():
            tasks = [TaskDescriptor(f"t{i}", cpus=1,
                                    duration_model=fs.SampledDuration("S1", 3.0, 1.0,
                                                                      "lognormal", (1.0,)))
                     for i in range(20)]
            r = run_executor(res, tasks, seed=99)
            return [ev.to_json() for ev in r.sink.events]

        assert run_once() == run_once()
