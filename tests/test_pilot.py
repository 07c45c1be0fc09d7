"""Free-slot counts, first-fit placement, and executor timing."""
import heapq
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np
import pytest

import funnelsim as fs
from funnelsim.campaign import FixedDuration, TaskDescriptor
from funnelsim.engine import run_executor
from funnelsim.errors import CapacityError, StateError, UnsatisfiableError
from funnelsim.pilot import Pilot, PilotSpec, acquire_pilot
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
        assert (pilot.free_cpus.sum(), pilot.free_gpus.sum()) == (84, 12)

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

    def test_placements_carry_the_placed_task(self):
        pilot = acquire_pilot(PilotSpec(nodes=2, cpus_per_node=2, gpus_per_node=1,
                                        walltime_s=1.0))
        first = task("first", cpus=2)
        pl = pilot.place_one(first)
        assert pl.task is first
        tasks = [task("a", cpus=0, gpus=1), task("b"), task("c", cpus=2)]
        placements, queued = schedule(pilot, tasks)
        assert len(placements) == 2
        assert all(p.task is t for p, t in zip(placements, tasks))
        assert queued == ["c"]
        # The task is carried, not compared or shown.
        assert pl == fs.pilot.Placement("first", [0], 2, 0, task("other"))
        assert "task=" not in repr(pl)

    def test_shape_counts_are_keyed_by_raw_demand(self):
        # With the gpu host-cpu rule, demands (0, 1, 1) and (1, 1, 1) take
        # the same slots but are counted apart; each is computed once per
        # attempt, in place_one.
        calls = []

        class CountingPilot(Pilot):
            def task_shape(self, t):
                calls.append(t.task_id)
                return super().task_shape(t)

        pilot = CountingPilot(PilotSpec(nodes=1, cpus_per_node=2, gpus_per_node=3,
                                        walltime_s=1.0))
        pool = deque([task("a", cpus=0, gpus=1), task("b", cpus=1, gpus=1),
                      task("c", cpus=0, gpus=1), task("d", cpus=1, gpus=1)])
        shapes = Counter((t.cpus, t.gpus, t.nodes) for t in pool)
        placements = pilot.schedule(pool, shapes)
        assert [p.task_id for p in placements] == ["a", "b"]
        assert [t.task_id for t in pool] == ["c", "d"]
        assert shapes == {(0, 1, 1): 1, (1, 1, 1): 1}
        # c and d each miss once; no attempt computes a shape twice.
        assert calls == ["a", "b", "c", "d"]

    def test_empty_ready_list(self):
        pilot = acquire_pilot(PilotSpec(nodes=1, cpus_per_node=1, gpus_per_node=0,
                                        walltime_s=1.0))
        assert schedule(pilot, []) == ([], [])

    def test_gpu_slots_filled_lowest_first(self):
        pilot = acquire_pilot(PilotSpec(nodes=2, cpus_per_node=2, gpus_per_node=2,
                                        walltime_s=1.0))
        placements, queued = schedule(pilot, [
            task("g1", cpus=0, gpus=1), task("g2", cpus=0, gpus=1),
            task("g3", cpus=0, gpus=1), task("g4", cpus=0, gpus=1),
            task("g5", cpus=0, gpus=1)])
        assert [p.task_id for p in placements] == ["g1", "g2", "g3", "g4"]
        assert [p.node_indices for p in placements] == [[0], [0], [1], [1]]
        assert [(p.cpus, p.gpus) for p in placements] == [(1, 1)] * 4
        assert queued == ["g5"]

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

    def test_local_pilot_refuses_multi_node_tasks_its_counts_fit(self):
        # A local pilot's nodes share one host.  The refusal holds also
        # once a one-node task of the same per-node demand built its mask.
        spec = PilotSpec(nodes=2, cpus_per_node=1, gpus_per_node=0, walltime_s=1.0,
                         backend="local")
        wide = task("wide", cpus=1, nodes=2)
        assert spec.unfit(wide) == ["needs 2 nodes, a local pilot runs single-node tasks only"]
        pilot = Pilot(spec)
        pilot.release(pilot.place_one(task("narrow", cpus=1)))
        with pytest.raises(UnsatisfiableError, match="wide needs 2 nodes, a local pilot"):
            pilot.place_one(wide)
        assert pilot.free_cpus.tolist() == [1, 1] and not pilot.live

    def test_placing_a_placed_task_again_is_a_state_error(self):
        pilot = Pilot(PilotSpec(nodes=1, cpus_per_node=2, gpus_per_node=0, walltime_s=1.0))
        placed = pilot.place_one(task("t"))
        with pytest.raises(StateError, match="task t already placed"):
            pilot.place_one(task("t"))
        # A placed task that can never fit is refused as unsatisfiable first.
        with pytest.raises(UnsatisfiableError, match="task t needs 3 cpus/node"):
            pilot.place_one(task("t", cpus=3))
        assert pilot.live == {"t": placed} and pilot.free_cpus.tolist() == [1]

    @pytest.mark.parametrize("pool_ids", [["a", "huge"], ["a", "b", "c", "huge", "d"]])
    def test_round_that_raises_is_undone(self, pool_ids):
        # A task placed earlier in a round must not keep its slots when a
        # later one is unsatisfiable: the caller never sees its placement.
        pilot = acquire_pilot(PilotSpec(nodes=1, cpus_per_node=2, gpus_per_node=0,
                                        walltime_s=1.0))
        cpus = {"a": 1, "b": 2, "c": 1, "d": 1, "huge": 3}
        pool = deque(task(tid, cpus=cpus[tid]) for tid in pool_ids)
        shapes = Counter((t.cpus, t.gpus, t.nodes) for t in pool)
        before = dict(shapes)
        with pytest.raises(UnsatisfiableError, match="task huge needs 3 cpus/node"):
            pilot.schedule(pool, shapes)
        assert pilot.live == {}
        assert pilot.free_cpus.tolist() == [2]
        assert [t.task_id for t in pool] == pool_ids
        assert dict(shapes) == before

    @pytest.mark.parametrize("bad, codes", [
        (task("z", cpus=1, gpus=0, nodes=0), ["nodes"]),
        (task("n", cpus=-3, gpus=0, nodes=1), ["resources", "zero_resources"]),
        (task("g", cpus=2, gpus=-1, nodes=1), ["resources"]),
    ])
    def test_malformed_demand_is_unsatisfiable(self, bad, codes):
        spec = PilotSpec(nodes=2, cpus_per_node=4, gpus_per_node=1, walltime_s=1.0)
        pilot = acquire_pilot(spec)
        schedule(pilot, [task("hold", cpus=1)])
        before = pilot.free_cpus.tolist(), pilot.free_gpus.tolist()
        with pytest.raises(UnsatisfiableError, match=f"task {bad.task_id} has a malformed demand"):
            pilot.place_one(bad)
        with pytest.raises(UnsatisfiableError, match=f"task {bad.task_id} "):
            schedule(pilot, [task("a"), bad])
        assert (pilot.free_cpus.tolist(), pilot.free_gpus.tolist()) == before
        assert sorted(pilot.live) == ["hold"]
        # Validation reports such a task as before, with no capacity entry.
        campaign = fs.CampaignSpec([fs.PipelineSpec("p", [fs.StageSpec("s", [bad])])], spec)
        assert [v.code for v in fs.validate_campaign(campaign)] == codes

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
        def total_free():
            return int(pilot.free_cpus.sum()), int(pilot.free_gpus.sum())

        before = total_free()
        placements, _ = schedule(pilot, [task("t", cpus=2, gpus=1)])
        assert total_free() != before
        pilot.release(placements[0])
        assert total_free() == before

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
            free_c, free_g = int(pilot.free_cpus.sum()), int(pilot.free_gpus.sum())
            assert (total_c - free_c, total_g - free_g) == (expect_busy_c, expect_busy_g)
            assert (pilot.free_cpus >= 0).all() and (pilot.free_gpus >= 0).all()



class SlotMap:
    """The earlier per-node occupancy: a heap of free slot numbers per
    node, kept as the reference for the free-count pilot."""

    def __init__(self, nodes: int, cpus_per_node: int, gpus_per_node: int):
        self.nodes = nodes
        self.cpus_per_node = cpus_per_node
        self.gpus_per_node = gpus_per_node
        self.free_cpus = np.full(nodes, cpus_per_node, dtype=np.int64)
        self.free_gpus = np.full(nodes, gpus_per_node, dtype=np.int64)
        self._cpu_heaps = [list(range(cpus_per_node)) for _ in range(nodes)]
        self._gpu_heaps = [list(range(gpus_per_node)) for _ in range(nodes)]

    def find_nodes(self, cpus: int, gpus: int, nodes: int):
        ok = (self.free_cpus >= cpus) & (self.free_gpus >= gpus)
        idx = np.nonzero(ok)[0]
        if len(idx) < nodes:
            return None
        return [int(i) for i in idx[:nodes]]

    def allocate(self, task_id, node_indices, cpus, gpus):
        cpu_slots, gpu_slots = [], []
        for n in node_indices:
            cpu_slots.append([heapq.heappop(self._cpu_heaps[n]) for _ in range(cpus)])
            gpu_slots.append([heapq.heappop(self._gpu_heaps[n]) for _ in range(gpus)])
            self.free_cpus[n] -= cpus
            self.free_gpus[n] -= gpus
        return RefPlacement(task_id, list(node_indices), cpu_slots, gpu_slots)

    def free(self, placement) -> None:
        for n, cs, gs in zip(placement.node_indices,
                             placement.cpu_slot_indices, placement.gpu_slot_indices):
            for s in cs:
                heapq.heappush(self._cpu_heaps[n], s)
            for s in gs:
                heapq.heappush(self._gpu_heaps[n], s)
            self.free_cpus[n] += len(cs)
            self.free_gpus[n] += len(gs)


@dataclass
class RefPlacement:
    task_id: str
    node_indices: list[int]
    cpu_slot_indices: list[list[int]]   # per node
    gpu_slot_indices: list[list[int]]   # per node


class RefPilot(Pilot):
    """``Pilot`` with the earlier SlotMap placement and capacity check;
    ``schedule`` is the shared first-fit round."""

    def __init__(self, spec: PilotSpec):
        super().__init__(spec)
        self.slots = SlotMap(spec.nodes, spec.cpus_per_node, spec.gpus_per_node)

    def check_unsatisfiable(self, task):
        cpus_eff = self.spec.effective_cpus(task.cpus, task.gpus)
        if task.nodes > self.spec.nodes:
            return f"task {task.task_id} needs {task.nodes} nodes, pilot has {self.spec.nodes}"
        if cpus_eff > self.spec.cpus_per_node:
            return f"task {task.task_id} needs {cpus_eff} cpus/node, pilot has {self.spec.cpus_per_node}"
        if task.gpus > self.spec.gpus_per_node:
            return f"task {task.task_id} needs {task.gpus} gpus/node, pilot has {self.spec.gpus_per_node}"
        return None

    def place_one(self, task):
        why = self.check_unsatisfiable(task)
        if why is not None:
            raise UnsatisfiableError(why)
        if task.task_id in self.live:
            raise StateError(f"task {task.task_id} already placed")
        cpus, gpus, n_nodes = self.task_shape(task)
        nodes = self.slots.find_nodes(cpus, gpus, n_nodes)
        if nodes is None:
            return None
        pl = self.slots.allocate(task.task_id, nodes, cpus, gpus)
        self.live[task.task_id] = pl
        return pl

    def release(self, placement):
        if self.live.get(placement.task_id) is not placement:
            raise StateError(f"placement for {placement.task_id} is not live")
        del self.live[placement.task_id]
        self.slots.free(placement)


def assert_masks_match_scan(pilot):
    """Each demand's free-node bitmask has exactly the bits of the nodes a
    scan of the free counts finds."""
    for (c, g), mask in pilot._fits.items():
        fit = np.flatnonzero((pilot.free_cpus >= c) & (pilot.free_gpus >= g))
        assert mask == sum(1 << int(n) for n in fit), (c, g)


class TestAgainstSlotMap:
    """Random schedule/release sequences give the same placements, queues,
    free counts and errors as the SlotMap pilot, and every free-node mask
    matches a scan.  Trials from 40 on use pilots of 64-150 nodes, so the
    masks span several machine words."""

    @pytest.mark.parametrize("trial", range(52))
    def test_same_steps(self, trial):
        rng = np.random.default_rng(trial)
        cpn, gpn = int(rng.integers(0, 7)), int(rng.integers(0, 5))
        if cpn + gpn == 0:
            cpn = 1
        n_nodes = int(rng.integers(1, 9) if trial < 40 else rng.integers(64, 151))
        spec = PilotSpec(nodes=n_nodes, cpus_per_node=cpn, gpus_per_node=gpn,
                         walltime_s=1.0, gpu_host_cpu=bool(trial % 2))
        pilot, ref = acquire_pilot(spec), RefPilot(spec)
        pool, ref_pool = deque(), deque()
        errors = 0
        for step in range(60 if trial < 40 else 120):
            if pilot.live and rng.random() < 0.4:
                for tid in sorted(pilot.live)[:int(rng.integers(1, 4))]:
                    pilot.release(pilot.live[tid])
                    ref.release(ref.live[tid])
            else:
                for i in range(int(rng.integers(1, 6))):
                    # One task in ten may ask for more than the pilot has.
                    big = int(rng.random() < 0.1)
                    c = int(rng.integers(0, cpn + 1 + big))
                    g = int(rng.integers(0, gpn + 1 + big))
                    if c + g == 0:
                        c = 1
                    nodes = int(rng.integers(1, spec.nodes + 1 + big)) if rng.random() < 0.3 else 1
                    new = task(f"s{step}.t{i}", cpus=c, gpus=g, nodes=nodes)
                    pool.append(new)
                    ref_pool.append(new)
                while True:
                    held = sorted(pilot.live), pilot.free_cpus.tolist(), pilot.free_gpus.tolist()
                    try:
                        placed = pilot.schedule(pool)
                    except UnsatisfiableError as exc:
                        with pytest.raises(UnsatisfiableError) as ref_exc:
                            ref.schedule(ref_pool)
                        assert str(exc) == str(ref_exc.value)
                        # The round was undone: nothing stays placed.
                        assert (sorted(pilot.live), pilot.free_cpus.tolist(),
                                pilot.free_gpus.tolist()) == held
                        assert_masks_match_scan(pilot)
                        errors += 1
                        bad = str(exc).split()[1]
                        for q in (pool, ref_pool):
                            q.remove(next(t for t in q if t.task_id == bad))
                        continue
                    ref_placed = ref.schedule(ref_pool)
                    assert [(p.task_id, p.node_indices) for p in placed] == \
                        [(p.task_id, p.node_indices) for p in ref_placed]
                    for p, r in zip(placed, ref_placed):
                        assert [p.cpus] * len(p.node_indices) == [len(s) for s in r.cpu_slot_indices]
                        assert [p.gpus] * len(p.node_indices) == [len(s) for s in r.gpu_slot_indices]
                    break
            assert [t.task_id for t in pool] == [t.task_id for t in ref_pool]
            assert sorted(pilot.live) == sorted(ref.live)
            assert pilot.free_cpus.tolist() == ref.slots.free_cpus.tolist()
            assert pilot.free_gpus.tolist() == ref.slots.free_gpus.tolist()
            assert_masks_match_scan(pilot)
        assert errors > 0


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

    def test_simulated_mode_deterministic_event_log(self, tmp_path):
        res = PilotSpec(nodes=3, cpus_per_node=2, gpus_per_node=0, walltime_s=1e6)

        def run_once():
            tasks = [TaskDescriptor(f"t{i}", cpus=1,
                                    duration_model=fs.SampledDuration("S1", 3.0, 1.0,
                                                                      "lognormal", (1.0,)))
                     for i in range(20)]
            r = run_executor(res, tasks, seed=99)
            r.sink.save(tmp_path / "t.jsonl")
            return (tmp_path / "t.jsonl").read_bytes()

        assert run_once() == run_once()
