"""Pilot resource abstraction: acquire a block of nodes once, then place
tasks onto per-node cpu/gpu slots without re-entering any batch system.

Scheduling is first-fit in submission order: each task takes the
lowest-indexed nodes and slots that satisfy its demand; tasks that do
not currently fit stay queued in order.  A task that can never fit the
pilot at all is rejected as unsatisfiable, which is a different thing
from being queued.
"""
from __future__ import annotations

import heapq
import os
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, StateError, UnsatisfiableError


@dataclass
class PilotSpec:
    nodes: int
    cpus_per_node: int
    gpus_per_node: int
    walltime_s: float
    backend: str = "simulated"
    # Simulated-agent knobs: virtual bootstrap delay, and a fixed delay
    # between a scheduling decision and task start (models dispatch cost).
    bootstrap_s: float = 0.0
    sched_gap_s: float = 0.0
    # A GPU task needs a host process; charge it one cpu slot.
    gpu_host_cpu: bool = True

    def validate(self) -> list[str]:
        out = []
        if self.nodes < 1:
            out.append("nodes must be >= 1")
        if self.cpus_per_node < 0 or self.gpus_per_node < 0:
            out.append("per-node slot counts must be >= 0")
        if self.cpus_per_node + self.gpus_per_node <= 0:
            out.append("cpus_per_node + gpus_per_node must be > 0")
        if self.walltime_s <= 0:
            out.append("walltime_s must be positive")
        if self.backend not in ("simulated", "local"):
            out.append(f"unknown backend {self.backend!r}")
        if self.bootstrap_s < 0 or self.sched_gap_s < 0:
            out.append("bootstrap_s and sched_gap_s must be >= 0")
        if self.walltime_s > 0 and self.bootstrap_s >= self.walltime_s:
            out.append("bootstrap_s must be smaller than walltime_s")
        return out

    def effective_cpus(self, cpus: int, gpus: int) -> int:
        """Per-node cpu demand after the gpu host-process rule."""
        if gpus > 0 and self.gpu_host_cpu:
            return max(cpus, 1)
        return cpus


@dataclass
class Placement:
    task_id: str
    node_indices: list[int]
    cpu_slot_indices: list[list[int]]   # per node
    gpu_slot_indices: list[list[int]]   # per node
    start_time: float = 0.0


class SlotMap:
    """Per-node cpu and gpu slot occupancy."""

    def __init__(self, nodes: int, cpus_per_node: int, gpus_per_node: int):
        self.nodes = nodes
        self.cpus_per_node = cpus_per_node
        self.gpus_per_node = gpus_per_node
        self.free_cpus = np.full(nodes, cpus_per_node, dtype=np.int64)
        self.free_gpus = np.full(nodes, gpus_per_node, dtype=np.int64)
        self._cpu_heaps = [list(range(cpus_per_node)) for _ in range(nodes)]
        self._gpu_heaps = [list(range(gpus_per_node)) for _ in range(nodes)]

    def total_free(self) -> tuple[int, int]:
        return int(self.free_cpus.sum()), int(self.free_gpus.sum())

    def total_busy(self) -> tuple[int, int]:
        total_c = self.nodes * self.cpus_per_node
        total_g = self.nodes * self.gpus_per_node
        free_c, free_g = self.total_free()
        return total_c - free_c, total_g - free_g

    def find_nodes(self, cpus: int, gpus: int, nodes: int) -> list[int] | None:
        """Lowest-indexed set of nodes able to host ``cpus``/``gpus`` each."""
        ok = (self.free_cpus >= cpus) & (self.free_gpus >= gpus)
        idx = np.nonzero(ok)[0]
        if len(idx) < nodes:
            return None
        return [int(i) for i in idx[:nodes]]

    def allocate(self, task_id: str, node_indices: list[int], cpus: int, gpus: int) -> Placement:
        cpu_slots, gpu_slots = [], []
        for n in node_indices:
            cpu_slots.append([heapq.heappop(self._cpu_heaps[n]) for _ in range(cpus)])
            gpu_slots.append([heapq.heappop(self._gpu_heaps[n]) for _ in range(gpus)])
            self.free_cpus[n] -= cpus
            self.free_gpus[n] -= gpus
        return Placement(task_id, list(node_indices), cpu_slots, gpu_slots)

    def free(self, placement: Placement) -> None:
        for n, cs, gs in zip(placement.node_indices,
                             placement.cpu_slot_indices, placement.gpu_slot_indices):
            for s in cs:
                heapq.heappush(self._cpu_heaps[n], s)
            for s in gs:
                heapq.heappush(self._gpu_heaps[n], s)
            self.free_cpus[n] += len(cs)
            self.free_gpus[n] += len(gs)


class Pilot:
    """A granted allocation: owns the SlotMap and the live placements."""

    def __init__(self, spec: PilotSpec, pilot_id: str = "pilot-0"):
        self.spec = spec
        self.pilot_id = pilot_id
        self.slots = SlotMap(spec.nodes, spec.cpus_per_node, spec.gpus_per_node)
        self.live: dict[str, Placement] = {}

    def check_unsatisfiable(self, task) -> str | None:
        cpus_eff = self.spec.effective_cpus(task.cpus, task.gpus)
        if task.nodes > self.spec.nodes:
            return f"task {task.task_id} needs {task.nodes} nodes, pilot has {self.spec.nodes}"
        if cpus_eff > self.spec.cpus_per_node:
            return f"task {task.task_id} needs {cpus_eff} cpus/node, pilot has {self.spec.cpus_per_node}"
        if task.gpus > self.spec.gpus_per_node:
            return f"task {task.task_id} needs {task.gpus} gpus/node, pilot has {self.spec.gpus_per_node}"
        return None

    def task_shape(self, task) -> tuple[int, int, int]:
        return (self.spec.effective_cpus(task.cpus, task.gpus), task.gpus, task.nodes)

    def place_one(self, task) -> Placement | None:
        """Place one task on the lowest-indexed feasible nodes/slots, or
        return None if it does not currently fit.

        Raises UnsatisfiableError when it can never fit this pilot.
        """
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

    def schedule(self, pool: deque, shapes: dict | None = None) -> list[Placement]:
        """First-fit over a queue of tasks, in queue order.

        Placed tasks leave ``pool``; the rest stay queued in it, in
        order.  ``shapes`` counts the pool's tasks per resource shape and
        is kept up to date across calls; the scan stops once every shape
        still queued is known not to fit this round.

        Raises UnsatisfiableError for tasks that exceed the whole pilot.
        """
        if shapes is None:
            shapes = Counter(map(self.task_shape, pool))
        placements: list[Placement] = []
        blocked: set[tuple[int, int, int]] = set()
        kept: list = []
        try:
            while pool and len(blocked) < len(shapes):
                task = pool[0]
                shape = self.task_shape(task)
                if shape in blocked:
                    kept.append(pool.popleft())
                    continue
                pl = self.place_one(task)
                if pl is None:
                    # A same-shaped later task cannot fit either this round.
                    blocked.add(shape)
                    kept.append(pool.popleft())
                    continue
                pool.popleft()
                shapes[shape] -= 1
                if shapes[shape] == 0:
                    del shapes[shape]
                placements.append(pl)
        finally:
            pool.extendleft(reversed(kept))
        return placements

    def release(self, placement: Placement) -> None:
        if self.live.get(placement.task_id) is not placement:
            raise StateError(f"placement for {placement.task_id} is not live")
        del self.live[placement.task_id]
        self.slots.free(placement)


def acquire_pilot(spec: PilotSpec, pilot_id: str = "pilot-0") -> Pilot:
    """Validate the spec and grant the allocation (all slots free).

    The local backend can bind at most the host's real cores and has no
    gpu slots; the simulated backend starts a virtual clock at 0.
    """
    problems = spec.validate()
    if problems:
        raise CapacityError("; ".join(problems))
    if spec.backend == "local":
        host_cores = os.cpu_count() or 1
        if spec.nodes * spec.cpus_per_node > host_cores:
            raise CapacityError(
                f"local pilot wants {spec.nodes * spec.cpus_per_node} cores, host has {host_cores}")
        if spec.gpus_per_node > 0:
            raise CapacityError("local backend has no gpu slots")
    return Pilot(spec, pilot_id)
