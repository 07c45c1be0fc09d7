"""Pilot resource abstraction: acquire a block of nodes once, then place
tasks onto them without re-entering any batch system.  A node's slots
are two counts, its free cpus and its free gpus.

Scheduling is first-fit in submission order: each task takes the
lowest-indexed nodes with enough free cpus and gpus for its demand;
tasks that do not currently fit stay queued in order.  A task that can
never fit the pilot at all is rejected as unsatisfiable, which is a
different thing from being queued.

Placement scans no nodes.  For each per-node demand ``(cpus, gpus)`` it
has been asked for, the pilot keeps a Python ``int`` bitmask whose bit
``n`` is set while node ``n`` has at least that many free cpus and gpus.
A demand's mask is built from one scan of the free counts on its first
use; after that, each place and release updates only the bits of the
nodes it changed.  A task misses when its mask has fewer set bits than
the task has nodes, and otherwise takes the mask's lowest set bits,
which are exactly the lowest-indexed nodes that fit.
"""
from __future__ import annotations

import math
import os
from collections import Counter, deque
from dataclasses import dataclass, field

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
        out = [f"{name} must be int, got {value!r}"
               for name in ("nodes", "cpus_per_node", "gpus_per_node")
               if type(value := getattr(self, name)) is not int]
        if out:     # the checks below compare the counts
            return out
        if self.nodes < 1:
            out.append("nodes must be >= 1")
        if not (0 <= self.cpus_per_node < 2 ** 63 and 0 <= self.gpus_per_node < 2 ** 63):
            out.append("per-node slot counts must be >= 0 and < 2**63")   # int64 free counts
        if self.cpus_per_node + self.gpus_per_node <= 0:
            out.append("cpus_per_node + gpus_per_node must be > 0")
        # Negated comparisons, so that NaN fails them.  A finite walltime keeps times finite.
        if not 0 < self.walltime_s < math.inf:
            out.append("walltime_s must be positive and finite")
        if self.backend not in ("simulated", "local"):
            out.append(f"unknown backend {self.backend!r}")
        if not (self.bootstrap_s >= 0 and self.sched_gap_s >= 0):
            out.append("bootstrap_s and sched_gap_s must be >= 0")
        if self.walltime_s > 0 and self.bootstrap_s >= self.walltime_s:
            out.append("bootstrap_s must be smaller than walltime_s")
        return out

    def effective_cpus(self, cpus: int, gpus: int) -> int:
        """Per-node cpu demand after the gpu host-process rule."""
        if gpus > 0 and self.gpu_host_cpu:
            return max(cpus, 1)
        return cpus

    def unfit(self, task) -> list[str]:
        """Why ``task`` can never fit this pilot, even when it is idle;
        empty when it can."""
        cpus = self.effective_cpus(task.cpus, task.gpus)
        out = []
        if task.nodes > self.nodes:
            out.append(f"needs {task.nodes} nodes, pilot has {self.nodes}")
        elif task.nodes > 1 and self.backend == "local":    # its nodes share one host
            out.append(f"needs {task.nodes} nodes, a local pilot runs single-node tasks only")
        if cpus > self.cpus_per_node:
            out.append(f"needs {cpus} cpus/node, pilot has {self.cpus_per_node}")
        if task.gpus > self.gpus_per_node:
            out.append(f"needs {task.gpus} gpus/node, pilot has {self.gpus_per_node}")
        return out


@dataclass
class Placement:
    task_id: str
    node_indices: list[int]
    cpus: int   # per node, after the gpu host-cpu rule
    gpus: int   # per node
    task: object = field(compare=False, repr=False)


class Pilot:
    """A granted allocation: the free cpu and gpu count of each node, and
    the live placements."""

    def __init__(self, spec: PilotSpec, pilot_id: str = "pilot-0"):
        self.spec = spec
        self.pilot_id = pilot_id
        self.free_cpus = np.full(spec.nodes, spec.cpus_per_node, dtype=np.int64)
        self.free_gpus = np.full(spec.nodes, spec.gpus_per_node, dtype=np.int64)
        self.live: dict[str, Placement] = {}
        # (cpus, gpus) per node -> bitmask of the nodes with that much free.
        self._fits: dict[tuple[int, int], int] = {}

    def task_shape(self, task) -> tuple[int, int, int]:
        return (self.spec.effective_cpus(task.cpus, task.gpus), task.gpus, task.nodes)

    def place_one(self, task) -> Placement | None:
        """Place one task on the lowest-indexed nodes with enough free
        cpus and gpus, or return None if it does not currently fit.

        Raises UnsatisfiableError when it can never fit this pilot, or
        when its demand is malformed (fewer than one node, or a negative
        count).  The capacity rule is checked on a miss, when a demand's
        mask is first built, and for each multi-node task: a local pilot
        refuses those even where they fit, and any other unfit task misses.
        """
        if task.nodes < 1 or task.cpus < 0 or task.gpus < 0:
            raise UnsatisfiableError(
                f"task {task.task_id} has a malformed demand: nodes={task.nodes}, "
                f"cpus={task.cpus}, gpus={task.gpus}")
        if task.task_id in self.live:
            self._check_fit(task)       # a capacity error comes first
            raise StateError(f"task {task.task_id} already placed")
        cpus, gpus, n_nodes = self.task_shape(task)
        mask = self._fits.get((cpus, gpus))
        if mask is None or n_nodes > 1:
            self._check_fit(task)       # no mask is kept for a demand that never fits
        if mask is None:
            ok = (self.free_cpus >= cpus) & (self.free_gpus >= gpus)
            mask = int.from_bytes(np.packbits(ok, bitorder="little").tobytes(), "little")
            self._fits[(cpus, gpus)] = mask
        if mask.bit_count() < n_nodes:
            self._check_fit(task)
            return None
        nodes = []
        for _ in range(n_nodes):
            low = mask & -mask
            nodes.append(low.bit_length() - 1)
            mask ^= low
        self._add_free(nodes, -cpus, -gpus)
        pl = Placement(task.task_id, nodes, cpus, gpus, task)
        self.live[task.task_id] = pl
        return pl

    def _check_fit(self, task) -> None:
        reasons = self.spec.unfit(task)
        if reasons:
            raise UnsatisfiableError(f"task {task.task_id} {reasons[0]}")

    def _add_free(self, nodes: list[int], d_cpus: int, d_gpus: int) -> None:
        """Add ``d_cpus``/``d_gpus`` to the free counts of ``nodes`` and
        update their bit in every demand's mask."""
        free_cpus, free_gpus, fits = self.free_cpus, self.free_gpus, self._fits
        for n in nodes:
            c0, g0 = free_cpus.item(n), free_gpus.item(n)
            c, g = c0 + d_cpus, g0 + d_gpus
            free_cpus[n] = c
            free_gpus[n] = g
            for (dc, dg), mask in fits.items():
                if (c >= dc and g >= dg) != (c0 >= dc and g0 >= dg):
                    fits[dc, dg] = mask ^ (1 << n)

    def schedule(self, pool: deque, shapes: dict | None = None) -> list[Placement]:
        """First-fit over a queue of tasks, in queue order.

        Placed tasks leave ``pool``; the rest stay queued in it, in
        order.  ``shapes`` counts the pool's tasks per raw demand
        ``(cpus, gpus, nodes)``, before the gpu host-cpu rule, and is kept
        up to date across calls; the scan stops once every demand still
        queued is known not to fit this round.  Within a round free
        counts only fall, so a demand that missed keeps missing.

        Raises UnsatisfiableError for tasks that exceed the whole pilot.
        A round that raises is undone first: the pool, ``shapes`` and the
        free counts are as they were before the call.
        """
        if shapes is None:
            shapes = Counter((task.cpus, task.gpus, task.nodes) for task in pool)
        placements: list[Placement] = []
        blocked: set[tuple[int, int, int]] = set()
        taken: list = []        # (task, its placement or None), in pool order
        try:
            while pool and len(blocked) < len(shapes):
                task = pool[0]
                demand = (task.cpus, task.gpus, task.nodes)
                pl = None if demand in blocked else self.place_one(task)
                if pl is None:
                    # A later task of the same demand cannot fit either this round.
                    blocked.add(demand)
                else:
                    shapes[demand] -= 1
                    if shapes[demand] == 0:
                        del shapes[demand]
                    placements.append(pl)
                taken.append((pool.popleft(), pl))
        except BaseException:
            for task, pl in taken:
                if pl is not None:
                    self.release(pl)
                    demand = (task.cpus, task.gpus, task.nodes)
                    shapes[demand] = shapes.get(demand, 0) + 1
            pool.extendleft(reversed([task for task, _ in taken]))
            raise
        pool.extendleft(reversed([task for task, pl in taken if pl is None]))
        return placements

    def release(self, placement: Placement) -> None:
        if self.live.get(placement.task_id) is not placement:
            raise StateError(f"placement for {placement.task_id} is not live")
        del self.live[placement.task_id]
        self._add_free(placement.node_indices, placement.cpus, placement.gpus)


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
