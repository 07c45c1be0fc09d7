"""Master/worker overlay primitives for high-throughput function tasks.

Incoming tasks are partitioned into bulks to amortize communication;
bulks are spread over masters round-robin; each master assigns the tasks
of a bulk one at a time to the owned worker with the fewest outstanding
tasks (ties to the lowest worker index).  A worker executes its assigned
tasks in assignment order.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .errors import DispatchError


@dataclass
class MasterConfig:
    n_masters: int = 1
    workers_per_master: int = 64
    bulk_size: int = 1024
    rebalance_policy: str = "least_outstanding"   # or round_robin (baseline)
    # A master feeds its next bulk once some worker is this close to idle.
    low_water: int = 1

    def validate(self) -> list[str]:
        out = []
        if self.n_masters < 1:
            out.append("n_masters must be >= 1")
        if self.workers_per_master < 1:
            out.append("workers_per_master must be >= 1")
        if self.bulk_size < 1:
            out.append("bulk_size must be >= 1")
        if self.rebalance_policy not in ("least_outstanding", "round_robin"):
            out.append(f"unknown rebalance_policy {self.rebalance_policy!r}")
        if self.low_water < 0:
            out.append("low_water must be >= 0")
        return out


@dataclass
class WorkerState:
    worker_id: str
    master_id: str
    outstanding: int = 0
    completed: int = 0
    busy_time_s: float = 0.0
    ready_t: float = 0.0
    stopped_t: Optional[float] = None
    queue: deque = field(default_factory=deque, repr=False)

    def busy_fraction(self, t_end: Optional[float] = None) -> float:
        end = self.stopped_t if self.stopped_t is not None else t_end
        if end is None or end <= self.ready_t:
            return 0.0
        return self.busy_time_s / (end - self.ready_t)


@dataclass
class Bulk:
    bulk_id: str
    tasks: list


def partition_bulks(tasks: list, bulk_size: int, prefix: str = "b") -> list[Bulk]:
    """Consecutive order-preserving chunks; all full except maybe the last."""
    if bulk_size < 1:
        raise ValueError("bulk_size must be >= 1")
    return [Bulk(f"{prefix}{i // bulk_size:05d}", list(tasks[i:i + bulk_size]))
            for i in range(0, len(tasks), bulk_size)]


def round_robin_assign(items: list, n_bins: int) -> list[list]:
    """Item i lands in bin i mod n_bins; bin sizes differ by at most 1."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    bins: list[list] = [[] for _ in range(n_bins)]
    for i, item in enumerate(items):
        bins[i % n_bins].append(item)
    return bins


class Master:
    """Owns a pool of workers and assigns bulk tasks across them."""

    def __init__(self, master_id: str, workers: list[WorkerState],
                 policy: str = "least_outstanding"):
        self.master_id = master_id
        self.workers = workers
        self.policy = policy
        self.pending_bulks: deque[Bulk] = deque()
        self._rr = 0

    def dispatch(self, bulk: Bulk) -> dict[str, list]:
        """Assign every task of the bulk before any of them runs; returns
        worker_id -> assigned tasks, in worker order, also appending them
        to worker queues."""
        if not self.workers:
            raise DispatchError(f"master {self.master_id} has no workers")
        assignments: dict[str, list] = {w.worker_id: [] for w in self.workers}
        for task in bulk.tasks:
            if self.policy == "round_robin":
                worker = self.workers[self._rr % len(self.workers)]
                self._rr += 1
            else:
                worker = min(self.workers, key=lambda w: w.outstanding)
            worker.outstanding += 1
            worker.queue.append(task)
            assignments[worker.worker_id].append(task)
        return {wid: tasks for wid, tasks in assignments.items() if tasks}

    def wants_refill(self, low_water: int) -> bool:
        if not self.pending_bulks:
            return False
        return min(w.outstanding for w in self.workers) <= low_water
