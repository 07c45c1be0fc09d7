"""Campaign execution engine: one core, two backends.

``Engine`` does everything a run does wherever its tasks execute: the
trace, node busy/idle accounting, the pending pool, first-fit rounds on
the pilot, one master/worker overlay per (pipeline, stage) of function
tasks, stage advancement, walltime expiry and the RunResult.  A backend
supplies the clock and the executor.  The simulated backend is a
deterministic event loop over a virtual clock, with each duration drawn
from (campaign seed, task id), so identical configs give byte-identical
traces.  The local backend runs tasks concurrently on the host (threads
and subprocesses) and reports wall-clock times; state changes stay in
the engine thread, and workers only post notices to a queue.

Per-task state lives only in each ``PipelineState.task_states``.  A
pipeline's open tasks are all in its current stage, and placements,
dispatches, cancels and handlers hand back the task objects (handlers
with their pipeline id), so the engine maps no task ids.
"""
from __future__ import annotations

import heapq
import os
import queue as queue_mod
import signal
import subprocess
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import campaign as cm
from .errors import ConfigError, DispatchError, StateError, WorkerKilled
from .overlay import Bulk, Master, MasterConfig, WorkerState, partition_bulks, round_robin_assign
from .pilot import PilotSpec, acquire_pilot
from .trace import TraceEvent, TraceSink, event_rows, gc_paused
from .workload import call_function, duration_uniforms


@dataclass(slots=True)
class Completion:
    t: float
    task_id: str
    outcome: str


@dataclass
class RunResult:
    sink: TraceSink
    final_states: dict[str, dict]
    makespan: float
    walltime_hit: bool = False
    overlay_workers: list[WorkerState] = field(default_factory=list)

    @property
    def completions(self) -> list[Completion]:
        """The terminal task events of ``sink``, in trace order."""
        return [Completion(t, eid, transition)
                for t, entity, eid, transition, _nodes in event_rows(self.sink)
                if entity == "task" and transition in cm.TERMINAL]


def _task_duration(task, spec: cm.CampaignSpec) -> float:
    dm = task.duration_model
    if isinstance(dm, cm.FixedDuration):
        seconds = dm.seconds
    else:
        u1, u2 = duration_uniforms(spec.seed, task.task_id)
        seconds = dm.sample_from_uniforms(u1, u2, spec.time_scale)
    if not seconds >= 0:  # a NaN time would never leave the event heap
        raise StateError(f"task {task.task_id} drew duration {seconds}, not >= 0")
    return float(seconds)


class Engine:
    """Runs one campaign on the backend its ``mode`` names."""

    def __init__(self, spec: cm.CampaignSpec, sink: TraceSink | None = None,
                 overlay: MasterConfig | None = None):
        violations = cm.validate_campaign(spec)
        if violations:
            raise ConfigError("invalid campaign: " + "; ".join(str(v) for v in violations))
        if overlay is not None:
            problems = overlay.validate()
            if problems:
                raise ConfigError("invalid overlay config: " + "; ".join(problems))
        self.spec = spec
        self.sink = sink if sink is not None else TraceSink()
        self.overlay_cfg = overlay
        backend_cls = _LocalBackend if spec.mode == "local" else _SimulatedBackend
        self.backend = backend_cls(self)
        self.pilot = acquire_pilot(spec.resource)
        self.states = {p.pipeline_id: cm.PipelineState(p) for p in spec.pipelines}
        self._running_slots = [0] * spec.resource.nodes
        self._overlays: dict[tuple[str, int], _Overlay] = {}
        self.overlay_workers: list[WorkerState] = []
        self._walltime_hit = False
        # Per-pipeline queue of not-yet-placed tasks of the current stage,
        # with a live count per raw demand for early round exit.
        self._pending: dict[str, deque] = {pid: deque() for pid in self.states}
        self._pool_shapes: dict[str, dict] = {pid: {} for pid in self.states}

    # -- trace helpers ----------------------------------------------------

    def _ev(self, t, entity, entity_id, transition, nodes=None, cpus=None,
            gpus=None, stage=None, pipeline=None):
        self.sink.record(TraceEvent(t, entity, entity_id, transition, nodes, cpus, gpus,
                                    stage, pipeline))

    def _task_ev(self, t, task, transition, pid, with_resources=False):
        self._ev(t, "task", task.task_id, transition,
                 nodes=task.nodes if with_resources else None,
                 cpus=task.cpus if with_resources else None,
                 gpus=task.gpus if with_resources else None,
                 stage=task.stage_tag, pipeline=pid)

    # -- node busy accounting ---------------------------------------------

    def _occupy(self, placement, t):
        cnt = placement.cpus + placement.gpus
        for n in placement.node_indices:
            if self._running_slots[n] == 0 and cnt > 0:
                self._ev(t, "node", f"{self.pilot.pilot_id}/{n}", "busy")
            self._running_slots[n] += cnt

    def _vacate(self, placement, t):
        """Release a placement and mark the nodes it leaves empty idle."""
        self.pilot.release(placement)
        cnt = placement.cpus + placement.gpus
        for n in placement.node_indices:
            self._running_slots[n] -= cnt
            if self._running_slots[n] == 0 and cnt > 0:
                self._ev(t, "node", f"{self.pilot.pilot_id}/{n}", "idle")

    # -- stage bookkeeping --------------------------------------------------

    def _start_stage(self, pid: str, state: cm.PipelineState, t: float):
        stage = state.current_stage()
        if stage.materialize is not None:   # validate_campaign never saw these tasks
            bad = "; ".join(str(v) for task in state.current_tasks()
                            for v in cm._validate_task(task, self.spec.resource))
            if bad:
                raise ConfigError(f"stage {pid}/{stage.stage_id} built invalid tasks: {bad}")
        self._ev(t, "stage", f"{pid}/{stage.stage_id}", "started", pipeline=pid)
        pool = self._pending[pid]
        shapes = self._pool_shapes[pid]
        for task in state.current_tasks():
            self._task_ev(t, task, "pending", pid)
            pool.append(task)
            demand = (task.cpus, task.gpus, task.nodes)
            shapes[demand] = shapes.get(demand, 0) + 1

    def _apply_advance(self, pid: str, state: cm.PipelineState,
                       result: cm.AdvanceResult, t: float):
        if result.kind == "none":
            return
        if result.kind == "stage_advanced":
            prev = state.spec.stages[result.stage_index - 1]
            self._ev(t, "stage", f"{pid}/{prev.stage_id}", "completed", pipeline=pid)
            self._start_stage(pid, state, t)
        elif result.kind == "pipeline_done":
            last = state.current_stage()
            self._ev(t, "stage", f"{pid}/{last.stage_id}", "completed", pipeline=pid)
            self._ev(t, "pipeline", pid, "done", pipeline=pid)
        elif result.kind == "pipeline_failed":
            cur = state.current_stage()
            self._ev(t, "stage", f"{pid}/{cur.stage_id}", "failed", pipeline=pid)
            self._pending[pid].clear()
            self._pool_shapes[pid].clear()
            for task in result.canceled:
                pl = self.pilot.live.get(task.task_id)
                if pl is not None:
                    self._vacate(pl, t)
                self._task_ev(t, task, "canceled", pid)
            self._ev(t, "pipeline", pid, "failed", pipeline=pid)

    # -- scheduling ---------------------------------------------------------

    def _schedule_round(self, t: float):
        active = [(pid, state) for pid, state in self.states.items()
                  if state.status == cm.RUNNING]
        if self.spec.pipeline_mode == "sequential":
            active = active[:1]
        for pid, state in active:
            key = (pid, state.current_stage_index)
            pool = self._pending[pid]
            if key in self._overlays or not pool:
                continue
            if self.overlay_cfg is not None and all(tk.kind == "function" for tk in pool):
                placements = self._place_overlay(pid, state, pool)
                if placements is not None:
                    self._overlays[key] = _Overlay(self, pid, state, list(pool), placements, t)
                    pool.clear()
                    self._pool_shapes[pid].clear()
                continue
            for pl in self.pilot.schedule(pool, self._pool_shapes[pid]):
                task = pl.task
                state.mark_scheduled(task.task_id)
                self._task_ev(t, task, "scheduled", pid)
                self.backend.launch(pid, task, pl, t)

    def _place_overlay(self, pid: str, state: cm.PipelineState, tasks) -> list | None:
        """Place the masters and workers of an overlay for ``tasks`` on the
        pilot, all or nothing: None, holding no slots, if they do not fit
        yet.  Local overlays run on host threads and hold no slots."""
        if not self.backend.overlay_on_pilot:
            return []
        config = self.overlay_cfg
        prefix = f"ovl.{pid}.{state.current_stage().stage_id}"
        n_workers = config.n_masters * config.workers_per_master
        w_cpus, w_gpus = (0, 1) if any(tk.gpus > 0 for tk in tasks) else (1, 0)
        demands = deque(cm.TaskDescriptor(f"{prefix}.m{m:02d}", cpus=1, gpus=0)
                        for m in range(config.n_masters))
        demands.extend(cm.TaskDescriptor(f"{prefix}.w{w:04d}", cpus=w_cpus, gpus=w_gpus)
                       for w in range(n_workers))
        idle = not self.pilot.live
        placements = self.pilot.schedule(demands)
        if not demands:
            return placements
        for pl in placements:
            self.pilot.release(pl)
        if idle:
            raise DispatchError(
                f"pilot lacks capacity for {config.n_masters} masters + {n_workers} workers")
        return None

    # -- task lifecycle -------------------------------------------------------

    def _run(self, pid: str, task, pl, t: float):
        """A placed task starts running on its slots."""
        self.states[pid].mark_running(task.task_id)
        self._task_ev(t, task, "running", pid, with_resources=True)
        self._occupy(pl, t)

    def _finish(self, pid: str, task, outcome: str, result, t: float) -> bool:
        """A placed task of pipeline ``pid`` ended; stale notices for canceled
        tasks are dropped.  Returns whether a completion was applied."""
        state = self.states[pid]
        if state.task_states.get(task.task_id) != cm.RUNNING:
            return False
        pl = self.pilot.live[task.task_id]
        self._vacate(pl, t)
        self._complete(pid, state, task, outcome, result, t)
        return True

    def _complete(self, pid: str, state: cm.PipelineState, task, outcome: str,
                  result, t: float):
        self._task_ev(t, task, outcome, pid)
        adv = state.on_task_complete(task.task_id, outcome, result=result)
        self._apply_advance(pid, state, adv, t)

    def _expire(self, t: float):
        self._walltime_hit = True
        for runtime in list(self._overlays.values()):
            runtime.teardown(t)
        # With the overlays gone, every live placement is a scheduled or
        # running task of a running pipeline's current stage.  Placed tasks
        # are canceled first and leave ``pid_of``; the rest follow.
        pid_of = {task.task_id: pid for pid, state in self.states.items()
                  if state.status == cm.RUNNING for task in state.current_tasks()}
        for pl in list(self.pilot.live.values()):
            self._task_ev(t, pl.task, "canceled", pid_of.pop(pl.task_id))
            self._vacate(pl, t)
        for pid, state in self.states.items():
            if state.status != cm.RUNNING:
                continue
            for task in state.cancel():
                if task.task_id in pid_of:
                    self._task_ev(t, task, "canceled", pid)
            self._ev(t, "pipeline", pid, "canceled", pipeline=pid)

    def run(self) -> RunResult:
        res = self.spec.resource
        self._ev(0.0, "pilot", self.pilot.pilot_id, "acquired",
                 nodes=res.nodes, cpus=res.cpus_per_node, gpus=res.gpus_per_node)
        t0 = self.backend.start()
        self._ev(t0, "pilot", self.pilot.pilot_id, "agent_ready")
        with self.backend.bulk_allocation():
            for pid, state in self.states.items():
                self._ev(t0, "pipeline", pid, "started", pipeline=pid)
                self._start_stage(pid, state, t0)
            self._schedule_round(t0)
            self.backend.loop()
        if not self._walltime_hit:
            stuck = [pid for pid, st in self.states.items() if st.status == cm.RUNNING]
            if stuck:
                raise StateError(f"engine stalled with live pipelines: {stuck}")
        t_end = self.backend.now()
        self._ev(t_end, "pilot", self.pilot.pilot_id, "released")
        return RunResult(
            sink=self.sink,
            final_states={pid: st.projection() for pid, st in self.states.items()},
            makespan=t_end,
            walltime_hit=self._walltime_hit,
            overlay_workers=self.overlay_workers,
        )


class _Overlay:
    """Master/worker pool serving one stage's function tasks.

    Function tasks run inside workers and hold no pilot slots.  In
    simulated runs the masters and workers hold the slots the engine
    placed once they all fit; locally the workers are host threads.  A
    worker that dies has its outstanding tasks re-dispatched once; a
    task that loses a second worker fails.
    """

    def __init__(self, engine: Engine, pid: str, state: cm.PipelineState,
                 tasks: list[cm.TaskDescriptor], placements: list, t: float):
        config = engine.overlay_cfg
        stage = state.current_stage()
        self.engine = engine
        self.pid = pid
        self.state = state
        self.config = config
        self.key = (pid, state.current_stage_index)
        # The overlay's own open tasks: in a stage that mixes kinds, the
        # pilot may still run others when these end.
        self.remaining = len(tasks)
        self._done = False
        self._redispatched: set[str] = set()

        prefix = f"ovl.{pid}.{stage.stage_id}"
        self.placements = placements
        for pl in placements:
            engine._occupy(pl, t)

        self.workers: list[WorkerState] = []
        self.masters: list[Master] = []
        self._owner: dict[str, Master] = {}
        for m in range(config.n_masters):
            mid = f"{prefix}.m{m:02d}"
            engine._ev(t, "master", mid, "ready", pipeline=pid)
            owned = []
            for w in range(m * config.workers_per_master, (m + 1) * config.workers_per_master):
                wid = f"{prefix}.w{w:04d}"
                worker = WorkerState(wid, mid, ready_t=t)
                engine._ev(t, "worker", wid, "ready", pipeline=pid)
                owned.append(worker)
                self.workers.append(worker)
            master = Master(mid, owned, policy=config.rebalance_policy)
            self.masters.append(master)
            for worker in owned:
                self._owner[worker.worker_id] = master

        bulks = partition_bulks(tasks, config.bulk_size, prefix=f"{pid}.{stage.stage_id}.b")
        for master, assigned in zip(self.masters, round_robin_assign(bulks, len(self.masters))):
            master.pending_bulks.extend(assigned)
        for master in self.masters:
            self._refill(master, t)

    def _refill(self, master: Master, t: float):
        while master.wants_refill(self.config.low_water):
            bulk = master.pending_bulks.popleft()
            self.engine._ev(t, "master", master.master_id, "bulk_created", pipeline=self.pid)
            for tasks in master.dispatch(bulk).values():
                for task in tasks:
                    self.state.mark_scheduled(task.task_id)
                    self.engine._task_ev(t, task, "scheduled", self.pid)
            self._pump(master, t)

    def _pump(self, master: Master, t: float):
        # A worker is busy while it runs a task taken off its queue.
        for worker in master.workers:
            if not worker.queue or worker.outstanding > len(worker.queue):
                continue
            task = worker.queue.popleft()
            self.engine._ev(t, "worker", worker.worker_id, "busy", pipeline=self.pid)
            self._start_task(worker, task, t)

    def _start_task(self, worker: WorkerState, task, t: float):
        # A re-dispatched task is running already.
        if self.state.task_states.get(task.task_id) == cm.SCHEDULED:
            self.state.mark_running(task.task_id)
            self.engine._task_ev(t, task, "running", self.pid, with_resources=True)
        self.engine.backend.run_function(self, worker, task, t)

    def _complete(self, task, outcome: str, result, t: float):
        self.remaining -= 1
        self.engine._complete(self.pid, self.state, task, outcome, result, t)

    def on_fn_done(self, worker: WorkerState, task, outcome: str, result,
                   t: float) -> bool:
        if self._done:
            return False
        worker.completed += 1
        worker.outstanding -= 1
        if self.state.task_states.get(task.task_id) == cm.RUNNING:
            self._complete(task, outcome, result, t)
        if worker.queue and self.state.status == cm.RUNNING:
            self._start_task(worker, worker.queue.popleft(), t)
        else:
            self.engine._ev(t, "worker", worker.worker_id, "idle", pipeline=self.pid)
        if self.remaining == 0 or self.state.status != cm.RUNNING:
            self.teardown(t)
        else:
            self._refill(self._owner[worker.worker_id], t)
        return True

    def on_death(self, worker: WorkerState, task, t: float) -> bool:
        if self._done:
            return False
        worker.stopped_t = t
        self.engine._ev(t, "worker", worker.worker_id, "stopped", pipeline=self.pid)
        master = self._owner[worker.worker_id]
        master.workers = [w for w in master.workers if w is not worker]
        orphans = list(worker.queue)
        worker.queue.clear()
        worker.outstanding = 0
        if not master.workers:
            raise DispatchError(f"master {master.master_id} lost all workers")
        if task.task_id in self._redispatched:
            self._complete(task, cm.FAILED, "worker died twice", t)
        else:
            self._redispatched.add(task.task_id)
            orphans.insert(0, task)
        if orphans:
            master.dispatch(Bulk(f"redispatch.{worker.worker_id}", orphans))
        if self.remaining == 0 or self.state.status != cm.RUNNING:
            self.teardown(t)
        else:
            self._pump(master, t)
        return True

    def teardown(self, t: float):
        self._done = True
        for worker in self.workers:
            if worker.stopped_t is None:
                worker.stopped_t = t
                self.engine._ev(t, "worker", worker.worker_id, "stopped", pipeline=self.pid)
        for master in self.masters:
            self.engine._ev(t, "master", master.master_id, "stopped", pipeline=self.pid)
        for pl in self.placements:
            self.engine._vacate(pl, t)
        self.engine.overlay_workers.extend(self.workers)
        self.engine._overlays.pop(self.key, None)


# ---------------------------------------------------------------------------
# backends

class _SimulatedBackend:
    """Virtual clock and an event heap; every task takes its sampled
    duration, starting ``sched_gap_s`` after its scheduling decision."""

    overlay_on_pilot = True
    # From the first stage start on, the run allocates tasks' events, pool
    # entries and heap entries in bulk and frees next to no cycles, so the
    # cyclic collector is paused.
    bulk_allocation = staticmethod(gc_paused)

    def __init__(self, engine: Engine):
        self.engine = engine
        self._heap: list = []
        self._seq = 0
        self.t = 0.0
        self._gap = float(engine.spec.resource.sched_gap_s)    # floats, as trace times are

    def now(self) -> float:
        return self.t

    def _push(self, t, handler, args):
        heapq.heappush(self._heap, (t, self._seq, handler, args))
        self._seq += 1

    def start(self) -> float:
        self.t = float(self.engine.spec.resource.bootstrap_s)
        return self.t

    def launch(self, pid: str, task, pl, t: float):
        self._push(t + self._gap, self._on_start, (pid, task, pl))

    def _on_start(self, pid: str, task, pl, t: float) -> bool:
        if self.engine.states[pid].task_states.get(task.task_id) != cm.SCHEDULED:
            return False
        self.engine._run(pid, task, pl, t)
        # Simulated tasks yield their payload as their result.
        self._push(t + _task_duration(task, self.engine.spec), self.engine._finish,
                   (pid, task, cm.DONE, task.payload))
        return False

    def run_function(self, overlay: _Overlay, worker: WorkerState, task, t: float):
        dur = _task_duration(task, self.engine.spec)
        worker.busy_time_s += dur
        self._push(t + dur, overlay.on_fn_done, (worker, task, cm.DONE, task.payload))

    def loop(self):
        heap = self._heap
        walltime = float(self.engine.spec.resource.walltime_s)
        while heap:
            t = heap[0][0]
            if t > walltime:
                self.t = walltime
                self.engine._expire(walltime)
                return
            batch = []
            while heap and heap[0][0] == t:
                batch.append(heapq.heappop(heap))
            self.t = t
            progressed = False
            for (_, _, handler, args) in batch:
                if handler(*args, t):
                    progressed = True
            if progressed:
                self.engine._schedule_round(t)


class _LocalBackend:
    """Wall clock and a notification queue.  Simulated-kind tasks sleep
    for their sampled duration, executables run as subprocesses, and
    function tasks run on overlay worker threads.  Times in the trace are
    wall-clock seconds since pilot acquisition.

    Each executable runs in its own process group.  When the loop ends,
    at walltime or otherwise, the groups still live are killed and
    reaped, so no executable outlives the run."""

    overlay_on_pilot = False
    # Threads and user code run alongside; the collector stays as it is.
    bulk_allocation = staticmethod(nullcontext)

    def __init__(self, engine: Engine):
        tasks = [t for pipe in engine.spec.pipelines for st in pipe.stages for t in st.tasks]
        if any(t.nodes > 1 for t in tasks):
            raise ConfigError("multi-node tasks run in simulated mode only")
        if engine.overlay_cfg is None and any(t.kind == "function" for t in tasks):
            raise ConfigError("function tasks on the local backend need an overlay config")
        self.engine = engine
        self._queue: queue_mod.Queue = queue_mod.Queue()
        self._stop = threading.Event()
        self._procs: set[subprocess.Popen] = set()
        self._procs_lock = threading.Lock()
        self._t0 = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def start(self) -> float:
        self._t0 = time.perf_counter()
        return self.now()

    def launch(self, pid: str, task, pl, t: float):
        self.engine._run(pid, task, pl, self.now())
        threading.Thread(target=self._run_task, args=(pid, task), daemon=True).start()

    def _run_task(self, pid: str, task: cm.TaskDescriptor):
        outcome, result = cm.DONE, task.payload
        try:
            if task.kind == "simulated":
                if self._stop.wait(_task_duration(task, self.engine.spec)):
                    return
            elif task.kind == "executable":
                argv = (task.payload or {}).get("argv")
                if not argv:
                    outcome, result = cm.FAILED, "no argv"
                else:
                    ended = self._execute(argv)
                    if ended is None:
                        return
                    outcome, result = ended   # stdout: JSON bytes, decoded by campaign
            else:
                outcome, result = cm.FAILED, "function tasks need the overlay"
        except Exception as exc:  # pragma: no cover - defensive
            outcome, result = cm.FAILED, str(exc)
        self._queue.put((self.engine._finish, (pid, task, outcome, result)))

    def _execute(self, argv) -> tuple[str, bytes] | None:
        """Run an executable until it exits: its outcome and stdout.  None
        if the walltime or the run ends first; the engine then cancels it."""
        with self._procs_lock:
            if self._stop.is_set():
                return None
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    start_new_session=True)
            self._procs.add(proc)
        try:
            remaining = self.engine.spec.resource.walltime_s - self.now()
            stdout, _ = proc.communicate(timeout=max(remaining, 0.0))
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            proc.communicate()
            return None
        finally:
            with self._procs_lock:
                self._procs.discard(proc)
        return (cm.DONE if proc.returncode == 0 else cm.FAILED), stdout

    def run_function(self, overlay: _Overlay, worker: WorkerState, task, t: float):
        # A worker runs one task at a time, so each call gets its own thread.
        threading.Thread(target=self._call, args=(overlay, worker, task), daemon=True).start()

    def _call(self, overlay: _Overlay, worker: WorkerState, task):
        start = time.perf_counter()
        try:
            outcome, result = cm.DONE, call_function(task.payload)
        except WorkerKilled:
            self._queue.put((overlay.on_death, (worker, task)))
            return
        except Exception as exc:
            outcome, result = cm.FAILED, str(exc)
        worker.busy_time_s += time.perf_counter() - start
        self._queue.put((overlay.on_fn_done, (worker, task, outcome, result)))

    def loop(self):
        engine = self.engine
        walltime = engine.spec.resource.walltime_s
        try:
            while any(st.status == cm.RUNNING for st in engine.states.values()):
                remaining = walltime - self.now()
                if remaining <= 0:
                    engine._expire(self.now())
                    return
                try:
                    handler, args = self._queue.get(timeout=min(remaining, 0.05))
                except queue_mod.Empty:
                    continue
                handler(*args, self.now())
                engine._schedule_round(self.now())
        finally:
            with self._procs_lock:
                self._stop.set()
                live = list(self._procs)
            for proc in live:
                _kill_group(proc)
                proc.wait()


def _kill_group(proc: subprocess.Popen):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# public entry points

def run_campaign(spec: cm.CampaignSpec, overlay: MasterConfig | None = None,
                 sink: TraceSink | None = None) -> RunResult:
    return Engine(spec, sink=sink, overlay=overlay).run()


def run_executor(resource: PilotSpec, tasks: list[cm.TaskDescriptor], seed: int = 0,
                 time_scale: float = 1.0, sink: TraceSink | None = None,
                 overlay: MasterConfig | None = None) -> RunResult:
    """Run one batch of tasks on a fresh pilot; completions come back in
    nondecreasing time order."""
    pipeline = cm.PipelineSpec("exec", [cm.StageSpec("batch", list(tasks))])
    spec = cm.CampaignSpec([pipeline], resource, seed=seed, mode=resource.backend,
                           time_scale=time_scale)
    return run_campaign(spec, overlay=overlay, sink=sink)


def run_overlay(resource: PilotSpec, config: MasterConfig,
                tasks: list[cm.TaskDescriptor], seed: int = 0,
                time_scale: float = 1.0, sink: TraceSink | None = None) -> RunResult:
    """Run function tasks through the master/worker overlay on a pilot."""
    return run_executor(resource, tasks, seed=seed, time_scale=time_scale,
                        sink=sink, overlay=config)
