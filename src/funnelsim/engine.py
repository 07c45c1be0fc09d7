"""Campaign execution engine: one core, two backends.

``Engine`` does everything a run does wherever its tasks execute: the
trace, node busy/idle accounting, stage advancement, walltime expiry,
the RunResult, and each task's route, fixed when its stage starts.  With
an overlay config, a stage's function tasks run on one master/worker
overlay of that stage, which books its workers' busy time, and its other
tasks take first-fit rounds on the pilot; without one, every task goes
to the pilot.  The engine starts every task; a backend supplies only the
clock and one executor call, ``execute``, which runs a task of any kind on
a slot or a worker and posts its end.  Every task yields its payload,
except a local executable, which yields its stdout.  The simulated backend
is a deterministic event loop over a virtual clock, with each duration
drawn from (campaign seed, task id), so identical configs give
byte-identical traces.  The local backend runs tasks concurrently on the
host (threads and subprocesses) and reports wall-clock times; state
changes stay in the engine thread, and workers only post notices to a queue.

A failure and a walltime cut stop a pipeline by one rule (a cut stops each
running pipeline in turn): its overlays stop first, then its open tasks are
canceled in declaration order, each after its slots are freed.

Per-task state lives only in each ``PipelineState.task_states``.  A
pipeline's open tasks are all in its current stage, and placements,
dispatches, cancels and handlers hand back the task objects (handlers
with their pipeline id, or their master and worker), so the engine maps
no task or worker ids.
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
from .pilot import Pilot, PilotSpec, acquire_pilot
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
        if overlay is not None and self.backend.overlay_on_pilot:
            self._check_overlay_fits()
        self.states = {p.pipeline_id: cm.PipelineState(p) for p in spec.pipelines}
        self._running_slots = [0] * spec.resource.nodes
        self._overlays: list[_Overlay] = []
        self.overlay_workers: list[WorkerState] = []
        self._walltime_hit = False
        # Per-pipeline queue of not-yet-placed tasks of the current stage,
        # with a live count per raw demand for early round exit.
        self._pending: dict[str, deque] = {pid: deque() for pid in self.states}
        self._pool_shapes: dict[str, dict] = {pid: {} for pid in self.states}
        # Per-pipeline function tasks of the current stage awaiting its overlay.
        self._awaiting: dict[str, list] = {pid: [] for pid in self.states}

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
            if self._running_slots[n] == 0:
                self._ev(t, "node", f"{self.pilot.pilot_id}/{n}", "busy")
            self._running_slots[n] += cnt

    def _vacate(self, placement, t):
        """Release a placement and mark the nodes it leaves empty idle."""
        self.pilot.release(placement)
        cnt = placement.cpus + placement.gpus
        for n in placement.node_indices:
            self._running_slots[n] -= cnt
            if self._running_slots[n] == 0:
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
        awaiting = self._awaiting[pid] if self.overlay_cfg is not None else None
        for task in state.current_tasks():
            self._task_ev(t, task, "pending", pid)
            if awaiting is not None and task.kind == "function":
                awaiting.append(task)
                continue
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
            self._cancel(pid, result.canceled, t)
            self._ev(t, "pipeline", pid, "failed", pipeline=pid)

    def _cancel(self, pid: str, tasks: list, t: float):
        """Stop pipeline ``pid``'s overlays, then free the slots of each of its
        open ``tasks`` and cancel it.  No round reads a stopped pipeline's pools."""
        for runtime in [o for o in self._overlays if o.pid == pid]:
            runtime.teardown(t)
        for task in tasks:
            if pl := self.pilot.live.get(task.task_id):
                self._vacate(pl, t)
            self._task_ev(t, task, "canceled", pid)

    # -- scheduling ---------------------------------------------------------

    def _schedule_round(self, t: float):
        active = [(pid, state) for pid, state in self.states.items()
                  if state.status == cm.RUNNING]
        if self.spec.pipeline_mode == "sequential":
            active = active[:1]
        for pid, state in active:
            if self._awaiting[pid]:
                self._start_overlay(pid, state, t)
            pool = self._pending[pid]
            if not pool:
                continue
            for pl in self.pilot.schedule(pool, self._pool_shapes[pid]):
                task = pl.task
                state.mark_scheduled(task.task_id)
                self._task_ev(t, task, "scheduled", pid)
                self.backend.launch(pid, task, pl, t)

    def _overlay_demands(self, prefix: str) -> deque:
        """The overlay's masters, then its workers, as one-node tasks.  A
        worker holds one gpu slot on a pilot that has gpus, else one cpu."""
        config = self.overlay_cfg
        w_cpus, w_gpus = (0, 1) if self.spec.resource.gpus_per_node > 0 else (1, 0)
        demands = deque(cm.TaskDescriptor(f"{prefix}.m{m:02d}", cpus=1, gpus=0)
                        for m in range(config.n_masters))
        demands.extend(cm.TaskDescriptor(f"{prefix}.w{w:04d}", cpus=w_cpus, gpus=w_gpus)
                       for w in range(config.n_masters * config.workers_per_master))
        return demands

    def _check_overlay_fits(self):
        """Refuse, before the run, an overlay that does not fit an idle
        pilot: no stage could ever place it."""
        config, res = self.overlay_cfg, self.spec.resource
        n_workers = config.n_masters * config.workers_per_master
        w_gpus = int(res.gpus_per_node > 0)
        # What the pilot's cpu and gpu totals cannot hold never fits; under
        # them no master or worker outgrows a node, so placement cannot raise.
        if (config.n_masters + n_workers * res.effective_cpus(1 - w_gpus, w_gpus)
                <= res.nodes * res.cpus_per_node
                and n_workers * w_gpus <= res.nodes * res.gpus_per_node):
            demands = self._overlay_demands("ovl")
            Pilot(res).schedule(demands)
            if not demands:
                return
        raise DispatchError(f"pilot lacks capacity for {config.n_masters} masters + "
                            f"{n_workers} workers")

    def _start_overlay(self, pid: str, state: cm.PipelineState, t: float):
        """Start the overlay of the stage's awaiting function tasks once all its
        masters and workers fit on the pilot; local ones run on host threads."""
        tasks, placements = self._awaiting[pid], []
        if self.backend.overlay_on_pilot:
            demands = self._overlay_demands(f"ovl.{pid}.{state.current_stage().stage_id}")
            placements = self.pilot.schedule(demands)
            if demands:     # it fits the idle pilot, so a later round places it
                for pl in placements:
                    self.pilot.release(pl)
                return
        self._overlays.append(_Overlay(self, pid, state, tasks, placements, t))
        self._awaiting[pid] = []

    # -- task lifecycle -------------------------------------------------------

    def _start(self, pid: str, task, pl, t: float) -> bool:
        """A placed task, unless canceled since, starts on its slots and its
        executor runs it.  A start frees nothing, so it asks for no round."""
        state = self.states[pid]
        if state.task_states.get(task.task_id) == cm.SCHEDULED:
            state.mark_running(task.task_id)
            self._task_ev(t, task, "running", pid, with_resources=True)
            self._occupy(pl, t)
            self.backend.execute(task, t, self._finish, (pid, task))
        return False

    def _finish(self, pid: str, task, outcome: str, result, duration: float,
                t: float) -> bool:
        """A placed task of pipeline ``pid`` ended; stale notices for canceled
        tasks are dropped.  Returns whether a completion was applied."""
        state = self.states[pid]
        if state.task_states.get(task.task_id) != cm.RUNNING:
            return False
        self._vacate(self.pilot.live[task.task_id], t)
        self._complete(pid, state, task, outcome, result, t)
        return True

    def _complete(self, pid: str, state: cm.PipelineState, task, outcome: str,
                  result, t: float):
        self._task_ev(t, task, outcome, pid)
        adv = state.on_task_complete(task.task_id, outcome, result=result)
        self._apply_advance(pid, state, adv, t)

    def _expire(self, t: float):
        self._walltime_hit = True
        for pid, state in self.states.items():
            if state.status == cm.RUNNING:
                self._cancel(pid, state.cancel(), t)
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
    worker that dies has its outstanding tasks re-dispatched once; a task
    that loses a second worker, or its master's last, fails.  The overlay
    stops once its tasks have ended, its pipeline fails or the walltime
    cuts the run.  A worker's busy time is the run time of each task it
    ended, plus the part run so far at a stop.
    """

    def __init__(self, engine: Engine, pid: str, state: cm.PipelineState,
                 tasks: list[cm.TaskDescriptor], placements: list, t: float):
        config = engine.overlay_cfg
        stage = state.current_stage()
        self.engine = engine
        self.pid = pid
        self.state = state
        # The stage's function tasks; in a stage that mixes kinds, the
        # pilot may still run the others when these end.
        self.remaining = len(tasks)
        self._done = False
        self._redispatched: set[str] = set()
        self._started: dict[str, float] = {}    # worker id -> its running task's start

        prefix = f"ovl.{pid}.{stage.stage_id}"
        self.placements = placements
        for pl in placements:
            engine._occupy(pl, t)

        self.workers: list[WorkerState] = []
        self.masters: list[Master] = []
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
            self.masters.append(Master(mid, owned, policy=config.rebalance_policy))

        bulks = partition_bulks(tasks, config.bulk_size, prefix=f"{pid}.{stage.stage_id}.b")
        for master, assigned in zip(self.masters, round_robin_assign(bulks, len(self.masters))):
            master.pending_bulks.extend(assigned)
        for master in self.masters:
            self._refill(master, t)

    def _refill(self, master: Master, t: float):
        while master.wants_refill(self.engine.overlay_cfg.low_water):
            bulk = master.pending_bulks.popleft()
            self.engine._ev(t, "master", master.master_id, "bulk_created", pipeline=self.pid)
            for tasks in master.dispatch(bulk).values():
                for task in tasks:
                    self.state.mark_scheduled(task.task_id)
                    self.engine._task_ev(t, task, "scheduled", self.pid)
            self._pump(master, t)

    def _pump(self, master: Master, t: float):
        for worker in master.workers:
            if worker.queue and worker.worker_id not in self._started:
                self.engine._ev(t, "worker", worker.worker_id, "busy", pipeline=self.pid)
                self._start_task(master, worker, worker.queue.popleft(), t)

    def _start_task(self, master: Master, worker: WorkerState, task, t: float):
        # A re-dispatched task is running already.
        if self.state.task_states.get(task.task_id) == cm.SCHEDULED:
            self.state.mark_running(task.task_id)
            self.engine._task_ev(t, task, "running", self.pid, with_resources=True)
        self._started[worker.worker_id] = t
        self.engine.backend.execute(task, t, self.on_fn_done, (master, worker, task),
                                    self.on_death)

    def _complete(self, task, outcome: str, result, t: float):
        # A task that fails its pipeline tears this overlay down (``_done``).
        self.remaining -= 1
        self.engine._complete(self.pid, self.state, task, outcome, result, t)

    def on_fn_done(self, master: Master, worker: WorkerState, task, outcome: str, result,
                   dur: float, t: float) -> bool:
        if self._done:
            return False
        worker.busy_time_s += dur
        del self._started[worker.worker_id]
        worker.completed += 1
        worker.outstanding -= 1
        self._complete(task, outcome, result, t)
        if self._done:
            return True
        if worker.queue:
            self._start_task(master, worker, worker.queue.popleft(), t)
        else:
            self.engine._ev(t, "worker", worker.worker_id, "idle", pipeline=self.pid)
        if self.remaining == 0:
            self.teardown(t)
        else:
            self._refill(master, t)
        return True

    def on_death(self, master: Master, worker: WorkerState, task, t: float) -> bool:
        if self._done:
            return False
        worker.stopped_t = t
        del self._started[worker.worker_id]
        self.engine._ev(t, "worker", worker.worker_id, "stopped", pipeline=self.pid)
        master.workers = [w for w in master.workers if w is not worker]
        orphans = [task, *worker.queue]
        worker.queue.clear()
        worker.outstanding = 0
        # A failed task fails its pipeline, which tears this overlay down.
        if not master.workers:   # nothing to re-dispatch to
            self._complete(task, cm.FAILED, f"master {master.master_id} lost all workers", t)
        elif task.task_id in self._redispatched:
            self._complete(task, cm.FAILED, "worker died twice", t)
        else:
            self._redispatched.add(task.task_id)
            master.dispatch(Bulk(f"redispatch.{worker.worker_id}", orphans))
            self._pump(master, t)
        return True

    def teardown(self, t: float):
        self._done = True
        for worker in self.workers:
            if worker.worker_id in self._started:
                worker.busy_time_s += t - self._started[worker.worker_id]
            if worker.stopped_t is None:
                worker.stopped_t = t
                self.engine._ev(t, "worker", worker.worker_id, "stopped", pipeline=self.pid)
        for master in self.masters:
            self.engine._ev(t, "master", master.master_id, "stopped", pipeline=self.pid)
        for pl in self.placements:
            self.engine._vacate(pl, t)
        self.engine.overlay_workers.extend(self.workers)
        self.engine._overlays.remove(self)


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
        self._push(t + self._gap, self.engine._start, (pid, task, pl))

    def execute(self, task, t: float, on_end, args: tuple, on_death=None):
        # No simulated task dies yet, so ``on_death`` goes unused.
        duration = _task_duration(task, self.engine.spec)
        self._push(t + duration, on_end, (*args, cm.DONE, task.payload, duration))

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
    """Wall clock and a notification queue.  Each task runs on a thread
    of its own, as a worker runs one task at a time: simulated-kind tasks
    sleep for their sampled duration, executables run as subprocesses,
    and function tasks call their function.  Times in the trace are
    wall-clock seconds since pilot acquisition.

    Each executable runs in its own process group.  When the loop ends,
    at walltime or otherwise, the groups still live are killed and
    reaped, so no executable outlives the run."""

    overlay_on_pilot = False
    # Threads and user code run alongside; the collector stays as it is.
    bulk_allocation = staticmethod(nullcontext)

    def __init__(self, engine: Engine):
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
        self.engine._start(pid, task, pl, self.now())

    def execute(self, task, t: float, on_end, args: tuple, on_death=None):
        threading.Thread(target=self._run, args=(task, on_end, args, on_death),
                         daemon=True).start()

    def _run(self, task: cm.TaskDescriptor, on_end, args: tuple, on_death):
        start = time.perf_counter()
        outcome, result = cm.DONE, task.payload
        try:
            if task.kind == "simulated":
                if self._stop.wait(_task_duration(task, self.engine.spec)):
                    return
            elif task.kind == "executable":
                ended = self._run_argv((task.payload or {}).get("argv"))
                if ended is None:
                    return
                outcome, result = ended   # stdout: JSON bytes, decoded by campaign
            else:
                call_function(task.payload)
        except WorkerKilled as exc:
            if on_death is not None:
                self._queue.put((on_death, args))
                return
            outcome, result = cm.FAILED, str(exc)
        except Exception as exc:
            outcome, result = cm.FAILED, str(exc)
        self._queue.put((on_end, (*args, outcome, result, time.perf_counter() - start)))

    def _run_argv(self, argv) -> tuple[str, bytes | str] | None:
        """Run an executable until it exits: its outcome and stdout ("no argv"
        without one).  None if the walltime or the run ends first."""
        if not argv:
            return cm.FAILED, "no argv"
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
