"""Campaign data model and the pipeline/stage/task state machine.

A campaign is a set of pipelines over one resource allocation.  Each
pipeline is an ordered list of stages; tasks inside a stage carry no
mutual ordering, and stage i+1 cannot start until every task of stage i
reached a terminal state.  Pipelines progress independently of each
other.

Payloads and stage outputs are JSON-shaped Python values (a dict, a
list or None), handed on as they are; only an executable's stdout
arrives as bytes, decoded as JSON where outputs are read.  A stage may
declare a post_hook, a filter function applied to the stage's outputs
when its last task terminates; the filtered items become the payloads of
the next stage's tasks, which a builder function makes on the spot when
the next stage declares a materializer.  Both happen in the run's
PipelineState; the spec itself is never written to.  The funnel's
filters and builders live in the workload module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .errors import OrderingError, StateError
from .pilot import PilotSpec

TASK_KINDS = ("executable", "function", "simulated")

PENDING = "pending"
SCHEDULED = "scheduled"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELED = "canceled"
TERMINAL = (DONE, FAILED, CANCELED)


@dataclass(frozen=True)
class FixedDuration:
    """A literal duration in (simulated or wall) seconds."""
    seconds: float


@dataclass(frozen=True)
class SampledDuration:
    """Resolved stage-cost duration model.

    The sampled duration in seconds is
    ``node_seconds / nodes_per_task * time_scale * tail``, where the
    tail multiplier has median 1 (lognormal(sigma) or a Pareto mixture).
    """
    stage_tag: str
    node_seconds: float
    nodes_per_task: float = 1.0
    tail_kind: str = "lognormal"
    tail_params: tuple = (0.0,)

    def sample_from_uniforms(self, u1: float, u2: float, time_scale: float = 1.0) -> float:
        """Draw from two (0,1) uniforms; used with hash-derived streams
        so a task's duration depends only on (seed, task_id)."""
        base = self.node_seconds / self.nodes_per_task * time_scale
        if self.tail_kind == "lognormal":
            sigma = float(self.tail_params[0])
            if sigma <= 0:
                return base
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            return base * math.exp(sigma * z)
        if self.tail_kind == "pareto_mix":
            alpha, mix = float(self.tail_params[0]), float(self.tail_params[1])
            if u1 >= mix:
                return base
            return base * (1.0 - u2) ** (-1.0 / alpha)
        raise ValueError(f"unknown tail kind {self.tail_kind!r}")


DurationModel = FixedDuration | SampledDuration


@dataclass
class TaskDescriptor:
    task_id: str
    kind: str = "simulated"
    stage_tag: str = "other"
    cpus: int = 1
    gpus: int = 0
    nodes: int = 1
    duration_model: DurationModel = FixedDuration(0.0)
    payload: object = None


@dataclass(frozen=True)
class HookSpec:
    """Inter-stage filter: ``op(params, items)`` returns the items kept."""
    op: Callable[[dict, list[dict]], list[dict]]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MaterializeSpec:
    """Builds a stage's task list from the previous stage's filtered
    outputs: ``builder(params, items)`` returns the tasks."""
    builder: Callable[[dict, list[dict]], list[TaskDescriptor]]
    params: dict = field(default_factory=dict)


@dataclass
class StageSpec:
    stage_id: str
    tasks: list[TaskDescriptor] = field(default_factory=list)
    post_hook: Optional[HookSpec] = None
    materialize: Optional[MaterializeSpec] = None


@dataclass
class PipelineSpec:
    pipeline_id: str
    stages: list[StageSpec] = field(default_factory=list)


@dataclass
class CampaignSpec:
    pipelines: list[PipelineSpec]
    resource: PilotSpec
    seed: int = 0
    mode: str = "simulated"           # simulated | local, mirrors resource.backend
    time_scale: float = 1.0           # simulated seconds per modeled second
    pipeline_mode: str = "concurrent"  # concurrent | sequential


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.subject}: {self.message}"


def validate_campaign(spec: CampaignSpec) -> list[Violation]:
    """Check every campaign invariant; an empty report means valid."""
    out: list[Violation] = []
    for msg in spec.resource.validate():
        out.append(Violation("resource", "pilot", msg))
    if not (0 <= spec.seed < 2 ** 64):
        out.append(Violation("seed", str(spec.seed), "seed must fit in 64 unsigned bits"))
    if not spec.time_scale > 0:  # NaN fails too
        out.append(Violation("time_scale", str(spec.time_scale), "time_scale must be positive"))
    if spec.mode not in ("simulated", "local"):
        out.append(Violation("mode", spec.mode, "mode must be simulated or local"))
    elif spec.mode != spec.resource.backend:
        out.append(Violation("mode", spec.mode,
                             f"mode must match resource.backend {spec.resource.backend!r}"))
    if spec.pipeline_mode not in ("concurrent", "sequential"):
        out.append(Violation("pipeline_mode", spec.pipeline_mode,
                             "pipeline_mode must be concurrent or sequential"))

    seen: set[str] = set()
    pilot = spec.resource
    for pipe in spec.pipelines:
        if type(pipe.pipeline_id) is not str:
            out.append(Violation("type", str(pipe.pipeline_id), "pipeline_id must be str"))
        for stage in pipe.stages:
            if not stage.tasks and stage.materialize is None:
                out.append(Violation("empty_stage", f"{pipe.pipeline_id}/{stage.stage_id}",
                                     "stage has no tasks and no materializer"))
            for task in stage.tasks:
                if task.task_id in seen:
                    out.append(Violation("duplicate_id", task.task_id,
                                         "task_id reused within the campaign"))
                seen.add(task.task_id)
                out.extend(_validate_task(task, pilot, pipe.pipeline_id))
    return out


def _validate_task(task: TaskDescriptor, pilot: PilotSpec, pipeline_id: str) -> list[Violation]:
    if not (type(task.task_id) is type(task.stage_tag) is str
            and type(task.cpus) is type(task.gpus) is type(task.nodes) is int):
        return [Violation("type", str(task.task_id), f"{name} must be {cls.__name__}, got {v!r}")
                for name, cls in dict(task_id=str, stage_tag=str, cpus=int, gpus=int, nodes=int).items()
                if type(v := getattr(task, name)) is not cls]
    out = []
    if task.kind not in TASK_KINDS:
        out.append(Violation("kind", task.task_id, f"unknown kind {task.kind!r}"))
    if task.cpus < 0 or task.gpus < 0:
        out.append(Violation("resources", task.task_id, "negative resource counts"))
    if task.cpus + task.gpus <= 0:
        out.append(Violation("zero_resources", task.task_id, "cpus + gpus must be > 0"))
    if task.nodes < 1:
        out.append(Violation("nodes", task.task_id, "nodes must be >= 1"))
    if task.nodes > 1 and task.kind != "executable":
        out.append(Violation("multi_node_kind", task.task_id,
                             f"multi-node tasks must be kind=executable, got {task.kind}"))
    for why in pilot.unfit(task):
        out.append(Violation("capacity", task.task_id, why))
    return out


# ---------------------------------------------------------------------------
# post hooks

def _parse_output(task_id: str, out) -> list[dict]:
    """An output is {"items": [...]}, a list of items, a single record,
    or None for no items; an executable's stdout holds one as JSON."""
    if isinstance(out, bytes):
        try:
            out = json.loads(out.decode("utf-8")) if out else None
        except (ValueError, UnicodeDecodeError) as exc:
            raise StateError(f"output of task {task_id} is not parseable: {exc}") from exc
    if out is None:
        return []
    if isinstance(out, dict):
        return out["items"] if "items" in out else [out]
    if isinstance(out, list):
        return out
    raise StateError(f"output of task {task_id} has no items")


def apply_post_hook(hook: Optional[HookSpec], outputs: list[tuple[str, object]]) -> list[dict]:
    """Apply a hook to stage outputs (sorted by task_id for determinism).
    Items are shared with the outputs, so hooks never mutate them."""
    items: list[dict] = []
    for task_id, out in sorted(outputs, key=lambda p: p[0]):
        items.extend(_parse_output(task_id, out))
    if hook is None:
        return items
    return hook.op(hook.params, items)


def materialize_tasks(spec: MaterializeSpec, items: list[dict]) -> list[TaskDescriptor]:
    return spec.builder(spec.params, items)


# ---------------------------------------------------------------------------
# state machine

@dataclass
class AdvanceResult:
    """What happened when a task completion was applied."""
    kind: str                       # none | stage_advanced | pipeline_done | pipeline_failed
    stage_index: int = -1
    canceled: list[TaskDescriptor] = field(default_factory=list)


class PipelineState:
    """Runtime state of one pipeline.

    Mutation is meant to be serialized through a single owner (the
    engine loop); snapshots via ``projection`` are safe to share.
    ``task_states`` is the one record kept per task for the whole run;
    tasks enter it when their stage becomes current, and tasks of stages
    not yet reached are implicitly pending.  Only the current stage has
    open tasks, as every earlier one is terminal; ``outputs`` holds its
    results only.

    The spec is never written to: ``stage_tasks`` holds this run's task
    list per stage, which materializers and hook payloads replace, so
    the same spec can be run again.
    """

    def __init__(self, spec: PipelineSpec):
        self.spec = spec
        self.current_stage_index = 0
        self.status = RUNNING
        self.task_states: dict[str, str] = {}
        self.outputs: dict[str, object] = {}
        self.stage_tasks: list[list[TaskDescriptor]] = [list(st.tasks) for st in spec.stages]
        self._open_in_stage = 0
        if not spec.stages:
            raise StateError(f"pipeline {spec.pipeline_id} has no stages")
        self._register_stage(0)

    @property
    def pipeline_id(self) -> str:
        return self.spec.pipeline_id

    def _register_stage(self, index: int) -> None:
        tasks = self.stage_tasks[index]
        for task in tasks:
            if task.task_id in self.task_states:
                raise StateError(f"duplicate task_id {task.task_id}")
            self.task_states[task.task_id] = PENDING
        self.outputs = {}
        self._open_in_stage = len(tasks)

    def current_stage(self) -> StageSpec:
        return self.spec.stages[self.current_stage_index]

    def current_tasks(self) -> list[TaskDescriptor]:
        """The current stage's tasks in this run, in declaration order."""
        return self.stage_tasks[self.current_stage_index]

    def _step(self, task_id: str, before: str, after: str) -> None:
        """Move an open task on; being open, it is in the current stage."""
        state = self.task_states.get(task_id)
        if state is None:
            raise StateError(f"unknown task {task_id}")
        if state != before:
            raise OrderingError(f"task {task_id} is {state}, not {before}")
        self.task_states[task_id] = after

    def mark_scheduled(self, task_id: str) -> None:
        self._step(task_id, PENDING, SCHEDULED)

    def mark_running(self, task_id: str) -> None:
        self._step(task_id, SCHEDULED, RUNNING)

    def on_task_complete(self, task_id: str, outcome: str, result=None) -> AdvanceResult:
        """Record a terminal state; advance the stage barrier when the
        current stage fully completes, applying the post_hook and
        materializing the next stage's tasks."""
        if outcome not in (DONE, FAILED):
            raise ValueError(f"outcome must be done or failed, got {outcome!r}")
        if task_id not in self.task_states:
            raise StateError(f"unknown task {task_id}")
        state = self.task_states[task_id]
        if state in TERMINAL:
            raise OrderingError(f"task {task_id} already terminal ({state})")
        if state != RUNNING:
            raise OrderingError(f"task {task_id} is {state}, not running")
        self.task_states[task_id] = outcome
        self.outputs[task_id] = result
        self._open_in_stage -= 1

        if outcome == FAILED:
            return self._fail_pipeline()

        if self._open_in_stage > 0:
            return AdvanceResult("none", self.current_stage_index)
        return self._advance_stage()

    def _fail_pipeline(self) -> AdvanceResult:
        self.status = FAILED
        canceled = self._cancel_open()
        return AdvanceResult("pipeline_failed", self.current_stage_index, canceled=canceled)

    def _cancel_open(self) -> list[TaskDescriptor]:
        """Cancel the open tasks, all of the current stage, in declaration order."""
        states = self.task_states
        canceled = [task for task in self.current_tasks() if states[task.task_id] not in TERMINAL]
        for task in canceled:
            states[task.task_id] = CANCELED
        return canceled

    def cancel(self) -> list[TaskDescriptor]:
        """Cancel the whole pipeline (e.g. pilot walltime expired)."""
        if self.status == RUNNING:
            self.status = CANCELED
        return self._cancel_open()

    def _advance_stage(self) -> AdvanceResult:
        stage = self.current_stage()
        next_index = self.current_stage_index + 1
        next_stage = self.spec.stages[next_index] if next_index < len(self.spec.stages) else None
        # Outputs are only interpreted when a hook or a materializer
        # consumes them; results of plain terminal stages are never read.
        needs_items = stage.post_hook is not None or (
            next_stage is not None and next_stage.materialize is not None)
        selected: list[dict] = []
        if needs_items:
            outputs = [(t.task_id, self.outputs.get(t.task_id)) for t in self.current_tasks()]
            try:
                selected = apply_post_hook(stage.post_hook, outputs)
            except StateError:
                return self._fail_pipeline()
        if next_stage is None:
            self.status = DONE
            return AdvanceResult("pipeline_done", self.current_stage_index)

        if next_stage.materialize is not None:
            self.stage_tasks[next_index] = materialize_tasks(next_stage.materialize, selected)
        elif stage.post_hook is not None:
            if len(selected) != len(self.stage_tasks[next_index]):
                return self._fail_pipeline()
            self.stage_tasks[next_index] = [replace(task, payload=item) for task, item
                                            in zip(self.stage_tasks[next_index], selected)]
        if not self.stage_tasks[next_index]:
            # A funnel that filters everything away cannot continue.
            return self._fail_pipeline()

        self.current_stage_index = next_index
        self._register_stage(next_index)
        return AdvanceResult("stage_advanced", next_index)

    def projection(self) -> dict:
        """Comparable snapshot: used by the trace-replay check."""
        return {
            "task_states": dict(self.task_states),
            "stages_started": self.current_stage_index + 1,
            "status": self.status,
        }


# ---------------------------------------------------------------------------
# trace replay

def replay_trace(events) -> dict[str, dict]:
    """Re-derive final pipeline states purely from a task/pipeline/stage
    event log; the result matches PipelineState.projection() per pipeline."""
    task_states: dict[str, dict[str, str]] = {}
    stages_started: dict[str, int] = {}
    status: dict[str, str] = {}
    for ev in events:
        if ev.entity == "stage" and ev.transition == "started" and ev.pipeline:
            stages_started[ev.pipeline] = stages_started.get(ev.pipeline, 0) + 1
        elif ev.entity == "pipeline":
            if ev.transition == "started":
                status.setdefault(ev.entity_id, RUNNING)
                task_states.setdefault(ev.entity_id, {})
            else:
                status[ev.entity_id] = ev.transition
        elif ev.entity == "task" and ev.pipeline is not None:
            task_states.setdefault(ev.pipeline, {})[ev.entity_id] = ev.transition
    return {
        pid: {
            "task_states": task_states.get(pid, {}),
            "stages_started": stages_started.get(pid, 0),
            "status": status.get(pid, RUNNING),
        }
        for pid in status
    }
