"""Synthetic screening workload: a ligand library with latent true
scores, noisy surrogate scores, per-stage duration models calibrated to
reference per-ligand costs, the filters and task builders that sit
between the funnel's stages, and the five-stage funnel wiring.

The scored library is two float64 columns, true and predicted scores;
ligand ``i`` is named ``ligand_id(i)``, so ids follow index order.

Stage cost defaults (node-hours per ligand): S1 1e-4, S3CG 0.5, S2 4,
S3FG 5.  Per-GPU throughput calibration: S1 14252/6000 ligands/s/GPU,
ML1 319674/1536 ligands/s/GPU.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import analysis
from .campaign import (CampaignSpec, HookSpec, MaterializeSpec, PipelineSpec,
                       SampledDuration, StageSpec, TaskDescriptor)
from .errors import ConfigError, WorkerKilled
from .pilot import PilotSpec

# Surrogate noise calibrated (by bisection over seeds, see
# calibrate_noise_sigma) so that the predicted top u*1e-3 captures half
# of the true top u*1e-4 at u=1e5.
DEFAULT_NOISE_SIGMA = 0.7969

CG_REPLICAS = 6
FG_REPLICAS = 24
FUNNEL_PIPELINE = "p0"      # the funnel campaign's one pipeline

# Internal stream labels for seed derivation; values are arbitrary but fixed.
_STREAM_LIBRARY = 1
_STREAM_NOISE = 2
_STREAM_CONF = 3


@dataclass
class StageCost:
    median_node_hours: float
    tail_kind: str = "lognormal"         # lognormal | pareto_mix
    tail_params: tuple = (0.0,)
    nodes_per_task: float = 1.0
    throughput_per_gpu: Optional[float] = None   # ligands/s per GPU

    def validate(self) -> list[str]:
        out = []
        if self.median_node_hours <= 0:
            out.append("median_node_hours must be positive")
        if self.tail_kind not in ("lognormal", "pareto_mix"):
            out.append(f"unknown tail kind {self.tail_kind!r}")
        if self.nodes_per_task <= 0:
            out.append("nodes_per_task must be positive")
        if self.throughput_per_gpu is not None and self.throughput_per_gpu <= 0:
            out.append("throughput_per_gpu must be positive")
        kind, params = self.tail_kind, tuple(self.tail_params)
        if kind == "lognormal" and not params[0] >= 0:
            out.append("tail sigma must be >= 0")
        if kind == "pareto_mix" and not (params[0] > 0 and 0 <= params[1] <= 1):
            out.append("tail alpha must be positive and mix in [0, 1]")
        if not out:
            try:    # at the extreme uniforms duration_uniforms returns
                for u2 in (0.0, 1 - 2 ** -53):
                    SampledDuration("", 1.0, 1.0, kind, params).sample_from_uniforms(
                        1 / (2 ** 53 + 1), u2)
            except ArithmeticError:
                out.append(f"{kind} tail {params} overflows a duration draw")
        return out


@dataclass
class CostModel:
    stages: dict[str, StageCost] = field(default_factory=dict)

    def stage(self, tag: str) -> StageCost:
        if tag not in self.stages:
            raise ConfigError(f"cost model has no stage {tag!r}")
        return self.stages[tag]


def default_cost_model() -> CostModel:
    return CostModel({
        # 1536 GPUs = 256 nodes at 6 GPUs each.
        "ML1": StageCost((1536.0 / 6.0) / 319674.0 / 3600.0,
                         tail_params=(0.0,), nodes_per_task=1.0),
        "S1": StageCost(1e-4, tail_params=(1.0,), nodes_per_task=1.0 / 6.0),
        "S3CG": StageCost(0.5, tail_params=(0.2,), nodes_per_task=1.0),
        "S2": StageCost(4.0, tail_params=(0.2,), nodes_per_task=2.0),
        "S3FG": StageCost(5.0, tail_params=(0.2,), nodes_per_task=4.0),
    })


@dataclass
class FunnelConfig:
    library_size: int = 100_000
    s1_fraction: float = 0.01
    cg_count: int = 100
    top_binders: int = 5
    outliers_per_binder: int = 5
    seed: int = 0
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    frames_per_replica: int = 8

    def s1_count(self) -> int:
        return math.ceil(self.s1_fraction * self.library_size)

    def validate(self) -> list[str]:
        out = []
        if self.library_size < 1:
            out.append("library_size must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            out.append("seed must fit in 64 unsigned bits")
        if not 0 < self.s1_fraction <= 1:
            out.append("s1_fraction must be in (0, 1]")
        if self.cg_count < 1 or self.top_binders < 1 or self.outliers_per_binder < 1:
            out.append("funnel counts must be >= 1")
        if not self.noise_sigma >= 0:
            out.append("noise_sigma must be >= 0")
        if self.frames_per_replica < 1:
            out.append("frames_per_replica must be >= 1")
        # Funnel monotonicity: every stage consumes no more than it is fed.
        if 0 < self.s1_fraction <= 1 and self.cg_count > self.s1_count():
            out.append(f"cg_count {self.cg_count} exceeds S1 survivors {self.s1_count()}")
        if self.top_binders > self.cg_count:
            out.append("top_binders exceeds cg_count")
        if self.outliers_per_binder > CG_REPLICAS * self.frames_per_replica:
            out.append("outliers_per_binder exceeds conformations per ligand")
        return out


def _hash_key(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def ligand_id(i: int) -> str:
    return f"L{i:07d}"


def generate_library(n: int, seed: int) -> np.ndarray:
    """Latent true scores of ligands 0..n-1, drawn from a standard
    normal; deterministic under the seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _rng(seed, _STREAM_LIBRARY).standard_normal(n)


def surrogate_scores(true_scores: np.ndarray, noise_sigma: float,
                     seed: int) -> np.ndarray:
    """Predicted score = true score + gaussian noise, modeling an
    imperfect surrogate ranking model."""
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    rng = _rng(seed, _STREAM_NOISE)
    return true_scores + rng.standard_normal(len(true_scores)) * noise_sigma


def select_top_fraction(scores: np.ndarray, fraction: float) -> np.ndarray:
    """Indices of the ceil(fraction*n) best (lowest) scores, best first;
    ties go to the lower index (ligand-id order for n <= 10**7)."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    scores = np.asarray(scores)
    keep = math.ceil(fraction * len(scores))
    if keep == 0:       # no scores
        return np.argsort(scores, kind="stable")
    # Partition to the cut, widen it to every score equal to the score
    # there, stable-sort that slice and cut again: the same indices as a
    # stable sort of all.  NaNs sort last, so a NaN at the cut widens the
    # slice to everything.
    threshold = np.partition(scores, keep - 1)[keep - 1]
    if np.isnan(threshold):
        return np.argsort(scores, kind="stable")[:keep]
    head = np.flatnonzero(scores <= threshold)
    return head[np.argsort(scores[head], kind="stable")[:keep]]


def resolve_duration(stage_tag: str, cost_model: CostModel,
                     ligands: float = 1.0) -> SampledDuration:
    """Resolve a stage's cost entry into a self-contained duration model
    for one task covering ``ligands`` ligands."""
    entry = cost_model.stage(stage_tag)
    if entry.throughput_per_gpu is not None:
        # Throughput-calibrated: deterministic wall seconds on one GPU.
        wall_s = ligands / entry.throughput_per_gpu
        return SampledDuration(stage_tag, wall_s * entry.nodes_per_task,
                               entry.nodes_per_task, "lognormal", (0.0,))
    node_seconds = entry.median_node_hours * 3600.0 * ligands
    return SampledDuration(stage_tag, node_seconds, entry.nodes_per_task,
                           entry.tail_kind, tuple(entry.tail_params))


def duration_uniforms(seed: int, task_id: str) -> tuple[float, float]:
    """Two (0,1) uniforms hashed from (seed, task_id): the cheap stream
    behind per-task duration draws (u1 never 0, so log(u1) is safe)."""
    digest = hashlib.blake2b(f"{seed}:{task_id}".encode(), digest_size=16).digest()
    a = int.from_bytes(digest[:8], "big")
    b = int.from_bytes(digest[8:], "big")
    u1 = ((a >> 11) + 1) / (2 ** 53 + 1)
    u2 = (b >> 11) / 2 ** 53
    return u1, u2


# ---------------------------------------------------------------------------
# conformation synthesis (the stand-in for ensemble simulation outputs)

def _ligand_conformations(seed: int, ligand_id: str, true_score: float,
                          replicas, frames: int, energy_sigma: float = 0.25):
    """Yields each given replica's conformations, around one center per ligand."""
    key = _hash_key(ligand_id)
    center = _rng(seed, _STREAM_CONF, key).standard_normal(3) * 4.0
    for replica in replicas:
        rng = _rng(seed, _STREAM_CONF, key, replica + 1)
        records = []
        for f in range(frames):
            point = center + rng.standard_normal(3)
            energy = true_score + float(rng.standard_normal()) * energy_sigma
            records.append({
                "ligand_id": ligand_id,
                "replica": replica,
                "frame": f,
                "energy": energy,
                "point": [float(x) for x in point],
            })
        yield records


# ---------------------------------------------------------------------------
# post-hook filters: (params, items) -> the items kept

def _item_id(item: dict) -> str:
    return str(item.get("ligand_id", item.get("id", "")))


def select_top_k(params: dict, items: list[dict]) -> list[dict]:
    """The ``k`` items lowest in ``by``, best first; ties go to the lower id."""
    k = int(params["k"])
    by = params.get("by", "true_score")
    ranked = sorted(items, key=lambda it: (float(it[by]), _item_id(it)))
    return ranked[:k]


def lof_outliers(params: dict, items: list[dict]) -> list[dict]:
    """Rank ligands by mean energy, keep the best ``top_binders``, then per
    ligand select the ``outliers_per_binder`` most outlying conformations
    by local outlier factor over the conformation points."""
    top_binders = int(params.get("top_binders", 5))
    per_binder = int(params.get("outliers_per_binder", 5))
    k_neighbors = int(params.get("k_neighbors", 10))

    by_ligand: dict[str, list[dict]] = {}
    for item in items:
        by_ligand.setdefault(_item_id(item), []).append(item)
    ranked = sorted(by_ligand,
                    key=lambda lid: (float(np.mean([float(c["energy"]) for c in by_ligand[lid]])), lid))
    selected: list[dict] = []
    for lid in ranked[:top_binders]:
        confs = by_ligand[lid]
        if len(confs) <= per_binder:
            selected.extend(confs)
            continue
        pts = np.asarray([c["point"] for c in confs], dtype=float)
        k = min(k_neighbors, len(confs) - 1)
        scores = analysis.lof(pts, k)
        for idx in analysis.select_outliers(scores, per_binder):
            selected.append(confs[idx])
    return selected


# ---------------------------------------------------------------------------
# stage materializers; payloads share the given items, which nobody mutates

def ligand_tasks(params: dict, items: list[dict]) -> list[TaskDescriptor]:
    tasks = []
    for item in items:
        tasks.append(TaskDescriptor(
            task_id=f"{params['prefix']}.{item['ligand_id']}",
            kind=params.get("kind", "simulated"),
            stage_tag=params["stage_tag"],
            cpus=int(params.get("cpus", 0)),
            gpus=int(params.get("gpus", 1)),
            nodes=1,
            duration_model=params["duration"],
            payload=item))
    return tasks


def cg_replica_tasks(params: dict, items: list[dict]) -> list[TaskDescriptor]:
    tasks = []
    frames = int(params.get("frames", 8))
    replicas = range(int(params.get("replicas", CG_REPLICAS)))
    for item in items:
        per_replica = _ligand_conformations(int(params["seed"]), item["ligand_id"],
                                            float(item["true_score"]), replicas, frames)
        for r, confs in enumerate(per_replica):
            tasks.append(TaskDescriptor(
                task_id=f"{params['prefix']}.{item['ligand_id']}.r{r:02d}",
                kind="simulated",
                stage_tag=params["stage_tag"],
                cpus=int(params.get("cpus", 0)), gpus=int(params.get("gpus", 1)),
                nodes=1,
                duration_model=params["duration"],
                payload={"kind": "conformations", "items": confs}))
    return tasks


def gather_tasks(params: dict, items: list[dict]) -> list[TaskDescriptor]:
    n_ligands = len({it["ligand_id"] for it in items})
    dur = params["duration"]
    train_dur = replace(dur, node_seconds=dur.node_seconds * max(1, n_ligands))
    agg = TaskDescriptor(
        task_id=f"{params['prefix']}.aggregate",
        kind="simulated", stage_tag=params["stage_tag"],
        cpus=int(params.get("agg_cpus", 4)), gpus=int(params.get("agg_gpus", 0)), nodes=1,
        duration_model=SampledDuration(params["stage_tag"], 60.0, 1.0, "lognormal", (0.0,)),
        payload={"kind": "conformation_set", "items": items})
    train = TaskDescriptor(
        task_id=f"{params['prefix']}.train_proxy",
        kind=params.get("train_kind", "executable"), stage_tag=params["stage_tag"],
        cpus=int(params.get("train_cpus", 0)), gpus=int(params.get("train_gpus", 6)),
        nodes=int(params.get("train_nodes", 2)),
        duration_model=train_dur,
        payload={"kind": "training_proxy", "items": []})
    return [agg, train]


def fg_replica_tasks(params: dict, items: list[dict]) -> list[TaskDescriptor]:
    tasks = []
    for ci, item in enumerate(items):
        for r in range(int(params.get("replicas", FG_REPLICAS))):
            tasks.append(TaskDescriptor(
                task_id=f"{params['prefix']}.c{ci:04d}.r{r:02d}",
                kind="simulated",
                stage_tag=params["stage_tag"],
                cpus=int(params.get("cpus", 0)), gpus=int(params.get("gpus", 1)),
                nodes=1,
                duration_model=params["duration"],
                payload={"kind": "fg_replica", "conformation": item, "replica": r}))
    return tasks


# ---------------------------------------------------------------------------
# funnel campaign assembly

def build_funnel_campaign(funnel: FunnelConfig,
                          cost_model: CostModel | None = None,
                          resource: PilotSpec | None = None,
                          time_scale: float = 1e-4,
                          pipeline_mode: str = "concurrent",
                          overlay_stage_kind: str = "simulated") -> CampaignSpec:
    """Wire the five-stage screening funnel:

    ML1 (one scoring task over the library, handing S1 its top
         s1_fraction by predicted score)
      -> S1 docking, one task per ligand ML1 handed on
      -> S3CG ensembles (6 replica tasks per ligand) on the cg_count best
      -> S2 aggregation + training proxy, with outlier selection of
         top_binders * outliers_per_binder conformations
      -> S3FG (24 replica tasks per conformation).
    """
    problems = funnel.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    cost_model = cost_model or default_cost_model()
    resource = resource or PilotSpec(nodes=8, cpus_per_node=42, gpus_per_node=6,
                                     walltime_s=1e9, backend="simulated")
    seed = funnel.seed

    true = generate_library(funnel.library_size, seed)
    pred = surrogate_scores(true, funnel.noise_sigma, seed)
    # ML1's duration covers scoring the whole library; its payload holds
    # only the s1_count() ligands it passes on, best predicted score first.
    ml1_payload = {
        "kind": "scored_library",
        "items": [{"ligand_id": ligand_id(i), "true_score": float(true[i]),
                   "predicted_score": float(pred[i])}
                  for i in select_top_fraction(pred, funnel.s1_fraction).tolist()],
    }
    one_gpu = {"cpus": 0, "gpus": 1} if resource.gpus_per_node > 0 else {"cpus": 1, "gpus": 0}
    ml1_task = TaskDescriptor(
        task_id=f"{FUNNEL_PIPELINE}.ML1.000000", kind="simulated", stage_tag="ML1",
        **one_gpu, nodes=1,
        duration_model=resolve_duration("ML1", cost_model, ligands=funnel.library_size),
        payload=ml1_payload)
    # Multi-node tasks exist in simulated mode only; locally everything
    # shares one host.
    train_nodes = 1 if resource.backend == "local" else min(2, resource.nodes)
    train_gpus = min(6, resource.gpus_per_node)
    train_cpus = 0 if train_gpus else min(4, resource.cpus_per_node)

    stages = [
        StageSpec("ML1", [ml1_task]),
        StageSpec("S1", [],
                  post_hook=HookSpec(select_top_k,
                                     {"k": funnel.cg_count, "by": "true_score"}),
                  materialize=MaterializeSpec(ligand_tasks, {
                      "prefix": f"{FUNNEL_PIPELINE}.S1", "stage_tag": "S1",
                      "kind": overlay_stage_kind, **one_gpu,
                      "duration": resolve_duration("S1", cost_model)})),
        StageSpec("S3CG", [],
                  materialize=MaterializeSpec(cg_replica_tasks, {
                      "prefix": f"{FUNNEL_PIPELINE}.S3CG", "stage_tag": "S3CG",
                      "replicas": CG_REPLICAS, "frames": funnel.frames_per_replica,
                      "seed": seed, **one_gpu,
                      "duration": resolve_duration("S3CG", cost_model)})),
        StageSpec("S2", [],
                  post_hook=HookSpec(lof_outliers, {
                      "top_binders": funnel.top_binders,
                      "outliers_per_binder": funnel.outliers_per_binder,
                      "k_neighbors": 10}),
                  materialize=MaterializeSpec(gather_tasks, {
                      "prefix": f"{FUNNEL_PIPELINE}.S2", "stage_tag": "S2",
                      "train_nodes": train_nodes, "train_gpus": train_gpus,
                      "train_cpus": train_cpus,
                      "train_kind": "simulated" if resource.backend == "local" else "executable",
                      "agg_cpus": min(4, resource.cpus_per_node),
                      "agg_gpus": 0 if resource.cpus_per_node else 1,
                      "duration": resolve_duration("S2", cost_model)})),
        StageSpec("S3FG", [],
                  materialize=MaterializeSpec(fg_replica_tasks, {
                      "prefix": f"{FUNNEL_PIPELINE}.S3FG", "stage_tag": "S3FG",
                      "replicas": FG_REPLICAS, **one_gpu,
                      "duration": resolve_duration("S3FG", cost_model)})),
    ]
    pipeline = PipelineSpec(FUNNEL_PIPELINE, stages)
    return CampaignSpec(pipelines=[pipeline], resource=resource, seed=seed,
                        mode=resource.backend, time_scale=time_scale,
                        pipeline_mode=pipeline_mode)


# ---------------------------------------------------------------------------
# noise calibration and CSV interfaces

def recall_at_operating_point(u: int, noise_sigma: float, seed: int,
                              k_frac: float = 1e-4, delta_frac: float = 1e-3) -> float:
    """Top-k recall at the (budget, top-fraction) operating point used to
    calibrate the surrogate noise."""
    true = generate_library(u, seed)
    sset = analysis.ScoredSet(None, true, surrogate_scores(true, noise_sigma, seed))
    return analysis.top_k_recall(sset, math.ceil(k_frac * u), math.ceil(delta_frac * u))


def calibrate_noise_sigma(u: int = 100_000, target: float = 0.5,
                          seeds: int = 12, tol: float = 5e-3,
                          lo: float = 0.0, hi: float = 3.0) -> float:
    """Bisection for the noise level whose mean operating-point recall
    hits the target (recall decreases monotonically in the noise)."""
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        r = float(np.mean([recall_at_operating_point(u, mid, s) for s in range(seeds)]))
        if abs(r - target) < tol:
            return mid
        if r > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-4:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# local-mode function registry

def _fn_sleep_ms(ms: float = 1.0) -> float:
    import time
    time.sleep(ms / 1000.0)
    return ms


def _fn_fail(message: str = "task failed"):
    raise RuntimeError(message)


def _fn_kill_worker():
    raise WorkerKilled("worker killed by task")


FUNCTIONS = {
    "sleep_ms": _fn_sleep_ms,
    "fail": _fn_fail,
    "kill_worker": _fn_kill_worker,
}


def call_function(payload: dict | None):
    """Run the registered function that a function task's payload
    ``{"fn": name, "kwargs": {...}}`` names; returns the function's value."""
    payload = payload or {}
    fn = FUNCTIONS.get(payload.get("fn", ""))
    if fn is None:
        raise KeyError(f"unknown function {payload.get('fn')!r}")
    return fn(**payload.get("kwargs", {}))
