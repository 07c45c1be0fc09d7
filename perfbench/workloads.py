"""The benchmark's named workloads: input generators and one timed iteration.

Every generator takes the seed as an argument and keeps its sizes fixed,
so two seeds differ only in sampled durations and scores.  Workloads are
driven only through the public entry points of the package (config
loading, campaign construction, the run functions, trace save/load and
metrics, and the analysis functions), always looked up as module
attributes at call time so that the traced run's wrappers see them.

An iteration reads inputs made by ``prepare`` from its data directory
and writes its outputs to a fresh directory of its own.  Rewriting the
previous iteration's files showed tens-of-milliseconds outliers in
io_s, most likely truncation waiting for writeback.

An iteration returns its phase timings, a work count, the simulated
statistics checked against the recorded reference, and a list of
problems found by the output checks (empty when the outputs are correct).
"""
from __future__ import annotations

import csv
import hashlib
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

DESK_CONFIG = Path(__file__).with_name("desk_funnel.json")

# desk_funnel: what the config above must produce for any seed.
DESK_STAGE_TASKS = {"ML1": 1, "S1": 1000, "S3CG": 600, "S2": 2, "S3FG": 600}
DESK_CONFORMATIONS = 25

# wide_pilot: four concurrent pipelines, each replica -> barrier -> replica.
WIDE_NODES = 1024
WIDE_PIPELINES = 4
WIDE_REPLICAS = 3000        # 1-GPU tasks per replica stage
WIDE_FULL_GPU = 8           # 2-node, 6-GPU tasks per barrier stage
WIDE_AGGREGATE = 64         # 4-cpu tasks per barrier stage
WIDE_STAGE_TASKS = {"S3CG": WIDE_PIPELINES * WIDE_REPLICAS,
                    "S2": WIDE_PIPELINES * (WIDE_FULL_GPU + WIDE_AGGREGATE),
                    "S3FG": WIDE_PIPELINES * WIDE_REPLICAS}

# overlay_fanout: heavy-tailed function tasks through a 4 x 256 overlay.
FANOUT_TASKS = 32768
FANOUT_NODES = 32
FANOUT_MASTERS = 4
FANOUT_WORKERS = 256
FANOUT_BULK = 128

# surrogate_eval: library size, recall operating point, surrogate noise.
SURROGATE_U = 100_000
SURROGATE_K = 10
SURROGATE_DELTA = 100
SURROGATE_NOISE = 0.7969


class Phases:
    """Times named phases with perf_counter; with a tracer, each phase is
    also the root span of the calls made inside it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        if self.tracer is not None:
            self.tracer.enter_phase(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.exit_phase()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# generators

def wide_pilot_spec(fs, seed: int):
    """Four concurrent pipelines on 1024 x 42 cpu x 6 gpu nodes.  Each
    pipeline runs a stage of 1-GPU replica tasks, a barrier stage mixing
    2-node full-GPU tasks with 4-cpu aggregation tasks, then a second
    replica stage; together the replica stages ask for about twice the
    GPUs the pilot has, so placement runs on a nearly full pilot."""
    cm = fs.campaign
    resource = fs.pilot.PilotSpec(nodes=WIDE_NODES, cpus_per_node=42, gpus_per_node=6,
                                  walltime_s=1e12, backend="simulated")

    def replicas(pid, tag, node_s):
        dur = cm.SampledDuration(tag, node_s, 1.0, "lognormal", (0.5,))
        return [cm.TaskDescriptor(f"{pid}.{tag}.{i:05d}", kind="simulated", stage_tag=tag,
                                  cpus=0, gpus=1, nodes=1, duration_model=dur)
                for i in range(WIDE_REPLICAS)]

    full = cm.SampledDuration("S2", 800.0, 2.0, "lognormal", (0.2,))
    agg = cm.SampledDuration("S2", 60.0, 1.0, "lognormal", (0.2,))
    pipelines = []
    for p in range(WIDE_PIPELINES):
        pid = f"p{p}"
        barrier = [cm.TaskDescriptor(f"{pid}.S2.train{i:02d}", kind="executable", stage_tag="S2",
                                     cpus=0, gpus=6, nodes=2, duration_model=full)
                   for i in range(WIDE_FULL_GPU)]
        barrier += [cm.TaskDescriptor(f"{pid}.S2.agg{i:03d}", kind="simulated", stage_tag="S2",
                                      cpus=4, gpus=0, nodes=1, duration_model=agg)
                    for i in range(WIDE_AGGREGATE)]
        pipelines.append(cm.PipelineSpec(pid, [
            cm.StageSpec("S3CG", replicas(pid, "S3CG", 300.0)),
            cm.StageSpec("S2", barrier),
            cm.StageSpec("S3FG", replicas(pid, "S3FG", 500.0)),
        ]))
    return cm.CampaignSpec(pipelines, resource, seed=seed, mode="simulated",
                           time_scale=1.0, pipeline_mode="concurrent")


def overlay_fanout_inputs(fs):
    """Function tasks with lognormal(sigma=1) durations for a 4-master x
    256-worker overlay with bulks of 128, on a 32-node cpu-only pilot."""
    cm = fs.campaign
    resource = fs.pilot.PilotSpec(nodes=FANOUT_NODES, cpus_per_node=42, gpus_per_node=0,
                                  walltime_s=1e12, backend="simulated")
    config = fs.overlay.MasterConfig(n_masters=FANOUT_MASTERS,
                                     workers_per_master=FANOUT_WORKERS, bulk_size=FANOUT_BULK)
    dur = cm.SampledDuration("FN", 2.0, 1.0, "lognormal", (1.0,))
    tasks = [cm.TaskDescriptor(f"fn.{i:06d}", kind="function", stage_tag="FN",
                               cpus=1, gpus=0, nodes=1, duration_model=dur)
             for i in range(FANOUT_TASKS)]
    return resource, config, tasks


def surrogate_arrays(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """True scores and noisy surrogate predictions for SURROGATE_U ligands."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7919])))
    true = rng.standard_normal(SURROGATE_U)
    pred = true + SURROGATE_NOISE * rng.standard_normal(SURROGATE_U)
    return true, pred


def write_scores_csv(seed: int, path: Path) -> None:
    """The surrogate_eval input.  Values are written with 17 significant
    digits so the parsed floats equal the generated arrays exactly."""
    true, pred = surrogate_arrays(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ligand_id,true_score,predicted_score\n")
        fh.writelines(f"L{i:07d},{t:.17g},{p:.17g}\n" for i, (t, p) in enumerate(zip(true, pred)))


# ---------------------------------------------------------------------------
# campaign workloads

def _campaign_io(fs, result, sink, out_dir: Path, phase: Phases):
    trace_path = out_dir / "trace.jsonl"
    with phase("io"):
        sink.save(trace_path)
        fs.cli.write_summary(result, sink, out_dir, None)
        events = fs.trace.load_trace(trace_path)
        fs.trace.utilization(events)
        for tag in sorted({ev.stage for ev in events if ev.entity == "task" and ev.stage}):
            fs.trace.stage_throughput(events, tag)
        fs.trace.overhead(events)
    return trace_path, events


def _campaign_checks(result, events, expected: dict[str, int]) -> tuple[list[str], dict]:
    """Invariants that hold for any seed, plus the simulated statistics
    compared against the recorded reference for the default seed."""
    problems = []
    for pid, st in sorted(result.final_states.items()):
        if st["status"] != "done":
            problems.append(f"pipeline {pid} ended {st['status']}")
    born: Counter = Counter()
    ended: dict[str, Counter] = {}
    for ev in events:
        if ev.entity != "task":
            continue
        if ev.transition == "pending":
            born[ev.stage] += 1
        elif ev.transition in ("done", "failed", "canceled"):
            ended.setdefault(ev.transition, Counter())[ev.stage] += 1
    done = ended.get("done", Counter())
    if dict(born) != expected:
        problems.append(f"generated tasks per stage {dict(born)} != {expected}")
    if dict(done) != dict(born):
        problems.append(f"done tasks per stage {dict(done)} != generated {dict(born)}")
    for outcome in ("failed", "canceled"):
        if ended.get(outcome):
            problems.append(f"{outcome} tasks: {dict(ended[outcome])}")
    workers = getattr(result, "overlay_workers", None)
    busy = None
    if workers:
        busy = sum(w.busy_fraction(result.makespan) for w in workers) / len(workers)
    stats = {"makespan": result.makespan, "worker_busy_mean": busy,
             "stage_done": dict(sorted(done.items()))}
    return problems, stats


def _finish_campaign(fs, result, sink, out_dir, phase, expected, extra_check=None):
    trace_path, events = _campaign_io(fs, result, sink, out_dir, phase)
    problems, stats = _campaign_checks(result, events, expected)
    if extra_check is not None:
        problems += extra_check(events)
    terminal = sum(1 for ev in events if ev.entity == "task"
                   and ev.transition in ("done", "failed", "canceled"))
    return {
        "work": len(events),
        "problems": problems,
        "stats": stats,
        "digest": file_digest(trace_path),
        "counters": {"trace_events": len(events), "tasks_terminal": terminal,
                     "trace_bytes": trace_path.stat().st_size},
    }


def _desk_conformations(events) -> list[str]:
    # S3FG task ids end in .c<conformation>.r<replica>.
    confs = {ev.entity_id.rsplit(".", 1)[0] for ev in events
             if ev.entity == "task" and ev.stage == "S3FG" and ev.transition == "pending"}
    if len(confs) != DESK_CONFORMATIONS:
        return [f"{len(confs)} selected conformations, expected {DESK_CONFORMATIONS}"]
    return []


def run_desk_funnel(fs, seed: int, data_dir: Path, out_dir: Path, phase: Phases) -> dict:
    with phase("setup"):
        spec, overlay, _funnel = fs.cli.load_config(str(DESK_CONFIG), seed_override=seed)
        violations = fs.campaign.validate_campaign(spec)
    if violations:
        return {"problems": [f"invalid campaign: {violations[0]}"]}
    ml1 = [t for p in spec.pipelines for st in p.stages for t in st.tasks if t.stage_tag == "ML1"]
    sink = fs.trace.TraceSink()
    with phase("run"):
        result = fs.engine.run_campaign(spec, overlay=overlay, sink=sink)
    out = _finish_campaign(fs, result, sink, out_dir, phase, DESK_STAGE_TASKS,
                           _desk_conformations)
    if ml1 and all(isinstance(getattr(t, "payload", None), bytes) for t in ml1):
        out["counters"]["ml1_payload_bytes"] = sum(len(t.payload) for t in ml1)
    return out


def run_wide_pilot(fs, seed: int, data_dir: Path, out_dir: Path, phase: Phases) -> dict:
    with phase("setup"):
        spec = wide_pilot_spec(fs, seed)
        violations = fs.campaign.validate_campaign(spec)
    if violations:
        return {"problems": [f"invalid campaign: {violations[0]}"]}
    sink = fs.trace.TraceSink()
    with phase("run"):
        result = fs.engine.run_campaign(spec, sink=sink)
    return _finish_campaign(fs, result, sink, out_dir, phase, WIDE_STAGE_TASKS)


def run_overlay_fanout(fs, seed: int, data_dir: Path, out_dir: Path, phase: Phases) -> dict:
    with phase("setup"):
        resource, config, tasks = overlay_fanout_inputs(fs)
    sink = fs.trace.TraceSink()
    with phase("run"):
        result = fs.engine.run_overlay(resource, config, tasks, seed=seed,
                                       time_scale=1.0, sink=sink)
    return _finish_campaign(fs, result, sink, out_dir, phase, {"FN": FANOUT_TASKS})


# ---------------------------------------------------------------------------
# surrogate evaluation

def surrogate_oracle(seed: int) -> tuple[float, np.ndarray]:
    """Top-k recall and the full RES grid computed directly with numpy:
    ranks by (score, id), where ids sort in index order."""
    true, pred = surrogate_arrays(seed)
    idx = np.arange(SURROGATE_U)
    true_rank = np.empty(SURROGATE_U, dtype=np.int64)
    true_rank[np.lexsort((idx, true))] = idx
    pred_order = np.lexsort((idx, pred))
    in_delta = true_rank[pred_order[:SURROGATE_DELTA]]
    recall = int(np.count_nonzero(in_delta < SURROGATE_K)) / SURROGATE_K
    grid = np.logspace(-4, 0, 41)      # the default RES grid
    cells = np.empty((len(grid), len(grid)))
    for i, b in enumerate(grid):
        found = np.sort(true_rank[pred_order[:math.ceil(b * SURROGATE_U)]])
        for j, f in enumerate(grid):
            k = math.ceil(f * SURROGATE_U)
            cells[i, j] = int(np.searchsorted(found, k)) / k
    return recall, cells


def run_surrogate_eval(fs, seed: int, data_dir: Path, out_dir: Path, phase: Phases) -> dict:
    scores = data_dir / "scores.csv"
    with phase("setup"):
        scored = fs.analysis.ScoredSet.from_csv(scores)
    with phase("run"):
        recall = fs.analysis.top_k_recall(scored, SURROGATE_K, SURROGATE_DELTA)
        grid = fs.analysis.compute_res(scored)
    with phase("io"):
        grid.to_csv(out_dir / "res.csv")
        with open(out_dir / "recall.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "delta", "recall"])
            writer.writerow([SURROGATE_K, SURROGATE_DELTA, f"{recall:.10g}"])
    want_recall, want_cells = surrogate_oracle(seed)
    problems = []
    if recall != want_recall:
        problems.append(f"recall {recall!r} != oracle {want_recall!r}")
    cells = np.asarray(grid.cells)
    if cells.shape != want_cells.shape or not np.array_equal(cells, want_cells):
        problems.append("RES grid differs from the numpy oracle")
    return {"work": SURROGATE_U, "problems": problems,
            "stats": {"recall": recall},
            "digest": file_digest(out_dir / "res.csv"), "counters": {}}


def prepare(name: str, seed: int, data_dir: Path) -> None:
    """Inputs made once per benchmark run, outside every timed phase."""
    if name == "surrogate_eval":
        write_scores_csv(seed, data_dir / "scores.csv")


WORKLOADS = {
    "desk_funnel": run_desk_funnel,
    "wide_pilot": run_wide_pilot,
    "overlay_fanout": run_overlay_fanout,
    "surrogate_eval": run_surrogate_eval,
}
