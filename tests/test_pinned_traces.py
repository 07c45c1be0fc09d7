"""Pinned sha256 digests of saved traces for cheap campaigns.

Comparing two runs of the same commit cannot catch a change that moves
trace bytes on every run alike; these pins can.  A change that alters
traces on purpose updates the pins and says why in CHANGES.md.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from funnelsim.campaign import (CampaignSpec, PipelineSpec, SampledDuration, StageSpec,
                                TaskDescriptor)
from funnelsim.cli import load_config
from funnelsim.engine import run_campaign, run_overlay
from funnelsim.overlay import MasterConfig
from funnelsim.pilot import PilotSpec
from funnelsim.trace import CANONICAL_LINE
from funnelsim.workload import FunnelConfig, build_funnel_campaign

from test_properties import random_campaign

ROOT = Path(__file__).resolve().parents[1]
DESK_CONFIG = ROOT / "configs" / "desk_funnel.json"
# The benchmark's recorded statistics for its default seed 0; read, never written.
BENCH_REFERENCE = ROOT / "perfbench" / "reference.json"
DESK_FUNNEL_SHA256 = {
    42: "67e05646033cf875f2bbf98b9ae52a1c02c0a31f6bc5815b99371fab269551d4",
    0: "88729ea456c50293479d8c6cb26b3bfb0f667adff6a5b30aba99ff9a015b4567",
    1: "fdee17a5359bb6d4cfda468305fa8c0e7716acf6152922544fdde37ea5e9e31a",
}
# The float.hex() of each worker's busy_time_s, in worker order and joined
# by spaces, for the desk funnel at seed 0: the mean alone can hold while
# the last bits of single sums move.
DESK_FUNNEL_BUSY_SHA256 = "8c96a731688929e9a802acd8ea6571dc011c231f4d00823ba4699ef60b98567c"
OVERLAY_FUNNEL_SHA256 = "eb7ffed374bdd4996d20d8b470ffb027663cb7db84bdb8e46fd0f9093d7eb91a"
PROPERTY_TRIAL_SHA256 = [
    "793d058eb158cd9cffb817d72157caa53372875d362f9e208f50e2a8771794eb",
    "30246cebfd6e0f244f1d51f68144c8558ee4179b8c69dc1a79f55cdfa20abe56",
    "3b35f9b2995d0d55e879869208b130100f1850baab69ea733365eccaf5270b5e",
    "581d56bdf0909110e6214630ecd9ab8dc38d7d72d2f1f4220822d6a9a932fd36",
    "90f43ffb9a3380d183d08c061a48cb03c3d760fc76cd8210133bbfa2f35c5509",
]
NEARLY_FULL_PILOT_SHA256 = "044cdee63318817285e3ba71dcec15779f096374f8e3725401de42f475126e17"
WALLTIME_CUT_SHA256 = "5755d0a82d389c3496cefa385967b3a3cef59296fbfdad772070761054f923b9"
OVERLAY_FANOUT_SHA256 = "ed4ad18ec985b6cbebca07f86680e037f3522286ae48469db9e913cab4238467"


def trace_sha256(result, tmp_path):
    """The saved trace's digest.  Every line must also be canonical:
    load_trace parses any other line with json.loads, which is correct but
    slower, and a format change must not make that the common case
    unnoticed."""
    path = tmp_path / "trace.jsonl"
    result.sink.save(path)
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines(keepends=True)
    assert [line for line in lines if not CANONICAL_LINE.fullmatch(line)] == []
    return hashlib.sha256(data).hexdigest()


def worker_busy_mean(result):
    """Mean worker busy fraction, summed in worker order as the benchmark
    sums it, so that it can be compared exactly."""
    workers = result.overlay_workers
    return sum(w.busy_fraction(result.makespan) for w in workers) / len(workers)


def bench_reference(workload: str) -> dict:
    return json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))[workload]


def run_overlay_funnel():
    # The funnel of test_engine.TestOverlayStage: 3,257 events.
    spec = build_funnel_campaign(FunnelConfig(library_size=5000, cg_count=20, seed=3))
    return run_campaign(spec, overlay=MasterConfig(n_masters=2, workers_per_master=12,
                                                   bulk_size=16))


def test_overlay_funnel_trace_pinned(tmp_path):
    r = run_overlay_funnel()
    assert len(r.sink.events) == 3257
    assert trace_sha256(r, tmp_path) == OVERLAY_FUNNEL_SHA256


@pytest.mark.parametrize("trial", range(5))
def test_property_trial_trace_pinned(trial, tmp_path):
    r = run_campaign(random_campaign(np.random.default_rng(trial), seed=trial))
    assert trace_sha256(r, tmp_path) == PROPERTY_TRIAL_SHA256[trial]


@pytest.mark.parametrize("seed", DESK_FUNNEL_SHA256)
def test_desk_funnel_trace_pinned(seed, tmp_path):
    spec, overlay, _ = load_config(str(DESK_CONFIG), seed)
    r = run_campaign(spec, overlay=overlay)
    assert trace_sha256(r, tmp_path) == DESK_FUNNEL_SHA256[seed]
    if seed == 0:
        assert worker_busy_mean(r) == bench_reference("desk_funnel")["worker_busy_mean"]
        sums = " ".join(w.busy_time_s.hex() for w in r.overlay_workers)
        assert hashlib.sha256(sums.encode()).hexdigest() == DESK_FUNNEL_BUSY_SHA256


def nearly_full_pilot_campaign(seed: int = 5) -> CampaignSpec:
    """Two concurrent pipelines on 64 x 42 cpu x 6 gpu nodes, each a
    stage of 1-GPU replicas, a barrier of 2-node 6-GPU tasks and 4-cpu
    tasks, then a second replica stage.  Each replica stage asks for
    twice the pilot's GPUs, so placement keeps missing on a nearly full
    pilot, with mixed shapes in the queue."""
    nodes, pipelines, replicas = 64, 2, 384
    pilot = PilotSpec(nodes=nodes, cpus_per_node=42, gpus_per_node=6, walltime_s=1e12)
    full = SampledDuration("S2", 800.0, 2.0, "lognormal", (0.2,))
    agg = SampledDuration("S2", 60.0, 1.0, "lognormal", (0.2,))

    def replica_stage(pid, tag, node_s):
        dur = SampledDuration(tag, node_s, 1.0, "lognormal", (0.5,))
        return StageSpec(tag, [TaskDescriptor(f"{pid}.{tag}.{i:04d}", stage_tag=tag, cpus=0,
                                              gpus=1, duration_model=dur)
                               for i in range(replicas)])

    specs = []
    for p in range(pipelines):
        pid = f"p{p}"
        barrier = [TaskDescriptor(f"{pid}.S2.train{i}", kind="executable", stage_tag="S2",
                                  cpus=0, gpus=6, nodes=2, duration_model=full)
                   for i in range(4)]
        barrier += [TaskDescriptor(f"{pid}.S2.agg{i:02d}", stage_tag="S2", cpus=4,
                                   duration_model=agg) for i in range(16)]
        specs.append(PipelineSpec(pid, [replica_stage(pid, "S3CG", 300.0),
                                        StageSpec("S2", barrier),
                                        replica_stage(pid, "S3FG", 500.0)]))
    return CampaignSpec(specs, pilot, seed=seed, pipeline_mode="concurrent")


def test_nearly_full_pilot_trace_pinned(tmp_path):
    r = run_campaign(nearly_full_pilot_campaign())
    assert len(r.sink.events) == 6611
    assert trace_sha256(r, tmp_path) == NEARLY_FULL_PILOT_SHA256


def walltime_cut_campaign(walltime_s: float = 30.0) -> CampaignSpec:
    """Two concurrent two-stage pipelines on 4 x 4 cpu nodes with a
    scheduling gap, cut by the walltime while both are in their second
    stage: ``pa``'s is an overlay stage of function tasks, ``pb``'s a
    stage of simulated tasks, and each has tasks pending, scheduled and
    running at the cut."""
    pilot = PilotSpec(nodes=4, cpus_per_node=4, gpus_per_node=0, walltime_s=walltime_s,
                      bootstrap_s=1.0, sched_gap_s=0.5)

    def stage(pid, tag, n, kind="simulated", node_s=8.0):
        dur = SampledDuration(tag, node_s, 1.0, "lognormal", (0.5,))
        return StageSpec(tag, [TaskDescriptor(f"{pid}.{tag}.{i:03d}", kind=kind, stage_tag=tag,
                                              duration_model=dur) for i in range(n)])

    pipelines = [PipelineSpec("pa", [stage("pa", "S1", 6),
                                     stage("pa", "FN", 40, kind="function", node_s=3.0)]),
                 PipelineSpec("pb", [stage("pb", "S3CG", 10), stage("pb", "S3FG", 40)])]
    return CampaignSpec(pipelines, pilot, seed=11)


def test_walltime_cut_trace_pinned(tmp_path):
    r = run_campaign(walltime_cut_campaign(),
                     overlay=MasterConfig(n_masters=1, workers_per_master=3, bulk_size=4))
    assert r.walltime_hit and r.makespan == 30.0
    # The state each canceled task was in when the cut came, per stage.
    last, cut_from = {}, set()
    for ev in r.sink.events:
        if ev.entity == "task":
            if ev.transition == "canceled":
                cut_from.add((ev.stage, last[ev.entity_id]))
            last[ev.entity_id] = ev.transition
    assert cut_from == {(stage, state) for stage in ("FN", "S3FG")
                        for state in ("pending", "scheduled", "running")}
    stopped = {ev.entity for ev in r.sink.events if ev.t == 30.0 and ev.transition == "stopped"}
    assert stopped == {"master", "worker"}
    assert trace_sha256(r, tmp_path) == WALLTIME_CUT_SHA256


def test_overlay_fanout_trace_pinned(tmp_path):
    # The benchmark's overlay_fanout run: heavy-tailed function tasks
    # through a 4 x 256 overlay with bulks of 128 on 32 cpu-only nodes.
    dur = SampledDuration("FN", 2.0, 1.0, "lognormal", (1.0,))
    tasks = [TaskDescriptor(f"fn.{i:06d}", kind="function", stage_tag="FN", cpus=1,
                            duration_model=dur) for i in range(32768)]
    r = run_overlay(PilotSpec(nodes=32, cpus_per_node=42, gpus_per_node=0, walltime_s=1e12),
                    MasterConfig(n_masters=4, workers_per_master=256, bulk_size=128),
                    tasks, seed=0, time_scale=1.0)
    assert len(r.sink) == 135489
    assert trace_sha256(r, tmp_path) == OVERLAY_FANOUT_SHA256
    assert worker_busy_mean(r) == bench_reference("overlay_fanout")["worker_busy_mean"]
