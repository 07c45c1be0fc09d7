"""Randomized campaigns through the engine, checking global invariants:
stage barriers, replay equality, determinism, and slot conservation."""
import numpy as np

from funnelsim.campaign import (CampaignSpec, FixedDuration, PipelineSpec,
                                SampledDuration, StageSpec, TaskDescriptor,
                                replay_trace)
from funnelsim.engine import run_campaign
from funnelsim.pilot import PilotSpec
from funnelsim.trace import busy_node_seconds

from test_engine import stage_barrier_ok


def random_campaign(rng, seed):
    nodes = int(rng.integers(1, 6))
    cpn = int(rng.integers(1, 5))
    gpn = int(rng.integers(0, 3))
    pilot = PilotSpec(nodes=nodes, cpus_per_node=cpn, gpus_per_node=gpn,
                      walltime_s=1e9)
    pipelines = []
    for p in range(int(rng.integers(1, 4))):
        stages = []
        for s in range(int(rng.integers(1, 4))):
            tasks = []
            for t in range(int(rng.integers(1, 7))):
                gpus = int(rng.integers(0, gpn + 1))
                cpus = int(rng.integers(0 if gpus else 1, cpn + 1))
                if gpus and pilot.effective_cpus(cpus, gpus) > cpn:
                    cpus, gpus = 1, 0
                if rng.random() < 0.5:
                    dm = FixedDuration(float(rng.uniform(0.1, 3.0)))
                else:
                    dm = SampledDuration("S1", float(rng.uniform(0.5, 2.0)), 1.0,
                                         "lognormal", (float(rng.uniform(0, 1)),))
                tasks.append(TaskDescriptor(f"p{p}.s{s}.t{t}", cpus=cpus, gpus=gpus,
                                            duration_model=dm))
            stages.append(StageSpec(f"s{s}", tasks))
        pipelines.append(PipelineSpec(f"p{p}", stages))
    mode = "sequential" if rng.random() < 0.3 else "concurrent"
    return CampaignSpec(pipelines, pilot, seed=seed, pipeline_mode=mode)


def test_random_campaigns_hold_invariants():
    for trial in range(25):
        rng = np.random.default_rng(trial)
        spec = random_campaign(rng, seed=trial)
        r = run_campaign(spec)
        assert all(s["status"] == "done" for s in r.final_states.values()), trial
        assert stage_barrier_ok(r.sink.events), trial
        assert replay_trace(r.sink.events) == r.final_states, trial
        times = [ev.t for ev in r.sink.events]
        assert times == sorted(times), trial
        # every busy node returned to idle
        last = {}
        for ev in r.sink.events:
            if ev.entity == "node":
                last[ev.entity_id] = ev.transition
        assert all(tr == "idle" for tr in last.values()), trial


def test_random_campaigns_are_deterministic(tmp_path):
    for trial in range(5):
        rng1 = np.random.default_rng(trial + 100)
        rng2 = np.random.default_rng(trial + 100)
        r1 = run_campaign(random_campaign(rng1, seed=trial))
        r2 = run_campaign(random_campaign(rng2, seed=trial))
        r1.sink.save(tmp_path / "1.jsonl")
        r2.sink.save(tmp_path / "2.jsonl")
        assert (tmp_path / "1.jsonl").read_bytes() == (tmp_path / "2.jsonl").read_bytes()


def test_busy_node_seconds_matches_durations_for_full_node_tasks():
    for trial in range(10):
        rng = np.random.default_rng(trial + 50)
        nodes = int(rng.integers(1, 5))
        pilot = PilotSpec(nodes=nodes, cpus_per_node=2, gpus_per_node=0,
                          walltime_s=1e9)
        durations = rng.uniform(0.2, 4.0, size=int(rng.integers(1, 12)))
        tasks = [TaskDescriptor(f"t{i}", cpus=2,
                                duration_model=FixedDuration(float(d)))
                 for i, d in enumerate(durations)]
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s", tasks)])],
                            pilot, seed=trial)
        r = run_campaign(spec)
        assert abs(busy_node_seconds(r.sink.events) - durations.sum()) < 1e-9
