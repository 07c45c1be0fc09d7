"""State machine, validation, hooks, and replay behavior."""
import ast
import json

import pytest

from funnelsim import campaign
from funnelsim.campaign import (AdvanceResult, CampaignSpec, FixedDuration,
                                HookSpec, MaterializeSpec, PipelineSpec,
                                PipelineState, SampledDuration, StageSpec,
                                TaskDescriptor, apply_post_hook, replay_trace,
                                validate_campaign)
from funnelsim.errors import OrderingError, StateError
from funnelsim.pilot import PilotSpec
from funnelsim.workload import ligand_tasks, lof_outliers, select_top_k


def task(tid, **kw):
    kw.setdefault("duration_model", FixedDuration(1.0))
    kw.setdefault("cpus", 1)
    return TaskDescriptor(tid, **kw)


def pilot(**kw):
    base = dict(nodes=4, cpus_per_node=8, gpus_per_node=6, walltime_s=100.0)
    base.update(kw)
    return PilotSpec(**base)


def two_pipeline_spec():
    p1 = PipelineSpec("pa", [StageSpec("s0", [task("a1"), task("a2")]),
                             StageSpec("s1", [task("a3")])])
    p2 = PipelineSpec("pb", [StageSpec("s0", [task("b1")])])
    return CampaignSpec([p1, p2], pilot(), seed=1)


def drive(state, tid, outcome="done", result=b""):
    state.mark_scheduled(tid)
    state.mark_running(tid)
    return state.on_task_complete(tid, outcome, result)


class TestValidate:
    def test_well_formed_spec_is_clean(self):
        assert validate_campaign(two_pipeline_spec()) == []

    def test_duplicate_task_id_reported_once(self):
        spec = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [task("t1")]),
            StageSpec("s1", [task("t1")]),
        ])], pilot(), seed=0)
        dupes = [v for v in validate_campaign(spec) if v.code == "duplicate_id"]
        assert len(dupes) == 1
        assert dupes[0].subject == "t1"

    def test_gpu_capacity_violation(self):
        # 8 gpus requested on one node of a 6-gpu-per-node pilot.
        spec = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [task("big", gpus=8, cpus=0)]),
        ])], pilot(gpus_per_node=6), seed=0)
        caps = [v for v in validate_campaign(spec) if v.code == "capacity"]
        assert len(caps) == 1
        assert "big" in caps[0].subject

    def test_zero_resource_task(self):
        spec = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [task("z", cpus=0, gpus=0)]),
        ])], pilot(), seed=0)
        assert any(v.code == "zero_resources" for v in validate_campaign(spec))

    def test_multi_node_needs_executable_kind(self):
        spec = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [task("m", nodes=2, kind="simulated")]),
        ])], pilot(), seed=0)
        assert any(v.code == "multi_node_kind" for v in validate_campaign(spec))
        spec2 = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [task("m", nodes=2, kind="executable")]),
        ])], pilot(), seed=0)
        assert validate_campaign(spec2) == []

    def test_empty_stage_without_materializer(self):
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s0", [])])], pilot(), seed=0)
        assert any(v.code == "empty_stage" for v in validate_campaign(spec))
        spec2 = CampaignSpec([PipelineSpec("p", [
            StageSpec("s0", [task("t")]),
            StageSpec("s1", [], materialize=MaterializeSpec(ligand_tasks, {})),
        ])], pilot(), seed=0)
        assert validate_campaign(spec2) == []

    def test_mode_must_match_backend(self):
        spec = two_pipeline_spec()
        spec.mode = "local"
        assert [v.code for v in validate_campaign(spec)] == ["mode"]

    def test_bad_seed_and_time_scale(self):
        spec = two_pipeline_spec()
        spec.seed = -1
        spec.time_scale = 0.0
        codes = {v.code for v in validate_campaign(spec)}
        assert {"seed", "time_scale"} <= codes


def pending(state):
    """Ids of the pending tasks of the stages reached so far."""
    return {tid for tid, st in state.task_states.items() if st == "pending"}


class TestNextReady:
    def test_fresh_pipeline_returns_stage_zero(self):
        state = PipelineState(PipelineSpec("p", [StageSpec("s0", [task("a"), task("b")])]))
        assert pending(state) == {"a", "b"}

    def test_barrier_returns_empty_while_stage_in_flight(self):
        state = PipelineState(PipelineSpec("p", [
            StageSpec("s0", [task("a"), task("b")]),
            StageSpec("s1", [task("c")]),
        ]))
        drive(state, "a")
        state.mark_scheduled("b")
        state.mark_running("b")
        assert pending(state) == set()

    def test_after_advance_returns_next_stage(self):
        state = PipelineState(PipelineSpec("p", [
            StageSpec("s0", [task("a"), task("b")]),
            StageSpec("s1", [task("c"), task("d"), task("e")]),
        ]))
        drive(state, "a")
        res = drive(state, "b")
        assert res.kind == "stage_advanced"
        assert pending(state) == {"c", "d", "e"}


class TestOnTaskComplete:
    def test_minimal_pipeline_done(self):
        state = PipelineState(PipelineSpec("p", [StageSpec("s0", [task("only")])]))
        res = drive(state, "only")
        assert res.kind == "pipeline_done"
        assert state.status == "done"

    def test_barrier_release_signals_stage_advanced(self):
        state = PipelineState(PipelineSpec("p", [
            StageSpec("s0", [task("a"), task("b")]),
            StageSpec("s1", [task("c")]),
        ]))
        assert drive(state, "a").kind == "none"
        assert drive(state, "b").kind == "stage_advanced"

    def test_top_k_hook_materializes_ten_tasks(self):
        # 1000 scored outputs filtered to the best 10 must materialize
        # exactly those items, checked against an independent sort.
        import numpy as np
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(1000)
        tasks = []
        for i, s in enumerate(scores):
            payload = {"ligand_id": f"L{i:04d}", "predicted_score": float(s)}
            tasks.append(task(f"t{i:04d}", payload=payload))
        spec = PipelineSpec("p", [
            StageSpec("s0", tasks,
                      post_hook=HookSpec(select_top_k, {"k": 10, "by": "predicted_score"})),
            StageSpec("s1", [], materialize=MaterializeSpec(ligand_tasks, {
                "prefix": "p.s1", "stage_tag": "S1", "cpus": 1, "gpus": 0,
                "duration": SampledDuration("S1", 1.0, 1.0, "lognormal", (0.0,))})),
        ])
        state = PipelineState(spec)
        last = None
        for t in tasks:
            last = drive(state, t.task_id, result=t.payload)
        assert last.kind == "stage_advanced"
        assert len(state.current_tasks()) == 10
        expected = sorted(range(1000), key=lambda i: (scores[i], f"L{i:04d}"))[:10]
        expected_ids = [f"p.s1.L{i:04d}" for i in expected]
        assert [t.task_id for t in state.current_tasks()] == expected_ids

    def test_unknown_task_rejected(self):
        state = PipelineState(PipelineSpec("p", [StageSpec("s0", [task("a")])]))
        with pytest.raises(StateError):
            state.on_task_complete("ghost", "done")

    def test_completing_pending_task_is_ordering_error(self):
        state = PipelineState(PipelineSpec("p", [StageSpec("s0", [task("a")])]))
        with pytest.raises(OrderingError):
            state.on_task_complete("a", "done")

    def test_double_completion_rejected(self):
        state = PipelineState(PipelineSpec("p", [StageSpec("s0", [task("a"), task("b")])]))
        drive(state, "a")
        with pytest.raises(OrderingError):
            state.on_task_complete("a", "done")

    def test_failure_cancels_pipeline(self):
        state = PipelineState(PipelineSpec("p", [
            StageSpec("s0", [task("a"), task("b")]),
            StageSpec("s1", [task("c")]),
        ]))
        res = drive(state, "a", outcome="failed")
        assert res.kind == "pipeline_failed"
        assert state.status == "failed"
        assert state.task_states["b"] == "canceled"

    def second_stage_in_flight(self):
        """s0 is done; of s1, g is done, f running, d running, c scheduled
        and e pending: declaration and progress orders differ."""
        state = PipelineState(PipelineSpec("p", [
            StageSpec("s0", [task("a"), task("b")]),
            StageSpec("s1", [task(tid) for tid in "cdefg"]),
        ]))
        drive(state, "b")
        assert drive(state, "a").kind == "stage_advanced"
        drive(state, "g")
        for tid in ("f", "d", "c"):
            state.mark_scheduled(tid)
        state.mark_running("f")
        state.mark_running("d")
        return state

    def test_mid_stage_failure_cancels_the_current_stage_open_tasks(self):
        state = self.second_stage_in_flight()
        res = state.on_task_complete("f", "failed")
        assert res.kind == "pipeline_failed"
        stage = state.current_tasks()
        assert res.canceled == [stage[0], stage[1], stage[2]]
        assert [t.task_id for t in res.canceled] == ["c", "d", "e"]
        assert state.task_states == {"a": "done", "b": "done", "c": "canceled", "d": "canceled",
                                     "e": "canceled", "f": "failed", "g": "done"}

    def test_cancel_returns_the_current_stage_open_tasks(self):
        state = self.second_stage_in_flight()
        canceled = state.cancel()
        assert all(t is s for t, s in zip(canceled, state.current_tasks()))
        assert [t.task_id for t in canceled] == ["c", "d", "e", "f"]
        assert state.status == "canceled"
        assert state.cancel() == []

    def test_marking_a_task_of_a_finished_stage_is_ordering_error(self):
        state = self.second_stage_in_flight()
        with pytest.raises(OrderingError, match="task a is done, not pending"):
            state.mark_scheduled("a")
        with pytest.raises(OrderingError, match="task b is done, not scheduled"):
            state.mark_running("b")
        with pytest.raises(StateError, match="unknown task ghost"):
            state.mark_scheduled("ghost")

    def test_outputs_hold_only_the_current_stage(self):
        state = PipelineState(PipelineSpec("p", [
            StageSpec("s0", [task("a"), task("b")]),
            StageSpec("s1", [task("c"), task("d")]),
        ]))
        drive(state, "a", result={"x": 1})
        assert state.outputs == {"a": {"x": 1}}
        assert drive(state, "b", result=None).kind == "stage_advanced"
        assert state.outputs == {}
        drive(state, "c", result=[2])
        assert state.outputs == {"c": [2]}

    def test_unparseable_output_fails_pipeline(self):
        state = PipelineState(PipelineSpec("p", [
            StageSpec("s0", [task("a")], post_hook=HookSpec(select_top_k, {"k": 1})),
            StageSpec("s1", [task("c")]),
        ]))
        res = drive(state, "a", result=b"\xff not json")
        assert res.kind == "pipeline_failed"
        assert state.status == "failed"

    def test_filtering_everything_away_fails_with_nothing_to_cancel(self):
        state = PipelineState(PipelineSpec("p", [
            StageSpec("s0", [task("a")], post_hook=HookSpec(select_top_k, {"k": 0})),
            StageSpec("s1", [], materialize=MaterializeSpec(ligand_tasks, {})),
        ]))
        res = drive(state, "a", result={"ligand_id": "L0", "true_score": 0.0})
        assert res == AdvanceResult("pipeline_failed", 0)
        assert state.status == "failed"
        assert state.task_states == {"a": "done"}


class TestHooks:
    def test_outputs_sorted_by_task_id(self):
        outputs = [("t2", json.dumps({"id": "x2", "v": 1}).encode()),
                   ("t1", json.dumps({"id": "x1", "v": 2}).encode())]
        items = apply_post_hook(None, outputs)
        assert [it["id"] for it in items] == ["x1", "x2"]

    def test_select_top_k_ties_by_id(self):
        outputs = [("t", json.dumps({"items": [
            {"ligand_id": "Lb", "true_score": 0.0},
            {"ligand_id": "La", "true_score": 0.0},
            {"ligand_id": "Lc", "true_score": -1.0},
        ]}).encode())]
        got = apply_post_hook(HookSpec(select_top_k, {"k": 2}), outputs)
        assert [it["ligand_id"] for it in got] == ["Lc", "La"]

    def test_lof_outliers_selects_planted_conformation(self):
        items = []
        for lig, base in (("L0", 0.0), ("L1", 5.0)):
            for i in range(20):
                items.append({"ligand_id": lig, "energy": base,
                              "point": [i * 0.01, 0.0, 0.0]})
            items.append({"ligand_id": lig, "energy": base, "point": [50.0, 0.0, 0.0]})
        outputs = [("t", json.dumps({"items": items}).encode())]
        got = apply_post_hook(HookSpec(lof_outliers,
                                       {"top_binders": 1, "outliers_per_binder": 1,
                                        "k_neighbors": 5}), outputs)
        assert len(got) == 1
        assert got[0]["ligand_id"] == "L0"       # best mean energy
        assert got[0]["point"] == [50.0, 0.0, 0.0]  # the isolated conformation


class TestPipelineIndependence:
    def test_interleaving_does_not_change_other_pipeline(self):
        def b_transitions(interleave_a):
            sa = PipelineState(PipelineSpec("pa", [StageSpec("s0", [task("a1"), task("a2")])]))
            sb = PipelineState(PipelineSpec("pb", [
                StageSpec("s0", [task("b1"), task("b2")]),
                StageSpec("s1", [task("b3")]),
            ]))
            seen = []
            if interleave_a:
                drive(sa, "a1")
            seen.append(drive(sb, "b1").kind)
            if interleave_a:
                drive(sa, "a2")
            seen.append(drive(sb, "b2").kind)
            seen.append(drive(sb, "b3").kind)
            seen.append(tuple(sorted(sb.task_states.items())))
            return seen

        assert b_transitions(False) == b_transitions(True)


class TestReplay:
    def test_replay_reproduces_final_states(self):
        import funnelsim as fs
        from funnelsim.engine import run_campaign

        funnel = fs.FunnelConfig(library_size=500, s1_fraction=0.02, cg_count=5,
                                 top_binders=2, outliers_per_binder=2, seed=3)
        spec = fs.build_funnel_campaign(funnel)
        result = run_campaign(spec)
        replayed = replay_trace(result.sink.events)
        assert replayed == result.final_states


def test_campaign_imports_no_numpy_workload_or_analysis():
    # The state machine calls the filters and builders it is given; it
    # imports no screening code, neither at module level nor in a function.
    with open(campaign.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(f"{module.rstrip('.')}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    assert not imported & {".workload", ".analysis", "funnelsim.workload", "funnelsim.analysis"}
