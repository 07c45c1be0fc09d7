"""Library generation, surrogate noise, duration models, and funnel wiring."""

import numpy as np
import pytest

from funnelsim.errors import ConfigError
from funnelsim.pilot import PilotSpec
from funnelsim.workload import (CG_REPLICAS, CostModel, FunnelConfig, StageCost,
                                build_funnel_campaign, calibrate_noise_sigma,
                                cg_replica_tasks, default_cost_model, duration_uniforms,
                                generate_library, ligand_id, recall_at_operating_point,
                                resolve_duration, select_top_fraction, surrogate_scores)


def draw(stage, cost_model, task_id, time_scale=1.0, seed=0):
    """The duration the engine draws for ``task_id`` of ``stage``."""
    return resolve_duration(stage, cost_model).sample_from_uniforms(
        *duration_uniforms(seed, task_id), time_scale)


class TestLibrary:
    def test_same_seed_identical(self):
        assert np.array_equal(generate_library(500, 123), generate_library(500, 123))

    def test_different_seed_differs(self):
        assert not np.array_equal(generate_library(100, 1), generate_library(100, 2))

    def test_empty(self):
        assert generate_library(0, 0).shape == (0,)

    def test_hundred_thousand_unique_ids(self):
        lib = generate_library(100_000, 7)
        assert len({ligand_id(i) for i in range(len(lib))}) == 100_000

    def test_scores_standard_normal_ish(self):
        scores = generate_library(20_000, 3)
        assert abs(scores.mean()) < 0.05
        assert abs(scores.std() - 1.0) < 0.05


class TestSurrogate:
    def test_zero_noise_preserves_ranking(self):
        true = generate_library(200, 5)
        pred = surrogate_scores(true, 0.0, 5)
        assert np.array_equal(np.argsort(true), np.argsort(pred))

    def test_huge_noise_recall_tends_to_k_over_n(self):
        # With delta = k, expected recall of a random ranking is k/n.
        from funnelsim.analysis import ScoredSet, top_k_recall
        n, k = 200, 10
        vals = []
        for seed in range(100):
            true = generate_library(n, seed)
            ss = ScoredSet([ligand_id(i) for i in range(n)], true,
                           surrogate_scores(true, 1e6, seed))
            vals.append(top_k_recall(ss, k, k))
        assert abs(float(np.mean(vals)) - k / n) < 0.03

    def test_rank_correlation_decreases_with_noise(self):
        def mean_spearman(sigma):
            out = []
            for seed in range(5):
                t = generate_library(400, seed)
                p = surrogate_scores(t, sigma, seed)
                rt = np.argsort(np.argsort(t))
                rp = np.argsort(np.argsort(p))
                out.append(np.corrcoef(rt, rp)[0, 1])
            return float(np.mean(out))

        corrs = [mean_spearman(s) for s in (0.1, 0.5, 1.0, 2.0)]
        assert corrs == sorted(corrs, reverse=True)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            surrogate_scores(generate_library(5, 0), -1.0, 0)

    def test_calibrated_operating_point(self):
        from funnelsim.workload import DEFAULT_NOISE_SIGMA
        vals = [recall_at_operating_point(100_000, DEFAULT_NOISE_SIGMA, s)
                for s in range(8)]
        assert 0.4 <= float(np.mean(vals)) <= 0.6

    def test_calibrate_noise_sigma(self):
        u, seeds, tol = 100_000, 4, 0.05

        def mean_recall(sigma):
            return float(np.mean([recall_at_operating_point(u, sigma, s)
                                  for s in range(seeds)]))

        sigma_half = calibrate_noise_sigma(u, target=0.5, seeds=seeds, tol=tol)
        sigma_high = calibrate_noise_sigma(u, target=0.7, seeds=seeds, tol=tol)
        assert abs(mean_recall(sigma_half) - 0.5) < tol
        assert sigma_high < sigma_half


class TestSampleDuration:
    def test_degenerate_tail_gives_median_exactly(self):
        cm = CostModel({"S3CG": StageCost(0.5, tail_params=(0.0,), nodes_per_task=1.0)})
        vals = {draw("S3CG", cm, f"t{i}", time_scale=1e-4) for i in range(20)}
        assert len(vals) == 1
        assert vals.pop() == pytest.approx(0.18)

    def test_heavy_tail_median_converges(self):
        cm = CostModel({"S1": StageCost(1e-4, tail_params=(1.0,), nodes_per_task=1 / 6)})
        samples = np.array([draw("S1", cm, f"t{i}", seed=42) for i in range(100_000)])
        expected_median = 1e-4 * 3600 / (1 / 6)
        assert abs(np.median(samples) / expected_median - 1) < 0.05
        # lognormal(sigma=1): mean/median = e^0.5
        assert samples.mean() > np.median(samples) * 1.3

    def test_table_ratio_fg_to_s1(self):
        cm = default_cost_model()
        ratio = cm.stage("S3FG").median_node_hours / cm.stage("S1").median_node_hours
        assert ratio == pytest.approx(5e4)

    def test_pareto_mix_tail(self):
        cm = CostModel({"S1": StageCost(1e-4, tail_kind="pareto_mix",
                                        tail_params=(2.5, 0.1), nodes_per_task=1.0)})
        samples = np.array([draw("S1", cm, f"t{i}", seed=7) for i in range(20_000)])
        base = 1e-4 * 3600
        assert np.median(samples) == pytest.approx(base)
        assert (samples > base * 1.0001).mean() == pytest.approx(0.1, abs=0.01)

    def test_unknown_stage_is_config_error(self):
        with pytest.raises(ConfigError):
            draw("nope", default_cost_model(), "t0")

    def test_throughput_calibration_overrides_duration(self):
        cm = CostModel({"S1": StageCost(1e-4, tail_params=(1.0,), nodes_per_task=1 / 6,
                                        throughput_per_gpu=14252.0 / 6000.0)})
        vals = {draw("S1", cm, f"t{i}") for i in range(5)}
        assert len(vals) == 1
        assert vals.pop() == pytest.approx(6000.0 / 14252.0)


class TestSelectTopFraction:
    def test_one_percent_of_thousand(self):
        pred = surrogate_scores(generate_library(1000, 0), 0.3, 0)
        got = select_top_fraction(pred, 0.01)
        best = sorted(range(1000), key=lambda i: (pred[i], ligand_id(i)))[:10]
        assert got.tolist() == best

    def test_fraction_one_is_identity(self):
        pred = surrogate_scores(generate_library(50, 1), 0.1, 1)
        assert sorted(select_top_fraction(pred, 1.0).tolist()) == list(range(50))

    def test_all_equal_scores_tie_break_lexicographic(self):
        got = select_top_fraction(np.zeros(10), 0.5)
        assert [ligand_id(i) for i in got] == sorted(ligand_id(i) for i in range(10))[:5]

    def test_all_equal_scores_keep_lowest_indices(self):
        scores = np.array([0.0, -0.0] * 20)
        assert select_top_fraction(scores, 0.25).tolist() == list(range(10))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            select_top_fraction(generate_library(5, 0), 0.0)

    @pytest.mark.parametrize("shape", ["rounded", "all_equal", "signed_zeros", "nans",
                                       "all_nan", "distinct"])
    def test_same_indices_as_a_stable_sort(self, shape):
        # Heavy ties at the cut: the partition must widen to every score
        # equal to the one there, and keep index order among them.
        gen = np.random.default_rng(len(shape))
        for _ in range(300):
            n = int(gen.integers(0, 80))
            scores = {
                "rounded": lambda: np.round(gen.standard_normal(n), 1),
                "all_equal": lambda: np.full(n, 0.5),
                "signed_zeros": lambda: gen.choice([0.0, -0.0, 1.0], n),
                "nans": lambda: np.where(gen.random(n) < 0.3, np.nan,
                                         np.round(gen.standard_normal(n), 1)),
                "all_nan": lambda: np.full(n, np.nan),
                "distinct": lambda: gen.standard_normal(n),
            }[shape]()
            # fraction 1, a single kept score, and random cuts.
            for fraction in (1.0, 1 / max(n, 1), float(gen.uniform(1e-9, 1.0))):
                keep = int(np.ceil(fraction * n))
                got = select_top_fraction(scores, fraction)
                assert got.tolist() == np.argsort(scores, kind="stable")[:keep].tolist()


class TestFunnel:
    def test_default_counts(self):
        f = FunnelConfig(library_size=100_000)
        assert f.s1_count() == 1000
        assert f.top_binders * f.outliers_per_binder * 24 == 600

    def test_monotonicity_violation_rejected(self):
        f = FunnelConfig(library_size=1000, s1_fraction=0.01, cg_count=50)
        assert any("cg_count" in p for p in f.validate())
        with pytest.raises(ConfigError):
            build_funnel_campaign(f)

    def test_production_scale_cg_count_accepted(self):
        # a production-sized per-target choice must validate
        f = FunnelConfig(library_size=1_000_000, cg_count=10_000)
        assert f.validate() == []

    @pytest.mark.parametrize("change, text", [
        ({"s1_fraction": float("nan")}, "s1_fraction"),
        ({"s1_fraction": 2.0}, "s1_fraction"),
        ({"noise_sigma": float("nan")}, "noise_sigma"),
        ({"seed": -1}, "seed"),
        ({"seed": 2 ** 64}, "seed"),
    ])
    def test_validate_reports_and_never_raises(self, change, text):
        problems = FunnelConfig(**change).validate()
        assert any(text in p for p in problems)
        with pytest.raises(ConfigError, match=text):
            build_funnel_campaign(FunnelConfig(**change))

    def test_ml1_payload_is_top_fraction_in_score_then_id_order(self):
        funnel = FunnelConfig(library_size=3000, s1_fraction=0.01, cg_count=3,
                              top_binders=2, outliers_per_binder=2, seed=4)
        ml1 = build_funnel_campaign(funnel).pipelines[0].stages[0]
        assert ml1.post_hook is None
        true = generate_library(funnel.library_size, funnel.seed)
        pred = surrogate_scores(true, funnel.noise_sigma, funnel.seed)
        best = sorted(range(funnel.library_size),
                      key=lambda i: (pred[i], ligand_id(i)))[:funnel.s1_count()]
        items = ml1.tasks[0].payload["items"]
        assert items == [{"ligand_id": ligand_id(i), "true_score": float(true[i]),
                          "predicted_score": float(pred[i])} for i in best]

    def test_built_spec_is_deterministic(self):
        cfg = dict(library_size=300, cg_count=3, top_binders=2,
                   outliers_per_binder=2, seed=9)
        a = build_funnel_campaign(FunnelConfig(**cfg))
        b = build_funnel_campaign(FunnelConfig(**cfg))
        assert a.pipelines[0].stages[0].tasks[0].payload == \
            b.pipelines[0].stages[0].tasks[0].payload

    def test_minimal_funnel_fg_task_count(self):
        from funnelsim.engine import run_campaign
        funnel = FunnelConfig(library_size=300, s1_fraction=0.02, cg_count=4,
                              top_binders=1, outliers_per_binder=1, seed=1)
        r = run_campaign(build_funnel_campaign(funnel))
        fg = [ev for ev in r.sink.events
              if ev.entity == "task" and ev.stage == "S3FG" and ev.transition == "pending"]
        assert len(fg) == 24

    def test_funnel_monotone_stage_sizes(self):
        from funnelsim.engine import run_campaign
        funnel = FunnelConfig(library_size=400, s1_fraction=0.05, cg_count=10,
                              top_binders=2, outliers_per_binder=3, seed=6)
        r = run_campaign(build_funnel_campaign(funnel))
        births = {}
        for ev in r.sink.events:
            if ev.entity == "task" and ev.transition == "pending" and ev.stage:
                births[ev.stage] = births.get(ev.stage, 0) + 1
        # ligand units shrink down the funnel
        assert 400 >= births["S1"] >= births["S3CG"] // 6 >= births["S3FG"] // 24

    def test_conformation_synth_deterministic_and_clustered(self):
        def replicas(seed):
            params = {"prefix": "p0.S3CG", "stage_tag": "S3CG", "frames": 8, "seed": seed,
                      "duration": resolve_duration("S3CG", default_cost_model())}
            tasks = cg_replica_tasks(params, [{"ligand_id": "L1", "true_score": -1.0}])
            assert [t.task_id for t in tasks] == [f"p0.S3CG.L1.r{r:02d}"
                                                  for r in range(CG_REPLICAS)]
            return [t.payload["items"] for t in tasks]

        a = replicas(5)
        assert a == replicas(5)
        assert a != replicas(6)
        assert a[0] != a[1]
        assert [(c["replica"], c["frame"]) for c in a[1]] == [(1, f) for f in range(8)]
        pts = np.array([c["point"] for c in a[0]])
        center = np.array([c["point"] for c in a[2]])
        # replicas of one ligand share a cluster center
        assert np.linalg.norm(pts.mean(axis=0) - center.mean(axis=0)) < 3.0


class TestCostAccounting:
    def test_trace_reproduces_table_medians_small(self):
        # sigma=0 tails: per-ligand node-hours from the trace must equal
        # the configured medians exactly (one stage at a time).
        from funnelsim.campaign import CampaignSpec, PipelineSpec, StageSpec, TaskDescriptor
        from funnelsim.engine import run_campaign
        from funnelsim.trace import stage_node_seconds
        from funnelsim.workload import resolve_duration

        cm = CostModel({
            "S1": StageCost(1e-4, tail_params=(0.0,), nodes_per_task=1 / 6),
            "S3CG": StageCost(0.5, tail_params=(0.0,), nodes_per_task=1.0),
        })
        time_scale = 1e-3
        resource = PilotSpec(nodes=4, cpus_per_node=6, gpus_per_node=6, walltime_s=1e12)

        s1_tasks = [TaskDescriptor(f"s1.{i}", stage_tag="S1", cpus=0, gpus=1,
                                   duration_model=resolve_duration("S1", cm))
                    for i in range(50)]
        cg_tasks = [TaskDescriptor(f"cg.{i}.r{r}", stage_tag="S3CG", cpus=0, gpus=1,
                                   duration_model=resolve_duration("S3CG", cm))
                    for i in range(10) for r in range(6)]
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s", s1_tasks + cg_tasks)])],
                            resource, seed=0, time_scale=time_scale)
        r = run_campaign(spec)
        per_stage = stage_node_seconds(r.sink.events)
        s1_nh = per_stage["S1"] / time_scale / 3600 / 50
        cg_nh = per_stage["S3CG"] / time_scale / 3600 / 10
        assert s1_nh == pytest.approx(1e-4, rel=1e-9)
        assert cg_nh == pytest.approx(0.5, rel=1e-9)
