"""Command-line behavior: artifacts, determinism, exit codes, local runs."""
import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from funnelsim.cli import MAX_BUCKETS, _trace_metrics, load_config, main, parse_cost_model
from funnelsim.engine import Engine, run_campaign
from funnelsim.errors import TraceError
from funnelsim.overlay import MasterConfig
from funnelsim.trace import TraceEvent, TraceSink, load_trace, stage_tasks, stage_throughput
from funnelsim.workload import StageCost

from test_engine import alarm
from test_pinned_traces import run_overlay_funnel, walltime_cut_campaign

ROOT = Path(__file__).resolve().parents[1]


def write_config(path, **overrides):
    doc = {
        "resource": {"nodes": 8, "cpus_per_node": 42, "gpus_per_node": 6,
                     "walltime_s": 1e9, "backend": "simulated"},
        "funnel": {"library_size": 5000, "cg_count": 30},
        "seed": 42,
        "time_scale": 1e-4,
        "mode": "concurrent",
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestSimulate:
    def test_artifacts_and_summary(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert (out / "trace.jsonl").exists()
        assert (out / "metrics.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["funnel"]["S3FG_tasks"] == 600
        assert summary["funnel"]["selected_conformations"] == 25
        assert summary["pipelines"]["p0"] == "done"
        rows = csv.reader((out / "metrics.csv").read_text().splitlines())
        for frac in [row[1] for row in rows][1:]:
            assert 0.0 <= float(frac) <= 1.0

    def test_same_seed_byte_identical_traces(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet"])
        assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"])
        main(["simulate", "--config", str(cfg), "--out", str(out2),
              "--seed", "7", "--quiet"])
        assert (out1 / "trace.jsonl").read_bytes() != (out2 / "trace.jsonl").read_bytes()

    def test_missing_config_named_in_diagnostic(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_config_key_fails_loud(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", extra_section={"x": 1})
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "extra_section" in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--quiet", "--force"]) == 0

    def test_failed_run_leaves_loadable_partial_trace(self, tmp_path, monkeypatch, capsys):
        # The fifth task to finish records an illegal done -> running step.
        before_fault, finished = [], []
        real_finish = Engine._finish

        def finish_then_fault(self, pid, task, outcome, result, duration, t):
            applied = real_finish(self, pid, task, outcome, result, duration, t)
            if applied:
                finished.append(task)
            if len(finished) == 5 and not before_fault:
                before_fault.extend(self.sink.events)
                self._task_ev(t, task, "running", pid)
            return applied

        monkeypatch.setattr(Engine, "_finish", finish_then_fault)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "illegal transition done -> running" in capsys.readouterr().err
        assert len(before_fault) > 5
        assert load_trace(out / "trace.jsonl") == before_fault

    @pytest.mark.parametrize("updates", [
        {"resource": {"cpus_per_node": 1}},
        {"overlay": {"workers_per_master": 10**6}},
        # The pilot has gpus, so each worker takes one, and the one node has one gpu.
        {"resource": {"nodes": 1, "gpus_per_node": 1}, "overlay": {"workers_per_master": 4}},
    ], ids=["resource-cpus_per_node-1", "overlay-workers_per_master-1000000", "one_gpu_node"])
    def test_overlay_that_never_fits_exits_2_with_nothing_written(self, updates, tmp_path,
                                                                   capsys):
        doc = json.loads((ROOT / "configs/desk_funnel.json").read_text())
        for section, values in updates.items():
            doc[section].update(values)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with alarm(10):
            assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        workers = doc["overlay"]["workers_per_master"]
        assert capsys.readouterr().err == \
            f"error: pilot lacks capacity for 1 masters + {workers} workers\n"
        assert not out.exists()

    def test_outputs_do_not_depend_on_the_string_hash_seed(self, tmp_path):
        outs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "funnelsim.cli", "simulate", "--config",
                            str(ROOT / "configs/desk_funnel.json"), "--out", str(out), "--quiet"],
                           env=env, check=True, timeout=120)
            outs.append(out)
        for name in ("trace.jsonl", "summary.json", "metrics.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_invalid_funnel_lists_violation(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           funnel={"library_size": 100, "cg_count": 50})
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cg_count" in capsys.readouterr().err


RESOURCE = {"nodes": 8, "cpus_per_node": 42, "gpus_per_node": 6, "walltime_s": 1e9}
NAN = float("nan")


class TestConfigTypes:
    """Each value must fit its field's type: no value is cast, and a config
    that breaks the rule exits 2 at once, before anything is written."""

    @pytest.mark.parametrize("overrides, text", [
        ({"resource": {**RESOURCE, "nodes": 2.5}}, "resource.nodes must be an integer"),
        ({"resource": {**RESOURCE, "nodes": True}}, "resource.nodes must be an integer"),
        ({"resource": {**RESOURCE, "nodes": "8"}}, "resource.nodes must be an integer"),
        ({"resource": {**RESOURCE, "gpu_host_cpu": "false"}}, "resource.gpu_host_cpu"),
        ({"resource": {**RESOURCE, "gpu_host_cpu": 0}}, "resource.gpu_host_cpu"),
        ({"overlay": {"bulk_size": 12.7}}, "overlay.bulk_size must be an integer"),
        ({"funnel": {"library_size": "abc"}}, "funnel.library_size must be an integer"),
        ({"resource": {**RESOURCE, "walltime_s": NAN}}, "resource.walltime_s"),
        ({"resource": {**RESOURCE, "bootstrap_s": NAN}}, "resource.bootstrap_s"),
        ({"time_scale": NAN}, "config.time_scale must be a finite number"),
        ({"funnel": {"noise_sigma": NAN}}, "funnel.noise_sigma"),
        ({"funnel": {"s1_fraction": NAN}}, "funnel.s1_fraction"),
        ({"seed": -1}, "seed must fit in 64 unsigned bits"),
        ({"seed": 4.2}, "config.seed must be an integer"),
        ({"resource": [8, 42, 6]}, "resource must be a JSON object"),
    ])
    def test_bad_value_exits_2_at_once(self, overrides, text, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **overrides)
        out = tmp_path / "out"
        started = time.perf_counter()
        with alarm(5):
            assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err
        assert not (out / "trace.jsonl").exists()

    @pytest.mark.parametrize("path", ["configs/desk_funnel.json", "configs/local_funnel.json",
                                      "perfbench/desk_funnel.json"])
    def test_shipped_configs_load(self, path):
        spec, _overlay, funnel = load_config(str(ROOT / path))
        assert spec.seed == funnel.seed
        assert isinstance(spec.resource.nodes, int) and isinstance(spec.time_scale, float)

    def test_integral_float_reads_as_int_and_int_as_float(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           resource={**RESOURCE, "nodes": 8.0, "walltime_s": 1000000000})
        spec, _overlay, _funnel = load_config(str(cfg))
        assert spec.resource.nodes == 8 and type(spec.resource.nodes) is int
        assert type(spec.resource.walltime_s) is float

    def test_missing_required_key_named(self, tmp_path, capsys):
        resource = {k: v for k, v in RESOURCE.items() if k != "gpus_per_node"}
        cfg = write_config(tmp_path / "c.json", resource=resource)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "resource is missing key 'gpus_per_node'" in capsys.readouterr().err

    def test_seed_is_no_funnel_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", funnel={"library_size": 5000, "seed": 1})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown keys in funnel: seed" in capsys.readouterr().err

    @pytest.mark.parametrize("cost_model, text", [
        ({"S1": {"median_node_hours": "1"}}, "cost_model.S1.median_node_hours"),
        ({"S1": {"tail": {"kind": "pareto_mix", "alpha": 2.5}}},
         "cost_model.S1.tail is missing key 'mix'"),
        ({"S1": {"tail": {"kind": "lognormal", "sigma": NAN}}}, "cost_model.S1.tail.sigma"),
        ({"S1": {"throughput_per_gpu": True}}, "cost_model.S1.throughput_per_gpu"),
        ({"S1": []}, "cost_model.S1 must be a JSON object"),
        ([], "cost_model must be a JSON object"),
        # Tails the sampler cannot use: a division by zero, an overflow at
        # the extreme uniform draws, and parameters outside their range.
        ({"S3CG": {"tail": {"kind": "pareto_mix", "alpha": 0, "mix": 0.1}}},
         "cost_model.S3CG: tail alpha must be positive and mix in [0, 1]"),
        ({"S3CG": {"tail": {"kind": "lognormal", "sigma": 1000}}},
         "cost_model.S3CG: lognormal tail (1000.0,) overflows a duration draw"),
        ({"S3CG": {"tail": {"kind": "pareto_mix", "alpha": -2, "mix": 7}}},
         "cost_model.S3CG: tail alpha must be positive and mix in [0, 1]"),
        ({"S3CG": {"tail": {"kind": "lognormal", "sigma": -1}}},
         "cost_model.S3CG: tail sigma must be >= 0"),
        ({"S3CG": {"tail": {"kind": "pareto_mix", "alpha": 0.05, "mix": 0.5}}},
         "cost_model.S3CG: pareto_mix tail (0.05, 0.5) overflows a duration draw"),
    ])
    def test_bad_cost_model_exits_2(self, cost_model, text, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", cost_model=cost_model)
        with alarm(5):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert text in capsys.readouterr().err
        assert not (tmp_path / "o" / "trace.jsonl").exists()

    @pytest.mark.parametrize("kind, params, ok", [
        ("lognormal", (82.0,), True), ("lognormal", (83.0,), False),
        ("pareto_mix", (0.06, 1.0), True), ("pareto_mix", (0.05, 1.0), False),
        ("pareto_mix", (0.01, 0.0), True)])
    def test_tail_checked_at_the_extreme_draws(self, kind, params, ok):
        # The heaviest tails whose longest draw is still a float, and the
        # first that overflow; a mix of 0 never draws from the tail.
        assert (StageCost(0.5, kind, params).validate() == []) == ok

    def test_cost_model_overrides_as_before(self):
        # An entry overrides its stage: an omitted tail is lognormal with
        # sigma 0, an omitted throughput_per_gpu is None.
        model = parse_cost_model({"S1": {"median_node_hours": 2e-4},
                                  "NEW": {"throughput_per_gpu": None,
                                          "tail": {"kind": "pareto_mix", "alpha": 2,
                                                   "mix": 0.1}}})
        assert model.stages["S1"] == StageCost(2e-4, "lognormal", (0.0,), 1 / 6, None)
        assert model.stages["NEW"] == StageCost(1.0, "pareto_mix", (2.0, 0.1), 1.0, None)


class TestAnalyze:
    def write_scores(self, path, n=400, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        rows = []
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ligand_id", "true_score", "predicted_score"])
            for i in range(n):
                t = float(rng.standard_normal())
                p = t + noise * float(rng.standard_normal())
                w.writerow([f"L{i:05d}", f"{t:.8f}", f"{p:.8f}"])
                rows.append((f"L{i:05d}", t, p))
        return rows

    def test_perfect_predictor_res_grid(self, tmp_path):
        scores = tmp_path / "s.csv"
        self.write_scores(scores, noise=0.0)
        out = tmp_path / "an"
        assert main(["analyze", "--metric", "res", "--scores", str(scores),
                     "--out", str(out), "--quiet"]) == 0
        with open(out / "res.csv") as fh:
            reader = csv.reader(fh)
            top_fracs = [float(x) for x in next(reader)[1:]]
            for row in reader:
                b = float(row[0])
                for f, cell in zip(top_fracs, (float(c) for c in row[1:])):
                    if b >= f:
                        assert cell == pytest.approx(1.0)

    def test_recall_fixture_matches_committed_oracle(self, tmp_path):
        # 10-row fixture: expected value derived by explicit sort and
        # set intersection, frozen here.
        rows = [("a", 1.0, 2.0), ("b", 2.0, 1.0), ("c", 3.0, 9.0),
                ("d", 4.0, 3.0), ("e", 5.0, 8.0), ("f", 6.0, 4.0),
                ("g", 7.0, 10.0), ("h", 8.0, 5.0), ("i", 9.0, 6.0),
                ("j", 10.0, 7.0)]
        scores = tmp_path / "s.csv"
        with open(scores, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ligand_id", "true_score", "predicted_score"])
            w.writerows(rows)
        true_top3 = {"a", "b", "c"}
        pred_top2 = {"b", "a"}
        expect = len(true_top3 & pred_top2) / 3
        out = tmp_path / "an"
        assert main(["analyze", "--metric", "recall", "--scores", str(scores),
                     "--k", "3", "--delta", "2", "--out", str(out), "--quiet"]) == 0
        with open(out / "recall.csv") as fh:
            row = list(csv.reader(fh))[1]
        assert float(row[2]) == pytest.approx(expect)

    def test_identical_point_sets_chamfer_zero(self, tmp_path):
        pts = tmp_path / "p.csv"
        rng = np.random.default_rng(1)
        with open(pts, "w", newline="") as fh:
            w = csv.writer(fh)
            for _ in range(32):
                w.writerow([f"{x:.6f}" for x in rng.standard_normal(3)])
        out = tmp_path / "an"
        assert main(["analyze", "--metric", "chamfer", "--points", str(pts),
                     "--points-b", str(pts), "--out", str(out), "--quiet"]) == 0
        with open(out / "chamfer.csv") as fh:
            val = float(list(csv.reader(fh))[1][0])
        assert val == 0.0

    def test_malformed_row_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("ligand_id,true_score,predicted_score\nL1,0.5,ok?\n")
        rc = main(["analyze", "--metric", "recall", "--scores", str(bad),
                   "--out", str(tmp_path / "an")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["res", "recall"])
    @pytest.mark.parametrize("text", ["", "ligand_id,true_score,predicted_score\n"])
    def test_empty_scores_is_input_error(self, tmp_path, capsys, metric, text):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        out = tmp_path / "an"
        rc = main(["analyze", "--metric", metric, "--scores", str(empty), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / f"{metric}.csv").exists()

    @pytest.mark.parametrize("flags", [["--k", "5"], ["--delta", "3"], ["--k", "0"],
                                       ["--delta", "-1"]])
    def test_recall_cut_outside_library_is_input_error(self, tmp_path, capsys, flags):
        scores = tmp_path / "s.csv"
        scores.write_text("ligand_id,true_score,predicted_score\na,1.0,2.0\nb,2.0,1.0\n")
        out = tmp_path / "an"
        rc = main(["analyze", "--metric", "recall", "--scores", str(scores),
                   "--out", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be in [1, 2]" in err
        assert not (out / "recall.csv").exists()

    def test_lof_k_outside_point_set_is_input_error(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,1\n2,2\n")
        rc = main(["analyze", "--metric", "lof", "--points", str(pts), "--k", "3",
                   "--out", str(tmp_path / "an")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: k_neighbors must be in [1, 2]")

    def test_lof_output(self, tmp_path):
        pts = tmp_path / "p.csv"
        rng = np.random.default_rng(4)
        with open(pts, "w", newline="") as fh:
            w = csv.writer(fh)
            for _ in range(50):
                w.writerow([f"{x:.6f}" for x in rng.standard_normal(3)])
            w.writerow([1000.0, 0.0, 0.0])
        out = tmp_path / "an"
        assert main(["analyze", "--metric", "lof", "--points", str(pts),
                     "--k", "5", "--out", str(out), "--quiet"]) == 0
        with open(out / "lof.csv") as fh:
            scores = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        assert len(scores) == 51
        assert max(range(51), key=lambda i: scores[i]) == 50


class TestReport:
    def make_trace(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           funnel={"library_size": 2000, "cg_count": 10,
                                   "top_binders": 2, "outliers_per_binder": 2})
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        return out / "trace.jsonl"

    def test_report_artifacts(self, tmp_path):
        trace = self.make_trace(tmp_path)
        rep = tmp_path / "rep"
        assert main(["report", "--trace", str(trace), "--out", str(rep), "--quiet"]) == 0
        with open(rep / "utilization.csv") as fh:
            for row in list(csv.reader(fh))[1:]:
                assert 0.0 <= float(row[1]) <= 1.0
        ovh = json.loads((rep / "overhead.json").read_text())
        assert ovh["n_tasks"] > 0

    def test_report_idempotent(self, tmp_path):
        trace = self.make_trace(tmp_path)
        rep = tmp_path / "rep"
        main(["report", "--trace", str(trace), "--out", str(rep), "--quiet"])
        first = (rep / "utilization.csv").read_bytes()
        main(["report", "--trace", str(trace), "--out", str(rep), "--quiet"])
        assert (rep / "utilization.csv").read_bytes() == first

    def test_corrupt_line_reports_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t":0.0,"entity":"pilot","id":"p","transition":"acquired"}\nnot json\n')
        rc = main(["report", "--trace", str(bad), "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert "2" in capsys.readouterr().err

    def test_empty_trace_ok_with_warning(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["report", "--trace", str(empty), "--out", str(tmp_path / "rep")])
        assert rc == 0
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, text", [
        (['{"t":0.0,"entity":"pilot","id":"p","transition":"acquired","nodes":2}',
          '{"t":Infinity,"entity":"pilot","id":"p","transition":"released"}'],
         "bad trace line 2: t must be a finite number, got Infinity"),
        (['{"t":0.0,"entity":"pilot","id":"p","transition":"acquired","nodes":"2"}',
          '{"t":2.0,"entity":"pilot","id":"p","transition":"released"}'],
         'bad trace line 1: nodes must be an integer or null, got "2"'),
        (['{"t":0.0,"entity":"task","id":"a","transition":"pending","stage":"S1"}',
          '{"t":0.0,"entity":"task","id":"b","transition":"pending","stage":5}'],
         "bad trace line 2: stage must be a string or null, got 5"),
        # Unchecked, this NaN made overhead.json read total_node_s 0.0, not 3.0.
        (['{"t":0.0,"entity":"pilot","id":"p","transition":"acquired","nodes":2}',
          '{"t":0.0,"entity":"node","id":"p/0","transition":"busy"}',
          '{"t":1.0,"entity":"node","id":"p/0","transition":"idle"}',
          '{"t":2.0,"entity":"pilot","id":"p","transition":"released"}',
          '{"t":NaN,"entity":"task","id":"a","transition":"pending"}'],
         "bad trace line 5: t must be a finite number, got NaN"),
        # Cast with str() and float(), these lines read as one task "None"
        # that ran from t=1.0, and report gave S1 1 /s and exit 0.
        (['{"t":true,"entity":"task","id":null,"transition":"pending","stage":"S1"}',
          '{"t":1.0,"entity":"task","id":"None","transition":"running","stage":"S1"}',
          '{"t":2.0,"entity":"task","id":"None","transition":"done","stage":"S1"}'],
         "bad trace line 1: t must be a finite number, got true"),
        (['{"t":1.0,"entity":"task","id":null,"transition":"pending","stage":"S1"}'],
         "bad trace line 1: id must be a string, got null"),
        # A time too large for a float: an OverflowError traceback and exit 1.
        (['{"t":0.0,"entity":"pilot","id":"p","transition":"acquired","nodes":2}',
          '{"t":1' + "0" * 400 + ',"entity":"pilot","id":"p","transition":"released"}'],
         "bad trace line 2: t must be a finite number, got 1" + "0" * 400),
    ], ids=["inf_time", "string_nodes", "int_and_str_stages", "nan_time", "true_time",
            "null_id", "huge_int_time"])
    def test_unreadable_trace_exits_2(self, lines, text, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "rep"
        assert main(["report", "--trace", str(trace), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"
        assert not out.exists()

    def test_merged_disjoint_pilot_traces(self, tmp_path):
        # resource-weighted combination checked through the CLI formats
        from funnelsim.trace import load_trace, merge_traces, utilization
        t1 = self.make_trace(tmp_path)
        events = load_trace(t1)
        merged = merge_traces([events, events])
        um = utilization(merged, 1.0).mean()
        u1 = utilization(events, 1.0).mean()
        assert um == pytest.approx(u1)


def funnel_counts_from_trace(events) -> dict:
    """The summary's funnel counts from a walk of their own, as the CLI
    read them before its stage figures came from one walk."""
    counts: dict[str, int] = {}
    confs = set()
    for ev in events:
        if ev.entity == "task" and ev.transition == "pending" and ev.stage:
            counts[ev.stage] = counts.get(ev.stage, 0) + 1
            if ev.stage == "S3FG":
                parts = ev.entity_id.split(".")
                conf = next((p for p in parts if p.startswith("c") and p[1:].isdigit()), None)
                if conf:
                    confs.add(conf)
    out = {f"{stage}_tasks": n for stage, n in sorted(counts.items())}
    if confs:
        out["selected_conformations"] = len(confs)
    return out


def desk_funnel_sink():
    config = Path(__file__).resolve().parents[1] / "configs" / "desk_funnel.json"
    spec, overlay, _ = load_config(str(config), seed_override=42)
    return run_campaign(spec, overlay=overlay).sink


def walltime_cut_sink():
    return run_campaign(walltime_cut_campaign(),
                        overlay=MasterConfig(n_masters=1, workers_per_master=3, bulk_size=4)).sink


def flag_mode_sink():
    """A trace with illegal steps: tasks that run before they are born,
    end twice or never run, a stage that never completes a task, a stage
    whose tasks all end at one time, an empty stage tag, and worker and
    pipeline events that name a stage, put into the sink through its
    setter.  Its last task's events are then first offered to ``record``
    with types that break the type rule (an int time, a numpy or bool
    count), which the sink refuses and does not keep."""
    sink = TraceSink()
    steps = [
        (0.0, "task", "p0.S3FG.c0003.r0", "pending", "S3FG"),
        (0.0, "task", "p0.S3FG.c0003.r1", "pending", "S3FG"),
        (0.0, "task", "p0.S3FG.c0007.r0", "pending", "S3FG"),
        (0.0, "task", "p0.S3FG.r2", "pending", "S3FG"),
        (1.0, "task", "p0.S3FG.c0003.r0", "running", "S3FG"),
        (1.0, "task", "p0.S3FG.c0007.r0", "running", "S3FG"),
        (2.0, "task", "p0.S3FG.c0003.r0", "done", "S3FG"),
        (2.5, "task", "p0.S3FG.c0003.r0", "done", "S3FG"),
        (4.0, "task", "p0.S3FG.c0007.r0", "done", "S3FG"),
        (1.0, "task", "x0", "done", "X"),
        (1.0, "task", "y0", "pending", "Y"),
        (2.0, "task", "y0", "running", "Y"),
        (1.0, "task", "z0", "running", "Z"),
        (1.0, "task", "z0", "done", "Z"),
        (3.0, "task", "e0", "pending", ""),
        (3.5, "task", "e0", "running", ""),
        (4.0, "task", "e0", "done", ""),
        (2.0, "worker", "w0", "busy", "S1"),
        (3.0, "worker", "w0", "done", "S3FG"),
        (3.0, "pipeline", "p0", "pending", "S3FG"),
    ]
    sink.events = [TraceEvent(t, entity, eid, transition, stage=stage, pipeline="p0")
                   for t, entity, eid, transition, stage in steps]
    odd = "p0.S3FG.c0009.r0"
    for typed, given in [(dict(t=5.0), dict(t=5)), (dict(nodes=1), dict(nodes=np.int64(1))),
                         (dict(cpus=1), dict(cpus=True))]:
        kept = len(sink)
        with pytest.raises(TraceError, match=f"^task {odd}: {next(iter(given))} must be"):
            sink.record(TraceEvent(**{**dict(t=5.0, entity="task", entity_id=odd,
                                             transition="pending", stage="S3FG"), **given}))
        assert len(sink) == kept
    sink.record(TraceEvent(5.0, "task", odd, "pending", stage="S3FG", pipeline="p0"))
    sink.record(TraceEvent(5.5, "task", odd, "scheduled", stage="S3FG"))
    sink.record(TraceEvent(6.0, "task", odd, "running", nodes=1, stage="S3FG"))
    sink.record(TraceEvent(7.5, "task", odd, "done", cpus=1, stage="S3FG", pipeline="p0"))
    return sink


NOT_UTF8 = b"a,1,2\n\xff,3,4\n"
LONG_CELL = b"x" * (csv.field_size_limit() + 1) + b",1,2\n"


@pytest.mark.parametrize("argv, data, why", [
    (["analyze", "--metric", "recall", "--scores", "{input}"], None, "No such file or directory"),
    (["analyze", "--metric", "res", "--scores", "{input}"], NOT_UTF8, "not UTF-8 text"),
    (["analyze", "--metric", "recall", "--scores", "{input}"], LONG_CELL,
     "field larger than field limit (131072)"),
    (["analyze", "--metric", "lof", "--points", "{input}"], b"0,0\n\xff,1\n", "not UTF-8 text"),
    (["analyze", "--metric", "chamfer", "--points", "{good}", "--points-b", "{input}"],
     LONG_CELL, "field larger than field limit (131072)"),
    (["report", "--trace", "{input}"], None, "No such file or directory"),
    (["report", "--trace", "{input}"], NOT_UTF8, "not UTF-8 text"),
    (["report", "--trace", "{tmp}"], None, "Is a directory"),
], ids=["missing_scores", "scores_not_utf8", "scores_long_cell", "points_not_utf8",
        "points_long_cell", "missing_trace", "trace_not_utf8", "trace_is_a_directory"])
def test_unreadable_input_exits_2_with_nothing_written(argv, data, why, tmp_path, capsys):
    path, good, out = tmp_path / "input", tmp_path / "good.csv", tmp_path / "out"
    if data is not None:
        path.write_bytes(data)
    good.write_text("0,0\n1,1\n")
    argv = [arg.format(input=path, good=good, tmp=tmp_path) for arg in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {argv[-1]}: {why}\n"
    assert not out.exists()


class TestTraceMetricsOneWalk:
    """The summary's stage figures come from one walk; they equal a
    stage_throughput walk per stage and the funnel counts' own walk, and
    a sink's columns give what its events give."""

    @pytest.mark.parametrize("make", [desk_funnel_sink, lambda: run_overlay_funnel().sink,
                                      walltime_cut_sink, flag_mode_sink],
                             ids=["desk_funnel_42", "overlay_funnel", "walltime_cut",
                                  "flag_mode"])
    def test_same_reports_and_counts_as_separate_walks(self, make):
        sink = make()
        events = sink.events
        util, ovh, reports, funnel = _trace_metrics(events, None)
        stages = sorted({ev.stage for ev in events if ev.entity == "task" and ev.stage})
        want = [(tag, stage_throughput(events, tag)) for tag in stages]
        assert list(reports.items()) == [(tag, rep) for tag, rep in want if rep is not None]
        assert len(reports) >= 2
        assert funnel == funnel_counts_from_trace(events)
        assert _trace_metrics(sink, None) == (util, ovh, reports, funnel)
        assert stage_tasks(sink) == stage_tasks(events)

    def test_summary_reports_skip_the_windows(self):
        events = run_overlay_funnel().sink.events
        _util, _ovh, full, _funnel = _trace_metrics(events, None)
        _util, _ovh, bare, _funnel = _trace_metrics(events, None, windows=False)
        assert {tag: rep.overall_per_s for tag, rep in bare.items()} == \
            {tag: rep.overall_per_s for tag, rep in full.items()}
        assert all(rep.windows == [] for rep in bare.values())
        assert all(rep.windows for rep in full.values())


class TestBucketWidth:
    BAD = ["0", "-5", "nan", "inf"]

    def assert_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --bucket-width" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("width", BAD)
    @pytest.mark.parametrize("command", ["simulate", "run-local"])
    def test_campaign_commands_reject_before_running(self, command, width, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        self.assert_rejected([command, "--config", str(cfg), "--out", str(out),
                              "--bucket-width", width], capsys)
        assert not (out / "trace.jsonl").exists()
        assert not out.exists()

    @pytest.mark.parametrize("width", BAD)
    def test_report_rejects(self, width, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"t":0.0,"entity":"pilot","id":"p","transition":"acquired","nodes":1}\n'
                         '{"t":4.0,"entity":"pilot","id":"p","transition":"released"}\n')
        out = tmp_path / "rep"
        self.assert_rejected(["report", "--trace", str(trace), "--out", str(out),
                              "--bucket-width", width], capsys)
        assert not out.exists()
        assert main(["report", "--trace", str(trace), "--out", str(out),
                     "--bucket-width", "0.5", "--quiet"]) == 0
        assert len((out / "utilization.csv").read_text().splitlines()) == 1 + 8

    def test_report_refuses_more_than_max_buckets(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"t":0.0,"entity":"pilot","id":"p","transition":"acquired","nodes":1}\n'
                         '{"t":4.0,"entity":"pilot","id":"p","transition":"released"}\n')
        out = tmp_path / "rep"
        width = 4.0 / (MAX_BUCKETS + 10)
        with alarm(5):
            assert main(["report", "--trace", str(trace), "--out", str(out),
                         "--bucket-width", repr(width)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --bucket-width {width:g} cuts")
        assert not out.exists()

    def test_simulate_refuses_more_than_max_buckets(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        first, second = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", str(cfg), "--out", str(first), "--quiet"]) == 0
        makespan = json.loads((first / "summary.json").read_text())["makespan_s"]
        width = makespan / (MAX_BUCKETS + 10)
        with alarm(5):
            assert main(["simulate", "--config", str(cfg), "--out", str(second), "--quiet",
                         "--bucket-width", repr(width)]) == 2
        assert "more than 1000000 buckets" in capsys.readouterr().err
        assert (second / "trace.jsonl").read_bytes() == (first / "trace.jsonl").read_bytes()
        assert not (second / "summary.json").exists()


class TestRunLocal:
    def local_config(self, path, **funnel_overrides):
        funnel = {"library_size": 200, "s1_fraction": 0.02, "cg_count": 2,
                  "top_binders": 1, "outliers_per_binder": 1,
                  "frames_per_replica": 4}
        funnel.update(funnel_overrides)
        return write_config(
            path,
            resource={"nodes": 1, "cpus_per_node": 2, "gpus_per_node": 0,
                      "walltime_s": 60.0, "backend": "local"},
            funnel=funnel,
            cost_model={stage: {"median_node_hours": 1e-4,
                                "tail": {"kind": "lognormal", "sigma": 0.0},
                                "nodes_per_task": 1.0}
                        for stage in ("ML1", "S1", "S3CG", "S2", "S3FG")},
            time_scale=1e-3,
        )

    def test_local_funnel_completes(self, tmp_path):
        cfg = self.local_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["run-local", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pipelines"]["p0"] == "done"
        assert summary["funnel"]["S3FG_tasks"] == 24

    def test_overlay_section_rejected_at_once(self, tmp_path, capsys):
        # The overlay models S1 dispatch in simulation only; a local run
        # with one must fail before any task starts, not at S1.
        overlay = {"n_masters": 1, "workers_per_master": 2, "bulk_size": 4}
        cfg = self.local_config(tmp_path / "c.json")
        doc = json.loads(cfg.read_text())
        doc["overlay"] = overlay
        cfg.write_text(json.dumps(doc))
        sim = write_config(tmp_path / "sim.json", overlay=overlay)
        for path in (cfg, sim):
            out = tmp_path / f"out_{path.stem}"
            assert main(["run-local", "--config", str(path), "--out", str(out), "--quiet"]) == 2
            assert "overlay" in capsys.readouterr().err
            assert not (out / "trace.jsonl").exists()


class TestLocalOverlayFunctions:
    def test_function_tasks_and_worker_death(self, monkeypatch):
        import funnelsim as fs
        from funnelsim.campaign import (CampaignSpec, FixedDuration,
                                        PipelineSpec, StageSpec, TaskDescriptor)
        from funnelsim.engine import run_campaign
        from funnelsim.overlay import MasterConfig
        from funnelsim import workload

        killed = {"count": 0}

        def kill_once():
            if killed["count"] == 0:
                killed["count"] += 1
                from funnelsim.errors import WorkerKilled
                raise WorkerKilled("first strike")
            return "survived"

        monkeypatch.setitem(workload.FUNCTIONS, "kill_once_test", kill_once)

        def payload(fn, **kwargs):
            return {"fn": fn, "kwargs": kwargs}

        tasks = [TaskDescriptor(f"f{i}", kind="function", cpus=1,
                                duration_model=FixedDuration(0.0),
                                payload=payload("sleep_ms", ms=1.0))
                 for i in range(6)]
        tasks.append(TaskDescriptor("killer", kind="function", cpus=1,
                                    duration_model=FixedDuration(0.0),
                                    payload=payload("kill_once_test")))
        import os
        resource = fs.PilotSpec(nodes=1, cpus_per_node=min(2, os.cpu_count() or 1),
                                gpus_per_node=0, walltime_s=30.0, backend="local")
        spec = CampaignSpec([PipelineSpec("p", [StageSpec("s", tasks)])],
                            resource, mode="local")
        r = run_campaign(spec, overlay=MasterConfig(n_masters=1, workers_per_master=3,
                                                    bulk_size=4))
        assert r.final_states["p"]["status"] == "done"
        done = {c.task_id for c in r.completions if c.outcome == "done"}
        assert "killer" in done
        assert killed["count"] == 1
