"""Schema fuzzer for ``funnelsim simulate``: every config the reader
accepts either completes or fails loudly, in one of the three ways README
documents.

Examples are desk-scale simulated-backend configs with edge values (0, 1,
huge, tiny, ``1e-300``, ``1e300``) in the resource, funnel, overlay and
cost-model sections, ``time_scale`` and ``mode``.  Library and count
values stay small, so that a few hundred examples take a few seconds.
Worker counts stop at 4096: on a pilot with more slots than 10**6
workers, the fit check before the run tries to place each worker in
turn, which takes seconds.
The run is derandomized and keeps no example database, so it draws the
same examples every time.
"""
import json
import math
import tempfile
from pathlib import Path

import pytest

from funnelsim.cli import main
from funnelsim.trace import load_trace

from test_cli import desk_funnel_without_cpus
from test_engine import alarm

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

TINY, HUGE = 1e-300, 1e300
STAGES = ("ML1", "S1", "S3CG", "S2", "S3FG")


def pick(*values):
    return st.sampled_from(values)


def section(required: dict, optional: dict):
    """A dict with every ``required`` key and a subset of the ``optional`` ones."""
    return st.fixed_dictionaries(required, optional=optional)


RESOURCE = section(
    {"nodes": pick(1, 2, 3, 8), "cpus_per_node": pick(1, 2, 4, 42, 10**6, 2**63 - 1, 0, 2**63),
     "gpus_per_node": pick(1, 2, 6, 10**6, 2**63 - 1, 0, 2**63),
     "walltime_s": pick(1e9, HUGE, 60.0, 1.0, 1e-3, TINY), "backend": st.just("simulated")},
    {"bootstrap_s": pick(0.0, TINY, 0.5, 1e9, HUGE), "sched_gap_s": pick(0, TINY, 0.01, HUGE),
     "gpu_host_cpu": st.booleans()})


@st.composite
def funnels(draw):
    """A funnel section whose counts mostly fit: cg_count and top_binders
    are drawn up to what the stage before keeps, or far past it.  Their
    defaults fit a library of 1e5, so they are always given."""
    u = draw(pick(10, 300, 1, 0))
    fraction = draw(pick(1, 0.5, 0.01, TINY))
    cg_count = draw(pick(1, min(10, max(1, math.ceil(fraction * u))), 10**9))
    doc = {"library_size": u, "s1_fraction": fraction, "cg_count": cg_count,
           "top_binders": draw(pick(1, min(2, cg_count)))}
    return {**doc, **draw(section({}, {
        "outliers_per_binder": pick(1, 3, 48), "noise_sigma": pick(0.0, TINY, 0.5, HUGE),
        "frames_per_replica": pick(1, 2, 8)}))}


OVERLAY = section({}, {
    "n_masters": pick(1, 2, 4), "workers_per_master": pick(1, 2, 32, 4096),
    "bulk_size": pick(1, 3, 128, 10**9), "rebalance_policy": pick("round_robin", "fastest"),
    "low_water": pick(0, 1, 10**6)})
TAIL = st.one_of(
    section({"kind": st.just("lognormal")}, {"sigma": pick(0.0, 1.0, 50.0, 1e3)}),
    section({"kind": st.just("pareto_mix"), "alpha": pick(1e-3, 1.5, HUGE),
             "mix": pick(0.0, 0.5, 1.0)}, {}))
STAGE_COST = section({}, {
    "median_node_hours": pick(TINY, 1e-3, 1.0, HUGE), "tail": TAIL,
    "nodes_per_task": pick(TINY, 1.0, 2.0, HUGE),
    "throughput_per_gpu": pick(None, TINY, 1.0, HUGE)})
CONFIG = section({"resource": RESOURCE, "funnel": funnels()}, {
    "overlay": OVERLAY,
    "cost_model": st.dictionaries(st.sampled_from(STAGES), STAGE_COST, max_size=3),
    "seed": pick(0, 1, 2**64 - 1, 2**64), "time_scale": pick(1e-4, 1.0, TINY, HUGE, 0.0),
    "mode": pick("concurrent", "sequential_pipelines")})


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(CONFIG)
@example(desk_funnel_without_cpus())
# A slot count past int64 once raised OverflowError as the pilot was built.
@example({"resource": {"nodes": 1, "cpus_per_node": 2**63, "gpus_per_node": 0, "walltime_s": 1.0},
          "funnel": {"library_size": 10, "s1_fraction": 1, "cg_count": 1, "top_binders": 1}})
def test_every_accepted_config_completes_or_fails_loudly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        with alarm(10):
            rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        if rc == 2:
            assert not out.exists()
            return
        statuses = json.loads((out / "summary.json").read_text())["pipelines"]
        load_trace(out / "trace.jsonl")     # raises on an illegal or malformed trace
        if rc == 0:
            assert set(statuses.values()) == {"done"}
        else:
            assert rc == 1 and set(statuses.values()) != {"done"}
