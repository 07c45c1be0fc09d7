"""funnelsim: a desk-scale ensemble-campaign engine.

Pilot resource scheduling, pipeline/stage/task workflows with
inter-stage filters, a master/worker bulk-dispatch overlay, a synthetic
multi-fidelity screening workload, and trace-based performance metrics.
"""

from .campaign import (CampaignSpec, FixedDuration, HookSpec, PipelineSpec,
                       PipelineState, SampledDuration, StageSpec,
                       TaskDescriptor, replay_trace, validate_campaign)
from .engine import RunResult, run_campaign, run_executor, run_overlay
from .overlay import MasterConfig, partition_bulks, round_robin_assign
from .pilot import PilotSpec, acquire_pilot
from .trace import TraceEvent, TraceSink, load_trace, merge_traces
from .workload import (CostModel, FunnelConfig, StageCost,
                       build_funnel_campaign, default_cost_model,
                       generate_library, select_top_fraction, surrogate_scores)

__version__ = "0.1.0"

__all__ = [
    "CampaignSpec", "CostModel", "FixedDuration", "FunnelConfig", "HookSpec",
    "MasterConfig", "PilotSpec", "PipelineSpec", "PipelineState",
    "RunResult", "SampledDuration", "StageCost", "StageSpec", "TaskDescriptor",
    "TraceEvent", "TraceSink", "acquire_pilot", "build_funnel_campaign",
    "default_cost_model", "generate_library", "load_trace", "merge_traces",
    "partition_bulks", "replay_trace", "round_robin_assign", "run_campaign",
    "run_executor", "run_overlay", "select_top_fraction",
    "surrogate_scores", "validate_campaign",
]
