"""Dual-channel FlexRay static segment scheduling toolkit."""

from .assignment import (
    ChannelAssignment,
    CriterionParams,
    default_alpha,
    evaluate_criterion,
    export_lp,
    solve_cah,
    solve_exact,
    solve_ga,
)
from .driver import DriverConfig, DriverResult, run
from .fibex import export_fibex, read_fibex
from .generator import GeneratorProfile, generate, reduce_partition, sweep_profiles
from .hypergraph import Hypergraph, build_hypergraph
from .model import (
    Ecu,
    EcuKind,
    Instance,
    NetworkConfig,
    Signal,
    load_instance,
    save_instance,
)
from .scheduler import (
    Schedule,
    lbsc,
    schedule_channels,
    schedule_single_channel,
    sort_signals,
)
from .validator import Violation, validate

__all__ = [
    "ChannelAssignment", "CriterionParams", "default_alpha", "evaluate_criterion",
    "export_lp", "solve_cah", "solve_exact", "solve_ga",
    "DriverConfig", "DriverResult", "run",
    "export_fibex", "read_fibex",
    "GeneratorProfile", "generate", "reduce_partition", "sweep_profiles",
    "Hypergraph", "build_hypergraph",
    "Ecu", "EcuKind", "Instance", "NetworkConfig", "Signal",
    "load_instance", "save_instance",
    "Schedule", "lbsc", "schedule_channels", "schedule_single_channel", "sort_signals",
    "Violation", "validate",
]
