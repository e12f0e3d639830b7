"""Iterative top-level loop: alternate channel assignment and scheduling.

Each iteration solves the assignment under the current balance weight,
schedules both channels, then recomputes the weight from the observed
per-channel slot usage so the next assignment counterweights the
imbalance.  The best schedule seen is kept; the loop stops on an
iteration budget or when an assignment repeats.  A repeated assignment is
not scheduled again: its schedule is that of the earlier iteration.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from . import assignment as asg_mod
from .assignment import CH_A, CH_B, ChannelAssignment, CriterionParams
from .hypergraph import build_hypergraph
from .model import Instance
from .scheduler import Schedule, placement_plan, schedule_channels

BETA_MIN = 1.0 / 8.0
BETA_MAX = 8.0

SOLVERS = ("EXACT", "CAH", "GA")


@dataclass
class DriverConfig:
    alpha: float | None = None  # None: 1 / total signal payload
    max_iterations: int = 10
    assignment_solver: str = "CAH"
    cah_tries: int = 100
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.cah_tries < 1:
            raise ValueError("cah_tries must be >= 1")
        if self.assignment_solver not in SOLVERS:
            raise ValueError(f"assignment_solver must be one of {SOLVERS}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    beta: float
    criterion: float
    slots_a: int
    slots_b: int
    gw_slots: int
    # The earlier iteration whose channel map this one repeats, which ends
    # the loop; its slot counts are copied from that iteration.
    repeat_of: int | None = None


@dataclass
class DriverResult:
    schedule: Schedule
    assignment: ChannelAssignment
    log: list[IterationRecord] = field(default_factory=list)


def _solve(solver: str, hg, params: CriterionParams, cfg: DriverConfig,
           seed: int) -> ChannelAssignment:
    # Up to STOP_MAX_ECUS one-port ECUs the coverage-table scan gives the
    # least map at any beta, so no solver is run.
    st = asg_mod._new_state(hg)
    mask = asg_mod._least_criterion(st, params)[1]
    if mask is not None:
        st.load(mask)
        return asg_mod._finish(st, params, optimal=True)
    if solver == "EXACT":
        return asg_mod.solve_exact(hg, params)
    if solver == "GA":
        return asg_mod.solve_ga(hg, params, rng_seed=seed)
    return asg_mod.solve_cah(hg, params, tries_count=cfg.cah_tries, rng_seed=seed)


def run(inst: Instance, cfg: DriverConfig) -> DriverResult:
    """Run the iterative scheduling loop and return the best result."""
    hg = build_hypergraph(inst)
    plan = placement_plan(inst)
    alpha = cfg.alpha if cfg.alpha is not None else asg_mod.default_alpha(hg)
    seeds = random.Random(cfg.rng_seed)

    beta = 1.0
    best: DriverResult | None = None
    seen: dict[tuple, IterationRecord] = {}
    log: list[IterationRecord] = []

    for iteration in range(1, cfg.max_iterations + 1):
        params = CriterionParams(alpha=alpha, beta=beta)
        asg = _solve(cfg.assignment_solver, hg, params, cfg, seeds.randrange(2**32))
        # The schedule depends only on the instance and the channel map, so
        # a repeated map is not scheduled again and cannot beat `best`.
        key = tuple(sorted(asg.channel_of.items()))
        earlier = seen.get(key)
        if earlier is not None:
            log.append(replace(earlier, iteration=iteration, beta=beta,
                               criterion=asg.criterion, repeat_of=earlier.iteration))
            break

        sched = schedule_channels(inst, asg, plan=plan)
        slots_a, slots_b = sched.max_slot(CH_A), sched.max_slot(CH_B)
        seen[key] = rec = IterationRecord(
            iteration=iteration, beta=beta, criterion=asg.criterion,
            slots_a=slots_a, slots_b=slots_b, gw_slots=sched.gateway_slot_count(),
        )
        log.append(rec)
        # Rank by (max slots, gateway slots, frames); frames are counted
        # only to break a tie on the first two.
        rank = (max(slots_a, slots_b), rec.gw_slots)
        if best is None or rank < best_rank:
            best, best_rank, best_frames = DriverResult(sched, asg), rank, None
        elif rank == best_rank:
            if best_frames is None:
                best_frames = best.schedule.frame_count()
            if (frames := sched.frame_count()) < best_frames:
                best, best_frames = DriverResult(sched, asg), frames

        if slots_a == 0 and slots_b == 0:
            break
        if slots_b == 0:
            beta = min(max(math.sqrt(slots_a), BETA_MIN), BETA_MAX)
        elif slots_a == 0:
            beta = min(max(1.0 / math.sqrt(slots_b), BETA_MIN), BETA_MAX)
        else:
            beta = math.sqrt(slots_a / slots_b)

    assert best is not None
    best.log = log
    return best


def log_to_csv_rows(log: list[IterationRecord]) -> list[list[str]]:
    rows = [["iteration", "beta", "criterion", "slots_A", "slots_B", "gw_slots"]]
    for rec in log:
        rows.append([
            str(rec.iteration), repr(rec.beta), repr(rec.criterion),
            str(rec.slots_a), str(rec.slots_b), str(rec.gw_slots),
        ])
    return rows
