from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flexseg.assignment as asg_mod
import flexseg.driver as driver_mod
from flexseg.assignment import CH_A, CH_B, CriterionParams, evaluate_criterion, solve_cah
from flexseg.driver import BETA_MAX, BETA_MIN, DriverConfig, log_to_csv_rows, run
from flexseg.generator import GeneratorProfile, generate, sae_profile
from flexseg.hypergraph import build_hypergraph
from flexseg.model import Instance, validate_instance
from flexseg.scheduler import place_to_schedule, placement_plan, schedule_channels
from flexseg.validator import validate

from conftest import (
    narrow_windows,
    oracle_place,
    random_hypergraph,
    replay_through_place_to_schedule,
)


def test_config_validation():
    with pytest.raises(ValueError):
        DriverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        DriverConfig(assignment_solver="SIMPLEX")


def test_example1_exact_terminates_and_is_feasible(example1):
    result = run(example1, DriverConfig(assignment_solver="EXACT", rng_seed=0))
    assert 1 <= len(result.log) <= 10
    assert validate(example1, result.assignment, result.schedule) == []
    first = result.log[0]
    assert result.schedule.allocated_slots() <= max(first.slots_a, first.slots_b)


def test_cycling_stops_after_two_iterations(example1):
    # the exact solver is deterministic; with a fixed beta outcome the
    # second iteration reproduces an earlier assignment and the loop stops
    result = run(example1, DriverConfig(assignment_solver="EXACT",
                                        max_iterations=10, rng_seed=0))
    assert len(result.log) < 10


def test_repeated_assignment_detected_on_balanced_instance(example1):
    # channels stay balanced, beta returns to ~1, assignment repeats
    inst = generate(GeneratorProfile(ecu_count=8, signal_count=60,
                                     common_ecu_fraction=1.0), seed=0)
    result = run(inst, DriverConfig(assignment_solver="EXACT", max_iterations=10))
    # no one-port ECUs: the empty assignment repeats at iteration 2
    assert len(result.log) == 2


def test_best_schedule_never_worse_than_any_iteration(example1):
    result = run(example1, DriverConfig(cah_tries=30, max_iterations=6, rng_seed=3))
    best = result.schedule.allocated_slots()
    for rec in result.log:
        assert best <= max(rec.slots_a, rec.slots_b)


def test_deterministic_given_seed():
    inst = generate(sae_profile(2, ecu_count=10, signal_count=100), seed=5)
    a = run(inst, DriverConfig(cah_tries=20, max_iterations=4, rng_seed=9))
    b = run(inst, DriverConfig(cah_tries=20, max_iterations=4, rng_seed=9))
    assert a.assignment.channel_of == b.assignment.channel_of
    assert a.log == b.log
    assert a.schedule.columns == b.schedule.columns
    assert a.schedule.placements == b.schedule.placements


def test_log_fields_present(example1):
    result = run(example1, DriverConfig(assignment_solver="EXACT"))
    rec = result.log[0]
    assert rec.iteration == 1
    assert rec.beta == 1.0
    assert rec.criterion == pytest.approx(40 + 20 / 52)
    assert rec.slots_a > 0 or rec.slots_b > 0


def test_log_csv_rows(example1):
    result = run(example1, DriverConfig(assignment_solver="EXACT"))
    rows = log_to_csv_rows(result.log)
    assert rows[0] == ["iteration", "beta", "criterion", "slots_A", "slots_B",
                       "gw_slots"]
    assert len(rows) == len(result.log) + 1


def test_empty_instance_stops_immediately(example1):
    inst = Instance(example1.config, example1.ecus, ())
    result = run(inst, DriverConfig(max_iterations=10))
    assert len(result.log) == 1
    assert result.schedule.allocated_slots() == 0


def test_alpha_default_matches_total_payload(example1):
    explicit = run(example1, DriverConfig(alpha=1 / 52, assignment_solver="EXACT"))
    default = run(example1, DriverConfig(assignment_solver="EXACT"))
    assert explicit.log[0].criterion == default.log[0].criterion


# 13 one-port ECUs, above the table scan's cap, so the driver runs cah
# and its loop ends at iteration 5 on the map of iteration 2, whose slot
# counts no other iteration has
def loop_instance() -> Instance:
    inst = generate(sae_profile(3, ecu_count=18, signal_count=40), seed=16)
    assert len(build_hypergraph(inst).free_ecus) > asg_mod.STOP_MAX_ECUS
    return inst


def test_repeated_map_is_not_scheduled_again(monkeypatch):
    inst = loop_instance()
    maps, scheduled = [], []
    original_cah = asg_mod.solve_cah

    def solve_cah(*args, **kwargs):
        asg = original_cah(*args, **kwargs)
        maps.append(dict(asg.channel_of))
        return asg

    def counting_schedule(inst, asg, **kwargs):
        scheduled.append(dict(asg.channel_of))
        return schedule_channels(inst, asg, **kwargs)

    monkeypatch.setattr(asg_mod, "solve_cah", solve_cah)
    monkeypatch.setattr(driver_mod, "schedule_channels", counting_schedule)
    result = run(inst, DriverConfig(cah_tries=5, rng_seed=0))
    monkeypatch.undo()

    *head, last = result.log
    assert [rec.repeat_of for rec in head] == [None] * len(head)
    assert last.repeat_of == 2 and last.iteration == 5
    # one schedule per distinct map, and none for the repeat
    assert scheduled == maps[:-1]
    assert len({tuple(sorted(m.items())) for m in scheduled}) == len(scheduled)
    assert maps[-1] == maps[last.repeat_of - 1]
    earlier = result.log[last.repeat_of - 1]
    assert (last.slots_a, last.slots_b, last.gw_slots) == \
        (earlier.slots_a, earlier.slots_b, earlier.gw_slots)
    assert [(r.slots_a, r.slots_b, r.gw_slots) for r in head].count(
        (last.slots_a, last.slots_b, last.gw_slots)) == 1


def test_run_builds_the_placement_plan_once(monkeypatch):
    inst = loop_instance()
    built, given, scheduled = [], [], []

    def counting_plan(inst):
        built.append(placement_plan(inst))
        return built[-1]

    def recording_schedule(inst, asg, *, plan=None):
        given.append(plan)
        scheduled.append(schedule_channels(inst, asg, plan=plan))
        return scheduled[-1]

    monkeypatch.setattr(driver_mod, "placement_plan", counting_plan)
    monkeypatch.setattr(driver_mod, "schedule_channels", recording_schedule)
    result = run(inst, DriverConfig(cah_tries=5, rng_seed=0))
    monkeypatch.undo()

    assert len(given) == 4 < len(result.log)
    assert len(built) == 1
    assert all(plan is built[0] for plan in given)
    # the plan packs the home lanes, and every schedule of the run holds
    # the plan's home column objects
    homes = [id(home[0]) for *_, home in built[0] if home is not None and home[0] is not None]
    assert homes
    for sched in scheduled:
        held = {id(col) for cols in sched.columns.values() for col in cols.values()}
        assert held.issuperset(homes)


@pytest.mark.parametrize("n", range(1, asg_mod.STOP_MAX_ECUS + 1))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 0.1), st.floats(1 / 8, 8),
       st.integers(0, 2**32 - 1))
def test_driver_takes_the_lowest_least_map(n, seed, alpha, beta, rng_seed):
    # up to the cap, runs under every solver take the map of least
    # criterion over all 2**n maps, the lowest A-mask among ties, and
    # never lose to cah
    hg = random_hypergraph(random.Random(seed), min_free=n, max_free=n)
    params = CriterionParams(alpha, beta)
    # every map by A-mask: bit i puts the i-th one-port ECU on channel A
    maps = [{u: CH_A if mask >> i & 1 else CH_B for i, u in enumerate(hg.free_ecus)}
            for mask in range(2**n)]
    crits = [evaluate_criterion(hg, m, params)[3] for m in maps]
    least = min(crits)
    cfg = DriverConfig()
    for solver in ("CAH", "GA", "EXACT"):
        asg = driver_mod._solve(solver, hg, params, cfg, rng_seed)
        assert asg.optimal
        assert asg.channel_of == maps[crits.index(least)]
        assert (asg.payload_a, asg.payload_b, asg.payload_gw, asg.criterion) == \
            evaluate_criterion(hg, asg.channel_of, params)
    assert asg.criterion == least <= solve_cah(
        hg, params, tries_count=cfg.cah_tries, rng_seed=rng_seed).criterion


def reference_run(inst: Instance, cfg: DriverConfig, schedule=schedule_channels):
    """The beta loop that schedules every iteration's map, repeats
    included, by `schedule(inst, asg)`.  Returns the log rows as tuples and
    the best (assignment, schedule)."""
    hg = build_hypergraph(inst)
    alpha = cfg.alpha if cfg.alpha is not None else asg_mod.default_alpha(hg)
    seeds = random.Random(cfg.rng_seed)
    beta, best, seen, rows = 1.0, None, set(), []
    for iteration in range(1, cfg.max_iterations + 1):
        asg = driver_mod._solve(cfg.assignment_solver, hg,
                                CriterionParams(alpha=alpha, beta=beta), cfg,
                                seeds.randrange(2**32))
        sched = schedule(inst, asg)
        a, b = sched.max_slot(CH_A), sched.max_slot(CH_B)
        rows.append((iteration, beta, asg.criterion, a, b, sched.gateway_slot_count()))
        key = (sched.allocated_slots(), sched.gateway_slot_count(), sched.frame_count())
        if best is None or key < best[0]:
            best = (key, asg, sched)
        channel_map = tuple(sorted(asg.channel_of.items()))
        if channel_map in seen or a == b == 0:
            break
        seen.add(channel_map)
        if b == 0:
            beta = min(max(math.sqrt(a), BETA_MIN), BETA_MAX)
        elif a == 0:
            beta = min(max(1.0 / math.sqrt(b), BETA_MIN), BETA_MAX)
        else:
            beta = math.sqrt(a / b)
    return rows, best[1], best[2]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 7), st.integers(5, 12), st.integers(0, 60),
       st.sampled_from([0.0, 0.2]), st.sampled_from(["CAH", "EXACT"]),
       st.integers(0, 2**16), st.integers(0, 2**16))
def test_run_matches_loop_scheduling_every_iteration(level, ecus, signals, ft, solver,
                                                     gen_seed, rng_seed):
    inst = generate(sae_profile(level, ecu_count=ecus, signal_count=signals,
                                fault_tolerant_fraction=ft), gen_seed)
    cfg = DriverConfig(assignment_solver=solver, cah_tries=5, rng_seed=rng_seed)
    result = run(inst, cfg)
    rows, asg, sched = reference_run(inst, cfg)
    assert [(r.iteration, r.beta, r.criterion, r.slots_a, r.slots_b, r.gw_slots)
            for r in result.log] == rows
    assert result.assignment.channel_of == asg.channel_of
    assert result.schedule.columns == sched.columns
    assert result.schedule.placements == sched.placements


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 7), st.integers(5, 12), st.integers(0, 60),
       st.sampled_from([0.0, 0.2]), st.integers(0, 2**16), st.integers(0, 2**16),
       st.randoms(use_true_random=False))
def test_run_matches_loop_replaying_every_iteration(level, ecus, signals, ft, gen_seed,
                                                    rng_seed, rng):
    # the replay routes and places every signal of every iteration through
    # place_to_schedule, so it never sees the home lanes the driver's
    # schedules share across iterations
    inst = narrow_windows(generate(sae_profile(level, ecu_count=ecus, signal_count=signals,
                                               fault_tolerant_fraction=ft), gen_seed), rng)
    validate_instance(inst)
    cfg = DriverConfig(cah_tries=5, max_iterations=6, rng_seed=rng_seed)
    replays = []

    def replay(inst, asg):
        replays.append(replay_through_place_to_schedule(inst, asg.channel_of))
        return replays[-1][0]

    result = run(inst, cfg)
    rows, asg, sched = reference_run(inst, cfg, replay)
    assert [(r.iteration, r.beta, r.criterion, r.slots_a, r.slots_b, r.gw_slots)
            for r in result.log] == rows
    assert result.assignment.channel_of == asg.channel_of
    got = result.schedule
    assert got.columns == sched.columns
    counts = next(counts for replayed, counts in replays if replayed is sched)
    assert (got.place_calls, got.fresh_slots, got.scan_depth) == (
        counts["place_calls"], counts["fresh_slots"], counts["scan_depth"])
    assert got.probes == sched.probes
    # the kept schedule is also the linear scan's under the kept map
    scanned, counts = replay_through_place_to_schedule(inst, asg.channel_of, oracle_place)
    assert got.columns == scanned.columns
    assert (got.place_calls, got.fresh_slots, got.scan_depth) == (
        counts["place_calls"], counts["fresh_slots"], counts["scan_depth"])


def test_run_schedule_is_refused_and_equals_a_fresh_one():
    # the kept schedule shares its home columns with every schedule of the
    # run; place_to_schedule must refuse to extend it, and it must hold and
    # count what a schedule built alone from its map does
    inst = loop_instance()
    result = run(inst, DriverConfig(cah_tries=5, rng_seed=0))
    sched = result.schedule
    sig = next(s for s in inst.signals if s.transmitter in inst.one_port_ids)
    before = repr(sched.columns)
    with pytest.raises(ValueError, match="holds columns placed otherwise"):
        place_to_schedule(sched, sig, result.assignment.channel_of[sig.transmitter],
                          sig.transmitter)
    assert repr(sched.columns) == before
    fresh = schedule_channels(inst, result.assignment)
    assert sched.columns == fresh.columns
    assert (sched.place_calls, sched.fresh_slots, sched.scan_depth, sched.probes) == (
        fresh.place_calls, fresh.fresh_slots, fresh.scan_depth, fresh.probes)


@pytest.mark.parametrize("solver, name", [("EXACT", "solve_exact"), ("GA", "solve_ga")])
def test_driver_dispatches_to_the_solver_above_the_table_cap(monkeypatch, solver, name):
    # 12 one-port ECUs: one more than the coverage-table scan takes
    inst = generate(sae_profile(4, ecu_count=17, signal_count=80), 1)
    hg = build_hypergraph(inst)
    assert len(hg.free_ecus) == asg_mod.STOP_MAX_ECUS + 1
    params = CriterionParams(alpha=asg_mod.default_alpha(hg), beta=1.0)
    if solver == "EXACT":
        direct = asg_mod.solve_exact(hg, params)
    else:
        direct = asg_mod.solve_ga(hg, params, rng_seed=random.Random(0).randrange(2**32))
    calls = []
    solve = getattr(asg_mod, name)
    monkeypatch.setattr(asg_mod, name, lambda *a, **k: calls.append(a) or solve(*a, **k))
    result = run(inst, DriverConfig(assignment_solver=solver))
    assert len(calls) == len(result.log)
    assert result.log[0].criterion == direct.criterion
    assert validate(inst, result.assignment, result.schedule) == []
