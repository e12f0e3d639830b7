from __future__ import annotations

import pytest

from flexseg.driver import DriverConfig, log_to_csv_rows, run
from flexseg.generator import GeneratorProfile, generate, sae_profile
from flexseg.model import Instance
from flexseg.validator import validate


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
