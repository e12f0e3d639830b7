from __future__ import annotations

import pytest

from conftest import subset_sum_half
from flexseg.assignment import CriterionParams, solve_exact
from flexseg.cli import main
from flexseg.generator import (
    GeneratorProfile,
    generate,
    load_profile,
    realcase_profile,
    reduce_partition,
    sae_profile,
    sae_receiver_weights,
    sweep_profiles,
    validate_profile,
)
from flexseg.model import EcuKind, validate_instance


def test_realcase_counts():
    inst = generate(realcase_profile(), seed=0)
    assert len(inst.ecus) == 24
    assert len(inst.signals) == 5043
    assert all(len(s.receivers) <= 2 for s in inst.signals)
    assert all(s.payload_bytes <= 4 for s in inst.signals)
    validate_instance(inst)


def test_zero_signals():
    inst = generate(GeneratorProfile(signal_count=0), seed=1)
    assert inst.signals == ()
    validate_instance(inst)


def test_deterministic_in_profile_and_seed():
    profile = sae_profile(3, signal_count=200)
    assert generate(profile, seed=4) == generate(profile, seed=4)
    assert generate(profile, seed=4) != generate(profile, seed=5)


def test_sae7_single_receiver_share():
    inst = generate(sae_profile(7, signal_count=1000, ecu_count=12), seed=2)
    single = sum(1 for s in inst.signals if len(s.receivers) == 1)
    assert abs(single / 1000 - 0.05) <= 0.03


def test_sae1_single_receiver_share():
    inst = generate(sae_profile(1, signal_count=1000, ecu_count=12), seed=2)
    single = sum(1 for s in inst.signals if len(s.receivers) == 1)
    assert abs(single / 1000 - 0.75) <= 0.05


def test_sae7_four_plus_receiver_share():
    inst = generate(sae_profile(7, signal_count=1000, ecu_count=12), seed=3)
    many = sum(1 for s in inst.signals if len(s.receivers) >= 4)
    assert many / 1000 >= 0.70


def test_period_mix_dominated_by_default():
    inst = generate(GeneratorProfile(signal_count=2000), seed=4)
    at8 = sum(1 for s in inst.signals if s.period_cycles == 8)
    assert abs(at8 / 2000 - 0.65) <= 0.05


def test_fault_tolerant_only_from_common_transmitters():
    profile = GeneratorProfile(signal_count=400, common_ecu_fraction=0.5,
                               fault_tolerant_fraction=0.5)
    inst = generate(profile, seed=5)
    kinds = {e.id: e.kind for e in inst.ecus}
    assert any(s.fault_tolerant for s in inst.signals)
    for s in inst.signals:
        if s.fault_tolerant:
            assert kinds[s.transmitter] == EcuKind.COMMON


def test_receivers_exclude_gateway_and_transmitter():
    inst = generate(GeneratorProfile(signal_count=300), seed=6)
    gw = inst.gateway.id
    for s in inst.signals:
        assert gw not in s.receivers
        assert s.transmitter not in s.receivers


def test_common_fraction_extremes():
    zero = generate(GeneratorProfile(signal_count=10, common_ecu_fraction=0.0), seed=0)
    assert len(zero.common_ecus) == 2  # synchronization minimum
    full = generate(GeneratorProfile(signal_count=10, common_ecu_fraction=1.0), seed=0)
    assert len(full.one_port_ecus) == 0


def test_generated_instances_always_valid():
    for level in range(1, 8):
        for seed in range(3):
            inst = generate(sae_profile(level, signal_count=80,
                                        fault_tolerant_fraction=0.2), seed=seed)
            validate_instance(inst)


def test_profile_validation_errors():
    with pytest.raises(ValueError, match="fraction"):
        validate_profile(GeneratorProfile(common_ecu_fraction=1.5))
    with pytest.raises(ValueError, match="payload"):
        validate_profile(GeneratorProfile(payload_weights={9: 1.0}))
    with pytest.raises(ValueError, match="period"):
        validate_profile(GeneratorProfile(period_weights={3: 1.0}))
    with pytest.raises(ValueError, match="signal_count"):
        validate_profile(GeneratorProfile(signal_count=-1))
    with pytest.raises(ValueError):
        sae_receiver_weights(0)


def test_sweep_grid_default_and_coarse():
    base = GeneratorProfile(signal_count=20)
    assert len(sweep_profiles(base)) == 21 * 21
    coarse = sweep_profiles(base, step=0.5)
    assert len(coarse) == 9
    fracs = {(p.common_ecu_fraction, p.fault_tolerant_fraction) for p in coarse}
    assert fracs == {(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)}


@pytest.mark.parametrize("step, points", [
    (0.05, 21), (0.25, 5), (1 / 3, 4), (0.5, 3), (1, 2)])
def test_sweep_accepts_a_step_that_splits_the_unit_interval(step, points):
    fracs = sorted({p.common_ecu_fraction
                    for p in sweep_profiles(GeneratorProfile(signal_count=20), step)})
    assert len(fracs) == points
    assert fracs[0] == 0 and fracs[-1] == 1


@pytest.mark.parametrize("step", [0.3, 0.6, 0.7, 0.4])
def test_sweep_refuses_a_step_that_does_not_split_the_unit_interval(step):
    with pytest.raises(ValueError, match="does not split"):
        sweep_profiles(GeneratorProfile(signal_count=20), step)


def test_sweep_profiles_generate_valid_instances():
    base = GeneratorProfile(signal_count=30, ecu_count=8)
    for profile in sweep_profiles(base, step=0.25):
        validate_instance(generate(profile, seed=1))


def test_reduce_partition_shapes():
    hg = reduce_partition([3, 1, 1, 2, 2, 1])
    assert hg.edges == {frozenset({ecu}): value
                        for ecu, value in enumerate([3, 1, 1, 2, 2, 1], 1)}
    assert hg.free_ecus == (1, 2, 3, 4, 5, 6)
    assert hg.ft_weight_bytes == 0
    assert hg.total_weight_bytes == 10


def test_reduce_partition_rejects_bad_items():
    with pytest.raises(ValueError):
        reduce_partition([])
    with pytest.raises(ValueError):
        reduce_partition([2, 0])


def test_partition_decision_examples():
    params = CriterionParams(alpha=0.0, beta=1.0)
    result = solve_exact(reduce_partition([3, 1, 1, 2, 2, 1]), params)
    assert subset_sum_half([3, 1, 1, 2, 2, 1])
    assert result.criterion == 5

    assert solve_exact(reduce_partition([1]), params).criterion == 1
    assert solve_exact(reduce_partition([2, 2]), params).criterion == 2


def test_profile_json_roundtrip(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(
        '{"name": "tiny", "ecu_count": 8, "signal_count": 50,'
        ' "receiver_count_weights": {"1": 0.5, "2": 0.5}}')
    profile = load_profile(path)
    assert profile.name == "tiny"
    assert profile.receiver_count_weights == {1: 0.5, 2: 0.5}
    validate_instance(generate(profile, seed=0))


def test_profile_json_unknown_key(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text('{"bogus": 1}')
    with pytest.raises(ValueError, match="bogus"):
        load_profile(path)


@pytest.mark.parametrize("text, message", [
    ('{"ecu_count": "12"}', "ecu_count must be an integer"),
    ('{"ecu_count": 12.7}', "ecu_count must be an integer"),
    ('{"signal_count": true}', "signal_count must be an integer"),
    ('{"payload_weights": [0.5, 0.5]}', "payload_weights must be an object"),
    ('{"payload_weights": {"x": 1}}', "payload_weights key 'x' is not an integer"),
])
def test_generate_rejects_mistyped_profile(tmp_path, capsys, text, message):
    path = tmp_path / "profile.json"
    path.write_text(text)
    out = tmp_path / "inst.json"
    assert main(["generate", "--profile", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fields, message", [
    ('"slot_payload_bytes": 300', "slot_payload_bytes must be <= 254"),
    ('"cycle_duration_ms": Infinity', "cycle_duration_ms must be positive and finite"),
    ('"period_weights": {"8": NaN}', "period_weights needs finite weights"),
    ('"payload_weights": {"1": Infinity}', "payload_weights needs finite weights"),
    ('"payload_weights": {"1": 1e308, "2": 1e308}', "payload_weights needs finite weights"),
    ('"name": [1, 2]', "name must be a string"),
])
def test_sweep_rejects_bad_profile_before_any_point(tmp_path, capsys, fields, message):
    path = tmp_path / "profile.json"
    path.write_text('{"ecu_count": 8, "signal_count": 20, %s}' % fields)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--profile", str(path), "--csv", str(out), "--step", "0.5",
                 "--instances", "1", "--tries", "3", "--iters", "2"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
