from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import example1_instance
from flexseg.generator import GeneratorProfile, generate
from flexseg.model import (
    Ecu,
    EcuKind,
    FormatError,
    Instance,
    NetworkConfig,
    Signal,
    ValidationError,
    feasible_base_cycles,
    instance_from_dict,
    instance_to_dict,
    is_valid,
    load_instance,
    save_instance,
    validate_instance,
)

EXAMPLE1_JSON = {
    "config": {"cycle_duration_ms": 1.0, "slot_payload_bytes": 8},
    "ecus": [
        {"id": 0, "class": "GATEWAY"},
        {"id": 1, "class": "COMMON"}, {"id": 2, "class": "COMMON"},
        {"id": 3, "class": "ONE_PORT"}, {"id": 4, "class": "ONE_PORT"},
        {"id": 5, "class": "ONE_PORT"},
    ],
    "signals": [
        {"id": i + 1, "transmitter": tx, "period_cycles": p, "payload_bytes": l,
         "release_ms": 0.0, "deadline_ms": 2.0, "fault_tolerant": bool(f),
         "receivers": sorted(rc)}
        for i, (tx, p, l, f, rc) in enumerate(zip(
            [1, 2, 2, 2, 3, 3, 4, 5, 5, 4],
            [1, 2, 2, 2, 2, 1, 1, 1, 2, 2],
            [8, 4, 8, 8, 4, 4, 4, 4, 4, 4],
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [{2, 3}, {4, 5}, {4}, {5}, {4, 5}, {4, 5}, {3, 5}, {2}, {3, 4}, {3}],
        ))
    ],
}


def write_example1(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(EXAMPLE1_JSON))
    return path


def test_load_example1(tmp_path):
    inst = load_instance(write_example1(tmp_path))
    assert inst.name == "example1"
    assert len(inst.ecus) == 6
    assert len(inst.signals) == 10
    assert [s.transmitter for s in inst.signals] == [1, 2, 2, 2, 3, 3, 4, 5, 5, 4]
    assert [s.period_cycles for s in inst.signals] == [1, 2, 2, 2, 2, 1, 1, 1, 2, 2]
    assert [s.payload_bytes for s in inst.signals] == [8, 4, 8, 8, 4, 4, 4, 4, 4, 4]
    assert [s.fault_tolerant for s in inst.signals] == [True] + [False] * 9
    assert inst == example1_instance()


def test_load_zero_signals(tmp_path):
    data = dict(EXAMPLE1_JSON, signals=[])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    inst = load_instance(path)
    assert inst.signals == ()
    assert is_valid(inst)


def test_fault_tolerant_on_one_port_rejected(tmp_path):
    data = json.loads(json.dumps(EXAMPLE1_JSON))
    # signal 7 is transmitted by one-port ECU 4
    data["signals"][6]["fault_tolerant"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="fault-tolerant.*COMMON"):
        load_instance(path)


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="malformed JSON"):
        load_instance(path)


def test_unknown_field_rejected(tmp_path):
    data = dict(EXAMPLE1_JSON)
    data["extra"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="unknown field"):
        load_instance(path)
    data = json.loads(json.dumps(EXAMPLE1_JSON))
    data["signals"][0]["priority"] = 3
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="priority"):
        load_instance(path)


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["signals"][1].update(period_cycles=3), "power of two"),
    (lambda d: d["signals"][1].update(period_cycles=128), "power of two"),
    (lambda d: d["signals"][1].update(payload_bytes=9), "payload"),
    (lambda d: d["signals"][1].update(payload_bytes=0), "payload"),
    (lambda d: d["signals"][1].update(receivers=[]), "receiver set is empty"),
    (lambda d: d["signals"][1].update(receivers=[2, 4]), "transmitter listed as receiver"),
    (lambda d: d["signals"][1].update(receivers=[9]), "not an ECU"),
    (lambda d: d["signals"][1].update(transmitter=0), "gateway"),
    (lambda d: d["signals"][1].update(release_ms=2.0, deadline_ms=1.0), "release"),
    (lambda d: d["signals"][1].update(release_ms=1.9, deadline_ms=2.0), "window"),
    (lambda d: d["ecus"].append({"id": 6, "class": "GATEWAY"}), "GATEWAY"),
    (lambda d: d["ecus"][1].update(**{"class": "ONE_PORT"}), "COMMON"),
    (lambda d: d["config"].update(slot_payload_bytes=0), "slot_payload_bytes"),
    (lambda d: d["config"].update(cycle_duration_ms=float("nan")),
     "cycle_duration_ms must be positive and finite"),
    (lambda d: d["config"].update(cycle_duration_ms=float("inf")),
     "cycle_duration_ms must be positive and finite"),
    (lambda d: d["config"].update(slot_payload_bytes=255), "slot_payload_bytes must be <= 254"),
])
def test_invariant_violations(tmp_path, mutate, message):
    data = json.loads(json.dumps(EXAMPLE1_JSON))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=message):
        load_instance(path)


def test_window_needs_full_cycle():
    # (y-1)*m >= r and y*m <= d: release 1.9 ms leaves no feasible cycle
    # for a 2-cycle period at m=1, while release 1.0 admits cycle 2
    sig = Signal(1, 2, 2, 4, 1.0, 2.0, False, frozenset({4}))
    assert feasible_base_cycles(sig, 1.0) == [2]
    sig = Signal(1, 2, 2, 4, 1.9, 2.0, False, frozenset({4}))
    assert feasible_base_cycles(sig, 1.0) == []


def test_roundtrip_example1(tmp_path, example1):
    path = tmp_path / "example1.json"
    save_instance(example1, path)
    assert load_instance(path) == example1


def test_roundtrip_empty(tmp_path, example1):
    inst = Instance(example1.config, example1.ecus, (), name="empty")
    path = tmp_path / "empty.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_roundtrip_large_generated(tmp_path):
    inst = generate(GeneratorProfile(ecu_count=20, signal_count=5000), seed=7)
    path = tmp_path / "large.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again.config == inst.config
    assert again.ecus == inst.ecus
    assert len(again.signals) == 5000
    for a, b in zip(again.signals, inst.signals):
        assert a == b


def test_roundtrip_many_random_instances(tmp_path):
    # serialization is total and lossless over generated instances
    for seed in range(10):
        inst = generate(GeneratorProfile(ecu_count=8, signal_count=40,
                                         fault_tolerant_fraction=0.3), seed=seed)
        path = tmp_path / f"i{seed}.json"
        save_instance(inst, path)
        assert load_instance(path) == inst


def test_dict_roundtrip_preserves_field_names(example1):
    data = instance_to_dict(example1)
    assert set(data) == {"config", "ecus", "signals"}
    assert set(data["config"]) == {"cycle_duration_ms", "slot_payload_bytes"}
    assert set(data["ecus"][0]) == {"id", "class"}
    assert set(data["signals"][0]) == {
        "id", "transmitter", "period_cycles", "payload_bytes",
        "release_ms", "deadline_ms", "fault_tolerant", "receivers"}
    assert instance_from_dict(data, name=example1.name) == example1


def test_validate_accepts_example1(example1):
    validate_instance(example1)


def test_gateway_cannot_be_only_sync():
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.ONE_PORT))
    inst = Instance(NetworkConfig(1.0, 8), ecus, ())
    with pytest.raises(ValidationError, match="COMMON"):
        validate_instance(inst)


# A JSON value of each type; every field refuses the ones not of its type.
WRONG_VALUES = (True, 1.0, "1", None, [], {})
GENERATED = instance_to_dict(generate(
    GeneratorProfile(ecu_count=6, signal_count=4, fault_tolerant_fraction=0.5), seed=3))


def instance_fields(data: dict):
    """(path, object, key) of every field of the config, an ECU or a
    signal, and of each receiver id, which the loader names by its list."""
    yield from ((f"config.{key}", data["config"], key) for key in data["config"])
    for i, ecu in enumerate(data["ecus"]):
        yield from ((f"ecus[{i}].{key}", ecu, key) for key in ecu)
    for i, sig in enumerate(data["signals"]):
        yield from ((f"signals[{i}].{key}", sig, key) for key in sig)
        yield from ((f"signals[{i}].receivers", sig["receivers"], j)
                    for j in range(len(sig["receivers"])))


FIELD_COUNT = sum(1 for _ in instance_fields(GENERATED))


def test_generated_dict_round_trips():
    assert instance_to_dict(instance_from_dict(GENERATED)) == GENERATED


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, FIELD_COUNT - 1), st.sampled_from(WRONG_VALUES))
def test_mistyped_field_is_named(index, value):
    data = json.loads(json.dumps(GENERATED))
    path, obj, key = list(instance_fields(data))[index]
    old = obj[key]
    # a value of the field's own type is no type error; an ECU class is a
    # string, but never "1"
    if type(value) is type(old) and key != "class":
        return
    obj[key] = value
    with pytest.raises(FormatError) as exc:
        instance_from_dict(data)
    assert str(exc.value).split(" ")[0].rstrip(":") == path


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["signals"][2].update(deadline_ms=10**400),
     "signals[2].deadline_ms is too large for a float"),
    (lambda d: d["config"].update(cycle_duration_ms=-10**400),
     "config.cycle_duration_ms is too large for a float"),
])
def test_number_beyond_float_range(mutate, message):
    data = json.loads(json.dumps(EXAMPLE1_JSON))
    mutate(data)
    with pytest.raises(FormatError, match=re.escape(message)):
        instance_from_dict(data)
