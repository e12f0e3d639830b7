"""Tests of the benchmark's own result checks.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from checks import AssignmentReference, check_result, round_trip  # noqa: E402
from flexseg.driver import DriverConfig, run  # noqa: E402
from flexseg.generator import generate, sae_profile  # noqa: E402
from flexseg.model import Ecu, EcuKind, Instance, NetworkConfig, Signal  # noqa: E402
from flexseg.scheduler import CHANNELS  # noqa: E402

# Optimum of the ten-signal reference network at alpha = 1/52, beta = 1.
EXAMPLE_OPTIMUM = 40 + 20 / 52


def reference_example() -> Instance:
    """Ten signals, six ECUs (gateway 0, common 1-2, one-port 3-5)."""
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON),
            Ecu(3, EcuKind.ONE_PORT), Ecu(4, EcuKind.ONE_PORT), Ecu(5, EcuKind.ONE_PORT))
    rows = [  # transmitter, period, payload, fault-tolerant, receivers
        (1, 1, 8, True, {2, 3}), (2, 2, 4, False, {4, 5}), (2, 2, 8, False, {4}),
        (2, 2, 8, False, {5}), (3, 2, 4, False, {4, 5}), (3, 1, 4, False, {4, 5}),
        (4, 1, 4, False, {3, 5}), (5, 1, 4, False, {2}), (5, 2, 4, False, {3, 4}),
        (4, 2, 4, False, {3}),
    ]
    signals = tuple(
        Signal(id=i + 1, transmitter=tx, period_cycles=period, payload_bytes=payload,
               release_ms=0.0, deadline_ms=2.0, fault_tolerant=ft,
               receivers=frozenset(rx))
        for i, (tx, period, payload, ft, rx) in enumerate(rows))
    return Instance(config=NetworkConfig(1.0, 8), ecus=ecus, signals=signals,
                    name="example")


def brute_minimum(ref: AssignmentReference, beta: float, pinned: bool) -> float:
    best = float("inf")
    for channels in itertools.product("AB", repeat=len(ref.free)):
        channel_of = dict(zip(ref.free, channels))
        if pinned and channel_of[ref.pin] != "A":
            continue
        p_a, p_b, p_g = ref.payloads(channel_of)
        best = min(best, max(beta * p_a, p_b) + ref.alpha * p_g)
    return best


def checked(inst: Instance, result, tmp_path: Path) -> list[str]:
    path = tmp_path / "schedule.xml"
    readback, violations = round_trip(inst, result, path)
    return check_result(inst, result, AssignmentReference(inst), True,
                        readback, path, violations)


def test_reference_example_optimum():
    ref = AssignmentReference(reference_example())
    assert ref.alpha == 1 / 52
    assert brute_minimum(ref, 1.0, pinned=False) == pytest.approx(EXAMPLE_OPTIMUM, abs=1e-9)
    pinned, unrestricted = ref.minima(1.0)
    assert pinned == pytest.approx(EXAMPLE_OPTIMUM, abs=1e-9)
    assert unrestricted == pytest.approx(EXAMPLE_OPTIMUM, abs=1e-9)


@pytest.mark.parametrize("beta", [0.5, 0.9, 1.0, 1.3, 2.0])
def test_enumerator_matches_evaluator(beta):
    inst = generate(sae_profile(5, ecu_count=10, signal_count=80,
                                fault_tolerant_fraction=0.2), seed=3)
    ref = AssignmentReference(inst)
    assert len(ref.free) >= 5
    pinned, unrestricted = ref.minima(beta)
    assert pinned == brute_minimum(ref, beta, pinned=True)
    assert unrestricted == brute_minimum(ref, beta, pinned=False)


def test_clean_result_passes(tmp_path):
    inst = reference_example()
    result = run(inst, DriverConfig(assignment_solver="EXACT"))
    assert checked(inst, result, tmp_path) == []


def test_wrong_payload_fields_rejected(tmp_path):
    inst = reference_example()
    result = run(inst, DriverConfig(assignment_solver="EXACT"))
    result.assignment = dataclasses.replace(result.assignment,
                                            payload_gw=result.assignment.payload_gw + 1)
    assert any("P_A/P_B/P_G" in p for p in checked(inst, result, tmp_path))


def test_overlapping_occurrences_rejected(tmp_path):
    inst = reference_example()
    result = run(inst, DriverConfig(assignment_solver="EXACT"))
    # Move every occurrence of the second signal of a shared frame onto the
    # offset of the first.
    col, shared = next((col, entries) for ch in CHANNELS
                       for col in result.schedule.columns[ch].values()
                       for entries in col.frames.values() if len(entries) >= 2)
    first, second = shared[0], shared[1]
    for entries in col.frames.values():
        entries[:] = [dataclasses.replace(o, offset=first.offset)
                      if o.signal == second.signal else o for o in entries]
    problems = checked(inst, result, tmp_path)
    assert any("V2" in p for p in problems)


def test_image_before_original_rejected(tmp_path):
    inst = reference_example()
    result = run(inst, DriverConfig(assignment_solver="EXACT"))
    sched = result.schedule
    image = next(p for p in sched.placements if p.is_image)
    original = next(p for p in sched.placements
                    if p.signal == image.signal and not p.is_image)
    # Swap the image's gateway column with whatever sits at the original's
    # slot id on the image's channel, putting the image no later than it.
    cols = sched.columns[image.channel]
    gw_col = cols.pop(image.slot)
    displaced = cols.pop(original.slot, None)
    cols[original.slot] = gw_col
    if displaced is not None:
        cols[image.slot] = displaced
    problems = checked(inst, result, tmp_path)
    assert any("V8" in p for p in problems)
