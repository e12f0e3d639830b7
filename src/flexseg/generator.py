"""Benchmark instance synthesis.

Profiles expose every distribution as an explicit field; the shipped
defaults follow the published per-family statistics (dominant 40 ms
period, payloads up to 4 bytes, receiver-count mixes ranging from
75% single-receiver down to 5%).  Also builds the ECU-with-self-loop
hypergraphs that encode two-partition questions as assignment problems.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from .hypergraph import Hypergraph
from .model import (
    ALLOWED_PERIOD_CYCLES,
    Ecu,
    EcuKind,
    FormatError,
    Instance,
    NetworkConfig,
    Signal,
    _as_int,
    _as_number,
    parse_int,
    read_json,
    validate_config,
    validate_instance,
)

# Receiver-count mixes for the low- and high-diversity family endpoints;
# intermediate families are linear blends.
_RECEIVERS_LOW = {1: 0.75, 2: 0.10, 3: 0.10, 4: 0.05}
_RECEIVERS_HIGH = {1: 0.05, 2: 0.08, 3: 0.09, 4: 0.30, 5: 0.25, 6: 0.23}


def _default_period_weights() -> dict[int, float]:
    # 65% of signals at 40 ms (8 cycles at the default 5 ms cycle), the
    # rest spread over the remaining power-of-two ladder.
    rest = [p for p in ALLOWED_PERIOD_CYCLES if p != 8]
    weights = {8: 0.65}
    for p in rest:
        weights[p] = 0.35 / len(rest)
    return weights


def _default_payload_weights() -> dict[int, float]:
    return {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}


def sae_receiver_weights(level: int) -> dict[int, float]:
    """Receiver-count mix for family level 1 (low diversity) .. 7 (high)."""
    if not 1 <= level <= 7:
        raise ValueError("level must be in 1..7")
    t = (level - 1) / 6.0
    counts = sorted(set(_RECEIVERS_LOW) | set(_RECEIVERS_HIGH))
    return {
        c: (1 - t) * _RECEIVERS_LOW.get(c, 0.0) + t * _RECEIVERS_HIGH.get(c, 0.0)
        for c in counts
    }


@dataclass(frozen=True)
class GeneratorProfile:
    name: str = "synth"
    ecu_count: int = 12
    common_ecu_fraction: float = 0.25
    signal_count: int = 500
    cycle_duration_ms: float = 5.0
    slot_payload_bytes: int = 8
    fault_tolerant_fraction: float = 0.0
    period_weights: dict[int, float] = field(default_factory=_default_period_weights)
    payload_weights: dict[int, float] = field(default_factory=_default_payload_weights)
    receiver_count_weights: dict[int, float] = field(
        default_factory=lambda: dict(_RECEIVERS_LOW))


def sae_profile(level: int, **overrides) -> GeneratorProfile:
    base = GeneratorProfile(
        name=f"sae{level}", receiver_count_weights=sae_receiver_weights(level))
    return dataclasses.replace(base, **overrides)


def realcase_profile(**overrides) -> GeneratorProfile:
    base = GeneratorProfile(
        name="realcase", ecu_count=24, signal_count=5043,
        receiver_count_weights={1: 0.6, 2: 0.4})
    return dataclasses.replace(base, **overrides)


def validate_profile(profile: GeneratorProfile) -> None:
    if profile.ecu_count < 3:
        raise ValueError("ecu_count must be >= 3 (gateway plus two common ECUs)")
    if profile.signal_count < 0:
        raise ValueError("signal_count must be >= 0")
    validate_config(NetworkConfig(cycle_duration_ms=profile.cycle_duration_ms,
                                  slot_payload_bytes=profile.slot_payload_bytes))
    for name in ("common_ecu_fraction", "fault_tolerant_fraction"):
        value = getattr(profile, name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be within [0, 1]")
    for p in profile.period_weights:
        if p not in ALLOWED_PERIOD_CYCLES:
            raise ValueError(f"period_weights key {p} not a power of two in 1..64")
    for l in profile.payload_weights:
        if not 1 <= l <= profile.slot_payload_bytes:
            raise ValueError(
                f"payload_weights key {l} outside 1..{profile.slot_payload_bytes}")
    for dist_name in ("period_weights", "payload_weights", "receiver_count_weights"):
        weights = getattr(profile, dist_name).values()
        if not (all(0 <= w < math.inf for w in weights) and 0 < sum(weights) < math.inf):
            raise ValueError(f"{dist_name} needs finite weights >= 0, some positive")
    if any(c < 1 for c in profile.receiver_count_weights):
        raise ValueError("receiver counts must be >= 1")


def _draw(rng: Random, weights: dict[int, float]) -> int:
    keys = sorted(weights)
    return rng.choices(keys, weights=[weights[k] for k in keys])[0]


def generate(profile: GeneratorProfile, seed: int) -> Instance:
    """Deterministically synthesize an instance from (profile, seed)."""
    validate_profile(profile)
    rng = Random(seed)

    common_count = max(2, round(profile.common_ecu_fraction * (profile.ecu_count - 1)))
    common_count = min(common_count, profile.ecu_count - 1)
    ecus = [Ecu(id=0, kind=EcuKind.GATEWAY)]
    for i in range(1, profile.ecu_count):
        kind = EcuKind.COMMON if i <= common_count else EcuKind.ONE_PORT
        ecus.append(Ecu(id=i, kind=kind))
    kind_by_id = {e.id: e.kind for e in ecus}
    transmitters = [e.id for e in ecus if e.kind != EcuKind.GATEWAY]

    signals = []
    for i in range(profile.signal_count):
        tx = transmitters[rng.randrange(len(transmitters))]
        period = _draw(rng, profile.period_weights)
        payload = _draw(rng, profile.payload_weights)
        candidates = [e.id for e in ecus
                      if e.kind != EcuKind.GATEWAY and e.id != tx]
        count = min(_draw(rng, profile.receiver_count_weights), len(candidates))
        receivers = frozenset(rng.sample(candidates, count))
        ft = (kind_by_id[tx] == EcuKind.COMMON
              and rng.random() < profile.fault_tolerant_fraction)
        signals.append(Signal(
            id=i + 1, transmitter=tx, period_cycles=period, payload_bytes=payload,
            release_ms=0.0, deadline_ms=period * profile.cycle_duration_ms,
            fault_tolerant=ft, receivers=receivers,
        ))

    inst = Instance(
        config=NetworkConfig(cycle_duration_ms=profile.cycle_duration_ms,
                             slot_payload_bytes=profile.slot_payload_bytes),
        ecus=tuple(ecus),
        signals=tuple(signals),
        name=f"{profile.name}-{seed}",
    )
    validate_instance(inst)
    return inst


def sweep_profiles(base: GeneratorProfile, step: float = 0.05) -> list[GeneratorProfile]:
    """Cross product of common-ECU fraction x fault-tolerant fraction,
    each 0, step, ..., 1; the step must split [0, 1] into whole steps."""
    validate_profile(base)
    if not 0 < step <= 1:
        raise ValueError("step must be within (0, 1]")
    count = round(1 / step)
    if abs(count * step - 1) > 1e-9:
        raise ValueError(f"step {step:g} does not split [0, 1] into whole steps")
    points = [round(i * step, 10) for i in range(count + 1)]
    out = []
    for cf in points:
        for ff in points:
            out.append(dataclasses.replace(
                base, common_ecu_fraction=cf, fault_tolerant_fraction=ff,
                name=f"{base.name}-c{cf:g}-f{ff:g}"))
    return out


def reduce_partition(items: list[int]) -> Hypergraph:
    """Encode a two-partition multiset: one one-port ECU per item, each
    carrying a self-loop whose weight is the item value.  A perfect split
    exists iff the assignment optimum at alpha=0, beta=1 is sum/2."""
    if not items:
        raise ValueError("multiset must not be empty")
    for value in items:
        if value <= 0:
            raise ValueError(f"item {value} is not a positive integer")
    return Hypergraph(
        edges={frozenset({ecu}): value for ecu, value in enumerate(items, 1)},
        free_ecus=tuple(range(1, len(items) + 1)),
        ft_weight_bytes=0,
        total_weight_bytes=sum(items),
    )


_PROFILE_FIELDS = {f.name for f in dataclasses.fields(GeneratorProfile)}
_INT_FIELDS = {"ecu_count", "signal_count", "slot_payload_bytes"}
_WEIGHT_FIELDS = {"period_weights", "payload_weights", "receiver_count_weights"}


def _weight_key(text: str, field: str) -> int:
    """A weight-table key, written as an integer string in JSON."""
    try:
        return parse_int(text)
    except ValueError:
        raise FormatError(f"{field} key {text!r} is not an integer") from None


def _profile_value(key: str, value):
    """A profile field read from JSON; FormatError names a mistyped one."""
    if key in _WEIGHT_FIELDS:
        if not isinstance(value, dict):
            raise FormatError(f"{key} must be an object")
        return {_weight_key(k, key): _as_number(w, f"{key}[{k}]") for k, w in value.items()}
    if key in _INT_FIELDS:
        return _as_int(value, key)
    if key == "name" and type(value) is not str:
        raise FormatError("name must be a string")
    return value if key == "name" else _as_number(value, key)


def load_profile(path: str | Path) -> GeneratorProfile:
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError("profile file must hold a JSON object")
    unknown = set(data) - _PROFILE_FIELDS
    if unknown:
        raise ValueError(f"unknown profile field(s): {sorted(unknown)}")
    profile = GeneratorProfile(**{key: _profile_value(key, value)
                                  for key, value in data.items()})
    validate_profile(profile)
    return profile
