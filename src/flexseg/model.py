"""Domain model: network configuration, ECUs, signals and benchmark instances.

Instances are immutable after construction and safe to share between
concurrent solver runs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path

HYPERPERIOD_CYCLES = 64
ALLOWED_PERIOD_CYCLES = (1, 2, 4, 8, 16, 32, 64)

# Slack for float comparisons on millisecond quantities.
_EPS_MS = 1e-9


class FormatError(ValueError):
    """Instance file is malformed (bad JSON or wrong schema)."""


class ValidationError(ValueError):
    """Instance violates a model invariant."""


class EcuKind(str, Enum):
    ONE_PORT = "ONE_PORT"
    COMMON = "COMMON"
    GATEWAY = "GATEWAY"


@dataclass(frozen=True)
class NetworkConfig:
    cycle_duration_ms: float
    slot_payload_bytes: int
    hyperperiod_cycles: int = HYPERPERIOD_CYCLES


@dataclass(frozen=True)
class Ecu:
    id: int
    kind: EcuKind


@dataclass(frozen=True)
class Signal:
    id: int
    transmitter: int
    period_cycles: int
    payload_bytes: int
    release_ms: float
    deadline_ms: float
    fault_tolerant: bool
    receivers: frozenset[int]

    def occurrence_count(self) -> int:
        return HYPERPERIOD_CYCLES // self.period_cycles


@dataclass(frozen=True)
class Instance:
    config: NetworkConfig
    ecus: tuple[Ecu, ...]
    signals: tuple[Signal, ...]
    name: str = field(default="", compare=False)

    def ecu(self, ecu_id: int) -> Ecu:
        return self._by_id[ecu_id]

    def kind_of(self, ecu_id: int) -> EcuKind:
        return self._by_id[ecu_id].kind

    @property
    def gateway(self) -> Ecu:
        return next(e for e in self.ecus if e.kind == EcuKind.GATEWAY)

    @property
    def one_port_ecus(self) -> tuple[Ecu, ...]:
        return tuple(e for e in self.ecus if e.kind == EcuKind.ONE_PORT)

    @property
    def common_ecus(self) -> tuple[Ecu, ...]:
        return tuple(e for e in self.ecus if e.kind == EcuKind.COMMON)

    @cached_property
    def one_port_ids(self) -> frozenset[int]:
        """Ids of the ECUs wired to one channel only: the endpoints whose
        channel the assignment chooses."""
        return frozenset(e.id for e in self.one_port_ecus)

    @cached_property
    def _by_id(self) -> dict[int, Ecu]:
        return {e.id: e for e in self.ecus}


def feasible_base_cycles(sig: Signal, cycle_duration_ms: float) -> list[int]:
    """Cycles in 1..period that satisfy the release/deadline window.

    The first occurrence in cycle y is feasible when (y-1)*m >= release and
    y*m <= deadline; timing is resolved at cycle granularity only.
    """
    return list(base_cycle_window(sig.period_cycles, sig.release_ms, sig.deadline_ms,
                                  cycle_duration_ms))


@lru_cache(maxsize=4096)
def base_cycle_window(period_cycles: int, release_ms: float, deadline_ms: float,
                      cycle_duration_ms: float) -> tuple[int, ...]:
    """`feasible_base_cycles` of a signal with these fields.  Cached: the
    scheduler asks once per placement, and signals share a few windows."""
    m = cycle_duration_ms
    return tuple(y for y in range(1, period_cycles + 1)
                 if (y - 1) * m >= release_ms - _EPS_MS and y * m <= deadline_ms + _EPS_MS)


def validate_instance(inst: Instance) -> None:
    """Raise ValidationError naming the first violated invariant."""
    cfg = inst.config
    if cfg.slot_payload_bytes < 1:
        raise ValidationError("slot_payload_bytes must be >= 1")
    if cfg.cycle_duration_ms <= 0:
        raise ValidationError("cycle_duration_ms must be positive")
    if cfg.hyperperiod_cycles != HYPERPERIOD_CYCLES:
        raise ValidationError("hyperperiod_cycles is fixed at 64")

    seen_ids: set[int] = set()
    for e in inst.ecus:
        if e.id < 0:
            raise ValidationError(f"ECU id {e.id} is negative")
        if e.id in seen_ids:
            raise ValidationError(f"duplicate ECU id {e.id}")
        seen_ids.add(e.id)
    gateways = [e for e in inst.ecus if e.kind == EcuKind.GATEWAY]
    if len(gateways) != 1:
        raise ValidationError(f"exactly one GATEWAY ECU required, found {len(gateways)}")
    if len(inst.common_ecus) < 2:
        raise ValidationError("at least two COMMON ECUs required for synchronization")

    sig_ids: set[int] = set()
    for s in inst.signals:
        if s.id in sig_ids:
            raise ValidationError(f"duplicate signal id {s.id}")
        sig_ids.add(s.id)
        if s.transmitter not in seen_ids:
            raise ValidationError(f"signal {s.id}: transmitter {s.transmitter} not an ECU")
        tx_kind = inst.kind_of(s.transmitter)
        if tx_kind == EcuKind.GATEWAY:
            raise ValidationError(f"signal {s.id}: gateway ECU cannot transmit signals")
        if s.fault_tolerant and tx_kind != EcuKind.COMMON:
            raise ValidationError(
                f"signal {s.id}: fault-tolerant signal requires a COMMON transmitter"
            )
        if s.period_cycles not in ALLOWED_PERIOD_CYCLES:
            raise ValidationError(
                f"signal {s.id}: period_cycles {s.period_cycles} not a power of two in 1..64"
            )
        if not 1 <= s.payload_bytes <= cfg.slot_payload_bytes:
            raise ValidationError(
                f"signal {s.id}: payload_bytes {s.payload_bytes} outside 1..{cfg.slot_payload_bytes}"
            )
        if s.release_ms < 0:
            raise ValidationError(f"signal {s.id}: negative release")
        if not s.release_ms < s.deadline_ms:
            raise ValidationError(f"signal {s.id}: release must precede deadline")
        if not s.receivers:
            raise ValidationError(f"signal {s.id}: receiver set is empty")
        if s.transmitter in s.receivers:
            raise ValidationError(f"signal {s.id}: transmitter listed as receiver")
        for r in s.receivers:
            if r not in seen_ids:
                raise ValidationError(f"signal {s.id}: receiver {r} not an ECU")
        if not feasible_base_cycles(s, cfg.cycle_duration_ms):
            raise ValidationError(
                f"signal {s.id}: release/deadline window admits no occurrence cycle"
            )


def is_valid(inst: Instance) -> bool:
    try:
        validate_instance(inst)
    except ValidationError:
        return False
    return True


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = allowed - set(obj)
    if missing:
        raise FormatError(f"missing field(s) {sorted(missing)} in {where}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where} must be an integer")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where} must be a number")
    return float(value)


def instance_from_dict(data: dict, name: str = "") -> Instance:
    """Build a validated Instance from the JSON schema dict."""
    if not isinstance(data, dict):
        raise FormatError("top-level value must be an object")
    _require_keys(data, {"config", "ecus", "signals"}, "top-level object")

    raw_cfg = data["config"]
    if not isinstance(raw_cfg, dict):
        raise FormatError("config must be an object")
    _require_keys(raw_cfg, {"cycle_duration_ms", "slot_payload_bytes"}, "config")
    cfg = NetworkConfig(
        cycle_duration_ms=_as_number(raw_cfg["cycle_duration_ms"], "cycle_duration_ms"),
        slot_payload_bytes=_as_int(raw_cfg["slot_payload_bytes"], "slot_payload_bytes"),
    )

    if not isinstance(data["ecus"], list):
        raise FormatError("ecus must be a list")
    ecus = []
    for i, raw in enumerate(data["ecus"]):
        if not isinstance(raw, dict):
            raise FormatError(f"ecus[{i}] must be an object")
        _require_keys(raw, {"id", "class"}, f"ecus[{i}]")
        try:
            kind = EcuKind(raw["class"])
        except ValueError:
            raise FormatError(f"ecus[{i}]: unknown class {raw['class']!r}") from None
        ecus.append(Ecu(id=_as_int(raw["id"], f"ecus[{i}].id"), kind=kind))

    if not isinstance(data["signals"], list):
        raise FormatError("signals must be a list")
    signal_fields = {
        "id", "transmitter", "period_cycles", "payload_bytes",
        "release_ms", "deadline_ms", "fault_tolerant", "receivers",
    }
    signals = []
    for i, raw in enumerate(data["signals"]):
        if not isinstance(raw, dict):
            raise FormatError(f"signals[{i}] must be an object")
        _require_keys(raw, signal_fields, f"signals[{i}]")
        if not isinstance(raw["fault_tolerant"], bool):
            raise FormatError(f"signals[{i}].fault_tolerant must be a boolean")
        if not isinstance(raw["receivers"], list):
            raise FormatError(f"signals[{i}].receivers must be a list")
        signals.append(Signal(
            id=_as_int(raw["id"], f"signals[{i}].id"),
            transmitter=_as_int(raw["transmitter"], f"signals[{i}].transmitter"),
            period_cycles=_as_int(raw["period_cycles"], f"signals[{i}].period_cycles"),
            payload_bytes=_as_int(raw["payload_bytes"], f"signals[{i}].payload_bytes"),
            release_ms=_as_number(raw["release_ms"], f"signals[{i}].release_ms"),
            deadline_ms=_as_number(raw["deadline_ms"], f"signals[{i}].deadline_ms"),
            fault_tolerant=raw["fault_tolerant"],
            receivers=frozenset(
                _as_int(r, f"signals[{i}].receivers") for r in raw["receivers"]
            ),
        ))

    inst = Instance(config=cfg, ecus=tuple(ecus), signals=tuple(signals), name=name)
    validate_instance(inst)
    return inst


def instance_to_dict(inst: Instance) -> dict:
    return {
        "config": {
            "cycle_duration_ms": inst.config.cycle_duration_ms,
            "slot_payload_bytes": inst.config.slot_payload_bytes,
        },
        "ecus": [{"id": e.id, "class": e.kind.value} for e in inst.ecus],
        "signals": [
            {
                "id": s.id,
                "transmitter": s.transmitter,
                "period_cycles": s.period_cycles,
                "payload_bytes": s.payload_bytes,
                "release_ms": s.release_ms,
                "deadline_ms": s.deadline_ms,
                "fault_tolerant": s.fault_tolerant,
                "receivers": sorted(s.receivers),
            }
            for s in inst.signals
        ],
    }


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc
    return instance_from_dict(data, name=path.stem)


def save_instance(inst: Instance, path: str | Path) -> None:
    path = Path(path)
    path.write_text(json.dumps(instance_to_dict(inst), indent=1) + "\n")
