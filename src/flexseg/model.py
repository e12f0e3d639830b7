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
# A FlexRay frame carries at most 127 two-byte words of payload.
MAX_SLOT_PAYLOAD_BYTES = 254

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


def validate_config(cfg: NetworkConfig) -> None:
    """Raise ValidationError naming the first invalid cluster setting."""
    if cfg.slot_payload_bytes < 1:
        raise ValidationError("slot_payload_bytes must be >= 1")
    if cfg.slot_payload_bytes > MAX_SLOT_PAYLOAD_BYTES:
        raise ValidationError(f"slot_payload_bytes must be <= {MAX_SLOT_PAYLOAD_BYTES}")
    if not 0 < cfg.cycle_duration_ms < float("inf"):
        raise ValidationError("cycle_duration_ms must be positive and finite")


def validate_instance(inst: Instance) -> None:
    """Raise ValidationError naming the first violated invariant."""
    cfg = inst.config
    validate_config(cfg)

    kind_of: dict[int, EcuKind] = {}
    for e in inst.ecus:
        if e.id < 0:
            raise ValidationError(f"ECU id {e.id} is negative")
        if e.id in kind_of:
            raise ValidationError(f"duplicate ECU id {e.id}")
        kind_of[e.id] = e.kind
    gateways = [e for e in inst.ecus if e.kind == EcuKind.GATEWAY]
    if len(gateways) != 1:
        raise ValidationError(f"exactly one GATEWAY ECU required, found {len(gateways)}")
    if len(inst.common_ecus) < 2:
        raise ValidationError("at least two COMMON ECUs required for synchronization")

    ecu_ids = frozenset(kind_of)
    sig_ids: set[int] = set()
    for s in inst.signals:
        if s.id in sig_ids:
            raise ValidationError(f"duplicate signal id {s.id}")
        sig_ids.add(s.id)
        tx_kind = kind_of.get(s.transmitter)
        if tx_kind is None:
            raise ValidationError(f"signal {s.id}: transmitter {s.transmitter} not an ECU")
        if tx_kind is EcuKind.GATEWAY:
            raise ValidationError(f"signal {s.id}: gateway ECU cannot transmit signals")
        if s.fault_tolerant and tx_kind is not EcuKind.COMMON:
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
        if not s.receivers <= ecu_ids:
            r = next(r for r in s.receivers if r not in ecu_ids)
            raise ValidationError(f"signal {s.id}: receiver {r} not an ECU")
        if not base_cycle_window(s.period_cycles, s.release_ms, s.deadline_ms,
                                 cfg.cycle_duration_ms):
            raise ValidationError(
                f"signal {s.id}: release/deadline window admits no occurrence cycle"
            )


def is_valid(inst: Instance) -> bool:
    try:
        validate_instance(inst)
    except ValidationError:
        return False
    return True


# The exact key set of each JSON object of an instance file.
_TOP_FIELDS = frozenset({"config", "ecus", "signals"})
_CONFIG_FIELDS = frozenset({"cycle_duration_ms", "slot_payload_bytes"})
_ECU_FIELDS = frozenset({"id", "class"})
_SIGNAL_FIELDS = frozenset({
    "id", "transmitter", "period_cycles", "payload_bytes",
    "release_ms", "deadline_ms", "fault_tolerant", "receivers",
})


def _require_keys(obj: dict, allowed: frozenset[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = allowed - set(obj)
    if missing:
        raise FormatError(f"missing field(s) {sorted(missing)} in {where}")


def _as_int(value, where: str) -> int:
    if type(value) is not int:
        raise FormatError(f"{where} must be an integer")
    return value


def _as_number(value, where: str) -> float:
    if type(value) is not float and type(value) is not int:
        raise FormatError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{where} is too large for a float") from None


def parse_int(text: str) -> int:
    """The integer `text` spells as -?[0-9]+ in ASCII, the one spelling the
    writers produce; ValueError for any other, such as " 4", "+4", "0_4"
    or non-ASCII digits, all of which int() accepts."""
    if text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit()):
        return int(text)
    raise ValueError(f"{text!r} is not an integer")


def _check_signal_types(raw: dict, where: str) -> None:
    """Raise FormatError for the first mistyped field of signal object
    `raw`, or a number too large for a float, leaving out the elements of
    its receivers."""
    if type(raw["fault_tolerant"]) is not bool:
        raise FormatError(f"{where}.fault_tolerant must be a boolean")
    if type(raw["receivers"]) is not list:
        raise FormatError(f"{where}.receivers must be a list")
    for name in ("id", "transmitter", "period_cycles", "payload_bytes"):
        _as_int(raw[name], f"{where}.{name}")
    for name in ("release_ms", "deadline_ms"):
        _as_number(raw[name], f"{where}.{name}")


def instance_from_dict(data: dict, name: str = "") -> Instance:
    """Build a validated Instance from the JSON schema dict.  Each value
    must have its JSON type exactly: an integer field refuses bools and
    floats, a number field bools."""
    if type(data) is not dict:
        raise FormatError("top-level value must be an object")
    if data.keys() != _TOP_FIELDS:
        _require_keys(data, _TOP_FIELDS, "top-level object")

    raw_cfg = data["config"]
    if type(raw_cfg) is not dict:
        raise FormatError("config must be an object")
    if raw_cfg.keys() != _CONFIG_FIELDS:
        _require_keys(raw_cfg, _CONFIG_FIELDS, "config")
    cfg = NetworkConfig(
        cycle_duration_ms=_as_number(raw_cfg["cycle_duration_ms"], "config.cycle_duration_ms"),
        slot_payload_bytes=_as_int(raw_cfg["slot_payload_bytes"], "config.slot_payload_bytes"),
    )

    if type(data["ecus"]) is not list:
        raise FormatError("ecus must be a list")
    ecus = []
    for i, raw in enumerate(data["ecus"]):
        if type(raw) is not dict:
            raise FormatError(f"ecus[{i}] must be an object")
        if raw.keys() != _ECU_FIELDS:
            _require_keys(raw, _ECU_FIELDS, f"ecus[{i}]")
        try:
            kind = EcuKind(raw["class"])
        except ValueError:
            raise FormatError(f"ecus[{i}].class: unknown class {raw['class']!r}") from None
        ecu_id = raw["id"]
        if type(ecu_id) is not int:
            raise FormatError(f"ecus[{i}].id must be an integer")
        ecus.append(Ecu(ecu_id, kind))

    if type(data["signals"]) is not list:
        raise FormatError("signals must be a list")
    signals = []
    for i, raw in enumerate(data["signals"]):
        if type(raw) is not dict:
            raise FormatError(f"signals[{i}] must be an object")
        if raw.keys() != _SIGNAL_FIELDS:
            _require_keys(raw, _SIGNAL_FIELDS, f"signals[{i}]")
        sid, tx, period = raw["id"], raw["transmitter"], raw["period_cycles"]
        payload, release, deadline = raw["payload_bytes"], raw["release_ms"], raw["deadline_ms"]
        ft, receivers = raw["fault_tolerant"], raw["receivers"]
        if not (type(ft) is bool and type(receivers) is list
                and type(sid) is int and type(tx) is int
                and type(period) is int and type(payload) is int
                and (type(release) is float or type(release) is int)
                and (type(deadline) is float or type(deadline) is int)):
            _check_signal_types(raw, f"signals[{i}]")
        for r in receivers:
            if type(r) is not int:
                raise FormatError(f"signals[{i}].receivers must be an integer")
        try:
            release, deadline = float(release), float(deadline)
        except OverflowError:
            _check_signal_types(raw, f"signals[{i}]")
        signals.append(Signal(sid, tx, period, payload, release, deadline,
                              ft, frozenset(receivers)))

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
