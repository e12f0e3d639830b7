"""Command-line harness: solve single instances, synthesize benchmarks,
run batch comparisons and the fault-tolerance sweep, validate schedules."""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import assignment as asg_mod
from . import generator as gen_mod
from .assignment import CH_A, CH_B, CriterionParams
from .driver import SOLVERS, DriverConfig, log_to_csv_rows, run
from .fibex import export_fibex, read_fibex
from .hypergraph import build_hypergraph
from .model import FormatError, load_instance, save_instance
from .scheduler import lbsc, schedule_single_channel
from .validator import validate


def _write_csv(path: str | Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _gap_permille(value: float, reference: float) -> float:
    if reference == 0:
        return 0.0
    return (value - reference) / reference * 1000.0


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(round(value, 9))
    return str(value)


_VALUE_COLUMNS = (
    "signals", "free_ecus", "exact_criterion", "cah_criterion", "cah_gap_permille",
    "ga_criterion", "ga_gap_permille", "lbsc", "single_slots",
    "first_iter_slots", "first_iter_gw_slots", "best_slots", "best_gw_slots",
)
_TIMING_COLUMNS = ("exact_ms", "cah_ms", "ga_ms", "single_ms", "driver_ms")


def _bench_row(name: str, numbers: dict, shown: tuple, error: str = "") -> list[str]:
    """One CSV row: the `shown` columns of `numbers`, the others blank."""
    return ([name] + [_fmt(numbers[c]) if c in shown else ""
                      for c in _VALUE_COLUMNS + _TIMING_COLUMNS] + [error])


def _bench_instance(path: Path, cfg: DriverConfig) -> dict:
    """Every value and timing column of one instance, by column name."""
    inst = load_instance(path)
    hg = build_hypergraph(inst)
    params = CriterionParams(alpha=asg_mod.default_alpha(hg), beta=1.0)
    numbers: dict = {}

    def timed(column, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        numbers[column] = (time.perf_counter() - t0) * 1000
        return out

    if len(hg.free_ecus) <= asg_mod.TABLE_MAX_ECUS:
        hg.uncovered  # build the solvers' coverage table outside their timers
    exact = timed("exact_ms", asg_mod.solve_exact, hg, params)
    cah = timed("cah_ms", asg_mod.solve_cah, hg, params,
                tries_count=cfg.cah_tries, rng_seed=cfg.rng_seed)
    ga = timed("ga_ms", asg_mod.solve_ga, hg, params, rng_seed=cfg.rng_seed)
    single = timed("single_ms", schedule_single_channel, inst)
    result = timed("driver_ms", run, inst, cfg)

    first, sched = result.log[0], result.schedule
    numbers.update(
        signals=len(inst.signals), free_ecus=len(hg.free_ecus),
        exact_criterion=exact.criterion, cah_criterion=cah.criterion,
        cah_gap_permille=_gap_permille(cah.criterion, exact.criterion),
        ga_criterion=ga.criterion,
        ga_gap_permille=_gap_permille(ga.criterion, exact.criterion),
        lbsc=lbsc(inst.signals, inst.config.slot_payload_bytes),
        single_slots=single.max_slot(CH_A),
        first_iter_slots=max(first.slots_a, first.slots_b),
        first_iter_gw_slots=first.gw_slots,
        best_slots=sched.allocated_slots(),
        best_gw_slots=sched.gateway_slot_count())
    return numbers


def run_benchmark(instance_dir: str | Path, out_csv: str | Path, *,
                  seed: int = 0, cah_tries: int = 1000, max_iterations: int = 10,
                  include_timings: bool = True) -> int:
    """Per-instance solver comparison rows plus an average row.

    A bad setting or a missing directory raises before any instance runs.
    Returns the number of instances that failed (recorded in the error
    column; failures never abort the batch).
    """
    cfg = DriverConfig(cah_tries=cah_tries, rng_seed=seed, max_iterations=max_iterations)
    if not Path(instance_dir).is_dir():
        raise NotADirectoryError(f"{instance_dir} is not a directory")
    shown = _VALUE_COLUMNS + (_TIMING_COLUMNS if include_timings else ())
    rows = [["instance", *_VALUE_COLUMNS, *_TIMING_COLUMNS, "error"]]
    paths = sorted(Path(instance_dir).glob("*.json"))
    measured: list[dict] = []
    for path in paths:
        try:
            measured.append(_bench_instance(path, cfg))
            rows.append(_bench_row(path.stem, measured[-1], shown))
        except Exception as exc:  # soft failure: record and continue
            rows.append(_bench_row(path.stem, {}, (), str(exc) or type(exc).__name__))

    if measured:
        means = {c: sum(m[c] for m in measured) / len(measured) for c in shown}
        rows.append(_bench_row("average", means, shown))
    _write_csv(out_csv, rows)
    return len(paths) - len(measured)


def run_sweep(base_profile: gen_mod.GeneratorProfile, out_csv: str | Path, *,
              step: float = 0.05, instances_per_point: int = 3, seed: int = 0,
              cah_tries: int = 50, max_iterations: int = 5) -> int:
    """Mean allocated slots per (common fraction, fault-tolerant fraction)
    grid point; one CSV row per point, suitable for surface plotting.
    A bad setting or profile raises before any point runs."""
    cfg = DriverConfig(cah_tries=cah_tries, rng_seed=seed, max_iterations=max_iterations)
    if instances_per_point < 1:
        raise ValueError("instances_per_point must be >= 1")
    rows = [["common_ecu_fraction", "fault_tolerant_fraction",
             "mean_slots", "mean_gw_slots", "error"]]
    for profile in gen_mod.sweep_profiles(base_profile, step=step):
        point = [_fmt(profile.common_ecu_fraction), _fmt(profile.fault_tolerant_fraction)]
        try:
            slots = gw_slots = 0
            for k in range(instances_per_point):
                inst = gen_mod.generate(profile, seed=seed + k)
                sched = run(inst, replace(cfg, rng_seed=seed + k)).schedule
                slots += sched.allocated_slots()
                gw_slots += sched.gateway_slot_count()
            rows.append(point + [_fmt(slots / instances_per_point),
                                 _fmt(gw_slots / instances_per_point), ""])
        except Exception as exc:
            rows.append(point + ["", "", str(exc) or type(exc).__name__])
    _write_csv(out_csv, rows)
    return sum(1 for row in rows if row[2] == "")  # a failed point has no mean


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    cfg = DriverConfig(
        alpha=args.alpha,
        max_iterations=args.iters,
        assignment_solver=args.solver.upper(),
        cah_tries=args.tries,
        rng_seed=args.seed,
    )
    result = run(inst, cfg)
    print(json.dumps(result.assignment.to_json_dict(), sort_keys=True))
    sched = result.schedule
    print(f"slots A={sched.max_slot(CH_A)} B={sched.max_slot(CH_B)} "
          f"allocated={sched.allocated_slots()} gateway={sched.gateway_slot_count()} "
          f"iterations={len(result.log)}")
    if args.csv:
        _write_csv(args.csv, log_to_csv_rows(result.log))
    if args.fibex:
        export_fibex(inst, result.assignment, sched, args.fibex)
    return 0


def _cmd_generate(args) -> int:
    profile = gen_mod.load_profile(args.profile)
    inst = gen_mod.generate(profile, seed=args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.out}: {len(inst.ecus)} ECUs, {len(inst.signals)} signals")
    return 0


def _cmd_bench(args) -> int:
    failures = run_benchmark(
        args.dir, args.csv, seed=args.seed, cah_tries=args.tries,
        max_iterations=args.iters, include_timings=not args.no_timings)
    print(f"wrote {args.csv} ({failures} failed instance(s))")
    return 0


def _cmd_sweep(args) -> int:
    profile = gen_mod.load_profile(args.profile)
    failures = run_sweep(
        profile, args.csv, step=args.step, instances_per_point=args.instances,
        seed=args.seed, cah_tries=args.tries, max_iterations=args.iters)
    print(f"wrote {args.csv} ({failures} failed point(s))")
    return 0


def _cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    sched, channel_of = read_fibex(args.schedule)
    if sched.config != inst.config:
        raise FormatError(f"schedule file cluster {sched.config} differs from the "
                          f"instance's {inst.config}")
    hg = build_hypergraph(inst)
    missing = [u for u in hg.free_ecus if u not in channel_of]
    if missing:
        raise FormatError(f"schedule file lacks channel assignments for ECUs {missing}")
    p_a, p_b, p_g, crit = asg_mod.evaluate_criterion(
        hg, channel_of, CriterionParams(alpha=asg_mod.default_alpha(hg)))
    asg = asg_mod.ChannelAssignment(
        channel_of=channel_of, payload_a=p_a, payload_b=p_b, payload_gw=p_g,
        criterion=crit)
    violations = validate(inst, asg, sched)
    print(json.dumps([v.to_json_dict() for v in violations]))
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexseg",
        description="Dual-channel FlexRay static segment scheduling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="schedule one instance")
    p.add_argument("instance")
    p.add_argument("--solver", choices=sorted(s.lower() for s in SOLVERS), default="cah")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tries", type=int, default=1000)
    p.add_argument("--fibex", metavar="PATH")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="synthesize an instance from a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="solver comparison over an instance directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tries", type=int, default=1000)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--no-timings", action="store_true",
                   help="blank the wall-clock columns for reproducible output")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="common-ECU x fault-tolerance grid")
    p.add_argument("--profile", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tries", type=int, default=50)
    p.add_argument("--iters", type=int, default=5)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="check an exported schedule")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
