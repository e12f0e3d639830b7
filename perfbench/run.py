"""Benchmark of flexseg's `driver.run` on seeded workloads.

    python3 perfbench/run.py --workload sae500|realcase|exact --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload sae500 --seed N --write-instances DIR

Each run generates its instances from the seed, writes them as JSON files
and times `load_instance` over them (setup).  It then makes whole passes
over the instances until `--seconds` have gone by.  Times are in seconds
at reference host speed (hostspeed.py) and are medians over the passes.
One operation is one instance: `run()`, the FIBEX round trip
(`export_fibex`, `read_fibex`, `validate`) and the result checks of
checks.py, which run outside the timed region.  The last line of standard
output is one JSON object with the end-to-end metrics (`--trace 0`) or the
per-layer metrics of a traced run (`--trace 1`).  See README.md next to
this file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Loads of the whole instance set before the first pass and after each
# pass; setup_s is the median of them, taken over the whole run.
SETUP_REPEATS = 5
# Round trips per operation and pass of an untraced run; check_s takes the
# median.  A round trip takes 20-450 ms, short enough for jitter to show.
# exact sums only two of about 70 ms, so it takes more of them.
CHECK_REPEATS = {"sae500": 3, "realcase": 3, "exact": 9}


# Workload name -> assignment solver of its driver runs.
WORKLOADS = {"sae500": "CAH", "realcase": "CAH", "exact": "EXACT"}


def instance_specs(workload: str, seed: int):
    """(file stem, generator profile, generator seed) of each instance."""
    from flexseg.generator import realcase_profile, sae_profile

    if workload == "sae500":
        # A fixed core, the 14 families at generator seeds 0 and 1, plus
        # the seven levels at generator seed N + 2 with one fault-tolerant
        # fraction each, alternating with level and seed.  The run_s of one
        # family set swings by a sixth between seeds (beta-loop
        # iterations), so the seeded set is kept to a fifth of the whole
        # for run_s to be steady.
        core = [(level, ft, gen_seed) for gen_seed in (0, 1)
                for level in range(1, 8) for ft in (0.0, 0.2)]
        seeded = [(level, 0.2 * ((level + seed) % 2), seed + 2) for level in range(1, 8)]
        return [(f"sae{level}-ft{ft:g}-{gen_seed}",
                 sae_profile(level, fault_tolerant_fraction=ft), gen_seed)
                for level, ft, gen_seed in core + seeded]
    # realcase and exact use fixed instances whatever the seed.  realcase
    # run time swings 3x between generator seeds (the beta loop stops after
    # 3 to 10 iterations).  exact holds one instance the exact solver's
    # channel-A pin leaves optimal (22 ECUs, seed 1) and one where it does
    # not (24 ECUs, seed 4), so its failed share is the same in every run.
    if workload == "realcase":
        return [("realcase-0", realcase_profile(), 0)]
    return [(f"sae4-e{ecus}-{gen_seed}",
             sae_profile(4, ecu_count=ecus, signal_count=1000), gen_seed)
            for ecus, gen_seed in ((22, 1), (24, 4))]


def write_instances(workload: str, seed: int, out: Path) -> tuple[list[Path], str]:
    """Generate and save the workload's instances; return paths and digest."""
    from flexseg.generator import generate
    from flexseg.model import save_instance

    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    paths = []
    for stem, profile, gen_seed in instance_specs(workload, seed):
        path = out / f"{stem}.json"
        save_instance(generate(profile, gen_seed), path)
        digest.update(stem.encode() + b"\0" + path.read_bytes())
        paths.append(path)
    return paths, digest.hexdigest()[:16]


def measure_setup(paths: list[Path], span):
    """Load every file SETUP_REPEATS times; return the (start, end) of each
    repeat and the instances."""
    from flexseg.model import load_instance

    intervals = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        insts = []
        for path in paths:
            with span("model.load"):
                insts.append(load_instance(path))
        intervals.append((t0, perf_counter()))
    return intervals, insts


def run_pass(insts, refs, solver: str, work: Path, tracer, check_repeats: int) -> dict:
    """One pass over the instances; `tracer` is None for an untraced pass.
    Each figure of an operation is a list: one per round trip for check_s,
    one value otherwise.  Timings are kept as (start, end) until the run's
    probe samples are in."""
    from checks import check_result, no_span, round_trip
    from flexseg.driver import DriverConfig, run

    cfg = DriverConfig(assignment_solver=solver)
    span = tracer.span if tracer else no_span
    out = {"ops": {}, "failures": {}, "digests": {}}
    for inst in insts:
        path = work / f"{inst.name}.xml"
        op = out["ops"][inst.name] = {}
        try:
            with span("driver.run"):
                t0 = perf_counter()
                result = run(inst, cfg)
                t1 = perf_counter()
            op["run_s"] = [(t0, t1)]
            op["allocated_slots"] = [result.schedule.allocated_slots()]
            op["gateway_slots"] = [result.schedule.gateway_slot_count()]

            op["check_s"] = []
            for _ in range(check_repeats):
                t0 = perf_counter()
                readback, violations = round_trip(inst, result, path, span)
                op["check_s"].append((t0, perf_counter()))
            if tracer:
                tracer.counts["fibex.bytes"] += path.stat().st_size
            out["digests"][inst.name] = hashlib.sha256(path.read_bytes()).hexdigest()

            problems = check_result(inst, result, refs[inst.name], solver == "EXACT",
                                    readback, path, violations)
        except Exception as exc:  # one failed operation; the pass goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            out["failures"][inst.name] = problems
    return out


TIMED = ("run_s", "check_s")


def wall(interval) -> float:
    return interval[1] - interval[0]


def total(passes, key: str, value=lambda v: v) -> float:
    """Sum over instances of each instance's median over the passes and
    the repeats within them.  Slot counts are the same in every pass."""
    return sum(median(value(v) for p in passes for v in p["ops"][name][key])
               for name, op in passes[0]["ops"].items() if key in op)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-instances", metavar="DIR",
                        help="only write the workload's instance files and digest")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "flexseg" / "__init__.py").is_file():
        print(f"error: no flexseg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    solver = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"nproc {os.cpu_count()} python {platform.python_version()}")
    if args.write_instances:
        paths, digest = write_instances(args.workload, args.seed, Path(args.write_instances))
        print(f"wrote {len(paths)} instance(s) to {args.write_instances}, digest {digest}")
        return 0

    from checks import AssignmentReference, no_span
    from hostspeed import SpeedProbe
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    # A traced run reports plain wall times; its probe stays off so that
    # no handler runs inside the spans.
    probe = SpeedProbe()
    try:
        paths, digest = write_instances(args.workload, args.seed, work)
        print(f"instances {len(paths)} digest {digest}")

        if not args.trace:
            probe.start()
        setup_tracer = Tracer()
        setup_span = setup_tracer.span if args.trace else no_span
        setup_times, insts = measure_setup(paths, setup_span)
        refs = {inst.name: AssignmentReference(inst) for inst in insts}

        passes, tracers = [], []
        start = perf_counter()
        while True:
            # A traced run alternates untraced and traced passes, so the
            # tracing overhead is measured within the run.
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer = Tracer() if traced else None
            with tracer.installed() if tracer else nullcontext():
                repeats = 1 if args.trace else CHECK_REPEATS[args.workload]
                passes.append(run_pass(insts, refs, solver, work, tracer, repeats))
            if tracer:
                tracers.append(tracer)
            p = passes[-1]
            print(f"pass {len(passes)}{' traced' if traced else ''}: "
                  f"wall run {total([p], 'run_s', wall):.3f} s "
                  f"check {total([p], 'check_s', wall):.3f} s "
                  f"failed {len(p['failures'])}/{len(insts)}", flush=True)
            setup_times += measure_setup(paths, setup_span)[0]
            if perf_counter() - start >= args.seconds and len(passes) >= 1 + args.trace:
                break
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)

    for p in passes:
        for op in p["ops"].values():
            for key in TIMED:
                if key in op:
                    op[key] = [probe.seconds(*interval) for interval in op[key]]
    setup_times = [probe.seconds(*interval) for interval in setup_times]
    if probe.durations:
        print(f"probe samples {len(probe.durations)} median "
              f"{median(probe.durations) * 1e3:.3f} ms; at reference speed:")
        for i, p in enumerate(passes, 1):
            print(f"pass {i}: run {total([p], 'run_s'):.3f} s "
                  f"check {total([p], 'check_s'):.3f} s")

    attempted = len(passes) * len(insts)
    failed = sum(len(p["failures"]) for p in passes)
    # Every pass runs the same deterministic operations: results and
    # failures must repeat exactly.
    correct = all(p["digests"] == passes[0]["digests"]
                  and p["failures"] == passes[0]["failures"] for p in passes)
    for name, problems in sorted(passes[0]["failures"].items()):
        for problem in problems:
            print(f"FAILED {name}: {problem}")
    print(f"attempted {attempted} failed {failed} passes {len(passes)} correct {correct}")

    if args.trace:
        untraced = total(passes[0::2], "run_s")
        traced = total(passes[1::2], "run_s")
        per_pass = [t.layer_metrics() for t in tracers]
        values = {key: min(m[key] for m in per_pass) for key in per_pass[0]}
        loads = [end - start for _, start, end, _ in setup_tracer.spans]
        values["model.load_ms"] = min(
            sum(loads[i:i + len(paths)]) for i in range(0, len(loads), len(paths))) / 1e6
        values["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
        units = {key: "ms" if key.endswith("_ms") else "count" for key in values}
        units["fibex.bytes"] = "bytes"
        units["trace.overhead_pct"] = "%"
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        # (name, start ns, end ns, parent index) per span, one list per tracer
        spans_path.write_text(json.dumps(
            {"setup": setup_tracer.spans,
             **{f"pass{2 * i + 2}": t.spans for i, t in enumerate(tracers)}}))
        print(f"spans written to {spans_path}")
    else:
        values = {
            "run_s": total(passes, "run_s"),
            "allocated_slots": total(passes, "allocated_slots"),
            "gateway_slots": total(passes, "gateway_slots"),
            "check_s": total(passes, "check_s"),
            "setup_s": median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"run_s": "s", "allocated_slots": "slots", "gateway_slots": "slots",
                 "check_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

    for key, value in values.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
