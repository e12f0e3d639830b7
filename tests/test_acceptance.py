"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  The random suites are built once per session and shared.
"""
from __future__ import annotations

import dataclasses
import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import (
    example1_instance,
    random_hypergraph,
    spearman_rho,
    subset_sum_half,
)
from flexseg.assignment import (
    CriterionParams,
    default_alpha,
    export_lp,
    solve_cah,
    solve_exact,
    solve_ga,
)
from flexseg.cli import main
from flexseg.driver import DriverConfig, run
from flexseg.generator import GeneratorProfile, generate, reduce_partition, sae_profile
from flexseg.hypergraph import Hypergraph, build_hypergraph
from flexseg.model import save_instance
from flexseg.scheduler import CH_A, lbsc, schedule_single_channel
from flexseg.validator import validate


@contextmanager
def report(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - start:.1f}s)")


def enumerate_minimum(hg: Hypergraph, alpha: float, beta: float) -> float:
    """Exhaustive oracle over all 2^|N| assignments (bit-vector form)."""
    free = list(hg.free_ecus)
    index = {u: i for i, u in enumerate(free)}
    pairs = []
    for ends, weight in hg.edges.items():
        mask = 0
        for u in ends:
            mask |= 1 << index[u]
        pairs.append((mask, weight))
    ft = hg.ft_weight_bytes
    best = float("inf")
    for bits in range(1 << len(free)):
        p_a = p_b = p_g = 0
        for mask, w in pairs:
            if mask & bits:
                p_a += w
                if mask & ~bits:
                    p_b += w
                    p_g += w
            elif mask & ~bits:
                p_b += w
        crit = max(beta * (p_a + ft), p_b + ft) + alpha * p_g
        if crit < best:
            best = crit
    return best


# --- shared suites ----------------------------------------------------------

@pytest.fixture(scope="module")
def assignment_suite():
    """200 random assignment problems (<= 12 free ECUs, <= 40 edges) with
    their enumeration minima and exact-solver results."""
    rng = random.Random(20240817)
    start = time.perf_counter()
    entries = []
    for _ in range(200):
        hg = random_hypergraph(rng, max_free=12, max_edges=40)
        alpha = default_alpha(hg)
        params = CriterionParams(alpha=alpha, beta=1.0)
        entries.append({
            "hg": hg,
            "params": params,
            "minimum": enumerate_minimum(hg, alpha, 1.0),
            "exact": solve_exact(hg, params),
        })
    return {"entries": entries, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def sae_runs():
    """Driver runs over 200 generated instances spanning the receiver
    diversity families at 500 signals / 12 ECUs."""
    start = time.perf_counter()
    runs = []
    for i in range(200):
        profile = sae_profile((i % 7) + 1, ecu_count=12, signal_count=500,
                              fault_tolerant_fraction=(0.0, 0.1, 0.2)[i % 3])
        inst = generate(profile, seed=i)
        cfg = DriverConfig(cah_tries=10, max_iterations=3, rng_seed=i)
        runs.append((inst, cfg, run(inst, cfg)))
    return {"runs": runs, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def saving_runs():
    """Dual- vs single-channel slot counts on desk-scale low- and
    high-diversity instances."""
    sets = {}
    for level, count in ((1, 50), (7, 20)):
        rows = []
        for seed in range(count):
            inst = generate(sae_profile(level, ecu_count=12, signal_count=250),
                            seed=seed)
            single = schedule_single_channel(inst)
            cfg = DriverConfig(cah_tries=30, max_iterations=3, rng_seed=seed)
            result = run(inst, cfg)
            rows.append((inst, single, result))
        sets[level] = rows
    return sets


# --- criteria ---------------------------------------------------------------

def test_criterion_1_example1_assignment_optimum():
    with report(1, "example1-assignment-optimum"):
        start = time.perf_counter()
        inst = example1_instance()
        hg = build_hypergraph(inst)
        result = solve_exact(hg, CriterionParams(alpha=1 / 52, beta=1.0))
        expected = 40 + 20 / 52
        assert result.optimal
        assert abs(result.criterion - expected) <= 1e-9
        assert abs(enumerate_minimum(hg, 1 / 52, 1.0) - expected) <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_2_exact_oracle_equivalence(assignment_suite, tmp_path):
    with report(2, "exact-solver-oracle-equivalence"):
        start = time.perf_counter()
        for entry in assignment_suite["entries"]:
            assert entry["exact"].optimal
            assert entry["exact"].criterion == entry["minimum"]
        # spot-check the exported model with an external MILP solver
        lp_test = pytest.importorskip("test_lp_crosscheck")
        for i, entry in enumerate(assignment_suite["entries"][:10]):
            path = tmp_path / f"spot{i}.lp"
            export_lp(entry["hg"], entry["params"], path)
            external = lp_test.solve_lp_file(path)
            assert abs(entry["exact"].criterion - external) <= 1e-6
        elapsed = assignment_suite["elapsed"] + time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_3_two_partition_reduction():
    with report(3, "two-partition-reduction"):
        start = time.perf_counter()
        rng = random.Random(7)
        params = CriterionParams(alpha=0.0, beta=1.0)
        for _ in range(300):
            n = rng.randint(1, 16)
            items = [rng.randint(1, max(1, 60 // n)) for _ in range(n)]
            assert sum(items) <= 60
            result = solve_exact(reduce_partition(items), params)
            total = sum(items)
            perfect = total % 2 == 0 and result.criterion == total / 2
            assert perfect == subset_sum_half(items)
        assert time.perf_counter() - start < 30.0


def test_criterion_4_cah_quality(assignment_suite):
    with report(4, "cah-quality-and-ga-ordering"):
        cah_gaps = []
        ga_gaps = []
        for i, entry in enumerate(assignment_suite["entries"]):
            exact = entry["exact"].criterion
            cah = solve_cah(entry["hg"], entry["params"], tries_count=1000,
                            rng_seed=i)
            ga = solve_ga(entry["hg"], entry["params"], rng_seed=i)
            assert cah.criterion >= exact - 1e-9
            assert ga.criterion >= exact - 1e-9
            cah_gaps.append((cah.criterion - exact) / exact if exact else 0.0)
            ga_gaps.append((ga.criterion - exact) / exact if exact else 0.0)
        cah_gaps.sort()
        mean_gap = sum(cah_gaps) / len(cah_gaps)
        median_gap = cah_gaps[len(cah_gaps) // 2]
        assert mean_gap <= 0.01
        assert median_gap == 0.0
        assert sum(ga_gaps) / len(ga_gaps) >= mean_gap


def test_criterion_5_schedule_feasibility(sae_runs):
    with report(5, "schedule-feasibility-200-instances"):
        for inst, _cfg, result in sae_runs["runs"]:
            violations = validate(inst, result.assignment, result.schedule)
            assert violations == [], f"{inst.name}: {violations[:3]}"
        assert sae_runs["elapsed"] < 120.0


def test_criterion_6_bandwidth_saving(saving_runs):
    with report(6, "bandwidth-saving-trend"):
        low = saving_runs[1]
        mean_dual = sum(r.schedule.allocated_slots() for _, _, r in low) / len(low)
        mean_single = sum(s.max_slot(CH_A) for _, s, _ in low) / len(low)
        assert mean_dual <= 0.9 * mean_single
        for _inst, single, result in saving_runs[7]:
            assert result.schedule.allocated_slots() <= single.max_slot(CH_A) + 1


def test_criterion_7_lower_bound_sanity(sae_runs, saving_runs):
    with report(7, "lower-bound-sanity"):
        inst = example1_instance()
        assert lbsc(inst.signals, 8) == 6
        # independent arithmetic for the reference value
        loads = {}
        for s in inst.signals:
            loads[s.transmitter] = loads.get(s.transmitter, 0) + \
                s.payload_bytes * (64 // s.period_cycles)
        assert sum(math.ceil(v / (64 * 8)) for v in loads.values()) == 6

        for inst, _cfg, _result in sae_runs["runs"]:
            single = schedule_single_channel(inst)
            assert lbsc(inst.signals, inst.config.slot_payload_bytes) \
                <= single.max_slot(CH_A)
        for rows in saving_runs.values():
            for inst, single, _result in rows:
                assert lbsc(inst.signals, inst.config.slot_payload_bytes) \
                    <= single.max_slot(CH_A)


def test_criterion_8_driver_monotonicity(sae_runs, saving_runs):
    with report(8, "driver-monotonicity-and-termination"):
        all_runs = [(cfg, result) for _, cfg, result in sae_runs["runs"]]
        all_runs += [(DriverConfig(cah_tries=30, max_iterations=3, rng_seed=0), r)
                     for _, _, r in saving_runs[1] + saving_runs[7]]
        for cfg, result in all_runs:
            first = result.log[0]
            assert result.schedule.allocated_slots() <= max(first.slots_a,
                                                            first.slots_b)
            assert 1 <= len(result.log) <= cfg.max_iterations


def test_criterion_9_fault_tolerance_sweep():
    with report(9, "fault-tolerance-sweep-trend"):
        base = GeneratorProfile(ecu_count=8, signal_count=300,
                                common_ecu_fraction=1.0)
        fractions = [round(i * 0.05, 10) for i in range(21)]
        means = []
        for ff in fractions:
            profile = dataclasses.replace(base, fault_tolerant_fraction=ff)
            slots = []
            for k in range(5):
                inst = generate(profile, seed=100 + k)
                result = run(inst, DriverConfig(cah_tries=5, max_iterations=3,
                                                rng_seed=k))
                slots.append(result.schedule.allocated_slots())
            means.append(sum(slots) / len(slots))
        assert spearman_rho(fractions, means) >= 0.9
        assert means[0] / means[-1] <= 0.65


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with report(10, "cli-determinism"):
        inst_path = tmp_path / "example1.json"
        save_instance(example1_instance(), inst_path)
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(
            '{"name": "det", "ecu_count": 8, "signal_count": 60}')

        outputs = {}
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            assert main(["solve", str(inst_path), "--seed", "5",
                         "--fibex", str(d / "out.xml"),
                         "--csv", str(d / "log.csv")]) == 0
            solve_stdout = capsys.readouterr().out
            assert main(["generate", "--profile", str(profile_path),
                         "--seed", "5", "--out", str(d / "gen.json")]) == 0
            capsys.readouterr()
            assert main(["sweep", "--profile", str(profile_path),
                         "--csv", str(d / "sweep.csv"), "--step", "0.5",
                         "--instances", "1", "--tries", "5", "--iters", "2",
                         "--seed", "5"]) == 0
            capsys.readouterr()
            bench_dir = d / "set"
            bench_dir.mkdir()
            (bench_dir / "example1.json").write_text(inst_path.read_text())
            assert main(["bench", "--dir", str(bench_dir),
                         "--csv", str(d / "bench.csv"), "--tries", "20",
                         "--iters", "3", "--seed", "5", "--no-timings"]) == 0
            capsys.readouterr()
            assert main(["validate", str(inst_path), str(d / "out.xml")]) == 0
            validate_stdout = capsys.readouterr().out
            outputs[tag] = {
                "solve": solve_stdout,
                "xml": (d / "out.xml").read_bytes(),
                "log": (d / "log.csv").read_bytes(),
                "gen": (d / "gen.json").read_bytes(),
                "sweep": (d / "sweep.csv").read_bytes(),
                "bench": (d / "bench.csv").read_bytes(),
                "validate": validate_stdout,
            }
        assert outputs["one"] == outputs["two"]
