"""Pinned digests of the seed-1 benchmark corpus under the default driver.

The instances are those of `perfbench/run.py::instance_specs` at seed 1,
restated here because the tests do not import the benchmark.  One digest
per (workload, solver) pair covers, for each instance in order, the
FIBEX bytes of the driver run, its log CSV rows, the `place_calls`,
`fresh_slots` and `scan_depth` of its schedule, and the columns of
`schedule_single_channel`.  Update a digest only with a change that is
meant to alter results and says so.

The summed `probes` of the driver's schedules and of the single-channel
schedules are pinned apart from the digests.  Both builders take their
request ids from `_fit_plan`, so comparing one with a replay through
`place_to_schedule` does not check how requests share refusal memory;
these totals do, since sharing it differently moves them and leaves
every placement alone.

Each export must also be read line by line, with no fallback to expat
and no refusal: a change to the writer's layout that left the line
reader's would otherwise only slow the read.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from flexseg.driver import DriverConfig, log_to_csv_rows, run
from flexseg.fibex import _read_lines, export_fibex
from flexseg.generator import generate, realcase_profile, sae_profile
from flexseg.scheduler import CHANNELS, schedule_single_channel

SEED = 1


def instance_specs(workload: str):
    """(file stem, generator profile, generator seed) of each instance."""
    if workload == "sae500":
        core = [(level, ft, gen_seed) for gen_seed in (0, 1)
                for level in range(1, 8) for ft in (0.0, 0.2)]
        seeded = [(level, 0.2 * ((level + SEED) % 2), SEED + 2) for level in range(1, 8)]
        return [(f"sae{level}-ft{ft:g}-{gen_seed}",
                 sae_profile(level, fault_tolerant_fraction=ft), gen_seed)
                for level, ft, gen_seed in core + seeded]
    if workload == "realcase":
        return [("realcase-0", realcase_profile(), 0)]
    return [(f"sae4-e{ecus}-{gen_seed}",
             sae_profile(4, ecu_count=ecus, signal_count=1000), gen_seed)
            for ecus, gen_seed in ((22, 1), (24, 4))]


@lru_cache(maxsize=None)
def instances(workload: str):
    return tuple((stem, generate(profile, gen_seed))
                 for stem, profile, gen_seed in instance_specs(workload))


def columns_text(sched) -> str:
    return repr([(ch, slot, col.owner, col.is_gateway,
                  [(base, [(occ.signal, occ.offset, occ.payload, occ.is_image,
                            occ.repetition) for occ in col.frames[base]])
                   for base in sorted(col.frames)])
                 for ch in CHANNELS for slot, col in sorted(sched.columns[ch].items())])


DIGESTS = {
    ("sae500", "CAH"): "d014cb7c19f7b7a8",
    ("sae500", "GA"): "d014cb7c19f7b7a8",
    ("realcase", "CAH"): "4ac6be3a82b3246c",
    ("realcase", "GA"): "f78a41c40773bf14",
    ("exact", "EXACT"): "395c6d98dfa372b6",
    ("exact", "GA"): "87016e4e18248ddf",
}


PROBES = {
    ("sae500", "CAH"): (41_938, 19_764),
    ("sae500", "GA"): (41_938, 19_764),
    ("realcase", "CAH"): (10_167, 5_452),
    ("realcase", "GA"): (10_609, 5_452),
    ("exact", "EXACT"): (5_066, 2_192),
    ("exact", "GA"): (5_103, 2_192),
}


@pytest.mark.parametrize("workload, solver", list(DIGESTS))
def test_corpus_digest_pinned(tmp_path, workload, solver):
    digest = hashlib.sha256()
    probes = [0, 0]
    path = tmp_path / "out.xml"
    for stem, inst in instances(workload):
        result = run(inst, DriverConfig(assignment_solver=solver))
        export_fibex(inst, result.assignment, result.schedule, path)
        sched = result.schedule
        digest.update(stem.encode() + b"\0" + path.read_bytes())
        with open(path, "rb") as file:
            reader = _read_lines(file)
        assert reader is not None, stem
        digest.update("\n".join(map(",".join, log_to_csv_rows(result.log))).encode())
        digest.update(repr((sched.place_calls, sched.fresh_slots,
                            sched.scan_depth)).encode())
        single = schedule_single_channel(inst)
        digest.update(columns_text(single).encode())
        probes[0] += sched.probes
        probes[1] += single.probes
    assert digest.hexdigest()[:16] == DIGESTS[workload, solver]
    assert tuple(probes) == PROBES[workload, solver]
