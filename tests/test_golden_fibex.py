"""Pinned sha256 digests of the FIBEX export of four fixed-seed runs.

A change to channel scheduling, renumbering or the export that alters any
byte of these files fails here; update a digest only with a change that is
meant to alter results and says so.  Up to `STOP_MAX_ECUS` one-port ECUs
the driver takes the coverage-table scan's least map, so there every
logged criterion is also checked against an independent enumeration.
"""
from __future__ import annotations

import hashlib

import pytest

from flexseg.assignment import STOP_MAX_ECUS, default_alpha
from flexseg.driver import DriverConfig, run
from flexseg.fibex import export_fibex
from flexseg.generator import GeneratorProfile, generate, realcase_profile, sae_profile
from flexseg.hypergraph import build_hypergraph

from conftest import example1_instance, oracle_minimum

CASES = {
    # one fault-tolerant signal and four gateway images
    "example1": (
        example1_instance,
        DriverConfig(cah_tries=20, rng_seed=0),
        "6f2356c5ede66bad981bef5ae22f3077c71c294431ce3397639263c2120b80f4",
    ),
    # eight fault-tolerant signals and 75 gateway images
    "sae4-ft": (
        lambda: generate(sae_profile(4, ecu_count=10, signal_count=150,
                                     fault_tolerant_fraction=0.2), seed=3),
        DriverConfig(cah_tries=20, rng_seed=3),
        "67b0531c3228ce08e2c61e8b49d26deee16d41133ab489b77b1c88daa29855a8",
    ),
    # 16-byte slots, so the packed column masks use a stride other than 8
    "h16": (
        lambda: generate(GeneratorProfile(ecu_count=9, signal_count=120,
                                          slot_payload_bytes=16), seed=5),
        DriverConfig(cah_tries=20, rng_seed=5),
        "24958b98162b77e22b0705436aea3b195a105f49b36bd9c6175101a30710feb8",
    ),
    # 5043 signals under the default driver settings: the largest schedule
    "realcase": (
        lambda: generate(realcase_profile(), seed=0),
        DriverConfig(),
        "20308ed1778961117504fed6e998886ae8dc86862392cb8c01c130b1ab42516d",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fibex_digest_pinned(tmp_path, name):
    make, cfg, digest = CASES[name]
    inst = make()
    result = run(inst, cfg)
    path = tmp_path / f"{name}.xml"
    export_fibex(inst, result.assignment, result.schedule, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    hg = build_hypergraph(inst)
    if len(hg.free_ecus) <= STOP_MAX_ECUS:
        alpha = default_alpha(hg)
        assert [rec.criterion for rec in result.log] == \
            [oracle_minimum(hg, alpha, rec.beta) for rec in result.log]
