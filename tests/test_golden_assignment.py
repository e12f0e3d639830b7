"""Pinned sha256 digests of the solver results on two golden instances.

Each digest covers `json.dumps(asg.to_json_dict(), sort_keys=True)` of
one solver at the default alpha and one beta, so a change to the
hypergraph, the criterion evaluator or a solver's search that alters any
channel map, payload, criterion or optimality flag fails here.  Update a
digest only with a change that is meant to alter results and says so.
The exact results at beta 1.3 are flagged not optimal: the channel-A pin
of the exact search is sound at beta 1 only.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from flexseg.assignment import (
    CriterionParams,
    default_alpha,
    solve_cah,
    solve_exact,
    solve_ga,
)
from flexseg.generator import GeneratorProfile, generate, sae_profile
from flexseg.hypergraph import build_hypergraph

INSTANCES = {
    "sae4-ft": lambda: generate(sae_profile(4, ecu_count=10, signal_count=150,
                                            fault_tolerant_fraction=0.2), seed=3),
    "h16": lambda: generate(GeneratorProfile(ecu_count=9, signal_count=120,
                                             slot_payload_bytes=16), seed=5),
}

SOLVERS = {
    "exact": solve_exact,
    "cah": lambda hg, params: solve_cah(hg, params, tries_count=20, rng_seed=3),
    "ga": lambda hg, params: solve_ga(hg, params, rng_seed=3),
}

DIGESTS = {
    ("h16", "cah", 1.0):
        "fecac764c1c1b405aa242c71c49db883b4eba56ab88b0b2297b55214b1ae343b",
    ("h16", "cah", 1.3):
        "01ffcc4e5820111025f31770ae17100ba66d17f239e50efe345ccfe2418b2bf0",
    ("h16", "exact", 1.0):
        "e36615e26c093e897005ad324b86b45135f6dc41775c3bfef092636c8519530d",
    ("h16", "exact", 1.3):
        "cd5fe6ab8700fed0a2e26eeaa3a13d7ae11fd2c7e657b6983593bdfc8e41200c",
    ("h16", "ga", 1.0):
        "fecac764c1c1b405aa242c71c49db883b4eba56ab88b0b2297b55214b1ae343b",
    ("h16", "ga", 1.3):
        "01ffcc4e5820111025f31770ae17100ba66d17f239e50efe345ccfe2418b2bf0",
    ("sae4-ft", "cah", 1.0):
        "a2b1c772bef458db3af0f949cb00bfb4a45608095a0ce180662a3c37a229bb36",
    ("sae4-ft", "cah", 1.3):
        "3e74bd870a008ae59bcaf99e4a0c24af60ca2eb9726eb7e0af3936426b4aac94",
    ("sae4-ft", "exact", 1.0):
        "955f1b4154aa4387e13aa6f40b1035a9c4dac2ea62402488293f5b0353705687",
    ("sae4-ft", "exact", 1.3):
        "3e74bd870a008ae59bcaf99e4a0c24af60ca2eb9726eb7e0af3936426b4aac94",
    ("sae4-ft", "ga", 1.0):
        "5620a7b16eb0f10c08cb6327267b45238829c2c6f9b95dbfa9cd00b14ce31b35",
    ("sae4-ft", "ga", 1.3):
        "3e74bd870a008ae59bcaf99e4a0c24af60ca2eb9726eb7e0af3936426b4aac94",
}


@pytest.mark.parametrize("instance, solver, beta", sorted(DIGESTS))
def test_assignment_digest_pinned(instance, solver, beta):
    hg = build_hypergraph(INSTANCES[instance]())
    params = CriterionParams(alpha=default_alpha(hg), beta=beta)
    asg = SOLVERS[solver](hg, params)
    text = json.dumps(asg.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DIGESTS[instance, solver, beta]
