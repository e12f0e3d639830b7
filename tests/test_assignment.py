from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_assignments,
    oracle_criterion,
    oracle_minimum,
    oracle_payloads,
    random_hypergraph,
    subset_sum_half,
)
from flexseg import assignment as asg_mod
from flexseg.assignment import (
    TABLE_MAX_ECUS,
    CriterionParams,
    _TableState,
    _WalkState,
    default_alpha,
    evaluate_criterion,
    export_lp,
    pinned_ecu,
    solve_cah,
    solve_exact,
    solve_ga,
)
from flexseg.generator import reduce_partition
from flexseg.hypergraph import Hypergraph, build_hypergraph
from flexseg.model import Signal

EXAMPLE1_OPT = 40 + 20 / 52

# The two evaluator paths; the edge walk is the reference.
STATES = (_TableState, _WalkState)


def example1_hg(example1) -> Hypergraph:
    return build_hypergraph(example1)


def test_params_validation():
    with pytest.raises(ValueError):
        CriterionParams(alpha=-0.1)
    with pytest.raises(ValueError):
        CriterionParams(alpha=0.0, beta=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_weights(value):
    with pytest.raises(ValueError, match="alpha"):
        CriterionParams(alpha=value)
    with pytest.raises(ValueError, match="beta"):
        CriterionParams(alpha=0.0, beta=value)


def test_default_alpha_is_inverse_total_payload(example1):
    hg = build_hypergraph(example1)
    assert default_alpha(hg) == pytest.approx(1 / 52)


def test_evaluate_example1_reference_assignment(example1):
    hg = build_hypergraph(example1)
    params = CriterionParams(alpha=1 / 52, beta=1.0)
    p_a, p_b, p_g, crit = evaluate_criterion(hg, {3: "B", 4: "B", 5: "A"}, params)
    assert (p_a, p_b, p_g) == (40, 40, 20)
    assert crit == pytest.approx(EXAMPLE1_OPT, abs=1e-9)
    # scoring one map builds no coverage table
    assert "uncovered" not in vars(hg)
    # and the independent enumeration confirms it is the minimum
    assert oracle_minimum(hg, 1 / 52, 1.0) == pytest.approx(EXAMPLE1_OPT, abs=1e-9)


def test_evaluate_all_on_a():
    rng = random.Random(5)
    for _ in range(10):
        hg = random_hypergraph(rng)
        params = CriterionParams(alpha=0.0, beta=1.0)
        channel_of = {u: "A" for u in hg.free_ecus}
        p_a, p_b, p_g, crit = evaluate_criterion(hg, channel_of, params)
        assert p_b == hg.ft_weight_bytes
        assert p_g == 0
        assert crit == max(p_a, hg.ft_weight_bytes)


def test_evaluate_empty_hypergraph():
    hg = Hypergraph(edges={}, free_ecus=(), ft_weight_bytes=0, total_weight_bytes=0)
    params = CriterionParams(alpha=0.5, beta=1.0)
    assert evaluate_criterion(hg, {}, params) == (0, 0, 0, 0)


def test_evaluate_missing_ecu(example1):
    hg = build_hypergraph(example1)
    with pytest.raises(ValueError, match="ECU 5"):
        evaluate_criterion(hg, {3: "A", 4: "A"}, CriterionParams(alpha=0.0))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 0.1), st.floats(1 / 8, 8))
def test_channel_relabel_symmetry(seed, alpha, beta):
    # Mirroring a map swaps P_A and P_B, so at beta = 1 the criterion stays
    # and at any beta crit(mirror, alpha, beta) = beta * crit(map, alpha/beta, 1/beta).
    rng = random.Random(seed)
    hg = random_hypergraph(rng, max_free=8, max_edges=15)
    channel_of = {u: rng.choice("AB") for u in hg.free_ecus}
    flipped = {u: "B" if c == "A" else "A" for u, c in channel_of.items()}
    p_a, p_b, p_g, crit = evaluate_criterion(hg, channel_of, CriterionParams(alpha, 1.0))
    q_a, q_b, q_g, crit2 = evaluate_criterion(hg, flipped, CriterionParams(alpha, 1.0))
    assert (q_a, q_b, q_g) == (p_b, p_a, p_g)
    assert crit2 == crit
    mirrored = evaluate_criterion(hg, flipped, CriterionParams(alpha, beta))[3]
    scaled = evaluate_criterion(hg, channel_of, CriterionParams(alpha / beta, 1 / beta))[3]
    assert mirrored == pytest.approx(beta * scaled, rel=1e-12)
    table = _TableState(hg)
    mask = sum(b for u, b in table.bit.items() if channel_of[u] == "A")
    table.load(table.full ^ mask)
    assert table.payloads() == (q_a, q_b, q_g)
    assert table.criterion(CriterionParams(alpha, beta)) == mirrored


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 0.1), st.floats(1 / 8, 8))
def test_evaluate_matches_loaded_state(seed, alpha, beta):
    # the one-shot per-edge sum gives the payloads and the very criterion
    # float of the solvers' evaluator loaded with the same map
    rng = random.Random(seed)
    hg = random_hypergraph(rng)
    channel_of = {u: rng.choice("AB") for u in hg.free_ecus}
    params = CriterionParams(alpha, beta)
    for make in STATES:
        state = make(hg)
        state.load(sum(b for u, b in state.bit.items() if channel_of[u] == "A"))
        assert evaluate_criterion(hg, channel_of, params) == (
            *state.payloads(), state.criterion(params))


def test_all_common_edges_do_not_count(example1):
    # a signal with no one-port endpoint loads neither channel here, but its
    # payload still sets the default alpha
    common = Signal(id=11, transmitter=1, period_cycles=1, payload_bytes=30,
                    release_ms=0.0, deadline_ms=2.0, fault_tolerant=False,
                    receivers=frozenset({2}))
    inst = dataclasses.replace(example1, signals=example1.signals + (common,))
    params = CriterionParams(alpha=1.0, beta=1.0)
    channel_of = {3: "B", 4: "B", 5: "A"}
    assert evaluate_criterion(build_hypergraph(inst), channel_of, params) == \
        evaluate_criterion(build_hypergraph(example1), channel_of, params)
    assert default_alpha(build_hypergraph(inst)) == pytest.approx(1 / 82)


# --- exact solver -----------------------------------------------------------

def test_exact_example1(example1):
    hg = build_hypergraph(example1)
    result = solve_exact(hg, CriterionParams(alpha=1 / 52, beta=1.0))
    assert result.optimal
    assert result.criterion == pytest.approx(EXAMPLE1_OPT, abs=1e-9)
    # ECU 5 ends up opposite ECUs 3 and 4 (up to relabeling)
    assert result.channel_of[3] == result.channel_of[4] != result.channel_of[5]


def test_exact_single_free_ecu_self_loop():
    for w, ft in [(7, 0), (3, 5)]:
        hg = Hypergraph(edges={frozenset({1}): w}, free_ecus=(1,),
                        ft_weight_bytes=ft, total_weight_bytes=w + ft)
        result = solve_exact(hg, CriterionParams(alpha=0.0, beta=1.0))
        assert result.channel_of == {1: "A"}
        assert result.criterion == max(w + ft, ft)


def test_exact_partition_multiset():
    hg = reduce_partition([3, 1, 1, 2, 2, 1])
    assert subset_sum_half([3, 1, 1, 2, 2, 1])
    result = solve_exact(hg, CriterionParams(alpha=0.0, beta=1.0))
    assert result.criterion == 5


def test_exact_matches_enumeration():
    rng = random.Random(42)
    params = CriterionParams(alpha=0.02, beta=1.0)
    for _ in range(40):
        hg = random_hypergraph(rng, max_free=9, max_edges=20)
        result = solve_exact(hg, params)
        assert result.optimal
        assert result.criterion == oracle_minimum(hg, params.alpha, params.beta)


BETAS = st.one_of(st.just(1.0), st.floats(1 / 8, 8))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 0.1), BETAS)
def test_exact_matches_enumeration_at_any_beta(seed, alpha, beta):
    # the pinned search is exact over maps with the pin on A; at beta = 1
    # mirror images score alike, so that is the unrestricted minimum
    hg = random_hypergraph(random.Random(seed), max_free=8, max_edges=20)
    params = CriterionParams(alpha=alpha, beta=beta)
    exact = solve_exact(hg, params)
    assert exact.criterion == pytest.approx(
        oracle_minimum(hg, alpha, beta, pin=pinned_ecu(hg)), rel=1e-12)
    assert exact.optimal == (beta == 1)
    unrestricted = oracle_minimum(hg, alpha, beta)
    if beta == 1:
        assert exact.criterion == pytest.approx(unrestricted, rel=1e-12)
    # cah searches both channels for every ECU, so away from beta = 1 it
    # may beat the pinned search, but never the enumeration
    cah = solve_cah(hg, params, tries_count=10, rng_seed=seed)
    assert cah.criterion >= unrestricted - 1e-9
    if beta == 1:
        assert cah.criterion >= exact.criterion - 1e-9


def test_exact_beta_not_one_respects_pin():
    rng = random.Random(13)
    for _ in range(15):
        hg = random_hypergraph(rng, max_free=8, max_edges=15)
        params = CriterionParams(alpha=0.01, beta=1.7)
        result = solve_exact(hg, params)
        assert not result.optimal
        assert result.channel_of[pinned_ecu(hg)] == "A"
        assert result.criterion == pytest.approx(
            oracle_minimum(hg, params.alpha, params.beta, pin=pinned_ecu(hg)))


def test_exact_pin_not_optimal_away_from_beta_one():
    # ECU 1 (item 3) is pinned to A; the optimum at beta = 2 puts it on B
    hg = reduce_partition([3, 2])
    params = CriterionParams(alpha=0.0, beta=2.0)
    result = solve_exact(hg, params)
    assert result.criterion == 6
    assert not result.optimal
    assert oracle_minimum(hg, params.alpha, params.beta) == 4


def test_exact_time_limit_returns_incumbent():
    rng = random.Random(3)
    hg = random_hypergraph(rng, max_free=12, max_edges=40)
    result = solve_exact(hg, CriterionParams(alpha=0.0, beta=1.0), time_limit_ms=0)
    assert not result.optimal
    assert set(result.channel_of) == set(hg.free_ecus)


def test_bound_admissible_on_partial_assignments():
    rng = random.Random(17)
    params = CriterionParams(alpha=0.05, beta=1.3)
    for _ in range(25):
        hg = random_hypergraph(rng, max_free=7, max_edges=12)
        fixed = [u for u in hg.free_ecus if rng.random() < 0.5]
        partial = {u: rng.choice("AB") for u in fixed}
        bounds = []
        for make in STATES:
            st = make(hg)
            for u, ch in partial.items():
                st.assign(u, ch)
            bounds.append(st.bound_at(params, st.sum_a, st.sum_b, st.sum_g, st.sum_float))
        bound = bounds[0]
        assert bounds == [bound] * len(STATES)
        rest = [u for u in hg.free_ecus if u not in partial]
        for completion in brute_force_assignments(
                Hypergraph(edges={}, free_ecus=tuple(rest), ft_weight_bytes=0,
                           total_weight_bytes=0)):
            full = {**partial, **completion}
            assert bound <= oracle_criterion(
                hg, full, params.alpha, params.beta) + 1e-9


# --- local search -----------------------------------------------------------

def test_cah_example1_hits_optimum(example1):
    hg = build_hypergraph(example1)
    result = solve_cah(hg, CriterionParams(alpha=1 / 52, beta=1.0),
                       tries_count=100, rng_seed=0)
    assert result.criterion == pytest.approx(EXAMPLE1_OPT, abs=1e-9)


def test_cah_single_free_ecu_matches_exact():
    hg = Hypergraph(edges={frozenset({1}): 9}, free_ecus=(1,),
                    ft_weight_bytes=2, total_weight_bytes=11)
    params = CriterionParams(alpha=0.1, beta=1.0)
    assert solve_cah(hg, params, tries_count=3, rng_seed=0).criterion == \
        solve_exact(hg, params).criterion


def test_cah_requires_positive_tries(example1):
    hg = build_hypergraph(example1)
    with pytest.raises(ValueError):
        solve_cah(hg, CriterionParams(alpha=0.0), tries_count=0)


def test_cah_near_optimal_on_random_instances():
    rng = random.Random(23)
    params = CriterionParams(alpha=0.01, beta=1.0)
    gaps = []
    for _ in range(30):
        hg = random_hypergraph(rng, max_free=10, max_edges=25)
        exact = solve_exact(hg, params)
        heur = solve_cah(hg, params, tries_count=200, rng_seed=1)
        assert heur.criterion >= exact.criterion - 1e-9
        gaps.append((heur.criterion - exact.criterion) / exact.criterion
                    if exact.criterion else 0.0)
    assert sum(gaps) / len(gaps) <= 0.01


def test_cah_deterministic(example1):
    hg = build_hypergraph(example1)
    params = CriterionParams(alpha=1 / 52, beta=1.0)
    a = solve_cah(hg, params, tries_count=50, rng_seed=7)
    b = solve_cah(hg, params, tries_count=50, rng_seed=7)
    assert a.channel_of == b.channel_of
    assert a.criterion == b.criterion


def test_delta_evaluation_matches_full_reevaluation():
    rng = random.Random(29)
    params = CriterionParams(alpha=0.04, beta=1.2)
    for _ in range(15):
        hg = random_hypergraph(rng, max_free=8, max_edges=20)
        states = [make(hg) for make in STATES]
        channel_of = {}
        for u in hg.free_ecus:
            channel_of[u] = rng.choice("AB")
            for state in states:
                state.assign(u, channel_of[u])
        for _ in range(60):
            u = rng.choice(hg.free_ecus)
            channel_of[u] = "B" if channel_of[u] == "A" else "A"
            for state in states:
                state.move(u)
                assert state.payloads() == oracle_payloads(hg, channel_of)
                assert state.criterion(params) == pytest.approx(
                    oracle_criterion(hg, channel_of, params.alpha, params.beta))
        for _ in range(10):
            channel_of = {u: rng.choice("AB") for u in hg.free_ecus}
            mask = sum(1 << i for i, u in enumerate(hg.free_ecus) if channel_of[u] == "A")
            for state in states:
                state.load(mask)
                assert state.assigned == channel_of
                assert state.payloads() == oracle_payloads(hg, channel_of)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 0.1), st.floats(1 / 8, 8))
def test_split_and_move_delta_match_applied_moves(seed, alpha, beta):
    rng = random.Random(seed)
    hg = random_hypergraph(rng, max_free=8, max_edges=20)
    params = CriterionParams(alpha=alpha, beta=beta)
    partial = {u: rng.choice("AB") for u in hg.free_ecus if rng.random() < 0.5}
    seen = [check_split_and_move_delta(make(hg), hg, partial, params) for make in STATES]
    assert seen == [seen[-1]] * len(STATES)


def check_split_and_move_delta(state, hg, partial, params) -> list[tuple[int, ...]]:
    """Apply each candidate from its score and check the resulting map
    against the oracle, then undo it; return the sums and every
    candidate's split or delta, for comparing paths."""
    def check(channel_of):
        assert state.assigned == channel_of
        assert state.payloads() == oracle_payloads(hg, channel_of)
        assert state.sum_float == sum(w for ends, w in hg.edges.items()
                                      if not any(u in channel_of for u in ends))

    for u, ch in partial.items():
        state.assign(u, ch)
    check(partial)
    sums = (state.sum_a, state.sum_b, state.sum_g, state.sum_float)
    before = state.saved()
    seen = [sums]
    for u in state.bit:
        if u in partial:
            delta = d_a, d_b, d_g = state.move_delta(u)
            seen.append(delta)
            state.move(u, delta)
            check({**partial, u: "B" if partial[u] == "A" else "A"})
            assert state.criterion(params) == state.criterion_at(
                params, sums[0] + d_a, sums[1] + d_b, sums[2] + d_g)
            state.move(u)
        else:
            split = floating, on_b, on_a = state.add_split(u)
            seen.append(split)
            for ch, child in (("A", (sums[0] + floating + on_b, sums[1], sums[2] + on_b)),
                              ("B", (sums[0], sums[1] + floating + on_a, sums[2] + on_a))):
                state.assign(u, ch, split)
                check({**partial, u: ch})
                assert state.bound_at(
                    params, state.sum_a, state.sum_b, state.sum_g, state.sum_float
                ) == state.bound_at(params, *child, sums[3] - floating)
                assert state.criterion(params) == state.criterion_at(params, *child)
                state.restore(before)
        assert (state.sum_a, state.sum_b, state.sum_g, state.sum_float) == sums
        check(partial)
    return seen


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_coverage_table_matches_edge_sums(seed):
    hg = random_hypergraph(random.Random(seed), max_free=8, max_edges=30)
    check_coverage_table(hg)


def test_coverage_table_across_blocks():
    # more ECUs than one block of the transform holds
    rng = random.Random(5)
    free = tuple(range(1, 13))
    edges = {}
    for _ in range(40):
        ends = frozenset(rng.sample(free, rng.randint(1, 4)))
        edges[ends] = edges.get(ends, 0) + rng.randint(1, 2**40)
    check_coverage_table(Hypergraph(edges=edges, free_ecus=free, ft_weight_bytes=0,
                                    total_weight_bytes=sum(edges.values())))


def check_coverage_table(hg):
    """Payload with an endpoint in S, from the table, against a sum over
    the edges, for every subset S of the free ECUs."""
    table = hg.uncovered
    assert len(table) == 2 ** len(hg.free_ecus)
    assert table[0] == sum(hg.edges.values())
    for s in range(len(table)):
        members = {u for i, u in enumerate(hg.free_ecus) if s >> i & 1}
        assert table[0] - table[s] == sum(w for ends, w in hg.edges.items() if ends & members)


def test_walk_above_table_cap():
    rng = random.Random(3)
    free = tuple(range(1, TABLE_MAX_ECUS + 2))
    edges = {}
    for _ in range(30):
        ends = frozenset(rng.sample(free, rng.randint(1, 3)))
        edges[ends] = edges.get(ends, 0) + rng.randint(1, 20)
    big = Hypergraph(edges={k: edges[k] for k in sorted(edges, key=sorted)}, free_ecus=free,
                     ft_weight_bytes=4, total_weight_bytes=sum(edges.values()) + 4)
    small = random_hypergraph(rng, max_free=6)
    params = CriterionParams(alpha=0.01, beta=1.1)
    for hg in (big, small):
        for result in (solve_cah(hg, params, tries_count=3),
                       solve_ga(hg, params, max_generations=5),
                       solve_exact(hg, params, time_limit_ms=50)):
            assert set(result.channel_of) == set(hg.free_ecus)
            assert (result.payload_a, result.payload_b, result.payload_gw,
                    result.criterion) == evaluate_criterion(hg, result.channel_of, params)
    # the table is a cached property of the hypergraph, built on first use
    assert "uncovered" not in vars(big)
    assert "uncovered" in vars(small)


def test_solvers_agree_on_both_paths(monkeypatch):
    rng = random.Random(41)
    hgs = [random_hypergraph(rng, max_free=10, max_edges=30) for _ in range(8)]
    params = [CriterionParams(alpha=0.02, beta=beta) for beta in (1.0, 0.8, 1.4)]

    def results():
        return [solver(hg, p).to_json_dict() for hg in hgs for p in params
                for solver in (solve_exact, lambda h, q: solve_cah(h, q, tries_count=20),
                               lambda h, q: solve_ga(h, q, max_generations=10))]

    with_table = results()
    monkeypatch.setattr(asg_mod, "TABLE_MAX_ECUS", -1)
    assert results() == with_table


# --- genetic algorithm ------------------------------------------------------

def test_ga_example1_sandwich(example1):
    hg = build_hypergraph(example1)
    params = CriterionParams(alpha=1 / 52, beta=1.0)
    result = solve_ga(hg, params, rng_seed=0)
    all_on_a = evaluate_criterion(hg, {u: "A" for u in hg.free_ecus}, params)[3]
    assert EXAMPLE1_OPT - 1e-9 <= result.criterion <= all_on_a


def test_ga_single_free_ecu_exact():
    hg = Hypergraph(edges={frozenset({1}): 9}, free_ecus=(1,),
                    ft_weight_bytes=0, total_weight_bytes=9)
    params = CriterionParams(alpha=0.0, beta=1.0)
    assert solve_ga(hg, params, rng_seed=0).criterion == \
        solve_exact(hg, params).criterion


def test_ga_not_better_than_cah_on_average():
    rng = random.Random(31)
    params = CriterionParams(alpha=0.01, beta=1.0)
    cah_total = ga_total = 0.0
    for _ in range(15):
        hg = random_hypergraph(rng, max_free=10, max_edges=25)
        cah_total += solve_cah(hg, params, tries_count=100, rng_seed=2).criterion
        ga_total += solve_ga(hg, params, rng_seed=2).criterion
    assert ga_total >= cah_total - 1e-9


def test_ga_deterministic(example1):
    hg = build_hypergraph(example1)
    params = CriterionParams(alpha=1 / 52, beta=1.0)
    assert solve_ga(hg, params, rng_seed=4).channel_of == \
        solve_ga(hg, params, rng_seed=4).channel_of


# --- degenerate inputs ------------------------------------------------------

def test_solvers_accept_no_free_ecus():
    hg = Hypergraph(edges={}, free_ecus=(), ft_weight_bytes=12, total_weight_bytes=12)
    params = CriterionParams(alpha=0.5, beta=1.0)
    for solver in (solve_exact, lambda h, p: solve_cah(h, p, tries_count=1),
                   lambda h, p: solve_ga(h, p)):
        result = solver(hg, params)
        assert result.channel_of == {}
        assert (result.payload_a, result.payload_b) == (12, 12)


# --- LP export --------------------------------------------------------------

def test_lp_export_structure(tmp_path, example1):
    hg = build_hypergraph(example1)
    path = tmp_path / "model.lp"
    export_lp(hg, CriterionParams(alpha=1 / 52, beta=1.0), path)
    text = path.read_text()
    assert text.startswith("Minimize")
    assert text.rstrip().endswith("End")
    binaries = text.split("Binaries\n")[1].split("\n")[0].split()
    assert binaries == ["x3", "x4", "x5"]
    # constraint count stays within 6 + 2 * sum(|one-port endpoints per edge|)
    n_constraints = sum(
        1 for line in text.splitlines()
        if ":" in line and not line.startswith((" obj", "Minimize")))
    limit = 6 + 2 * sum(len(ends) for ends in hg.edges)
    assert n_constraints <= limit
    assert f" pin: x{pinned_ecu(hg)} = 1" in text


def test_lp_export_empty_edges(tmp_path):
    hg = Hypergraph(edges={}, free_ecus=(), ft_weight_bytes=0, total_weight_bytes=0)
    path = tmp_path / "empty.lp"
    export_lp(hg, CriterionParams(alpha=0.0, beta=1.0), path)
    text = path.read_text()
    assert "PA = 0" in text and "PB = 0" in text
    assert "Binaries" not in text
