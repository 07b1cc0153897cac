"""Central-financing tests: set evaluation, greedy and exact solvers,
convenience orders, the staircase check, and the LP export."""

import dataclasses
import itertools
import json
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SHARES,
    brute_z,
    coprime_instance,
    make_instance,
    one_ward,
    parse_lp,
    reference_exact,
    reference_greedy,
    reference_hospital_order,
    solve_lp_external,
    tie_heavy_instance,
    unpruned_best,
    with_budget_share,
    with_ward_free_costs,
)
from wardalloc import (
    EMPTY_EXCELLENCE,
    OUTSIDE,
    PROFILES,
    AssumptionViolationError,
    BudgetExceededError,
    ExcellenceSet,
    InstanceTooLargeError,
    InvalidInstanceError,
    TotalOrders,
    admissible,
    central_plan,
    check_staircase,
    evaluate_Z,
    exact_solve,
    export_ilp,
    generate_scenario,
    greedy_solve,
    hospital_order,
    plan_to_dict,
    save_scenario,
    total_orders,
    ward_order,
)
from wardalloc.cli import _plan_text, main


def line_instance(positions, weights, *, out=1000, size_per_ward=None, nr=1,
                  upgrade=1, budget=100):
    """Hospitals on a line; internal cost is the district-hospital distance,
    identical across wards, with a uniform upgrade cost."""
    nq = len(positions)
    total = sum(weights)
    pop = tuple(Fraction(w, total) for w in weights)
    if size_per_ward is None:
        size_per_ward = total
    sizes = tuple(size_per_ward for _ in range(nr))
    internal = [
        [[abs(p - q) for _ in range(nr)] for q in positions] for p in positions
    ]
    outs = [[out] * nr for _ in range(nq)]
    excel = [[upgrade] * nr for _ in range(nq)]
    return make_instance(
        sizes, pop, excel=excel, internal=internal, out=outs, budget=budget
    )


def members_of(solution):
    return set(solution.excellence.members)


def with_mixed_prices(inst, seed):
    """The instance with each upgrade priced 0..2, so that plans of equal
    spend can differ in size."""
    rng = random.Random(seed)
    excel = [[rng.randint(0, 2) for _ in row] for row in inst.excel_cost]
    return dataclasses.replace(inst, excel_cost=excel)


# ---------------------------------------------------------------------------
# excellence sets and evaluation


def test_excellence_set_basics(comparable_market):
    t = ExcellenceSet.of([("q1", "r2"), ("q1", "r1")])
    assert len(t) == 2
    assert ("q1", "r1") in t
    assert ("q2", "r1") not in t
    assert ["q1", "r1"] in t
    assert "ab" not in ExcellenceSet.of([("a", "b")])  # a string is not a pair
    assert ExcellenceSet.of(pair for pair in [("q1", "r2"), ("q1", "r1")]) == t
    assert t.sorted_members(comparable_market) == (("q1", "r1"), ("q1", "r2"))
    assert t.cost(comparable_market) == 2
    assert len(EMPTY_EXCELLENCE) == 0


def test_excellence_set_rejects_unknown_pair(comparable_market):
    # every use converts the ids once, through the instance's own lookup,
    # and that lookup names the unknown id and its kind
    for pair, message in (
        (("q1", "zz"), r"^unknown ward id 'zz'$"),
        (("zz", "r1"), r"^unknown hospital id 'zz'$"),
    ):
        t = ExcellenceSet.of([pair])
        uses = (
            t.cost,
            t.sorted_members,
            lambda inst: admissible(t, inst),
            lambda inst: evaluate_Z(t, inst),
            lambda inst: export_ilp(inst, forced_excellence=t),
        )
        for use in uses:
            with pytest.raises(InvalidInstanceError, match=message):
                use(comparable_market)


@pytest.mark.parametrize(
    "pairs, message",
    [
        (["ax"], r"excellence members\[0\]: expected a list, got str"),
        ("ax", r"excellence members\[0\]: expected a list, got str"),
        ([("a", "x"), ("a", "x", "y")], r"excellence members\[1\]: expected 2 entries, got 3"),
        ([("a",)], r"excellence members\[0\]: expected 2 entries, got 1"),
        (5, r"excellence members: 'int' object is not iterable"),
        ([(["a"], "x")], r"excellence members\[0\]: ids must be non-empty strings"),
        ([("a", "")], r"excellence members\[0\]: ids must be non-empty strings"),
    ],
    ids=["string-member", "bare-string", "triple", "single", "int", "list-id", "empty-id"],
)
def test_excellence_set_rejects_members_that_are_not_pairs(pairs, message):
    # split into characters, "ax" would pass as the pair ("a", "x")
    halves = (Fraction(1, 2), Fraction(1, 2))
    inst = make_instance((10, 10), halves, budget=2, hospitals=("a", "b"), wards=("x", "y"))
    with pytest.raises(InvalidInstanceError, match=f"^{message}$"):
        evaluate_Z(ExcellenceSet.of(pairs), inst)


@pytest.mark.parametrize(
    "member, message",
    [
        ("ax", r"excellence member 'ax': expected a list, got str"),
        (("a", "x", "y"), r"excellence member \('a', 'x', 'y'\): expected 2 entries, got 3"),
        (5, r"excellence member 5: expected a list, got int"),
        (("a", 5), r"excellence member \('a', 5\): ids must be non-empty strings"),
    ],
    ids=["string", "triple", "int", "int-id"],
)
def test_excellence_set_constructor_rejects_members_that_are_not_pairs(member, message):
    # the constructor keeps the rule `of` keeps; unpacked, "ax" would score
    # as the pair ("a", "x")
    halves = (Fraction(1, 2), Fraction(1, 2))
    inst = make_instance((10, 10), halves, budget=2, hospitals=("a", "b"), wards=("x", "y"))
    with pytest.raises(InvalidInstanceError, match=f"^{message}$"):
        evaluate_Z(ExcellenceSet(frozenset({member})), inst)


@pytest.mark.parametrize("members", [5, None, [("a", "x")]], ids=["int", "none", "list"])
def test_excellence_set_constructor_takes_a_frozenset(members):
    message = r"^excellence members: expected a frozenset, got "
    with pytest.raises(InvalidInstanceError, match=message):
        ExcellenceSet(members)


def test_admissible_respects_budget():
    inst = make_instance(
        (10,), (Fraction(1),), excel=[[7]], budget=7
    )
    assert admissible(ExcellenceSet.of([("q1", "r1")]), inst)
    tight = make_instance((10,), (Fraction(1),), excel=[[8]], budget=7)
    assert not admissible(ExcellenceSet.of([("q1", "r1")]), tight)


def test_evaluate_empty_set_sends_everyone_outside(comparable_market):
    sol = evaluate_Z(EMPTY_EXCELLENCE, comparable_market)
    assert sol.excel_cost_part == 0
    assert all(
        sol.assignment[c] == OUTSIDE
        for c in comparable_market.demand_cells()
    )
    assert sol.z_value == sol.patient_cost_part


def test_evaluate_matches_brute_force():
    for seed in range(15):
        inst = generate_scenario(seed, (2, 3))
        pairs = [(q, r) for q in inst.hospitals for r in inst.wards]
        for size in range(len(pairs) + 1):
            for members in itertools.combinations(pairs, size):
                t = ExcellenceSet.of(members)
                if not admissible(t, inst):
                    continue
                sol = evaluate_Z(t, inst)
                assert sol.z_value == brute_z(inst, members)
                assert sol.z_value == sol.excel_cost_part + sol.patient_cost_part


def test_evaluate_rejects_over_budget():
    inst = make_instance((10,), (Fraction(1),), excel=[[8]], budget=7)
    with pytest.raises(BudgetExceededError):
        evaluate_Z(ExcellenceSet.of([("q1", "r1")]), inst)


def test_evaluate_tie_prefers_outside():
    inst = make_instance(
        (10,),
        (Fraction(1),),
        internal=[[[5]]],
        out=[[5]],
        budget=10,
    )
    sol = evaluate_Z(ExcellenceSet.of([("q1", "r1")]), inst)
    (cell,) = inst.demand_cells()
    assert sol.assignment[cell] == OUTSIDE


def test_evaluate_tie_prefers_lower_hospital_index():
    inst = make_instance(
        (10,),
        (Fraction(1, 2), Fraction(1, 2)),
        internal=[[[3], [3]], [[3], [3]]],
        out=[[9], [9]],
        budget=10,
    )
    sol = evaluate_Z(
        ExcellenceSet.of([("q2", "r1"), ("q1", "r1")]), inst
    )
    for cell in inst.demand_cells():
        assert sol.assignment[cell] == ("q1", "r1")


def test_evaluate_assigns_every_cell():
    inst = generate_scenario(21, (3, 2))
    sol = evaluate_Z(EMPTY_EXCELLENCE, inst)
    assert set(sol.assignment) == set(inst.demand_cells())


# ---------------------------------------------------------------------------
# greedy solver


def test_greedy_stops_without_budget():
    # budget below the cheapest upgrade: nothing can be bought
    inst = make_instance(
        (10, 10),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[5, 6], [7, 8]],
        internal=[[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        out=[[9, 9], [9, 9]],
        budget=4,
    )
    sol = greedy_solve(inst)
    assert members_of(sol) == set()
    assert sol.trace == ()
    assert sol.z_value == 9 * 20


def test_greedy_stops_without_improvement():
    # outside treatment dominates everywhere, so upgrades never pay off
    inst = make_instance(
        (10, 10),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[1, 1], [1, 1]],
        internal=[[[5, 5], [5, 5]], [[5, 5], [5, 5]]],
        out=[[2, 2], [2, 2]],
        budget=100,
    )
    sol = greedy_solve(inst)
    assert members_of(sol) == set()
    assert all(
        sol.assignment[c] == OUTSIDE for c in inst.demand_cells()
    )


def test_greedy_picks_obvious_win():
    inst = make_instance(
        (100,),
        (Fraction(1),),
        excel=[[10]],
        internal=[[[1]]],
        out=[[50]],
        budget=10,
    )
    sol = greedy_solve(inst)
    assert members_of(sol) == {("q1", "r1")}
    assert sol.z_value == 10 + 100 * 1


def test_greedy_trace_is_strictly_improving():
    for seed in range(25):
        inst = generate_scenario(seed, (3, 3))
        sol = greedy_solve(inst)
        spent = sum(
            (
                inst.excel_cost[inst.hospital_index(q)][inst.ward_index(r)]
                for q, r in sol.excellence.members
            ),
            Fraction(0),
        )
        assert spent <= inst.budget
        previous = brute_z(inst, [])
        for step in sol.trace:
            assert step.z_before == previous
            assert step.z_after < step.z_before
            previous = step.z_after
        if sol.trace:
            assert sol.trace[-1].z_after == sol.z_value
        assert len(sol.trace) == len(sol.excellence.members)
        assert sol.z_value == brute_z(inst, sol.excellence.members)


def greedy_trace(solution):
    return [(step.added, step.z_before, step.z_after) for step in solution.trace]


@pytest.mark.parametrize("profile", PROFILES)
def test_greedy_matches_reference_on_generated(profile):
    for seed in range(12):
        for dims in ((2, 2), (2, 3), (3, 3)):
            inst = generate_scenario(seed, dims, profile)
            sol = greedy_solve(inst)
            trace = reference_greedy(inst)
            assert greedy_trace(sol) == trace
            assert members_of(sol) == {added for added, _, _ in trace}


def test_greedy_matches_reference_on_ties():
    for seed in range(150):
        inst = tie_heavy_instance(seed)
        sol = greedy_solve(inst)
        trace = reference_greedy(inst)
        assert greedy_trace(sol) == trace
        assert members_of(sol) == {added for added, _, _ in trace}
        assert sol.z_value == (trace[-1][2] if trace else brute_z(inst, []))


def test_greedy_matches_reference_when_pairs_stop_fitting():
    # Mixed prices and budget shares make pairs stop fitting partway through
    # a run; tie-heavy costs make many z changes equal, so the (qi, ri) order
    # decides between keys scored at different steps.
    mixed = [
        with_mixed_prices(tie_heavy_instance(seed, dims), seed)
        for seed in range(40)
        for dims in ((3, 4), (4, 3), (2, 5))
    ]
    shares = [
        with_budget_share(generate_scenario(seed, dims, profile), share)
        for seed in range(4)
        for dims in ((3, 4), (4, 3))
        for profile in PROFILES
        for share in SHARES
    ]
    for inst in mixed + shares:
        sol = greedy_solve(inst)
        trace = reference_greedy(inst)
        assert greedy_trace(sol) == trace
        assert members_of(sol) == {added for added, _, _ in trace}


def near_tie_market(magnitude):
    """2x1 market: upgrading q2 lowers z by magnitude - 1, exactly 1 more
    than upgrading q1, and the budget buys one upgrade."""
    return make_instance(
        (2,),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[1], [1]],
        internal=[[[1], [0]], [[0], [0]]],
        out=[[magnitude], [0]],
        budget=1,
    )


@pytest.mark.parametrize("magnitude", [10**20, 10**400], ids=["same float", "past floats"])
def test_greedy_decides_equal_floats_exactly(magnitude):
    # at 10**20 both z changes round to one float, and at 10**400 neither
    # has one; the exact z change, not the pair order, must pick q2
    inst = near_tie_market(magnitude)
    sol = greedy_solve(inst)
    assert greedy_trace(sol) == reference_greedy(inst)
    assert members_of(sol) == {("q2", "r1")}


# (numerator, denominator) pairs past the float range both ways
exponents = st.sampled_from([0, 1, 300, 320, 400])
rationals = st.builds(
    lambda n, d, e, f: (n * 10**e, d * 10**f),
    st.integers(-(10**20), 10**20),
    st.integers(1, 10**20),
    exponents,
    exponents,
)


@settings(max_examples=500, deadline=None)
@given(rationals, rationals)
def test_nearest_float_never_inverts_an_order(x, y):
    (n, d), (m, e) = x, y
    fx, fy = central_plan._nearest_float(n, d), central_plan._nearest_float(m, e)
    if fx < fy:  # both orders of each pair are drawn
        assert n * e < m * d


def test_greedy_rescores_only_popped_pairs(monkeypatch):
    # a full rescan at every step scores 24,380 to 85,197 pairs on these
    # instances; lazy scoring scores 803 to 1,578 (evaluate_Z's check included)
    calls = []
    score = central_plan._improvements

    def counted(*args):
        calls.append(args[2:])
        return score(*args)

    monkeypatch.setattr(central_plan, "_improvements", counted)
    for profile in ("unconstrained", "assumption4&5-satisfying"):
        for seed in range(3):
            inst = generate_scenario(seed, (30, 20), profile)
            calls.clear()
            greedy_solve(inst)
            assert 30 * 20 <= len(calls) <= 4 * 30 * 20


def test_greedy_never_beats_exact():
    for seed in range(40):
        inst = generate_scenario(seed, (2, 3))
        assert greedy_solve(inst).z_value >= exact_solve(inst).z_value


# ---------------------------------------------------------------------------
# exact solver


def test_exact_matches_unpruned_enumeration():
    generated = [generate_scenario(seed, (2, 2)) for seed in range(30)]
    ties = [tie_heavy_instance(seed) for seed in range(60)]
    # Several wards and up to 12 pairs, so ties span wards and plans get
    # pruned. With mixed prices, three of the four seeds hold an optimum that
    # pruning on z alone would lose; tie-heavy seed 1478 has two optimal plans
    # that only the sorted member order separates.
    wide = [
        with_budget_share(generate_scenario(seed, dims, profile), share)
        for seed, (dims, profile) in enumerate(
            [((3, 4), PROFILES[0]), ((4, 3), PROFILES[2]), ((2, 5), PROFILES[1])]
        )
        for share in SHARES
    ]
    wide += [tie_heavy_instance(seed, dims) for seed, dims in enumerate([(4, 3), (2, 5)])]
    wide.append(tie_heavy_instance(1478, (2, 2)))
    wide += [
        with_mixed_prices(tie_heavy_instance(seed, (3, 4)), seed) for seed in (1, 3, 5, 7)
    ]
    for inst in generated + ties + wide:
        sol = exact_solve(inst)
        z, size, indexed = unpruned_best(inst)
        assert sol.z_value == z
        assert len(sol.excellence) == size
        assert (
            tuple(
                sorted(
                    (inst.hospital_index(q), inst.ward_index(r))
                    for q, r in sol.excellence.members
                )
            )
            == indexed
        )


def test_exact_prefers_fewer_members_on_ties():
    # free upgrades that change nothing: the optimum must stay empty
    inst = make_instance(
        (10, 10),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[0, 0], [0, 0]],
        internal=[[[4, 4], [4, 4]], [[4, 4], [4, 4]]],
        out=[[4, 4], [4, 4]],
        budget=0,
    )
    sol = exact_solve(inst)
    assert members_of(sol) == set()


def test_exact_respects_budget():
    for seed in range(20):
        inst = generate_scenario(seed, (2, 3))
        sol = exact_solve(inst)
        assert sol.excel_cost_part <= inst.budget


def test_exact_solution_reproducible_by_evaluate():
    inst = generate_scenario(8, (3, 3))
    sol = exact_solve(inst)
    again = evaluate_Z(sol.excellence, inst)
    assert again.z_value == sol.z_value
    assert again.patient_cost_part == sol.patient_cost_part


def test_solver_bookkeeping_is_checked_against_evaluation(comparable_market):
    # a solver's running z that drifts from evaluate_Z of its choice is a bug
    z = evaluate_Z(EMPTY_EXCELLENCE, comparable_market).z_value
    with pytest.raises(AssertionError) as info:
        central_plan._checked_solution(comparable_market, (), z + 1)
    assert str(info.value) == (
        f"solver bookkeeping diverged from evaluation: {z} != {z + 1}"
    )


def test_exact_guard():
    # 2^19 subsets of the first ward alone are past the cap
    inst = generate_scenario(0, (19, 1))
    with pytest.raises(InstanceTooLargeError, match="524288 candidate plans"):
        exact_solve(inst)


def test_exact_guard_counts_the_whole_run(monkeypatch):
    # on 4x6 the guard counts at most 656 candidates (kept plans x 2^|Q|) in
    # any one ward but 1,840 in all; the run itself forms 334 pairs
    monkeypatch.setattr("wardalloc.central_plan.EXACT_ENUMERATION_CAP", 1000)
    with pytest.raises(InstanceTooLargeError, match="cap of 1000"):
        exact_solve(generate_scenario(1, (4, 6)))


def test_exact_logs_its_work_when_the_guard_stops_it(monkeypatch, caplog):
    # the line counts the four wards run before r5 would pass the cap
    monkeypatch.setattr("wardalloc.central_plan.EXACT_ENUMERATION_CAP", 1000)
    caplog.set_level(logging.DEBUG, logger="wardalloc.central_plan")
    with pytest.raises(InstanceTooLargeError, match="ward 'r5' would bring the run to 1184"):
        exact_solve(generate_scenario(1, (4, 6)))
    assert [r.getMessage() for r in caplog.records] == [
        "exact: subsets listed 64, on ward frontiers 17, plan-subset pairs 143, plans kept 34",
    ]


def test_exact_matches_the_subset_merge():
    # merging only each ward's frontier keeps the plans, tie-breaks included,
    # that merging all its fitting subsets keeps. With mixed prices a subset
    # can spend more than another for the same z and fewer members; 13 of
    # those 200 optima need such a subset, so a frontier cut on z alone fails
    ties = [tie_heavy_instance(seed) for seed in range(400)]
    for dims in ((4, 3), (3, 4)):
        ties += [tie_heavy_instance(seed, dims) for seed in range(100)]
        ties += [with_mixed_prices(tie_heavy_instance(seed, dims), seed) for seed in range(100)]
    generated = [
        with_budget_share(generate_scenario(seed, dims, profile), share)
        for dims in ((2, 2), (3, 3), (4, 4), (3, 5), (4, 6))
        for seed in range(5)
        for profile in PROFILES
        for share in SHARES
    ]
    # every cost over its own prime: z's denominator spans all the wards' scales
    coprime = [
        with_budget_share(coprime_instance(seed, dims, profile), share)
        for dims in ((2, 2), (3, 3), (4, 3), (3, 5))
        for seed in range(2)
        for profile in PROFILES
        for share in (Fraction(1, 4), Fraction(1, 2))
    ]
    for inst in ties + generated + coprime:
        assert plan_to_dict(exact_solve(inst)) == plan_to_dict(reference_exact(inst))


def test_exact_logs_the_pairs_it_merges(monkeypatch, caplog):
    # the merge meets only each frontier's prefix that fits the budget, and
    # the logged pair count is the records it hands _keep_better
    keep_better, merged = central_plan._keep_better, []

    def counted(records):
        records = list(records)
        merged.append(len(records))
        return keep_better(records)

    monkeypatch.setattr(central_plan, "_keep_better", counted)
    caplog.set_level(logging.DEBUG, logger="wardalloc.central_plan")
    for seed, share in ((0, Fraction(1, 16)), (1, Fraction(1, 4)), (2, Fraction(1, 2))):
        merged.clear()
        caplog.clear()
        exact_solve(with_budget_share(generate_scenario(seed, (4, 4)), share))
        (message,) = [r.getMessage() for r in caplog.records]
        pairs = int(message.split("plan-subset pairs ")[1].split(",")[0])
        assert pairs == sum(merged[1::2])  # frontier, merge, frontier, merge, ...


def brute_ward_frontier(inst, ri):
    """Ward ri's fitting subsets that no subset spending the same or less
    beats on (z, size, sorted members), listed from all 2^|Q| subsets and
    valued by brute_z, as (price, z change, size, members) sorted by price
    and key; and the number of fitting subsets."""
    z0 = brute_z(inst, [])
    fitting = []
    for size in range(inst.num_hospitals + 1):
        for qis in itertools.combinations(range(inst.num_hospitals), size):
            price = sum((inst.excel_cost[qi][ri] for qi in qis), Fraction(0))
            if price <= inst.budget:
                members = tuple((qi, ri) for qi in qis)
                named = [(inst.hospitals[qi], inst.wards[ri]) for qi in qis]
                fitting.append((price, brute_z(inst, named) - z0, size, members))
    frontier = [
        (price, *key)
        for price, *key in fitting
        if not any(p <= price and k < key for p, *k in fitting)
    ]
    return sorted(frontier), len(fitting)


def test_ward_frontier_is_the_undominated_subsets():
    instances = [
        with_budget_share(generate_scenario(seed, dims, profile), share)
        for dims in ((2, 2), (3, 2), (4, 3))
        for seed in range(2)
        for profile in PROFILES
        for share in SHARES
    ]
    instances += [tie_heavy_instance(seed) for seed in range(40)]
    # mixed prices let a subset spend more for the same z and fewer members
    instances += [
        with_mixed_prices(tie_heavy_instance(seed, dims), seed)
        for dims in ((4, 2), (3, 3))
        for seed in range(60)
    ]
    for inst in instances:
        model = inst._costs
        z_scale = central_plan._z_scale(model)
        n, nr = inst.num_hospitals * inst.num_wards, inst.num_wards
        for ri, outside in enumerate(central_plan._outside_costs(model)):
            frontier, listed = central_plan._ward_frontier(model, ri, outside, z_scale)
            found = [
                (
                    Fraction(s, model.price_scale),
                    Fraction(dz, z_scale),
                    size,
                    tuple(divmod(i, nr) for i in range(n) if -key >> n - 1 - i & 1),
                )
                for s, dz, size, key in frontier
            ]
            assert (found, listed) == brute_ward_frontier(inst, ri)


# ---------------------------------------------------------------------------
# convenience orders


def test_ward_order_by_group_size():
    inst = make_instance(
        (5, 9, 9), (Fraction(1),), internal=[[[0, 0, 0]]], out=[[0, 0, 0]]
    )
    assert ward_order(inst) == ("r2", "r3", "r1")


def test_hospital_order_on_a_line():
    # positions 0, 4, 10: the middle hospital serves everyone best, then the
    # right one adds more coverage than the left
    inst = line_instance((0, 4, 10), (1, 1, 1), size_per_ward=3)
    assert hospital_order(inst) == ("q2", "q3", "q1")


def test_hospital_order_marginal_vs_single_site():
    # q3 wins the first slot on total coverage; the second slot then goes to
    # q1, whose marginal gain beats q2's even though q2 is the better
    # standalone site after q3
    inst = line_instance((0, 10, 5), (5, 4, 2), size_per_ward=11)
    assert hospital_order(inst) == ("q3", "q1", "q2")


def test_hospital_order_independent_of_ward():
    for seed in range(15):
        inst = generate_scenario(seed, (4, 3), "assumption4&5-satisfying")
        orders = {hospital_order(one_ward(inst, w)) for w in inst.wards}
        assert len(orders) == 1
        assert hospital_order(inst) in orders


def test_hospital_order_matches_reference_on_generated():
    for seed in range(4):
        for dims in itertools.product(range(2, 7), (2, 3)):
            inst = generate_scenario(seed, dims, "assumption4&5-satisfying")
            for ward in inst.wards:
                assert hospital_order(one_ward(inst, ward)) == reference_hospital_order(inst, ward)


def test_hospital_order_matches_reference_on_ties():
    # internal costs in 0..2 shared across wards and one uniform price, so
    # hospitals often tie on their saving and the index decides
    ties = [with_ward_free_costs(tie_heavy_instance(seed)) for seed in range(150)]
    ties += [
        with_ward_free_costs(tie_heavy_instance(seed, dims))
        for seed in range(10)
        for dims in ((4, 2), (5, 2), (6, 1))
    ]
    for inst in ties:
        references = [reference_hospital_order(inst, ward) for ward in inst.wards]
        for ward, reference in zip(inst.wards, references):
            assert hospital_order(one_ward(inst, ward)) == reference
        # outside costs and group sizes still vary by ward, so the wards'
        # orders can differ; the instance's order exists only if they agree
        if len(set(references)) == 1:
            assert hospital_order(inst) == references[0]
        else:
            with pytest.raises(AssumptionViolationError, match="differs by ward"):
                hospital_order(inst)


def test_disagreeing_wards_are_named_and_drop_the_staircase(tmp_path, capsys):
    inst = with_ward_free_costs(tie_heavy_instance(13))
    assert hospital_order(one_ward(inst, "r1")) == ("q2", "q1")
    assert hospital_order(one_ward(inst, "r2")) == ("q1", "q2")
    with pytest.raises(AssumptionViolationError, match="r1 gives q2 > q1 but r2 gives q1 > q2"):
        hospital_order(inst)
    path = tmp_path / "ties.json"
    save_scenario(inst, path)
    assert main(["central-greedy", "--input", str(path), "--format", "json"]) == 0
    assert "staircase" not in json.loads(capsys.readouterr().out)


def test_hospital_order_requires_ward_free_costs():
    inst = generate_scenario(0, (2, 2))  # unconstrained: costs vary per ward
    with pytest.raises(AssumptionViolationError, match="internal costs"):
        hospital_order(inst)


def test_hospital_order_requires_uniform_upgrade():
    inst = make_instance(
        (6, 6),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[1, 2], [3, 4]],
        internal=[[[0, 0], [1, 1]], [[1, 1], [0, 0]]],
        out=[[5, 5], [5, 5]],
    )
    with pytest.raises(AssumptionViolationError, match="uniform upgrade"):
        hospital_order(inst)


def test_total_orders_bundle():
    inst = generate_scenario(1, (3, 2), "assumption4&5-satisfying")
    orders = total_orders(inst)
    assert orders.ward_order == ward_order(inst)
    assert orders.hospital_order == hospital_order(inst)


def test_hospital_order_runs_greedy_once_per_ward_profile(greedy_runs):
    # wards with the same outside costs and demand shares order alike, so
    # hospital_order runs greedy once per such profile, not once per ward;
    # generated A4&5 wards all share one profile
    for dims in ((2, 2), (2, 3), (3, 3), (20, 20), (30, 20)):
        for seed in range(3):
            inst = generate_scenario(seed, dims, "assumption4&5-satisfying")
            greedy_runs.clear()
            hospital_order(inst)
            assert len(greedy_runs) == 1, (dims, seed)


# ---------------------------------------------------------------------------
# staircase check


def staircase_fixture_solution(inst, members):
    return evaluate_Z(ExcellenceSet.of(members), inst)


def stair_instance(far=1):
    """Two hospitals, each next to one of two districts; far is district 2's
    internal cost at q1."""
    return make_instance(
        (8, 8),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[1, 1], [1, 1]],
        internal=[[[0, 0], [1, 1]], [[far, far], [0, 0]]],
        out=[[5, 5], [5, 5]],
        budget=100,
    )


def test_stair_instance_orders():
    # the fixture tests below judge in these orders: the groups are equal,
    # and the tied savings go to q1
    inst = stair_instance()
    assert total_orders(inst) == TotalOrders(("r1", "r2"), ("q1", "q2"))
    assert check_staircase(staircase_fixture_solution(inst, [])).orders == total_orders(inst)


def test_staircase_accepts_downward_closed_set():
    inst = stair_instance()
    sol = staircase_fixture_solution(
        inst, [("q1", "r1"), ("q1", "r2"), ("q2", "r1")]
    )
    verdict = check_staircase(sol)
    assert verdict.holds
    assert verdict.violation is None


def test_staircase_accepts_empty_and_full_sets():
    inst = stair_instance()
    assert check_staircase(staircase_fixture_solution(inst, [])).holds
    full = [(q, r) for q in inst.hospitals for r in inst.wards]
    assert check_staircase(staircase_fixture_solution(inst, full)).holds


def test_staircase_flags_missing_dominating_pair():
    inst = stair_instance()
    sol = staircase_fixture_solution(inst, [("q2", "r1")])
    verdict = check_staircase(sol)
    assert not verdict.holds
    assert verdict.violation == (("q2", "r1"), ("q1", "r1"))


def test_report_carries_the_staircase_violation():
    inst = stair_instance()
    sol = staircase_fixture_solution(inst, [("q2", "r1")])
    doc = plan_to_dict(sol, staircase=True)
    assert json.loads(json.dumps(doc["staircase"])) == {
        "holds": False,
        "violation": [["q2", "r1"], ["q1", "r1"]],
        "ward_order": ["r1", "r2"],
        "hospital_order": ["q1", "q2"],
    }
    text = _plan_text({"command": "central-greedy", **doc})
    assert "staircase: False (wards r1 > r2; hospitals q1 > q2)" in text.splitlines()


def test_staircase_respects_given_orders():
    # the same set in the instance's own hospital order: with district 2
    # farther from q1, q2 comes first and the verdict flips
    members = [("q2", "r1")]
    assert not check_staircase(staircase_fixture_solution(stair_instance(), members)).holds
    inst = stair_instance(far=2)
    assert total_orders(inst) == TotalOrders(("r1", "r2"), ("q2", "q1"))
    assert check_staircase(staircase_fixture_solution(inst, members)).holds


def test_staircase_needs_the_instance_orders():
    # no orders, no verdict: assumption 4 fails, or two wards disagree; the
    # report then leaves the block out
    unconstrained = generate_scenario(0, (2, 2))
    disagreeing = with_ward_free_costs(tie_heavy_instance(13))
    for inst, reason in (
        (unconstrained, "assumption 4"),
        (disagreeing, "r1 gives q2 > q1 but r2 gives q1 > q2"),
    ):
        sol = greedy_solve(inst)
        with pytest.raises(AssumptionViolationError, match=reason):
            check_staircase(sol)
        assert "staircase" not in plan_to_dict(sol, staircase=True)


def test_greedy_staircase_on_generated_instances():
    for seed in range(30):
        inst = generate_scenario(seed, (3, 4), "assumption4&5-satisfying")
        sol = greedy_solve(inst)
        verdict = check_staircase(sol)
        assert verdict.holds
        orders = verdict.orders
        # stronger nested form: each ward's hospital set is a prefix of the
        # hospital order, and ward sets shrink along the ward order
        members = members_of(sol)
        prefix_sizes = []
        for r in orders.ward_order:
            qs = [q for q in orders.hospital_order if (q, r) in members]
            assert qs == list(orders.hospital_order[: len(qs)])
            prefix_sizes.append(len(qs))
        assert prefix_sizes == sorted(prefix_sizes, reverse=True)


# per size, the seeds among 0-9 whose A4&5 optimum is no staircase
NO_STAIRCASE_OPTIMA = {
    (4, 4): [8],
    (5, 5): [2, 9],
    (6, 5): [7, 9],
    (6, 6): [1, 6, 7],
    (7, 4): [0, 4, 8, 9],
}


def test_optimum_staircase_at_desk_sizes(capsys):
    # the paper's poles of excellence, judged on the optimum: logged as NOTE
    # lines, not asserted; the pin guards the finding, not the claim
    found = {dims: [] for dims in NO_STAIRCASE_OPTIMA}
    missed = {dims: [] for dims in NO_STAIRCASE_OPTIMA}
    notes = []
    for dims in NO_STAIRCASE_OPTIMA:
        for seed in range(10):
            inst = generate_scenario(seed, dims, "assumption4&5-satisfying")
            exact, greedy = exact_solve(inst), greedy_solve(inst)
            assert check_staircase(greedy).holds, (dims, seed)
            gap = (greedy.z_value - exact.z_value) / exact.z_value
            if gap:
                missed[dims].append(seed)
            verdict = check_staircase(exact)
            if not verdict.holds:
                found[dims].append(seed)
                notes.append((dims, seed, verdict.violation, gap))
    with capsys.disabled():
        for dims, seed, ((q, r), (q2, r2)), gap in notes:
            print(
                f"[optimum staircase] NOTE - no staircase at dims {dims} seed {seed}: "
                f"({q}, {r}) without ({q2}, {r2}); greedy's gap {float(gap):.1%}",
                flush=True,
            )
        print(
            f"[optimum staircase] {len(notes)} of 50 optima are no staircase",
            flush=True,
        )
    assert found == NO_STAIRCASE_OPTIMA
    assert missed == NO_STAIRCASE_OPTIMA  # greedy misses exactly these optima


# ---------------------------------------------------------------------------
# LP export


def tiny_instance():
    return make_instance(
        (2,),
        (Fraction(1),),
        excel=[[3]],
        internal=[[[1]]],
        out=[[4]],
        budget=5,
    )


def test_export_minimal_model_text():
    text = export_ilp(tiny_instance())
    assert text.splitlines() == [
        "Minimize",
        " obj: 3 y_0_0 + 2 x_0_0_0 + 8 xout_0_0",
        "Subject To",
        " assign_0_0: xout_0_0 + x_0_0_0 = 1",
        " link_0_0_0: x_0_0_0 - y_0_0 <= 0",
        " budget: 3 y_0_0 <= 5",
        "Bounds",
        "Binary",
        " y_0_0",
        " x_0_0_0",
        " xout_0_0",
        "End",
    ]


def test_export_counts_scale_with_dims():
    inst = generate_scenario(6, (2, 3))
    text = export_ilp(inst)
    _, constraints, fixed, binaries = parse_lp(text)
    cells = len(inst.demand_cells())
    names = [name for name, _, _, _ in constraints]
    assert sum(n.startswith("assign_") for n in names) == cells
    assert sum(n.startswith("link_") for n in names) == cells * 2
    assert names.count("budget") == 1
    assert len(binaries) == 2 * 3 + cells * (2 + 1)
    assert not fixed


def test_export_budget_rhs_and_objective():
    inst = tiny_instance()
    objective, constraints, _, _ = parse_lp(export_ilp(inst))
    assert objective == {"y_0_0": 3.0, "x_0_0_0": 2.0, "xout_0_0": 8.0}
    budget = next(c for c in constraints if c[0] == "budget")
    assert budget[2] == "<="
    assert budget[3] == 5.0


def test_export_forced_excellence_bounds():
    inst = generate_scenario(6, (2, 2))
    forced = ExcellenceSet.of([(inst.hospitals[1], inst.wards[0])])
    text = export_ilp(inst, forced_excellence=forced)
    _, _, fixed, _ = parse_lp(text)
    assert fixed == {"y_1_0": 1}
    with pytest.raises(InvalidInstanceError):
        export_ilp(inst, forced_excellence=ExcellenceSet.of([("zz", "r1")]))


def test_export_fractional_coefficients_parse():
    inst = make_instance(
        (3,),
        (Fraction(1),),
        excel=[[Fraction(7, 2)]],
        internal=[[[Fraction(1, 3)]]],
        out=[[2]],
        budget=10,
    )
    objective, _, _, _ = parse_lp(export_ilp(inst))
    assert objective["y_0_0"] == 3.5
    assert abs(objective["x_0_0_0"] - 1.0) < 1e-12


def one_cell(size, out, *, excel=1, budget=1):
    """A 1x1 instance of population 1 and internal cost 1."""
    return make_instance(
        (size,), (Fraction(1),), excel=[[excel]], internal=[[[1]]], out=[[out]], budget=budget
    )


def test_export_writes_ordinary_coefficients_as_before():
    text = export_ilp(one_cell(1, "1/3", budget="9e4298"))
    assert " obj: 1 y_0_0 + 1 x_0_0_0 + 0.3333333333333333 xout_0_0" in text.splitlines()
    assert f" budget: 1 y_0_0 <= 9{'0' * 4298}" in text.splitlines()
    # 10**-300 is a normal float
    text = export_ilp(one_cell(1, f"1/1{'0' * 300}"))
    assert " obj: 1 y_0_0 + 1 x_0_0_0 + 1e-300 xout_0_0" in text.splitlines()


@pytest.mark.parametrize(
    "inst, message",
    [
        # 10**400 / 3 is beyond the largest float
        pytest.param(one_cell(1, f"1{'0' * 400}/3"), "LP row obj: the coefficient of xout_0_0",
                     id="float-overflow"),
        # 10 * 10**4299 has 4,301 digits, more than Python writes
        pytest.param(one_cell(10, "1e4299"), "LP row obj: the coefficient of xout_0_0",
                     id="too-many-digits"),
        # the budget row is multiplied by 10, then by 7
        pytest.param(one_cell(1, 1, excel="1e4299", budget="1/10"),
                     "LP row budget: the coefficient of y_0_0", id="budget-coefficient"),
        pytest.param(one_cell(1, 1, excel="1/7", budget="9e4299"),
                     "LP row budget: the right-hand side", id="budget-rhs"),
    ],
)
def test_export_coefficient_too_large_to_write_raises(inst, message):
    with pytest.raises(InstanceTooLargeError) as info:
        export_ilp(inst)
    assert str(info.value) == f"{message} is too large to write"


def test_export_coefficient_too_small_to_write_raises():
    # 10**-400 is not zero, but its nearest float is; 1/7 * 10**-322 is
    # subnormal, and its nearest float, 1.5e-323, is 3.75% off
    for out in (f"1/1{'0' * 400}", f"1/7{'0' * 322}"):
        with pytest.raises(InstanceTooLargeError) as info:
            export_ilp(one_cell(1, out))
        assert str(info.value) == "LP row obj: the coefficient of xout_0_0 is too small to write"


def budget_row(text):
    """Coefficients and right-hand side of the exported budget row, read
    exactly with Fraction."""
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith(" budget:"))
    body = " ".join(lines[start : lines.index("Bounds")]).split(":", 1)[1]
    expr, rhs = body.split("<=")
    tokens = expr.replace("+", " ").split()
    coefs = {var: Fraction(coef) for coef, var in zip(tokens[::2], tokens[1::2])}
    return coefs, Fraction(rhs.strip())


def test_export_budget_row_is_exact():
    # costs 5/6 and budget 5/3: both upgrades fit exactly
    inst = make_instance(
        (6,),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[Fraction(5, 6)], [Fraction(5, 6)]],
        budget=Fraction(5, 3),
    )
    both = ExcellenceSet.of([("q1", "r1"), ("q2", "r1")])
    assert admissible(both, inst)
    coefs, rhs = budget_row(export_ilp(inst))
    assert coefs == {"y_0_0": 5, "y_1_0": 5}
    assert rhs == 10
    assert coefs["y_0_0"] + coefs["y_1_0"] <= rhs


def test_export_budget_row_scales_generated_costs():
    for seed, profile in ((2, "assumption4&5-satisfying"), (3, "unconstrained")):
        inst = generate_scenario(seed, (3, 3), profile)
        coefs, rhs = budget_row(export_ilp(inst))
        assert rhs.denominator == 1
        assert all(c.denominator == 1 for c in coefs.values())
        for qi in range(inst.num_hospitals):
            for ri in range(inst.num_wards):
                coef = coefs[f"y_{qi}_{ri}"]
                assert coef * inst.budget == rhs * inst.excel_cost[qi][ri]


def test_export_all_zero_costs_names_one_variable():
    # every term is zero, so objective and budget row fall back to "0 y_0_0"
    inst = make_instance((2,), (Fraction(1),), excel=[[0]], internal=[[[0]]], out=[[0]], budget=0)
    text = export_ilp(inst)
    lines = text.splitlines()
    assert " obj: 0 y_0_0" in lines
    assert " budget: 0 y_0_0 <= 0" in lines
    objective, constraints, _, binaries = parse_lp(text)
    assert objective == {"y_0_0": 0.0}
    assert ("budget", {"y_0_0": 0.0}, "<=", 0.0) in constraints
    assert binaries == ["y_0_0", "x_0_0_0", "xout_0_0"]
    value = solve_lp_external(text)
    if value is not None:  # scipy is installed
        assert value == 0 == exact_solve(inst).z_value


@pytest.mark.skipif(
    solve_lp_external("Minimize\n obj: 1 a\nSubject To\n c1: a = 1\nBinary\n a\nEnd\n")
    is None,
    reason="no external MILP solver installed",
)
def test_export_solves_to_exact_optimum():
    for seed in range(8):
        inst = generate_scenario(seed, (2, 2))
        value = solve_lp_external(export_ilp(inst))
        z = exact_solve(inst).z_value
        assert value == pytest.approx(float(z), rel=1e-6)


# ---------------------------------------------------------------------------
# report document


def test_plan_to_dict_shape():
    inst = generate_scenario(13, (2, 2), "assumption4&5-satisfying")
    sol = greedy_solve(inst)
    orders = total_orders(inst)
    doc = plan_to_dict(sol, staircase=True)
    assert set(doc) == {
        "excellence",
        "z_value",
        "excel_cost_part",
        "patient_cost_part",
        "assignment",
        "trace",
        "staircase",
    }
    assert doc["z_value"] == f"{sol.z_value.numerator}/{sol.z_value.denominator}"
    assert len(doc["assignment"]) == len(inst.demand_cells())
    for entry in doc["assignment"]:
        dest = entry["destination"]
        assert dest == OUTSIDE or set(dest) == {"hospital", "ward"}
    assert doc["staircase"]["holds"] is True
    assert doc["staircase"]["hospital_order"] == list(orders.hospital_order)
    assert len(doc["trace"]) == len(sol.excellence.members)


def test_plan_report_judges_its_own_plan():
    # the report checks the plan it is given: the exact plan of this market
    # is no staircase, greedy's is, under the same orders
    inst = generate_scenario(8, (4, 4), "assumption4&5-satisfying")
    exact = exact_solve(inst)
    assert check_staircase(exact).violation == (("q3", "r2"), ("q3", "r4"))
    doc = plan_to_dict(exact, staircase=True)["staircase"]
    assert doc["holds"] is False
    assert doc["violation"] == [["q3", "r2"], ["q3", "r4"]]
    assert plan_to_dict(greedy_solve(inst), staircase=True)["staircase"]["holds"] is True


def test_plan_to_dict_without_staircase():
    inst = generate_scenario(13, (2, 2))
    sol = exact_solve(inst)
    doc = plan_to_dict(sol)
    assert "staircase" not in doc
    assert doc["trace"] == []
