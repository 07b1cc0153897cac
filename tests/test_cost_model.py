"""The integer cost model: every central kernel reads costs scaled to exact
ints, one scale per ward. These tests check the kernels against conftest's
independent oracles, which work on the raw rationals, on generated,
tie-heavy and coprime-denominator instances, and check that no ward's ints
carry another ward's denominators."""

import math
from fractions import Fraction

import pytest

from conftest import (
    SHARES,
    brute_z,
    coprime_instance,
    make_instance,
    one_ward,
    reference_greedy,
    reference_hospital_order,
    tie_heavy_instance,
    unpruned_best,
    with_budget_share,
    with_ward_free_costs,
)
from wardalloc import (
    OUTSIDE,
    PROFILES,
    AssumptionViolationError,
    check_assumption2,
    check_assumption4,
    check_assumption5,
    evaluate_Z,
    exact_solve,
    export_ilp,
    generate_scenario,
    greedy_solve,
    hospital_order,
)

# ---------------------------------------------------------------------------
# references from the raw rationals


def lp_number(x):
    """An LP number written from the exact rational: an integer exactly,
    anything else as its nearest float."""
    return str(x.numerator) if x.denominator == 1 else repr(float(x))


def reference_objective(inst):
    """The objective's non-zero "coefficient variable" terms, in export
    order: the upgrades, then each cell's internal places and outside
    option, ward-major; "0 y_0_0" when every term is zero."""
    nq, nr = inst.num_hospitals, inst.num_wards
    terms = [(inst.excel_cost[q][r], f"y_{q}_{r}") for q in range(nq) for r in range(nr)]
    for cell in inst.demand_cells():
        d, r = inst.hospital_index(cell.district), inst.ward_index(cell.ward)
        terms += [
            (cell.count * inst.internal_cost[d][q][r], f"x_{d}_{r}_{q}") for q in range(nq)
        ]
        terms.append((cell.count * inst.out_cost[d][r], f"xout_{d}_{r}"))
    return [f"{lp_number(c)} {var}" for c, var in terms if c] or ["0 y_0_0"]


def reference_budget_row(inst):
    """The budget row's terms and right-hand side, scaled by the LCM of the
    prices' and the budget's denominators."""
    prices = [(c, f"y_{q}_{r}") for q, row in enumerate(inst.excel_cost) for r, c in enumerate(row)]
    scale = math.lcm(inst.budget.denominator, *(c.denominator for c, _ in prices))
    terms = [f"{scale * c} {var}" for c, var in prices if c] or ["0 y_0_0"]
    return terms, str(scale * inst.budget)


def exported_rows(text):
    """The objective's terms, and the budget row's terms and right-hand side,
    as written."""
    lines = text.splitlines()
    objective = " ".join(lines[1 : lines.index("Subject To")])
    start = next(i for i, ln in enumerate(lines) if ln.startswith(" budget:"))
    budget, rhs = " ".join(lines[start : lines.index("Bounds")]).split(" <= ")

    def terms(row):
        # terms are joined by " + "; a float's exponent sign has no spaces
        return [t.strip() for t in row.split(":", 1)[1].split(" + ")]

    return terms(objective), terms(budget), rhs


def reference_assumption2(inst):
    """check_assumption2's (code, lhs, rhs) witnesses from the raw costs."""
    witnesses = []
    cheapest = min(min(row) for row in inst.excel_cost)
    if inst.budget < cheapest:
        witnesses.append(("budget-below-cheapest-upgrade", inst.budget, cheapest))
    benefit = Fraction(0)
    for cell in inst.demand_cells():
        d, r = inst.hospital_index(cell.district), inst.ward_index(cell.ward)
        for q in range(inst.num_hospitals):
            benefit += cell.count * (inst.out_cost[d][r] - inst.internal_cost[d][q][r])
    total = sum((sum(row) for row in inst.excel_cost), Fraction(0))
    if not benefit > total:
        witnesses.append(("inside-benefit-not-above-upgrade-cost", benefit, total))
    return witnesses


def reference_assignment(inst, members):
    """Each cell's cheapest destination from the raw costs: outside, or its
    own ward type at a member hospital; ties go outside, then to the lowest
    hospital index."""
    assignment = {}
    for cell in inst.demand_cells():
        d, r = inst.hospital_index(cell.district), inst.ward_index(cell.ward)
        cost, assignment[cell] = inst.out_cost[d][r], OUTSIDE
        for q, hospital in enumerate(inst.hospitals):
            if (hospital, cell.ward) in members and inst.internal_cost[d][q][r] < cost:
                cost, assignment[cell] = inst.internal_cost[d][q][r], (hospital, cell.ward)
    return assignment


def indexed_members(inst, solution):
    return tuple(
        sorted((inst.hospital_index(q), inst.ward_index(r)) for q, r in solution.excellence.members)
    )


def assert_matches_oracles(inst, *, exact=True):
    """Every central kernel on inst against the oracles."""
    greedy = greedy_solve(inst)
    trace = reference_greedy(inst)
    assert [(s.added, s.z_before, s.z_after) for s in greedy.trace] == trace
    assert set(greedy.excellence.members) == {added for added, _, _ in trace}
    assert greedy.z_value == brute_z(inst, greedy.excellence.members)
    assert greedy.assignment == reference_assignment(inst, greedy.excellence.members)
    assert evaluate_Z(greedy.excellence, inst).z_value == greedy.z_value
    if exact:
        solution = exact_solve(inst)
        z, size, indexed = unpruned_best(inst)
        assert (solution.z_value, len(solution.excellence)) == (z, size)
        assert indexed_members(inst, solution) == indexed
        assert solution.assignment == reference_assignment(inst, solution.excellence.members)
    if check_assumption4(inst).holds and check_assumption5(inst).holds:
        for ward in inst.wards:
            assert hospital_order(one_ward(inst, ward)) == reference_hospital_order(inst, ward)
    report = check_assumption2(inst)
    assert [(v.code, v.lhs, v.rhs) for v in report.violations] == reference_assumption2(inst)
    objective, budget, rhs = exported_rows(export_ilp(inst, greedy.excellence))
    assert objective == reference_objective(inst)
    assert (budget, rhs) == reference_budget_row(inst)


# ---------------------------------------------------------------------------
# generated and tie-heavy instances


@pytest.mark.parametrize("profile", PROFILES)
def test_kernels_match_oracles_on_generated(profile):
    for seed in range(3):
        for dims in ((2, 2), (3, 2), (2, 3)):
            inst = generate_scenario(seed, dims, profile)
            for budgeted in [inst, *(with_budget_share(inst, s) for s in SHARES)]:
                assert_matches_oracles(budgeted)


def test_kernels_match_oracles_on_ties():
    for seed in range(60):
        inst = tie_heavy_instance(seed)
        assert_matches_oracles(inst)
        assert_matches_oracles(with_ward_free_costs(inst))


# ---------------------------------------------------------------------------
# coprime denominators


def test_coprime_denominators_match_oracles():
    # 36 pairs are past unpruned enumeration, so exact is checked at 3x3
    for profile in PROFILES:
        assert_matches_oracles(coprime_instance(0, (6, 6), profile), exact=False)
        assert_matches_oracles(coprime_instance(1, (3, 3), profile))


def test_each_ward_carries_only_its_own_scale():
    inst = coprime_instance(0, (6, 6))
    model = inst._costs
    for ri, (scale, rows) in enumerate(model.wards):
        own = [inst.out_cost[d][ri] for d in range(6)]
        own += [inst.internal_cost[d][q][ri] for d in range(6) for q in range(6)]
        assert scale == math.lcm(*(c.denominator for c in own))
        others = [c for row in inst.out_cost for r, c in enumerate(row) if r != ri]
        others += [
            c for plane in inst.internal_cost for row in plane for r, c in enumerate(row) if r != ri
        ]
        assert all(math.gcd(scale, c.denominator) == 1 for c in others)
        for d, (count, out, internal) in enumerate(rows):
            assert Fraction(out, scale) == inst.out_cost[d][ri]
            assert [Fraction(c, scale) for c in internal] == [
                inst.internal_cost[d][q][ri] for q in range(6)
            ]
    prices = [c for row in inst.excel_cost for c in row]
    assert model.price_scale == math.lcm(inst.budget.denominator, *(c.denominator for c in prices))
    assert [Fraction(p, model.price_scale) for row in model.prices for p in row] == prices
    assert Fraction(model.budget, model.price_scale) == inst.budget


def test_wards_with_the_same_scaled_rows_order_apart(greedy_runs):
    # r2's outside costs are half of r1's, so at scales 1 and 2 both wards'
    # outside costs read (1, 2); the wards still order their hospitals apart
    inst = make_instance(
        (2, 2),
        (Fraction(1, 2), Fraction(1, 2)),
        internal=[[[0, 0], [0, 0]], [[2, 2], [1, 1]]],
        out=[[1, Fraction(1, 2)], [2, 1]],
        budget=4,
    )
    assert [rows[1] for _, rows in inst._costs.wards] == [(1, 2, (2, 1)), (1, 2, (4, 2))]
    for ward in inst.wards:
        assert hospital_order(one_ward(inst, ward)) == reference_hospital_order(inst, ward)
    greedy_runs.clear()
    with pytest.raises(AssumptionViolationError, match="r1 gives q2 > q1 but r2 gives q1 > q2"):
        hospital_order(inst)
    assert len(greedy_runs) == 2  # their scales differ, so their profiles do
