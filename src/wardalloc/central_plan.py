"""Central-financing regime: pick a budget-feasible set of ward upgrades
("excellence set"), send every demand cell to its cheapest destination, and
minimize upgrade cost plus total patient cost.

Provides the greedy heuristic, an exact ward-by-ward solver for desk-scale
instances, convenience orders over hospitals and wards, the staircase verdict
for greedy solutions, and a CPLEX-LP model export."""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    AssumptionViolationError,
    BudgetExceededError,
    InstanceTooLargeError,
    InvalidInstanceError,
)
from .scenario import (
    CostModel,
    DemandCell,
    ScenarioInstance,
    _debug,
    _entries,
    check_assumption4,
    check_assumption5,
    format_rational,
)

# Destination marker for patients treated outside the system.
OUTSIDE = "outside"

# Most candidate plans exact_solve may form in one run, summed over its wards
# (each ward forms the plans kept so far x 2^|Q|).
EXACT_ENUMERATION_CAP = 2**18


@dataclass(frozen=True)
class ExcellenceSet:
    """A set of (hospital id, ward id) upgrades."""

    members: frozenset[tuple[str, str]]

    def __post_init__(self):
        # the one member rule, whether built here or through `of`
        if not isinstance(self.members, frozenset):
            kind = type(self.members).__name__
            raise InvalidInstanceError(f"excellence members: expected a frozenset, got {kind}")
        for member in self.members:
            _entries(member, f"excellence member {member!r}", 2)

    @classmethod
    def of(cls, pairs) -> "ExcellenceSet":
        """The set of the given (hospital id, ward id) pairs; anything but a
        pair raises an invalid-instance error naming it by its index."""
        pairs = (_entries(pair, f"excellence members[{i}]", 2) for i, pair in enumerate(pairs))
        return cls(members=frozenset(map(tuple, pairs)))

    def __contains__(self, pair) -> bool:
        return isinstance(pair, (list, tuple)) and tuple(pair) in self.members

    def __len__(self) -> int:
        return len(self.members)

    def _indices(self, inst: ScenarioInstance) -> list[tuple[int, int]]:
        """Members as sorted (hospital index, ward index) pairs; a member
        outside the instance raises an invalid-instance error."""
        indices = []
        for q, r in self.members:
            try:
                indices.append((inst.hospitals.index(q), inst.wards.index(r)))
            except ValueError:
                raise InvalidInstanceError(
                    f"excellence pair ({q!r}, {r!r}) is not in the instance"
                ) from None
        return sorted(indices)

    def sorted_members(self, inst: ScenarioInstance) -> tuple[tuple[str, str], ...]:
        return tuple((inst.hospitals[qi], inst.wards[ri]) for qi, ri in self._indices(inst))

    def cost(self, inst: ScenarioInstance) -> Fraction:
        model = inst._costs
        spent = sum(model.prices[qi][ri] for qi, ri in self._indices(inst))
        return Fraction(spent, model.price_scale)


EMPTY_EXCELLENCE = ExcellenceSet(frozenset())


@dataclass(frozen=True)
class GreedyStep:
    added: tuple[str, str]
    z_before: Fraction
    z_after: Fraction


@dataclass(frozen=True)
class PlanSolution:
    """An excellence set with its optimal assignment and cost breakdown.

    assignment maps every demand cell to its destination, (hospital id, ward
    id) or OUTSIDE. The excellence cost never exceeds the budget. trace is
    non-empty only for greedy solutions.
    """

    excellence: ExcellenceSet
    assignment: dict[DemandCell, tuple[str, str] | str]
    excel_cost_part: Fraction
    patient_cost_part: Fraction
    trace: tuple[GreedyStep, ...] = ()

    @property
    def z_value(self) -> Fraction:
        """The plan's cost: upgrades plus patients."""
        return self.excel_cost_part + self.patient_cost_part


def admissible(excellence: ExcellenceSet, inst: ScenarioInstance) -> bool:
    """True when the set's total upgrade cost fits the budget."""
    return excellence.cost(inst) <= inst.budget


def _outside_costs(model: CostModel) -> list[list[int]]:
    """Per ward, each cell's cost with every patient treated outside, at the
    ward's scale."""
    return [[out for _, out, _ in rows] for _, rows in model.wards]


def _patient_cost(model: CostModel, current: list[list[int]]) -> Fraction:
    """The patient cost of every cell, given each ward's cell costs at its
    scale."""
    wards = zip(model.wards, current)  # at least one ward, so the sum is a Fraction
    return sum(
        Fraction(sum(count * c for (count, _, _), c in zip(rows, costs)), scale)
        for (scale, rows), costs in wards
    )


def _z_change(spent: int, saved: int, price_scale: int, scale: int) -> Fraction:
    """The exact change in z of upgrades in one ward that cost spent, at the
    price scale, and save saved, at the ward's scale."""
    return Fraction(spent * scale - saved * price_scale, price_scale * scale)


def _improvements(rows, costs: list[int], qi: int):
    """The destination rule of evaluate_Z for upgrading hospital qi in one
    ward, given that ward's cell rows and their current costs: the cells
    whose internal cost at qi is strictly below their current cost, as (row
    position, internal cost) pairs, and the patient cost saved by moving
    them there, all at the ward's scale."""
    taken = []
    saving = 0
    for pos, ((count, _, internal), c) in enumerate(zip(rows, costs)):
        c_in = internal[qi]
        if c_in < c:
            taken.append((pos, c_in))
            saving += count * (c - c_in)
    return taken, saving


def evaluate_Z(excellence: ExcellenceSet, inst: ScenarioInstance) -> PlanSolution:
    """Cost of an admissible excellence set with each cell sent to its
    cheapest destination.

    Cells may go to a hospital excellent in their own ward type or outside.
    This is the destination rule every solver follows: each cell starts
    outside, and the upgrades are taken in hospital-index order, each moving
    a cell only when its internal cost is strictly below the cell's current
    cost. So cost ties prefer OUTSIDE, then the lowest hospital index.
    """
    excel_part = excellence.cost(inst)
    if excel_part > inst.budget:
        raise BudgetExceededError(
            f"excellence cost {excel_part} exceeds budget {inst.budget}"
        )
    model = inst._costs
    current = _outside_costs(model)
    destinations = [[OUTSIDE] * len(costs) for costs in current]
    for qi, ri in excellence._indices(inst):
        for pos, c_in in _improvements(model.wards[ri].rows, current[ri], qi)[0]:
            current[ri][pos] = c_in
            destinations[ri][pos] = (inst.hospitals[qi], inst.wards[ri])
    patient_part = _patient_cost(model, current)
    flat = [dest for ward in destinations for dest in ward]  # demand_cells() order
    return PlanSolution(
        excellence=excellence,
        assignment=dict(zip(inst.demand_cells(), flat)),
        excel_cost_part=excel_part,
        patient_cost_part=patient_part,
    )


def _checked_solution(
    inst: ScenarioInstance, chosen, z_value: Fraction, trace=()
) -> PlanSolution:
    """evaluate_Z of the chosen (hospital index, ward index) pairs, checked
    against the z_value a solver's own bookkeeping reached."""
    excellence = ExcellenceSet.of(
        (inst.hospitals[qi], inst.wards[ri]) for qi, ri in chosen
    )
    solution = evaluate_Z(excellence, inst)
    if solution.z_value != z_value:
        raise AssertionError(
            "solver bookkeeping diverged from evaluation: "
            f"{solution.z_value} != {z_value}"
        )
    return replace(solution, trace=tuple(trace))


def _greedy_steps(inst: ScenarioInstance, pairs, budget: int):
    """The greedy step, written once. From every cell outside, each step
    yields the (qi, ri) pair that fits the budget (an int at the price
    scale) with the lowest z change, price - saving, as (z change, qi, ri),
    ties to the lowest (qi, ri), and then takes it, unless the caller stops.

    Scoring is lazy (Minoux 1978, "Accelerated greedy algorithms for
    maximizing submodular set functions"). Taking a pair only lowers cell
    costs, so a pair's saving can only shrink: a key scored earlier is a lower
    bound on the pair's key now. A heap holds the fitting pairs under their
    last keys. Each step rescores only the top pair; if its fresh key is still
    no greater than the next key, which bounds every other pair's, it is the
    best pair, else it goes back. Pairs that stop fitting are dropped, since
    spending only grows. Prices and savings are ints at the price and ward
    scales; a key is their exact difference as a rational."""
    model = inst._costs
    wards, prices, price_scale = model.wards, model.prices, model.price_scale
    current = _outside_costs(model)

    def keyed(qi, ri, saving):
        return (_z_change(prices[qi][ri], saving, price_scale, wards[ri].scale), qi, ri)

    heap = [
        keyed(qi, ri, _improvements(wards[ri].rows, current[ri], qi)[1])
        for qi, ri in pairs
        if prices[qi][ri] <= budget
    ]
    heapq.heapify(heap)
    spent = 0
    steps, scored, pushed_back = 0, len(heap), 0
    try:
        while heap:
            _, qi, ri = heapq.heappop(heap)
            price = prices[qi][ri]
            if spent + price > budget:
                continue
            taken, saving = _improvements(wards[ri].rows, current[ri], qi)
            scored += 1
            key = keyed(qi, ri, saving)
            if heap and key > heap[0]:  # (qi, ri) differ: dz ties go to the lower pair
                heapq.heappush(heap, key)
                pushed_back += 1
                continue
            yield key
            steps += 1
            spent += price
            for pos, c_in in taken:
                current[ri][pos] = c_in
    finally:
        message = "greedy: steps taken %d, pairs scored %d, pairs pushed back %d"
        _debug(__name__, message, steps, scored, pushed_back)


def greedy_solve(inst: ScenarioInstance) -> PlanSolution:
    """Grow the excellence set one budget-feasible upgrade at a time.

    Each step adds the pair whose addition gives the lowest resulting cost,
    ties broken by (hospital index, ward index); stops when nothing fits the
    budget, nothing strictly improves, or every pair is already in. Elements
    are never removed once inserted. Cells follow evaluate_Z's rule.
    """
    pairs = [(qi, ri) for qi in range(inst.num_hospitals) for ri in range(inst.num_wards)]
    model = inst._costs
    z = _patient_cost(model, _outside_costs(model))
    added, trace = [], []
    for dz, qi, ri in _greedy_steps(inst, pairs, model.budget):
        if not dz < 0:
            break
        added.append((qi, ri))
        trace.append(GreedyStep((inst.hospitals[qi], inst.wards[ri]), z, z + dz))
        z += dz
    return _checked_solution(inst, added, z, trace)


def exact_solve(inst: ScenarioInstance) -> PlanSolution:
    """Optimum over all budget-admissible excellence sets. Ties prefer fewer
    members, then the lexicographically smallest sorted member list.

    Wards share only the budget (an upgrade in ward r moves only ward-r
    cells), so plans grow ward by ward in Nemhauser & Ullmann's Pareto merge:
    each meets every fitting subset of the ward's upgrades and is kept only if
    its (z, size, -members) key beats every plan that spends no more. members
    has pair (qi, ri) at bit n-1-(qi*|R|+ri), n = |Q|*|R|, so among equal
    sizes the larger mask is the smaller sorted member list. Each part of a
    record is a sum over wards (their bits are disjoint), and adding the same
    subset to two plans keeps their order. Guarded by EXACT_ENUMERATION_CAP.
    Cells follow evaluate_Z's rule. Spending and each ward's savings are ints
    at the price and ward scales; z, which spans wards, is a rational."""
    nq, nr = inst.num_hospitals, inst.num_wards
    model = inst._costs
    budget, price_scale = model.budget, model.price_scale
    outside = _outside_costs(model)
    # plans: (spent, z, size, -members); subsets: (spent, z change, size, -members)
    plans = [(0, _patient_cost(model, outside), 0, 0)]
    formed = 0
    for ri, (scale, rows) in enumerate(model.wards):
        formed += len(plans) << nq
        if formed > EXACT_ENUMERATION_CAP:
            raise InstanceTooLargeError(
                f"ward {inst.wards[ri]!r} would bring the run to {formed} candidate "
                f"plans, over the exact solver's cap of {EXACT_ENUMERATION_CAP}"
            )
        # depth first: each subset's cell costs live until its children are built
        subsets, stack = [], [(0, outside[ri], 0, 0, 0, 0)]
        while stack:
            first, costs, s, saved, size, key = stack.pop()
            subsets.append((s, _z_change(s, saved, price_scale, scale), size, key))
            for qi in range(first, nq):
                price = model.prices[qi][ri]
                if s + price <= budget:  # else no superset through qi fits either
                    taken, saving = _improvements(rows, costs, qi)
                    moved = list(costs)
                    for pos, c_in in taken:
                        moved[pos] = c_in
                    bit = 1 << nq * nr - 1 - (qi * nr + ri)
                    stack.append((qi + 1, moved, s + price, saved + saving, size + 1, key - bit))
        plans, candidates = [], sorted(
            (spent + s, z + dz, size + k, key + m)
            for spent, z, size, key in plans
            for s, dz, k, m in subsets
            if spent + s <= budget
        )
        for plan in candidates:
            if not plans or plan[1:] < plans[-1][1:]:
                plans.append(plan)
    _, z, _, key = plans[-1]  # keys fall as spending rises
    chosen = [divmod(i, nr) for i in range(nq * nr) if -key >> nq * nr - 1 - i & 1]
    return _checked_solution(inst, chosen, z)


def ward_order(inst: ScenarioInstance) -> tuple[str, ...]:
    """Ward types by patient-group size, largest first; ties keep the
    original index order."""
    ranked = sorted(
        range(inst.num_wards), key=lambda ri: (-inst.group_sizes[ri], ri)
    )
    return tuple(inst.wards[ri] for ri in ranked)


def hospital_order(inst: ScenarioInstance, ward: str | None = None) -> tuple[str, ...]:
    """Hospitals by convenience: greedy's own order on one ward. With a
    budget that buys every upgrade of the ward, greedy's step appends the
    hospital whose upgrade in that ward lowers z the most, ties by hospital
    index; cells follow evaluate_Z's rule.

    Requires ward-independent internal costs and a uniform upgrade cost; with
    the uniform upgrade cost the price cancels in every comparison, so only
    patient-cost savings are compared. Without a ward argument, the order
    every ward gives; if two wards disagree (their outside costs or demand
    shares may still differ), raises an assumption violation naming both.
    """
    for check, requirement in (
        (check_assumption4, "internal costs independent of the ward type (assumption 4)"),
        (check_assumption5, "a uniform upgrade cost (assumption 5)"),
    ):
        report = check(inst)
        if not report.holds:
            raise AssumptionViolationError(
                f"hospital convenience order requires {requirement}: {report.violations[0]}"
            )
    nq = inst.num_hospitals
    model = inst._costs
    wards = range(inst.num_wards) if ward is None else [inst.ward_index(ward)]
    by_profile = {}  # first ward of each profile and its order
    for ri in wards:
        # savings scale with the patient counts, so wards with the same outside
        # costs and proportional counts (demand shares) order alike
        scale, rows = model.wards[ri]
        unit = math.gcd(*(count for count, _, _ in rows)) or 1
        profile = (scale, tuple((out, count // unit) for count, out, _ in rows))
        if profile not in by_profile:
            every_upgrade = sum(row[ri] for row in model.prices)
            steps = _greedy_steps(inst, [(qi, ri) for qi in range(nq)], every_upgrade)
            order = tuple(inst.hospitals[qi] for _, qi, _ in steps)
            by_profile[profile] = (inst.wards[ri], order)
    (first, order), *others = by_profile.values()
    for other, other_order in others:
        if other_order != order:
            raise AssumptionViolationError(
                "hospital convenience order differs by ward: "
                f"{first} gives {' > '.join(order)} but "
                f"{other} gives {' > '.join(other_order)}"
            )
    return order


@dataclass(frozen=True)
class TotalOrders:
    """The two convenience orders a staircase is measured against."""

    ward_order: tuple[str, ...]
    hospital_order: tuple[str, ...]


def total_orders(inst: ScenarioInstance) -> TotalOrders:
    return TotalOrders(ward_order=ward_order(inst), hospital_order=hospital_order(inst))


@dataclass(frozen=True)
class StaircaseVerdict:
    """Is the excellence set downward closed in both convenience orders?

    violation, when present, is ((q, r), (q2, r2)): (q, r) is in the set while
    the dominated pair (q2, r2) is not, in the orders it was checked against.
    """

    violation: tuple[tuple[str, str], tuple[str, str]] | None
    orders: TotalOrders

    @property
    def holds(self) -> bool:
        """True iff no dominated pair is missing."""
        return self.violation is None


def check_staircase(solution: PlanSolution, orders: TotalOrders) -> StaircaseVerdict:
    """Verify that whenever (q, r) is excellent, so is every (q', r') with q'
    at least as convenient and r' at least as large-ordered."""
    members = solution.excellence.members
    hrank = {q: i for i, q in enumerate(orders.hospital_order)}
    wrank = {r: i for i, r in enumerate(orders.ward_order)}
    for q, r in sorted(members, key=lambda p: (hrank[p[0]], wrank[p[1]])):
        for q2 in orders.hospital_order[: hrank[q] + 1]:
            for r2 in orders.ward_order[: wrank[r] + 1]:
                if (q2, r2) not in members:
                    return StaircaseVerdict(((q, r), (q2, r2)), orders)
    return StaircaseVerdict(None, orders)


# ---------------------------------------------------------------------------
# CPLEX-LP model export


def _lp_num(n: int, scale: int, row: str, var: str | None = None) -> str:
    """Row `row`'s coefficient of var (None: its right-hand side), the
    rational n / scale, as an LP number: an integer exactly, any other value
    as the nearest float (int true division rounds correctly). A value no int
    string or float can hold, or a non-zero one whose nearest float is 0 or
    subnormal (so keeps few significant bits), raises a size-guard error
    naming both."""
    try:
        if n % scale == 0:
            return str(n // scale)
        if abs(value := n / scale) >= sys.float_info.min:
            return repr(value)
        size = "small"
    # ValueError: the interpreter's limit on the digits of an int string
    except (OverflowError, ValueError):
        size = "large"
    what = "the right-hand side" if var is None else f"the coefficient of {var}"
    raise InstanceTooLargeError(f"LP row {row}: {what} is too {size} to write")


def _lp_expr(row: str, terms: list[tuple[int, int, str]], fallback_var: str) -> list[str]:
    """Render row `row`'s (coefficient, its scale, variable) terms, several
    per line, skipping zeros."""
    rendered = [f"{_lp_num(n, scale, row, var)} {var}" for n, scale, var in terms if n]
    if not rendered:
        rendered = [f"0 {fallback_var}"]
    lines = []
    for i in range(0, len(rendered), 6):
        prefix = f" {row}: " if i == 0 else "   + "
        lines.append(prefix + " + ".join(rendered[i : i + 6]))
    return lines


def export_ilp(
    inst: ScenarioInstance, forced_excellence: ExcellenceSet | None = None
) -> str:
    """Serialize the planning problem as a CPLEX-LP text model.

    One binary y per (hospital, ward) upgrade, one binary x per (cell,
    hospital) internal placement of the cell's own ward type, and one binary
    per cell for the outside option. Constraints: one destination per cell,
    internal placement only at upgraded hospitals, upgrades within budget.
    The budget row and its right-hand side are multiplied by the least common
    multiple of their denominators, so they are written as exact integers;
    non-integral objective coefficients are written as decimal floats. A
    coefficient too large to write raises a size-guard error naming it.
    forced_excellence pins those y variables to 1 via the bounds section
    (fix-and-solve cross checks).
    """
    nq, nr = inst.num_hospitals, inst.num_wards
    model = inst._costs
    ys = [f"y_{qi}_{ri}" for qi in range(nq) for ri in range(nr)]
    prices = [p for row in model.prices for p in row]
    # every variable once, the y terms first; Binary reads this list
    terms = [(p, model.price_scale, y) for p, y in zip(prices, ys)]
    cells = []  # (cell, ward index, x names, xout name) per demand cell
    for ri, (scale, rows) in enumerate(model.wards):
        for di, (count, out, internal) in enumerate(rows):
            cell = f"{di}_{ri}"
            xs = [f"x_{cell}_{qi}" for qi in range(nq)]
            xout = f"xout_{cell}"
            terms.extend((count * c, scale, x) for c, x in zip(internal, xs))
            terms.append((count * out, scale, xout))
            cells.append((cell, ri, xs, xout))

    lines = ["Minimize", *_lp_expr("obj", terms, ys[0]), "Subject To"]
    for cell, _, xs, xout in cells:
        lines.append(f" assign_{cell}: {xout} + " + " + ".join(xs) + " = 1")
    for cell, ri, xs, _ in cells:
        lines.extend(
            f" link_{cell}_{qi}: {x} - {ys[qi * nr + ri]} <= 0" for qi, x in enumerate(xs)
        )
    # prices and budget at the price scale are the budget row's exact ints
    lines.extend(_lp_expr("budget", [(p, 1, y) for p, y in zip(prices, ys)], ys[0]))
    lines[-1] += f" <= {_lp_num(model.budget, 1, 'budget')}"

    lines.append("Bounds")
    if forced_excellence is not None:
        for qi, ri in forced_excellence._indices(inst):
            lines.append(f" {ys[qi * nr + ri]} = 1")

    lines.append("Binary")
    lines.extend(f" {var}" for _, _, var in terms)
    lines += ["End", ""]  # joined with a final newline, without copying the text
    return "\n".join(lines)


def plan_to_dict(
    inst: ScenarioInstance,
    solution: PlanSolution,
    staircase: StaircaseVerdict | None = None,
) -> dict:
    """JSON-ready planning report with rationals as "num/den" strings."""
    doc = {
        "excellence": [
            {"hospital": q, "ward": r}
            for q, r in solution.excellence.sorted_members(inst)
        ],
        "z_value": format_rational(solution.z_value),
        "excel_cost_part": format_rational(solution.excel_cost_part),
        "patient_cost_part": format_rational(solution.patient_cost_part),
        "assignment": [],
        "trace": [
            {
                "added": {"hospital": step.added[0], "ward": step.added[1]},
                "z_before": format_rational(step.z_before),
                "z_after": format_rational(step.z_after),
            }
            for step in solution.trace
        ],
    }
    for cell in inst.demand_cells():
        dest = solution.assignment[cell]
        doc["assignment"].append(
            {
                "district": cell.district,
                "ward": cell.ward,
                "count": cell.count,
                "destination": OUTSIDE
                if dest == OUTSIDE
                else {"hospital": dest[0], "ward": dest[1]},
            }
        )
    if staircase is not None:
        doc["staircase"] = {
            "holds": staircase.holds,
            "violation": None
            if staircase.violation is None
            else [list(staircase.violation[0]), list(staircase.violation[1])],
            "ward_order": list(staircase.orders.ward_order),
            "hospital_order": list(staircase.orders.hospital_order),
        }
    return doc
