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
from bisect import bisect_right
from dataclasses import dataclass, field, replace
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
    _id_list,
    check_assumption4,
    check_assumption5,
    format_rational,
)

# Destination marker for patients treated outside the system.
OUTSIDE = "outside"

# exact_solve's guard: the plans kept before each ward x 2^|Q|, summed over
# the run's wards, may be at most this. The sum bounds from above the subsets
# the wards list and the plan-subset pairs the merge forms.
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
            _id_list(member, f"excellence member {member!r}", 2)

    @classmethod
    def of(cls, pairs) -> "ExcellenceSet":
        """The set of any iterable's (hospital, ward) id pairs; errors name a pair's index."""
        try:
            pairs = enumerate(pairs)
        except TypeError as exc:  # not iterable
            raise InvalidInstanceError(f"excellence members: {exc}") from None
        pairs = (_id_list(pair, f"excellence members[{i}]", 2) for i, pair in pairs)
        return cls(members=frozenset(map(tuple, pairs)))

    def __contains__(self, pair) -> bool:
        return isinstance(pair, (list, tuple)) and tuple(pair) in self.members

    def __len__(self) -> int:
        return len(self.members)

    def _indices(self, inst: ScenarioInstance) -> list[tuple[int, int]]:
        """Members as sorted (hospital index, ward index) pairs; an id outside
        the instance raises the instance's invalid-instance error."""
        return sorted((inst.hospital_index(q), inst.ward_index(r)) for q, r in self.members)

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

    assignment maps every demand cell, in demand_cells() order, to its
    destination, (hospital id, ward id) or OUTSIDE. The excellence cost never
    exceeds the budget. trace is non-empty only for greedy solutions.
    instance is the scenario the plan was evaluated on.
    """

    excellence: ExcellenceSet
    assignment: dict[DemandCell, tuple[str, str] | str]
    excel_cost_part: Fraction
    patient_cost_part: Fraction
    instance: ScenarioInstance = field(repr=False, compare=False)
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


def _z_scale(model: CostModel) -> int:
    """exact_solve's one denominator for z: the price scale times the least
    common multiple of the ward scales."""
    return model.price_scale * math.lcm(*(scale for scale, _ in model.wards))


def _nearest_float(n: int, d: int) -> float:
    """n / d (d > 0) as its nearest float, or as an infinity of its sign past
    the float range. int true division rounds correctly, and correct rounding
    never inverts an order: where two such floats differ, their rationals
    differ the same way."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


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
        instance=inst,
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
    scales; a key is (nearest float of dz, dz, qi, ri), dz their exact
    difference as a rational. The float decides where it can
    (_nearest_float), so most comparisons skip the rational; equal floats
    fall through to dz, and the pop order is the exact order."""
    model = inst._costs
    wards, prices, price_scale = model.wards, model.prices, model.price_scale
    current = _outside_costs(model)

    # dz = (price * ward scale - saving * price scale) / (price scale * ward
    # scale); only the saving changes between scorings of a pair
    scaled_prices = {
        (qi, ri): prices[qi][ri] * wards[ri].scale for qi, ri in pairs if prices[qi][ri] <= budget
    }
    denominators = [price_scale * ward.scale for ward in wards]

    def keyed(qi, ri, saving):
        n, d = scaled_prices[qi, ri] - saving * price_scale, denominators[ri]
        return _nearest_float(n, d), Fraction(n, d), qi, ri

    heap = [
        keyed(qi, ri, _improvements(wards[ri].rows, current[ri], qi)[1])
        for qi, ri in scaled_prices
    ]
    heapq.heapify(heap)
    spent = 0
    steps, scored, pushed_back = 0, len(heap), 0
    try:
        while heap:
            _, _, qi, ri = heapq.heappop(heap)
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
            yield key[1:]
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


def _keep_better(records):
    """Nemhauser & Ullmann's keep-if-better rule on (spent, *key) records:
    sorted by (spent, key), each record is kept iff its key is below the last
    kept key. So a record is kept iff no record that spends the same or less
    has a smaller key, and the kept keys fall as spending rises."""
    kept = []
    for record in sorted(records):
        if not kept or record[1:] < kept[-1][1:]:
            kept.append(record)
    return kept


def _ward_frontier(model: CostModel, ri: int, outside: list[int], z_scale: int):
    """Ward ri's Pareto frontier, from its cells' all-outside costs: the
    fitting subsets of its upgrades that no subset spending the same or less
    beats, as (spent, z change, size, -members) records sorted by spending,
    and the number of fitting subsets listed. Subsets are listed depth first,
    so each one's cell costs live until its children are built. A z change is
    compared as an int over price_scale * scale, the same denominator for
    every subset of the ward, and returned as an int over z_scale, which
    that denominator divides."""
    nq, nr = len(model.prices), len(model.wards)
    scale, rows = model.wards[ri]
    budget, price_scale = model.budget, model.price_scale
    subsets, stack = [], [(0, outside, 0, 0, 0, 0)]
    while stack:
        first, costs, s, saved, size, key = stack.pop()
        subsets.append((s, s * scale - saved * price_scale, size, key))
        for qi in range(first, nq):
            price = model.prices[qi][ri]
            if s + price <= budget:  # else no superset through qi fits either
                taken, saving = _improvements(rows, costs, qi)
                moved = list(costs)
                for pos, c_in in taken:
                    moved[pos] = c_in
                bit = 1 << nq * nr - 1 - (qi * nr + ri)
                stack.append((qi + 1, moved, s + price, saved + saving, size + 1, key - bit))
    unit = z_scale // (price_scale * scale)
    frontier = [(s, dz * unit, size, key) for s, dz, size, key in _keep_better(subsets)]
    return frontier, len(subsets)


def exact_solve(inst: ScenarioInstance) -> PlanSolution:
    """Optimum over all budget-admissible excellence sets. Ties prefer fewer
    members, then the lexicographically smallest sorted member list.

    Wards share only the budget (an upgrade in ward r moves only ward-r
    cells), so plans grow ward by ward in Nemhauser & Ullmann's Pareto merge:
    each meets every subset on the ward's frontier and is kept only if its
    (z, size, -members) key beats every plan that spends no more
    (_keep_better). members has pair (qi, ri) at bit n-1-(qi*|R|+ri), n =
    |Q|*|R|, so among equal sizes the larger mask is the smaller sorted member
    list. Each part of a record is a sum over wards (their bits are
    disjoint), and adding the same subset to two plans keeps their order; so
    a subset beaten by one of its ward's subsets that spends no more is in no
    kept plan. Plans and frontiers are sorted by spending, so each plan meets
    only the frontier's prefix that fits the budget. EXACT_ENUMERATION_CAP
    bounds the kept plans x 2^|Q|, summed over wards: more than the wards list
    and the merge forms. Cells follow evaluate_Z's rule. Spending is an int at
    the price scale, and z an int over _z_scale, one denominator for every
    ward; the chosen plan's z alone is made a rational."""
    nq, nr = inst.num_hospitals, inst.num_wards
    model = inst._costs
    budget = model.budget
    outside = _outside_costs(model)
    z_scale = _z_scale(model)
    z = sum(
        sum(count * c for (count, _, _), c in zip(rows, costs)) * (z_scale // scale)
        for (scale, rows), costs in zip(model.wards, outside)
    )
    # plans: (spent, z, size, -members); frontiers: (spent, z change, size, -members)
    plans = [(0, z, 0, 0)]
    formed = listed = on_frontiers = pairs = 0
    try:
        for ri in range(nr):
            formed += len(plans) << nq
            if formed > EXACT_ENUMERATION_CAP:
                raise InstanceTooLargeError(
                    f"ward {inst.wards[ri]!r} would bring the run to {formed} candidate "
                    f"plans, over the exact solver's cap of {EXACT_ENUMERATION_CAP}"
                )
            frontier, count = _ward_frontier(model, ri, outside[ri], z_scale)
            listed += count
            on_frontiers += len(frontier)
            spends = [s for s, _, _, _ in frontier]
            fits = [bisect_right(spends, budget - plan[0]) for plan in plans]
            pairs += sum(fits)
            plans = _keep_better(
                (spent + s, z + dz, size + k, key + m)
                for (spent, z, size, key), n in zip(plans, fits)
                for s, dz, k, m in frontier[:n]
            )
    finally:
        message = "exact: subsets listed %d, on ward frontiers %d, plan-subset pairs %d, plans kept %d"
        _debug(__name__, message, listed, on_frontiers, pairs, len(plans))
    _, z, _, key = plans[-1]  # keys fall as spending rises
    chosen = [divmod(i, nr) for i in range(nq * nr) if -key >> nq * nr - 1 - i & 1]
    return _checked_solution(inst, chosen, Fraction(z, z_scale))


def ward_order(inst: ScenarioInstance) -> tuple[str, ...]:
    """Ward types by patient-group size, largest first; ties keep the
    original index order."""
    ranked = sorted(
        range(inst.num_wards), key=lambda ri: (-inst.group_sizes[ri], ri)
    )
    return tuple(inst.wards[ri] for ri in ranked)


def hospital_order(inst: ScenarioInstance) -> tuple[str, ...]:
    """Hospitals by convenience: greedy's own order on one ward. With a
    budget that buys every upgrade of the ward, greedy's step appends the
    hospital whose upgrade in that ward lowers z the most, ties by hospital
    index; cells follow evaluate_Z's rule.

    Requires ward-independent internal costs and a uniform upgrade cost; with
    the uniform upgrade cost the price cancels in every comparison, so only
    patient-cost savings are compared. Returns the order every ward gives;
    if two wards disagree (their outside costs or demand shares may still
    differ), raises an assumption violation naming both.
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
    by_profile = {}  # first ward of each profile and its order
    for ri in range(inst.num_wards):
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
    the dominated pair (q2, r2) is not, in the instance's orders.
    """

    violation: tuple[tuple[str, str], tuple[str, str]] | None
    orders: TotalOrders

    @property
    def holds(self) -> bool:
        """True iff no dominated pair is missing."""
        return self.violation is None


def check_staircase(solution: PlanSolution) -> StaircaseVerdict:
    """Verify that whenever (q, r) is excellent, so is every (q', r') with q'
    at least as convenient and r' at least as large-ordered, in the orders of
    the solution's instance; where those do not exist, total_orders raises
    an assumption violation."""
    orders = total_orders(solution.instance)
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


# Below this bound a scale and every |n| at it cannot trip _lp_num's guard:
# n / scale is a normal float, and n // scale has at most 302 digits.
_LP_SAFE = 1 << 1000


def _lp_terms(ns: list[int], scale: int, row: str, names: list[str]) -> list[str]:
    """Row `row`'s "coefficient name" terms of a block of coefficients n /
    scale, zeros skipped, by _lp_num's rule. The guard is checked once for a
    block that cannot trip it, else value by value, naming the variable."""
    if scale < _LP_SAFE and max(map(abs, ns)) < _LP_SAFE:  # _lp_num's rule, less the guard
        return [f"{n // scale} {v}" if n % scale == 0 else f"{n / scale!r} {v}"
                for n, v in zip(ns, names) if n]
    return [f"{_lp_num(n, scale, row, v)} {v}" for n, v in zip(ns, names) if n]


def _lp_row(row: str, terms: list[str]) -> str:
    """Row `row`'s terms, six per line; "0 y_0_0" when there are none."""
    terms = terms or ["0 y_0_0"]
    lines = list(map(" + ".join, zip(*[iter(terms)] * 6)))  # the full lines
    if rest := terms[len(lines) * 6 :]:
        lines.append(" + ".join(rest))
    return f" {row}: " + "\n   + ".join(lines)


def export_ilp(inst: ScenarioInstance, forced_excellence: ExcellenceSet | None = None) -> str:
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

    A ward's names and lines are templates, filled in per cell by one
    str.replace; coefficients are written a block at a time, the prices or a
    ward's cells (_lp_terms). Each section is joined once it is rendered.
    """
    nq, nr = inst.num_hospitals, inst.num_wards
    model = inst._costs
    ys = [f"y_{qi}_{ri}" for qi in range(nq) for ri in range(nr)]
    prices = [p for row in model.prices for p in row]
    districts = [str(di) for di in range(nq)]  # a ward's cells, one per district

    templates = []  # per ward: names, assign line, link lines, Binary lines of cell "#_ri"
    for ri in range(nr):
        xs = [f"x_#_{ri}_{qi}" for qi in range(nq)]
        names = " ".join(xs) + f" xout_#_{ri}"
        links = "\n".join(f" link{x[1:]}: {x} - y_{qi}_{ri} <= 0" for qi, x in enumerate(xs))
        assign = f" assign_#_{ri}: xout_#_{ri} + " + " + ".join(xs) + " = 1"
        templates.append((names, assign, links, " " + names.replace(" ", "\n ")))

    def filled(part: int) -> list[str]:  # template `part` of every cell, in cell order
        return [templates[ri][part].replace("#", d) for ri in range(nr) for d in districts]

    def objective():  # every variable once, the y terms first
        terms = _lp_terms(prices, model.price_scale, "obj", ys)
        for (scale, rows), (names, *_) in zip(model.wards, templates):
            ns = [count * c for count, out, internal in rows for c in (*internal, out)]
            names = " ".join([names.replace("#", d) for d in districts]).split(" ")
            terms += _lp_terms(ns, scale, "obj", names)
        return terms

    sections = ["Minimize\n" + _lp_row("obj", objective()), "\n".join(["Subject To", *filled(1)])]
    # prices and budget at the price scale are the budget row's exact ints
    budget = _lp_row("budget", _lp_terms(prices, 1, "budget", ys))
    sections.append("\n".join([*filled(2), f"{budget} <= {_lp_num(model.budget, 1, 'budget')}"]))
    forced = () if forced_excellence is None else forced_excellence._indices(inst)
    sections.append("\n".join(["Bounds", *(f" {ys[qi * nr + ri]} = 1" for qi, ri in forced)]))
    sections.append("\n".join(["Binary", " " + "\n ".join(ys), *filled(3), "End", ""]))
    return "\n".join(sections)


def plan_to_dict(solution: PlanSolution, staircase: bool = False) -> dict:
    """JSON-ready planning report with rationals as "num/den" strings; with
    staircase, it carries the plan's staircase verdict where the instance's
    convenience orders exist."""
    doc = {
        "excellence": [
            {"hospital": q, "ward": r}
            for q, r in solution.excellence.sorted_members(solution.instance)
        ],
        "z_value": format_rational(solution.z_value),
        "excel_cost_part": format_rational(solution.excel_cost_part),
        "patient_cost_part": format_rational(solution.patient_cost_part),
        "assignment": [
            {
                "district": cell.district,
                "ward": cell.ward,
                "count": cell.count,
                "destination": OUTSIDE
                if dest == OUTSIDE
                else {"hospital": dest[0], "ward": dest[1]},
            }
            for cell, dest in solution.assignment.items()
        ],
        "trace": [
            {
                "added": {"hospital": step.added[0], "ward": step.added[1]},
                "z_before": format_rational(step.z_before),
                "z_after": format_rational(step.z_after),
            }
            for step in solution.trace
        ],
    }
    if staircase:
        try:
            verdict = check_staircase(solution)
        except AssumptionViolationError:  # no convenience orders
            return doc
        doc["staircase"] = {
            "holds": verdict.holds,
            "violation": None
            if verdict.violation is None
            else [list(verdict.violation[0]), list(verdict.violation[1])],
            "ward_order": list(verdict.orders.ward_order),
            "hospital_order": list(verdict.orders.hospital_order),
        }
    return doc
