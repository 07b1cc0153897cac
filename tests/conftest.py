"""Shared fixtures and independent oracles used across the test modules.

The oracles here deliberately avoid the package's own algorithms: splits are
checked against full enumeration and against Fraction quotas, assumptions 1
and 4 against their Fraction forms, plan values against a per-cell brute
force, the exact solver against the merge of every fitting subset that its
per-ward frontier replaced, greedy plans and convenience orders against
step-by-step searches valued by that brute force, the loader's nested rationals against a walk
that parses every value on its own, the local game's payoffs against
shares summed as Fractions and its equilibria against LPT, the greedy order
of load balancing on related machines, and the LP export against a tiny
standalone CPLEX-LP parser plus an external MILP solver when one is
installed, and the LP export's text against the per-term writer it
replaced (reference_export_ilp).
"""

import dataclasses
import json
import random
from fractions import Fraction
from itertools import chain, islice, repeat

import pytest

from wardalloc import (
    PROFILES,
    AssumptionReport,
    InvalidInstanceError,
    PayoffTensor,
    ScenarioInstance,
    Violation,
    central_plan,
    generate_scenario,
    instance_from_dict,
    instance_to_dict,
    parse_rational,
)
from wardalloc.central_plan import (
    EXACT_ENUMERATION_CAP,
    _checked_solution,
    _improvements,
    _lp_num,
    _outside_costs,
    _patient_cost,
)
from wardalloc.errors import InstanceTooLargeError
from wardalloc.scenario import _entries


def make_instance(
    sizes,
    pop,
    *,
    excel=None,
    internal=None,
    out=None,
    budget=0,
    hospitals=None,
    wards=None,
):
    """Instance with trivial cost data unless given; handy for game tests
    where only sizes and population matter."""
    nq, nr = len(pop), len(sizes)
    if hospitals is None:
        hospitals = tuple(f"q{i + 1}" for i in range(nq))
    if wards is None:
        wards = tuple(f"r{i + 1}" for i in range(nr))
    if excel is None:
        excel = [[1] * nr for _ in range(nq)]
    if internal is None:
        internal = [[[0] * nr for _ in range(nq)] for _ in range(nq)]
    if out is None:
        out = [[0] * nr for _ in range(nq)]
    return ScenarioInstance(
        hospitals=hospitals,
        wards=wards,
        population=pop,
        group_sizes=sizes,
        excel_cost=excel,
        internal_cost=internal,
        out_cost=out,
        budget=budget,
    )


@pytest.fixture
def comparable_market():
    # two patient groups of the same order of magnitude
    return make_instance((1000, 400), (Fraction(1, 4), Fraction(3, 4)))


@pytest.fixture
def lopsided_market():
    # second group negligible next to the first
    return make_instance((1000, 4), (Fraction(1, 4), Fraction(3, 4)))


RECEPTION_TABLE = {
    ("SW", "SW"): (33, 33),
    ("SW", "SC"): (57, 43),
    ("SW", "WC"): (45, 55),
    ("SC", "SW"): (43, 57),
    ("SC", "SC"): (34, 34),
    ("SC", "WC"): (38, 62),
    ("WC", "SW"): (55, 45),
    ("WC", "SC"): (62, 38),
    ("WC", "WC"): (39, 39),
}


@pytest.fixture
def reception_game():
    """Pinned 3x3 bimatrix: two clinics equip their reception for two of
    three audiences (Sportspeople, Women, Children) and split captured
    shares; payoffs are market-share percentages."""
    payoffs = {
        key: (Fraction(a), Fraction(b)) for key, (a, b) in RECEPTION_TABLE.items()
    }
    return PayoffTensor(
        hospitals=("I", "II"), strategies=("SW", "SC", "WC"), payoffs=payoffs
    )


# ---------------------------------------------------------------------------
# independent oracles


def iter_splits(total, parts):
    """All non-negative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in iter_splits(total - first, parts - 1):
            yield (first,) + rest


def minimax_split(total, shares):
    """Integer split minimizing the largest deviation from the exact quotas,
    ties resolved toward the lexicographically greatest vector (extra units to
    the lowest indices)."""
    best_key = None
    best = None
    for combo in iter_splits(total, len(shares)):
        dev = max(abs(Fraction(c) - total * s) for c, s in zip(combo, shares))
        key = (dev, tuple(-c for c in combo))
        if best_key is None or key < best_key:
            best_key, best = key, combo
    return list(best)


def reference_a1_failures(group_sizes, population):
    """Assumption 1's failing groups as (k, value, i, j), from the list of
    every slice |P_i| * a_j of every other group i and district j: group k
    has no more than the smallest (ties to the lowest i, then j)."""
    for k, size in enumerate(group_sizes):
        slices = [
            (Fraction(other) * a, i, j)
            for i, other in enumerate(group_sizes)
            if i != k
            for j, a in enumerate(population)
        ]
        if slices and not Fraction(size) > (smallest := min(slices))[0]:
            yield (k, *smallest)


def reference_split(total, shares):
    """Largest-remainder split from Fraction quotas: floor every quota, then
    one more unit to each of the largest remainders, ties to the lowest
    index."""
    if isinstance(total, bool) or not isinstance(total, int) or total < 0:
        raise InvalidInstanceError(f"total: must be a non-negative integer, got {total!r}")
    if any(s < 0 for s in shares) or sum(shares) != 1:
        raise InvalidInstanceError("shares: must be non-negative and sum to exactly 1")
    quotas = [total * s for s in shares]
    parts = [int(q) for q in quotas]
    leftover = total - sum(parts)
    by_remainder = sorted(range(len(shares)), key=lambda i: (parts[i] - quotas[i], i))
    for i in by_remainder[:leftover]:
        parts[i] += 1
    return parts


def reference_assumption4(inst):
    """Assumption 4's report from Fraction comparisons: the first internal
    cost, in (district, hospital, ward) order, that differs from ward 0's."""
    for d, plane in enumerate(inst.internal_cost):
        for q, (base, *others) in enumerate(plane):
            for r, value in enumerate(others, 1):
                if value != base:
                    where = {
                        "district": inst.hospitals[d],
                        "hospital": inst.hospitals[q],
                        "ward": inst.wards[0],
                        "other_ward": inst.wards[r],
                    }
                    witness = Violation("internal-cost-depends-on-ward", where, base, value)
                    return AssumptionReport(4, (witness,))
    return AssumptionReport(4, ())


def reference_rationals(values, name, shape):
    """The scenario loader's nested rationals from a walk that parses and
    checks every leaf on its own, under its own element name."""
    values = _entries(values, name, shape[0])
    if len(shape) > 1:
        return tuple(
            reference_rationals(v, f"{name}[{i}]", shape[1:]) for i, v in enumerate(values)
        )
    row = []
    for i, v in enumerate(values):
        x = parse_rational(v, f"{name}[{i}]")
        if x.numerator < 0:
            raise InvalidInstanceError(f"{name}[{i}]: must be non-negative, got {x}")
        row.append(x)
    return tuple(row)


def lpt_choice(groups, shares):
    """Longest processing time first: hospitals by decreasing share (ties to
    the lower index), each onto the ward maximising G_r / (W_r + p_q) given
    the wards' loads so far (ties to the lowest ward). Returns a ward index
    per hospital; the result is a pure equilibrium of the weighted game."""
    load = [Fraction(0)] * len(groups)
    choice = [None] * len(shares)
    for q in sorted(range(len(shares)), key=lambda q: (-shares[q], q)):
        best = max(range(len(groups)), key=lambda r: (groups[r] / (load[r] + shares[q]), -r))
        choice[q] = best
        load[best] += shares[q]
    return choice


def reference_payoffs(inst, choice):
    """Payoffs of one joint choice (a ward index per hospital) from Fraction
    shares: the population on each ward summed share by share, then each
    hospital's G_r * p_q / P_r."""
    pop = inst.population
    chooser_pop = {}
    for qi, ri in enumerate(choice):
        chooser_pop[ri] = chooser_pop.get(ri, Fraction(0)) + pop[qi]
    return tuple(
        inst.group_sizes[ri] * pop[qi] / chooser_pop[ri] for qi, ri in enumerate(choice)
    )


def brute_z(inst, members):
    """Plan cost of an excellence set, recomputed cell by cell from raw data."""
    members = list(members)
    excel = sum(
        (
            inst.excel_cost[inst.hospital_index(q)][inst.ward_index(r)]
            for q, r in members
        ),
        Fraction(0),
    )
    patient = Fraction(0)
    for cell in inst.demand_cells():
        d = inst.hospital_index(cell.district)
        r = inst.ward_index(cell.ward)
        options = [inst.out_cost[d][r]]
        for q, w in members:
            if w == cell.ward:
                options.append(inst.internal_cost[d][inst.hospital_index(q)][r])
        patient += cell.count * min(options)
    return excel + patient


def reference_greedy(inst):
    """Greedy trace straight from greedy_solve's definition, valued by brute_z.

    Each step adds the budget-feasible pair not yet in the set whose addition
    gives the lowest z, ties broken by (hospital index, ward index); it stops
    when nothing fits, nothing strictly improves, or every pair is in.
    Returns (added, z_before, z_after) triples.
    """
    members = []
    spent = Fraction(0)
    z = brute_z(inst, members)
    trace = []
    while True:
        options = []
        for qi, q in enumerate(inst.hospitals):
            for ri, r in enumerate(inst.wards):
                price = inst.excel_cost[qi][ri]
                if (q, r) in members or spent + price > inst.budget:
                    continue
                options.append((brute_z(inst, members + [(q, r)]), qi, ri))
        if not options:
            return trace
        z_new, qi, ri = min(options)
        if not z_new < z:
            return trace
        added = (inst.hospitals[qi], inst.wards[ri])
        members.append(added)
        spent += inst.excel_cost[qi][ri]
        trace.append((added, z, z_new))
        z = z_new


def reference_hospital_order(inst, ward):
    """Convenience order straight from hospital_order's definition, valued by
    brute_z: repeatedly append the hospital whose addition to the set already
    excellent in the ward gives the lowest z, ties broken by hospital index."""
    order = []
    while len(order) < inst.num_hospitals:
        options = [
            (brute_z(inst, [(p, ward) for p in order + [q]]), qi, q)
            for qi, q in enumerate(inst.hospitals)
            if q not in order
        ]
        order.append(min(options)[2])
    return tuple(order)


def one_ward(inst, ward):
    """The instance restricted to one ward: that ward's id, patient group and
    cost columns. Its market keeps the ward's scale, demand counts and scaled
    costs, so hospital_order of it is the ward's own order."""
    ri = inst.ward_index(ward)
    return dataclasses.replace(
        inst,
        wards=(ward,),
        group_sizes=(inst.group_sizes[ri],),
        excel_cost=[[row[ri]] for row in inst.excel_cost],
        internal_cost=[[[row[ri]] for row in plane] for plane in inst.internal_cost],
        out_cost=[[row[ri]] for row in inst.out_cost],
    )


def with_ward_free_costs(inst):
    """The instance with every ward's internal costs set to the first ward's,
    so that assumption 4 holds."""
    internal = [[[row[0]] * len(row) for row in plane] for plane in inst.internal_cost]
    return dataclasses.replace(inst, internal_cost=internal)


@pytest.fixture
def greedy_runs(monkeypatch):
    """The runs of central_plan._greedy_steps, one argument tuple per run,
    counted by a wrapper installed for the test."""
    runs = []
    greedy_steps = central_plan._greedy_steps

    def counted(*args):
        runs.append(args)
        return greedy_steps(*args)

    monkeypatch.setattr(central_plan, "_greedy_steps", counted)
    return runs


# Budgets as shares of all upgrade costs: tight, middling and loose.
SHARES = (Fraction(1, 16), Fraction(1, 4), Fraction(1, 2))


def with_budget_share(inst, share):
    """The instance with its budget set to `share` of all upgrade costs."""
    total = sum((sum(row) for row in inst.excel_cost), Fraction(0))
    return dataclasses.replace(inst, budget=total * share)


def as_file(inst):
    """The instance as a scenario file holds it, loaded back."""
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))


def tie_heavy_instance(seed, dims=None):
    """Small instance full of cost ties: internal and outside costs in 0..2,
    one uniform upgrade cost, small groups; up to 3x3 unless dims are given."""
    rng = random.Random(seed)
    nq, nr = (rng.randint(1, 3), rng.randint(1, 3)) if dims is None else dims
    weights = [rng.randint(1, 3) for _ in range(nq)]
    upgrade = rng.randint(1, 3)
    return make_instance(
        [rng.randint(0, 6) for _ in range(nr)],
        [Fraction(w, sum(weights)) for w in weights],
        excel=[[upgrade] * nr for _ in range(nq)],
        internal=[
            [[rng.randint(0, 2) for _ in range(nr)] for _ in range(nq)]
            for _ in range(nq)
        ],
        out=[[rng.randint(0, 2) for _ in range(nr)] for _ in range(nq)],
        budget=upgrade * rng.randint(0, nq * nr),
    )


def odd_primes():
    n = 3
    found = []
    while True:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
            yield n
        n += 2


def coprime_instance(seed, dims, profile=PROFILES[0]):
    """generate_scenario's instance with each cost and the budget moved to a
    nearby rational over its own odd prime. Under the assumption-4&5 profile
    a cost shared by every ward (an internal cost, the uniform price) keeps
    one shared prime, so both assumptions still hold."""
    inst = generate_scenario(seed, dims, profile)
    primes = odd_primes()
    memo = {}

    def own(c, share=None):
        if share is not None and share in memo:
            return memo[share]
        p = next(primes)
        n = round(c * p)
        x = Fraction(n + (n % p == 0), p)  # p never divides the numerator
        if share is not None:
            memo[share] = x
        return x

    shared = profile == PROFILES[2]
    return dataclasses.replace(
        inst,
        excel_cost=[[own(c, "price" if shared else None) for c in row] for row in inst.excel_cost],
        internal_cost=[
            [[own(c, (d, q) if shared else None) for c in row] for q, row in enumerate(plane)]
            for d, plane in enumerate(inst.internal_cost)
        ],
        out_cost=[[own(c) for c in row] for row in inst.out_cost],
        budget=own(inst.budget),
    )


def small_denominator_instance(seed, sizes=(0, 1, 2, 3, 4, 6, 12), wards=None):
    """Up to 4x3 game (or 4 hospitals and the given number of wards) with
    populations over a denominator from 2 to 12 and group sizes drawn from
    sizes: ties between splits abound."""
    rng = random.Random(seed)
    den = rng.randint(2, 12)
    nq = rng.randint(1, min(4, den))
    cuts = sorted(rng.sample(range(1, den), nq - 1))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    groups = [rng.choice(sizes) for _ in range(wards or rng.randint(1, 3))]
    return make_instance(groups, [Fraction(w, den) for w in weights])


def unpruned_best(inst):
    """Reference plan optimum: evaluate every admissible subset directly,
    with the same tie-breaks the exact solver documents."""
    import itertools

    pairs = [(q, r) for q in inst.hospitals for r in inst.wards]
    best = None
    for size in range(len(pairs) + 1):
        for members in itertools.combinations(pairs, size):
            cost = sum(
                (
                    inst.excel_cost[inst.hospital_index(q)][inst.ward_index(r)]
                    for q, r in members
                ),
                Fraction(0),
            )
            if cost > inst.budget:
                continue
            indexed = tuple(
                sorted(
                    (inst.hospital_index(q), inst.ward_index(r)) for q, r in members
                )
            )
            key = (brute_z(inst, members), len(members), indexed)
            if best is None or key < best:
                best = key
    return best


def _z_change(spent: int, saved: int, price_scale: int, scale: int) -> Fraction:
    """The exact change in z of upgrades in one ward that cost spent, at the
    price scale, and save saved, at the ward's scale."""
    return Fraction(spent * scale - saved * price_scale, price_scale * scale)


def reference_exact(inst):
    """exact_solve as it was before each ward's subsets were cut to its
    Pareto frontier: every plan kept so far meets every fitting subset of the
    next ward's upgrades, and only the merged plans are filtered. Same
    records, tie-breaks and guard as exact_solve."""
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


# ---------------------------------------------------------------------------
# the LP export as written before its templates: one term at a time


def _reference_lp_expr(row, terms, fallback_var):
    """Render row `row`'s (coefficient, its scale, variable) terms, six per
    line, skipping zeros, one line at a time."""
    rendered = (f"{_lp_num(n, scale, row, var)} {var}" for n, scale, var in terms if n)
    yield f" {row}: " + " + ".join(list(islice(rendered, 6)) or [f"0 {fallback_var}"])
    while chunk := list(islice(rendered, 6)):
        yield "   + " + " + ".join(chunk)


def reference_export_ilp(inst, forced_excellence=None):
    """export_ilp as it was before its templates and coefficient blocks:
    every name and line formatted on its own, and every coefficient written
    by _lp_num, its guard checked term by term."""
    nq, nr = inst.num_hospitals, inst.num_wards
    model = inst._costs
    ys = [f"y_{qi}_{ri}" for qi in range(nq) for ri in range(nr)]
    prices = [p for row in model.prices for p in row]

    cells = []  # (cell, ward index, x names, xout name) per demand cell
    for ri, (_, rows) in enumerate(model.wards):
        for di in range(len(rows)):
            cell = f"{di}_{ri}"
            cells.append((cell, ri, [f"x_{cell}_{qi}" for qi in range(nq)], f"xout_{cell}"))

    def objective():  # every variable once, the y terms first
        yield from zip(prices, repeat(model.price_scale), ys)
        rows = (row for _, ward_rows in model.wards for row in ward_rows)  # in cells' order
        for (count, out, internal), (_, ri, xs, xout) in zip(rows, cells):
            scale = model.wards[ri][0]
            yield from zip((count * c for c in internal), repeat(scale), xs)
            yield count * out, scale, xout

    def section(*parts):
        return "\n".join(chain(*parts))

    sections = [
        section(["Minimize"], _reference_lp_expr("obj", objective(), ys[0])),
        section(
            ["Subject To"],
            (f" assign_{cell}: {xout} + " + " + ".join(xs) + " = 1" for cell, _, xs, xout in cells),
        ),
    ]
    budget = list(_reference_lp_expr("budget", zip(prices, repeat(1), ys), ys[0]))
    budget[-1] += f" <= {_lp_num(model.budget, 1, 'budget')}"
    links = (
        f" link_{cell}_{qi}: {x} - {ys[qi * nr + ri]} <= 0"
        for cell, ri, xs, _ in cells
        for qi, x in enumerate(xs)
    )
    sections.append(section(links, budget))
    forced = () if forced_excellence is None else forced_excellence._indices(inst)
    sections.append(section(["Bounds"], (f" {ys[qi * nr + ri]} = 1" for qi, ri in forced)))
    variables = chain(ys, (v for _, _, xs, xout in cells for v in (*xs, xout)))
    sections.append(section(["Binary"], (f" {v}" for v in variables), ["End", ""]))
    return "\n".join(sections)


# ---------------------------------------------------------------------------
# standalone CPLEX-LP reader and external solve (for export cross-checks)


def parse_lp(text):
    """Read the CPLEX-LP subset the exporter emits.

    Returns (objective, constraints, fixed, binaries): objective maps
    variable -> coefficient; each constraint is (name, {var: coef}, op, rhs)
    with op one of "<=", "="; fixed maps each variable that a bound line
    fixes ("var = 1" or "var = 0") to that value.
    """
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    sections = {}
    current = None
    for ln in lines:
        word = ln.strip()
        if word in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            current = word
            sections[current] = []
        else:
            sections[current].append(ln)

    def read_terms(tokens):
        terms = {}
        sign = 1
        pending = None
        for tok in tokens:
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            elif _is_number(tok):
                pending = float(tok)
            else:
                coef = sign * (1.0 if pending is None else pending)
                terms[tok] = terms.get(tok, 0.0) + coef
                sign = 1
                pending = None
        return terms

    obj_text = " ".join(sections["Minimize"])
    obj_text = obj_text.split(":", 1)[1]
    objective = read_terms(obj_text.split())

    raw = []
    for ln in sections["Subject To"]:
        if ":" in ln.split("<=")[0].split("=")[0]:
            raw.append(ln)
        else:
            raw[-1] += " " + ln.strip()
    constraints = []
    for ln in raw:
        name, body = ln.split(":", 1)
        if "<=" in body:
            expr, rhs = body.split("<=")
            op = "<="
        else:
            expr, rhs = body.rsplit("=", 1)
            op = "="
        constraints.append((name.strip(), read_terms(expr.split()), op, float(rhs)))

    fixed = {}
    for ln in sections.get("Bounds", []):
        var, value = (part.strip() for part in ln.split("="))
        assert value in ("0", "1")
        fixed[var] = int(value)
    binaries = [ln.strip() for ln in sections.get("Binary", [])]
    return objective, constraints, fixed, binaries


def _is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def solve_lp_external(text):
    """Objective value of the parsed model via scipy's MILP solver, or None
    when scipy is unavailable."""
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError:
        return None

    objective, constraints, fixed, binaries = parse_lp(text)
    names = sorted(set(binaries) | set(objective))
    index = {v: i for i, v in enumerate(names)}
    c = np.zeros(len(names))
    for var, coef in objective.items():
        c[index[var]] = coef
    rows, lbs, ubs = [], [], []
    for _, terms, op, rhs in constraints:
        row = np.zeros(len(names))
        for var, coef in terms.items():
            row[index[var]] = coef
        rows.append(row)
        lbs.append(rhs if op == "=" else -np.inf)
        ubs.append(rhs)
    lower = np.zeros(len(names))
    upper = np.ones(len(names))
    for var, value in fixed.items():  # fixed at 1 or at 0
        lower[index[var]] = upper[index[var]] = value
    result = milp(
        c=c,
        constraints=LinearConstraint(np.array(rows), lbs, ubs),
        integrality=np.ones(len(names)),
        bounds=Bounds(lower, upper),
    )
    assert result.success, result.message
    return result.fun
