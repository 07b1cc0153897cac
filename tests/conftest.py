"""Shared fixtures and independent oracles used across the test modules.

The oracles here deliberately avoid the package's own algorithms: splits are
checked against full enumeration, plan values against a per-cell brute force,
greedy plans and convenience orders against step-by-step searches valued by
that brute force, and the
LP export against a tiny standalone CPLEX-LP parser plus an external
MILP solver when one is installed.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from wardalloc import PayoffTensor, ScenarioInstance


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


# Budgets as shares of all upgrade costs: tight, middling and loose.
SHARES = (Fraction(1, 16), Fraction(1, 4), Fraction(1, 2))


def with_budget_share(inst, share):
    """The instance with its budget set to `share` of all upgrade costs."""
    total = sum((sum(row) for row in inst.excel_cost), Fraction(0))
    return dataclasses.replace(inst, budget=total * share)


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
