"""Scenario data model: instances, demand derivation, assumption checks,
seeded generation, and the JSON scenario file format.

Inputs and reports are exact rationals (fractions.Fraction). Inside, each
instance's costs are scaled to exact ints, ward by ward (ScenarioInstance.
_costs); nothing in this package ever compares floats.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import GenerationError, InstanceTooLargeError, InvalidInstanceError

SCHEMA_VERSION = 1

PROFILE_UNCONSTRAINED = "unconstrained"
PROFILE_A1 = "assumption1-satisfying"
PROFILE_A45 = "assumption4&5-satisfying"
PROFILES = (PROFILE_UNCONSTRAINED, PROFILE_A1, PROFILE_A45)

# Rejection-sampling cap for constrained generation profiles.
_REJECTION_CAP = 1000

# Most internal-cost entries (|Q|^2 * |R|) the generator may draw.
_GENERATION_CAP = 10**6

# The distinct group sizes the assumption-1 profile draws from.
_A1_GROUP_SIZES = range(500, 1600)

# Python's default limit on the digits of an int string. It bounds the
# decimal exponent a rational string may carry, since Fraction expands the
# exponent in full and "1e999999999" would stall the load, and the digits of
# every numerator and denominator, so that each input value can be printed.
_MAX_DIGITS = 4300
_TOO_LONG = 10**_MAX_DIGITS  # the smallest int of more than _MAX_DIGITS digits


def _plain(value: str) -> Fraction | None:
    """A plain "n/d" of ASCII digits, d non-zero and each part of at most
    _MAX_DIGITS digits, parsed as two ints, which gives what Fraction(str)
    gives; None for any other string. Its value is never negative, and its
    digit counts bound both parts."""
    num, _, den = value.partition("/")
    if (
        value.isascii()
        and num.isdigit()
        and den.isdigit()
        and len(num) <= _MAX_DIGITS
        and len(den) <= _MAX_DIGITS
        and den.strip("0")
    ):
        return Fraction(int(num), int(den))
    return None


def parse_rational(value, name: str = "value") -> Fraction:
    """Parse a JSON-borne rational: an int, a "num/den" string, or a decimal
    string whose exponent is at most _MAX_DIGITS in magnitude. The numerator
    and denominator may have at most _MAX_DIGITS digits each."""
    # strings first: most values are strings, and Fraction's isinstance is slow
    if isinstance(value, str):
        if (plain := _plain(value)) is not None:
            return plain
        _, _, exponent = value.lower().partition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        # leading zeros are gone, so the first five digits decide the bound
        if digits.isdecimal() and int(digits[:5]) > _MAX_DIGITS:
            raise InvalidInstanceError(
                f"{name}: decimal exponent of {value!r} exceeds {_MAX_DIGITS}"
            )
        try:
            x = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstanceError(f"{name}: cannot parse rational {value!r}") from exc
    elif isinstance(value, bool):
        raise InvalidInstanceError(f"{name}: expected a rational, got a boolean")
    elif isinstance(value, int):
        x = Fraction(value)
    elif isinstance(value, Fraction):
        x = value
    else:
        raise InvalidInstanceError(
            f"{name}: expected int or 'num/den' string, got {type(value).__name__}"
        )
    num, den = x.as_integer_ratio()
    # O(1): ints of unequal size compare without a digit walk
    if abs(num) >= _TOO_LONG or den >= _TOO_LONG:
        raise InvalidInstanceError(
            f"{name}: more than {_MAX_DIGITS} digits in the numerator or "
            "denominator, too long to print"
        )
    return x


def format_rational(x: Fraction) -> str:
    """Canonical serialized form, always "num/den". A value too long for
    Python to print raises a size-guard error."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # the interpreter's limit on the digits of an int string
        raise InstanceTooLargeError(
            "a derived value has more than the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits, too long to write"
        ) from None


def _entries(values, name: str, count: int | None = None):
    """values, checked to be a list (or tuple), of exactly `count` entries
    when a count is given."""
    if not isinstance(values, (list, tuple)):
        raise InvalidInstanceError(f"{name}: expected a list, got {type(values).__name__}")
    if count is not None and len(values) != count:
        raise InvalidInstanceError(f"{name}: expected {count} entries, got {len(values)}")
    return values


def _rationals(values, name: str, shape: tuple[int, ...]):
    """Nested tuples of non-negative rationals from lists nested len(shape)
    levels deep, level k holding exactly shape[k] entries, in one walk; any
    defect raises an invalid-instance error naming the offending element."""
    values = _entries(values, name, shape[0])
    if len(shape) > 1:
        return tuple(
            _rationals(v, f"{name}[{i}]", shape[1:]) for i, v in enumerate(values)
        )
    row, last = [], None
    for i, v in enumerate(values):
        # a copy of the value before it (the same object, or an equal string,
        # as assumptions 4 and 5 repeat along the ward axis) was checked already
        if row and (v is last or type(v) is type(last) is str and v == last):
            row.append(row[-1])
            continue
        x = _plain(v) if isinstance(v, str) else None
        if x is None:
            x = parse_rational(v, f"{name}[{i}]")
            if x.numerator < 0:
                raise InvalidInstanceError(f"{name}[{i}]: must be non-negative, got {x}")
        row.append(x)
        last = v
    return tuple(row)


@dataclass(frozen=True)
class DemandCell:
    """Patients of one ward type living in one district.

    district: district id (districts coincide with hospital ids)
    ward: ward-type id
    count: number of patients, a non-negative integer
    """

    district: str
    ward: str
    count: int


@dataclass(frozen=True)
class ScenarioInstance:
    """One market: hospitals with their district populations, ward types with
    their patient groups, and the cost data of the central-financing regime.

    hospitals: hospital ids, one per district, index-aligned with population
    wards: ward-type ids
    population: fraction of total population per district; strictly positive,
        sums to exactly 1
    group_sizes: patients per ward type, non-negative integers
    excel_cost: excellence upgrade cost, indexed [hospital][ward]
    internal_cost: patient cost when treated inside the system, indexed
        [district][hospital][ward]
    out_cost: patient cost when treated outside the system, indexed
        [district][ward]
    budget: total upgrade budget, non-negative

    The constructor is the only validator: it takes lists or tuples and any
    rational parse_rational accepts, checks each field once, and raises an
    invalid-instance error naming the first bad element.
    """

    hospitals: tuple[str, ...]
    wards: tuple[str, ...]
    population: tuple[Fraction, ...]
    group_sizes: tuple[int, ...]
    excel_cost: tuple[tuple[Fraction, ...], ...]
    internal_cost: tuple[tuple[tuple[Fraction, ...], ...], ...]
    out_cost: tuple[tuple[Fraction, ...], ...]
    budget: Fraction

    def __post_init__(self):
        for name, kind in (("hospitals", "hospital"), ("wards", "ward type")):
            ids = _entries(getattr(self, name), name)
            if not ids:
                raise InvalidInstanceError(f"{name}: need at least one {kind}")
            if any(not isinstance(i, str) or not i for i in ids):
                raise InvalidInstanceError(f"{name}: ids must be non-empty strings")
            for i in ids:
                try:
                    i.encode("utf-8")
                except UnicodeEncodeError:
                    raise InvalidInstanceError(
                        f"{name}: id {i!r} cannot be encoded as UTF-8"
                    ) from None
            if len(set(ids)) != len(ids):
                raise InvalidInstanceError(f"{name}: ids must be unique")
            object.__setattr__(self, name, tuple(ids))
        nq, nr = len(self.hospitals), len(self.wards)

        population = _rationals(self.population, "population", (nq,))
        if 0 in population:
            raise InvalidInstanceError("population: every fraction must be strictly positive")
        total = sum(population)
        if total != 1:
            total = parse_rational(total, "population: the sum")  # raises if too long to print
            raise InvalidInstanceError(
                f"population: fractions must sum to exactly 1, got {total}"
            )
        group_sizes = tuple(_entries(self.group_sizes, "group_sizes", nr))
        for i, s in enumerate(group_sizes):
            if isinstance(s, bool) or not isinstance(s, int) or s < 0:
                raise InvalidInstanceError(
                    f"group_sizes[{i}]: must be a non-negative integer, got {s!r}"
                )
        budget = parse_rational(self.budget, "budget")
        if budget < 0:
            raise InvalidInstanceError(f"budget: must be non-negative, got {budget}")
        parsed = {
            "population": population,
            "group_sizes": group_sizes,
            "excel_cost": _rationals(self.excel_cost, "excel_cost", (nq, nr)),
            "internal_cost": _rationals(self.internal_cost, "internal_cost", (nq, nq, nr)),
            "out_cost": _rationals(self.out_cost, "out_cost", (nq, nr)),
            "budget": budget,
        }
        for name, value in parsed.items():
            object.__setattr__(self, name, value)

    @property
    def num_hospitals(self) -> int:
        return len(self.hospitals)

    @property
    def num_wards(self) -> int:
        return len(self.wards)

    def hospital_index(self, hospital: str) -> int:
        try:
            return self.hospitals.index(hospital)
        except ValueError:
            raise InvalidInstanceError(f"unknown hospital id {hospital!r}") from None

    def ward_index(self, ward: str) -> int:
        try:
            return self.wards.index(ward)
        except ValueError:
            raise InvalidInstanceError(f"unknown ward id {ward!r}") from None

    def demand_cells(self) -> tuple[DemandCell, ...]:
        """Each ward type's patient group distributed over the districts (the
        hospital ids), ward-major: ((d1,r1), (d2,r1), ..., (d1,r2), ...).

        Counts follow the population fractions with largest-remainder
        rounding, ties broken by district index, so each group's counts sum
        exactly to its size. Built on first use and kept on the instance."""
        return self._cells

    @functools.cached_property
    def _cells(self) -> tuple[DemandCell, ...]:
        return tuple(
            DemandCell(district=district, ward=ward, count=count)
            for ward, (_, rows) in zip(self.wards, self._costs.wards)
            for district, (count, _, _) in zip(self.hospitals, rows)
        )

    @functools.cached_property
    def _costs(self) -> CostModel:
        """The costs as exact ints, built once: per ward type, one row per
        district, (count, outside cost, internal cost at each hospital index),
        each cost times the ward's scale, the LCM of the ward's cost
        denominators; demand_cells() lists the same cells in the same order.
        Prices and the budget are times the LCM of their own denominators.
        The one place that looks up a cell's costs: the solvers and checkers
        read cells through this, one ward's rows at a time, since an upgrade
        in ward r moves only ward-r patients. A scale per ward keeps each int
        free of the other wards' denominators."""
        start = time.perf_counter()
        wards = []
        for ri, size in enumerate(self.group_sizes):
            outs = [row[ri].as_integer_ratio() for row in self.out_cost]
            internals = [
                [c[ri].as_integer_ratio() for c in plane] for plane in self.internal_cost
            ]
            scale = math.lcm(*(d for _, d in outs), *(d for row in internals for _, d in row))
            counts = largest_remainder_split(size, self.population)
            rows = tuple(
                (count, out, _scaled(internal, scale))
                for count, out, internal in zip(counts, _scaled(outs, scale), internals)
            )
            wards.append(WardCosts(scale, rows))
        prices = [[c.as_integer_ratio() for c in row] for row in self.excel_cost]
        budget = self.budget.as_integer_ratio()
        price_scale = math.lcm(budget[1], *(d for row in prices for _, d in row))
        (scaled_budget,) = _scaled([budget], price_scale)
        model = CostModel(
            tuple(wards),
            price_scale,
            tuple(_scaled(row, price_scale) for row in prices),
            scaled_budget,
        )
        _debug(
            __name__,
            "cost model: price scale %d bits, largest ward scale %d bits, built in %.6f s",
            price_scale.bit_length(),
            max(ward.scale.bit_length() for ward in wards),
            time.perf_counter() - start,
        )
        return model


def _debug(logger: str, message: str, *args) -> None:
    """Log message % args at DEBUG on the named logger. logging is imported
    here so that importing the package does not load it (about 3 ms); the
    CLI has loaded it already."""
    import logging

    logging.getLogger(logger).debug(message, *args)


class WardCosts(NamedTuple):
    """One ward type's demand cells, one row per district: (count, outside
    cost, internal cost at each hospital index), every cost times scale."""

    scale: int
    rows: tuple[tuple[int, int, tuple[int, ...]], ...]


class CostModel(NamedTuple):
    """An instance's costs as exact ints (ScenarioInstance._costs): each ward
    type's cells at that ward's scale, and the upgrade prices, indexed
    [hospital][ward], and the budget at price_scale. An int n at scale L
    stands for the rational n / L."""

    wards: tuple[WardCosts, ...]
    price_scale: int
    prices: tuple[tuple[int, ...], ...]
    budget: int


def _scaled(ratios, scale: int) -> tuple[int, ...]:
    """Each (numerator, denominator) pair's value times scale, for a scale
    that every denominator divides. A value already at the scale keeps its
    numerator object, so the model holds no second copy of it."""
    return tuple([n if d == scale else n * (scale // d) for n, d in ratios])


def largest_remainder_split(total: int, shares: Sequence[Fraction]) -> list[int]:
    """Split `total` into integer parts proportional to `shares` (summing to 1).

    Floors each quota and gives the leftover units to the largest remainders,
    ties to the lowest index: with share i = w_i / L, divmod(total * w_i, L)
    is quota i's floor and L times its remainder. A `total` not an int >= 0,
    or shares not numbers, negative or not summing to 1, raise InvalidInstanceError.
    """
    if isinstance(total, bool) or not isinstance(total, int) or total < 0:
        raise InvalidInstanceError(f"total: must be a non-negative integer, got {total!r}")
    try:  # None, a string, NaN and the infinities have no integer ratio
        ratios = [s.as_integer_ratio() for s in shares]
    except (AttributeError, ValueError, OverflowError):
        ratios = []  # no shares sum to 0, so they are refused below
    scale = math.lcm(*(d for _, d in ratios))
    weights = _scaled(ratios, scale)
    if any(w < 0 for w in weights) or sum(weights) != scale:
        raise InvalidInstanceError("shares: must be non-negative and sum to exactly 1")
    quotas = [divmod(total * w, scale) for w in weights]
    parts = [floor for floor, _ in quotas]
    leftover = total - sum(parts)
    for i in sorted(range(len(quotas)), key=lambda i: (-quotas[i][1], i))[:leftover]:
        parts[i] += 1
    return parts


# Each violation code's message, filled in from the witness's `where` ids
# and its two sides; no message is worded anywhere else.
_MESSAGES = {
    "group-not-above-smallest-district-slice": (
        "group {ward} has {lhs} patients, not more than the {rhs} patients of "
        "group {other_ward} living in district {district}"
    ),
    "budget-below-cheapest-upgrade": "budget {lhs} is below the cheapest upgrade cost {rhs}",
    "inside-benefit-not-above-upgrade-cost": (
        "total inside-treatment benefit {lhs} does not exceed the total upgrade cost {rhs}"
    ),
    "internal-cost-depends-on-ward": (
        "internal cost from district {district} to hospital {hospital} differs across "
        "ward types: {lhs} for {ward} vs {rhs} for {other_ward}"
    ),
    "upgrade-cost-not-uniform": (
        "upgrade cost is not uniform: ({hospital}, {ward}) costs {lhs} but "
        "({other_hospital}, {other_ward}) costs {rhs}"
    ),
}


@dataclass(frozen=True)
class Violation:
    """One concrete witness of a failed assumption check.

    code: machine-readable kind of failure
    where: named ids/indices pinpointing the witness
    lhs, rhs: the two sides of the inequality or equality that failed
    """

    code: str
    where: dict
    lhs: Fraction
    rhs: Fraction

    @property
    def message(self) -> str:
        """Human-readable rendering: the code's template over where, lhs, rhs."""
        return _MESSAGES[self.code].format(**self.where, lhs=self.lhs, rhs=self.rhs)

    def __str__(self):
        return self.message


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of one assumption check."""

    assumption: int
    violations: tuple[Violation, ...]

    @property
    def holds(self) -> bool:
        """True iff the check found no violation."""
        return not self.violations


def _a1_failures(group_sizes, population):
    """Assumption 1's failing groups, as (k, value, i, j): group k has no more
    than value = |P_i| * a_j patients, the smallest slice of another group
    (ties to the lowest i, then j). Both factors are non-negative, so i is the
    smallest other group and a_j the smallest share; if P_i is empty, all j tie."""
    share = min(population)
    smallest = sorted(range(len(group_sizes)), key=lambda i: (group_sizes[i], i))[:2]
    for k, size in enumerate(group_sizes):
        i = next((i for i in smallest if i != k), None)
        if i is not None and not size > (value := group_sizes[i] * share):
            yield k, value, i, population.index(share) if value else 0


def check_assumption1(inst: ScenarioInstance) -> AssumptionReport:
    """Each patient group strictly outnumbers the smallest per-district slice
    of every other group. Vacuously true with a single ward type."""
    wards, districts = inst.wards, inst.hospitals
    violations = [
        Violation(
            "group-not-above-smallest-district-slice",
            {"ward": wards[k], "other_ward": wards[i], "district": districts[j]},
            Fraction(inst.group_sizes[k]),
            value,
        )
        for k, value, i, j in _a1_failures(inst.group_sizes, inst.population)
    ]
    return AssumptionReport(1, tuple(violations))


def check_assumption2(inst: ScenarioInstance) -> AssumptionReport:
    """The budget buys at least the cheapest upgrade, and treating everyone
    inside saves strictly more patient cost than all upgrades together cost."""
    violations = []
    min_cost = min(min(row) for row in inst.excel_cost)
    if inst.budget < min_cost:
        violations.append(
            Violation("budget-below-cheapest-upgrade", {}, inst.budget, min_cost)
        )
    nq = inst.num_hospitals
    benefit = sum(  # at least one ward, so the sum is a Fraction
        Fraction(sum(count * (nq * out - sum(internal)) for count, out, internal in rows), scale)
        for scale, rows in inst._costs.wards
    )
    total_upgrade = sum(sum(row) for row in inst.excel_cost)
    if not benefit > total_upgrade:
        violations.append(
            Violation("inside-benefit-not-above-upgrade-cost", {}, benefit, total_upgrade)
        )
    return AssumptionReport(2, tuple(violations))


def check_assumption3(inst: ScenarioInstance) -> AssumptionReport:
    """Accepting the greedy plan even when it is not optimal is a modeling
    stance, not a property of instance data, so this check always holds."""
    return AssumptionReport(3, ())


def check_assumption4(inst: ScenarioInstance) -> AssumptionReport:
    """Internal patient costs do not depend on the ward type. The report holds
    the first cost, by district, hospital and ward, unequal to ward 0's, found
    by normalized integer ratios (Fraction == runs the numbers.Rational check)."""
    for d, plane in enumerate(inst.internal_cost):
        for q, (base, *others) in enumerate(plane):
            ratio = base.as_integer_ratio()
            for r, value in enumerate(others, 1):
                if value.as_integer_ratio() != ratio:
                    where = {
                        "district": inst.hospitals[d],
                        "hospital": inst.hospitals[q],
                        "ward": inst.wards[0],
                        "other_ward": inst.wards[r],
                    }
                    witness = Violation("internal-cost-depends-on-ward", where, base, value)
                    return AssumptionReport(4, (witness,))
    return AssumptionReport(4, ())


def check_assumption5(inst: ScenarioInstance) -> AssumptionReport:
    """Every upgrade costs the same; the report carries the first
    counterexample found."""
    base = inst.excel_cost[0][0]
    for q, row in enumerate(inst.excel_cost):
        for r, value in enumerate(row):
            if value != base:
                where = {
                    "hospital": inst.hospitals[0],
                    "ward": inst.wards[0],
                    "other_hospital": inst.hospitals[q],
                    "other_ward": inst.wards[r],
                }
                witness = Violation("upgrade-cost-not-uniform", where, base, value)
                return AssumptionReport(5, (witness,))
    return AssumptionReport(5, ())


def all_assumptions(inst: ScenarioInstance) -> tuple[AssumptionReport, ...]:
    """Run the five assumption checkers in order."""
    return (
        check_assumption1(inst),
        check_assumption2(inst),
        check_assumption3(inst),
        check_assumption4(inst),
        check_assumption5(inst),
    )


# ---------------------------------------------------------------------------
# Seeded generation


def _distinct_sample(rng: random.Random, count: int, lo: int, step: int = 1) -> list[int]:
    # sample without replacement from a range wide enough to stay cheap
    span = max(4 * count, 256)
    return rng.sample(range(lo, lo + span * step, step), count)


def _quarters(rng: random.Random, shape: tuple[int, ...], lo: int) -> tuple:
    """Distinct quarters n/4, the numerators one sample from lo upward in steps
    of 2, nested row-major into `shape`."""
    values = [Fraction(n, 4) for n in _distinct_sample(rng, math.prod(shape), lo, step=2)]
    for size in reversed(shape[1:]):
        values = [tuple(values[i : i + size]) for i in range(0, len(values), size)]
    return tuple(values)


def _ids(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def _gen_default(rng: random.Random, nq: int, nr: int, require_a1: bool) -> tuple:
    if require_a1:
        weights = rng.sample(range(90, 90 + max(24, nq + 1)), nq)
    else:
        weights = _distinct_sample(rng, nq, 40)
    total_w = sum(weights)
    population = tuple(Fraction(w, total_w) for w in weights)

    if require_a1:
        for _ in range(_REJECTION_CAP):
            sizes = tuple(rng.sample(_A1_GROUP_SIZES, nr))
            if next(_a1_failures(sizes, population), None) is None:
                break
        else:
            raise GenerationError(
                f"profile {PROFILE_A1!r}: found no admissible group sizes "
                f"within {_REJECTION_CAP} tries"
            )
    else:
        sizes = tuple(_distinct_sample(rng, nr, 200))

    excel_cost = _quarters(rng, (nq, nr), 401)
    internal_cost = _quarters(rng, (nq, nq, nr), 11)
    out_cost = _quarters(rng, (nq, nr), 1)
    sum_cost = sum(sum(row) for row in excel_cost)
    budget_cap = (sum_cost.numerator * 6) // (sum_cost.denominator * 5) + 1
    budget = Fraction(rng.randint(0, budget_cap))
    return population, sizes, excel_cost, internal_cost, out_cost, budget


def _gen_a45(rng: random.Random, nq: int, nr: int) -> tuple:
    """Distance-derived internal costs constant across wards, uniform upgrade
    cost, and group sizes that are exact multiples of the population-weight
    total (so demand cells carry no rounding error)."""
    weights = rng.sample(range(60, 60 + max(81, nq + 1)), nq)
    total_w = sum(weights)
    population = tuple(Fraction(w, total_w) for w in weights)
    multipliers = rng.sample(range(2, 2 + max(80, nr + 1)), nr)
    sizes = tuple(m * total_w for m in multipliers)

    positions = rng.sample(range(0, max(120, 3 * nq)), nq)
    jitters = _distinct_sample(rng, nq * nq, 0)
    base_in = [
        [
            Fraction(1000 * abs(positions[d] - positions[q]) + jitters[d * nq + q], 100)
            for q in range(nq)
        ]
        for d in range(nq)
    ]
    out_nums = rng.sample(range(30001, 180001, 2), nq)
    base_out = [Fraction(n, 100) for n in out_nums]

    internal_cost = tuple(
        tuple(tuple(base_in[d][q] for _ in range(nr)) for q in range(nq))
        for d in range(nq)
    )
    out_cost = tuple(tuple(base_out[d] for _ in range(nr)) for d in range(nq))

    # Calibrate the uniform upgrade cost against the average patient-cost gain
    # so that greedy stops at varied depths across seeds.
    z_empty = sum(
        m * sum(w * base_out[d] for d, w in enumerate(weights)) for m in multipliers
    )
    z_full = sum(
        m * sum(w * min(base_out[d], min(base_in[d])) for d, w in enumerate(weights))
        for m in multipliers
    )
    mean_gain = (z_empty - z_full) / (nq * nr)
    upgrade = mean_gain * Fraction(rng.randint(20, 300), 100)
    excel_cost = tuple(tuple(upgrade for _ in range(nr)) for _ in range(nq))
    budget = upgrade * rng.randint(1, nq * nr)
    return population, sizes, excel_cost, internal_cost, out_cost, budget


def generate_scenario(
    seed: int, dims: tuple[int, int], profile: str = PROFILE_UNCONSTRAINED
) -> ScenarioInstance:
    """Deterministically generate a scenario instance.

    Args:
        seed: RNG seed; identical (seed, dims, profile) yields an identical
            instance.
        dims: (number of hospitals, number of ward types), both >= 1; an
            instance of more than 10**6 internal costs (|Q|^2 * |R|) raises
            InstanceTooLargeError before anything is drawn.
        profile: "unconstrained" draws wide tie-avoiding rationals;
            "assumption1-satisfying" draws balanced populations and
            same-magnitude group sizes by rejection until check_assumption1
            holds (generation error after 1000 tries, or before any draw
            with one hospital and several ward types, where it cannot hold,
            or with more ward types than the 1,100 distinct sizes it draws);
            "assumption4&5-satisfying" builds distance-derived internal costs
            constant across wards and a uniform upgrade cost.
    """
    nq, nr = dims
    if nq < 1 or nr < 1:
        raise InvalidInstanceError("dims: need at least one hospital and one ward type")
    size = nq * nq * nr
    if size > _GENERATION_CAP:
        # past _MAX_DIGITS digits an int cannot print; a smaller size bounds both dims
        if size < _TOO_LONG:
            needs = f"{nq}x{nr} needs {size}"
        else:
            needs = f"need at least 10**{_MAX_DIGITS}"
        raise InstanceTooLargeError(
            f"dims: {needs} internal costs, over the generator's cap of {_GENERATION_CAP}"
        )
    if profile not in PROFILES:
        raise InvalidInstanceError(
            f"profile: unknown generation profile {profile!r}; choose from {PROFILES}"
        )
    if profile == PROFILE_A1 and nq == 1 and nr > 1:
        # one district: each slice is a whole group, and the smallest group
        # never strictly exceeds another
        raise GenerationError(
            f"profile {PROFILE_A1!r}: assumption 1 cannot hold with one hospital "
            f"and {nr} ward types"
        )
    if profile == PROFILE_A1 and nr > len(_A1_GROUP_SIZES):
        raise GenerationError(
            f"profile {PROFILE_A1!r}: {nr} ward types need distinct group sizes, "
            f"but it draws from only {len(_A1_GROUP_SIZES)}"
        )
    rng = random.Random(seed)
    # a profile returns its draws in field order: population, sizes, costs, budget
    if profile == PROFILE_A45:
        drawn = _gen_a45(rng, nq, nr)
    else:
        drawn = _gen_default(rng, nq, nr, require_a1=profile == PROFILE_A1)
    return ScenarioInstance(_ids("q", nq), _ids("r", nr), *drawn)


# ---------------------------------------------------------------------------
# Scenario file format


def _to_json(value):
    """Tuples become lists and rationals "num/den" strings, at any depth."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, Fraction):
        return format_rational(value)
    return value


def instance_to_dict(inst: ScenarioInstance) -> dict:
    """JSON-ready document: the schema version, then every instance field in
    declaration order; rationals become "num/den" strings."""
    doc = {"schema": SCHEMA_VERSION}
    for field in fields(ScenarioInstance):
        doc[field.name] = _to_json(getattr(inst, field.name))
    return doc


def instance_from_dict(doc) -> ScenarioInstance:
    if not isinstance(doc, dict):
        raise InvalidInstanceError("scenario document must be a JSON object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # True == 1.0 == 1
        raise InvalidInstanceError(
            f"schema: unsupported version {schema!r}, expected {SCHEMA_VERSION}"
        )
    # the document's fields are exactly the instance's, in the same order
    required = [field.name for field in fields(ScenarioInstance)]
    for key in required:
        if key not in doc:
            raise InvalidInstanceError(f"{key}: missing required field")
    return ScenarioInstance(**{key: doc[key] for key in required})


def dumps_scenario(inst: ScenarioInstance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def save_scenario(inst: ScenarioInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(inst))


def load_scenario(path) -> ScenarioInstance:
    """Load and validate a scenario file; any defect raises an invalid-instance
    error naming the offending field."""
    start = time.perf_counter()
    with open(path, "r", encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            doc = json.loads(fh.read())
        # ValueError also covers bytes that are not UTF-8 and over-long ints
        except (ValueError, RecursionError) as exc:
            raise InvalidInstanceError(f"malformed JSON in scenario file: {exc}") from exc
    inst = instance_from_dict(doc)
    elapsed = time.perf_counter() - start
    _debug(__name__, "scenario: loaded %s, %d bytes, in %.6f s", path, size, elapsed)
    return inst
