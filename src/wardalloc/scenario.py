"""Scenario data model: instances, demand derivation, assumption checks,
seeded generation, and the JSON scenario file format, whose renderer and
file writer the CLI's output shares.

Inputs and reports are exact rationals (fractions.Fraction). Inside, each
instance's costs are scaled to exact ints, ward by ward (ScenarioInstance.
_costs). Every instance holds its |Q|^2|R| internal costs as flat lists of
normalized integer ratios, set when it is built: a loaded file's plain "n/d"
strings are parsed into them plane by plane, and their Fraction table is
built only if something reads ScenarioInstance.internal_cost. Floats are
compared in two places only: central_plan._lp_num asks whether the LP text
can hold a value, and greedy's heap orders each key by its nearest float
(central_plan._nearest_float) before its exact value.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import re
import stat
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
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

# A plain "n/d" value: ASCII digits, 1 to _MAX_DIGITS of them on each side.
# _plain reads one value by it, and _plain_ratios a plane of them joined by "\n".
_PLAIN_VALUE = rf"[0-9]{{1,{_MAX_DIGITS}}}/[0-9]{{1,{_MAX_DIGITS}}}"
_PLAIN = re.compile(_PLAIN_VALUE)
_PLAIN_LINES = re.compile(rf"{_PLAIN_VALUE}(?:\n{_PLAIN_VALUE})*")


def _plain(value: str) -> Fraction | None:
    """A plain "n/d" (_PLAIN_VALUE) with d non-zero, parsed as two ints,
    which gives what Fraction(str) gives; None for any other string, and for
    digits that the interpreter's int-string limit refuses, which
    parse_rational then reports. Its value is never negative, and its digit
    counts bound both parts."""
    if _PLAIN.fullmatch(value) is None:
        return None
    num, _, den = value.partition("/")
    try:
        num, den = int(num), int(den)
    except ValueError:  # the interpreter's digit limit set below _MAX_DIGITS
        return None
    return Fraction(num, den) if den else None


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
        raise _too_long_to_write() from None


def _ratio_texts(nums, dens) -> list[str]:
    """Each numerator over its denominator, as format_rational writes it."""
    try:
        return [f"{n}/{d}" for n, d in zip(nums, dens)]
    except ValueError:
        raise _too_long_to_write() from None


def _too_long_to_write() -> InstanceTooLargeError:
    return InstanceTooLargeError(
        "a derived value has more than the interpreter's limit of "
        f"{sys.get_int_max_str_digits()} digits, too long to write"
    )


def _entries(values, name: str, count: int | None = None):
    """values, checked to be a list (or tuple), of exactly `count` entries
    when a count is given."""
    if not isinstance(values, (list, tuple)):
        raise InvalidInstanceError(f"{name}: expected a list, got {type(values).__name__}")
    if count is not None and len(values) != count:
        raise InvalidInstanceError(f"{name}: expected {count} entries, got {len(values)}")
    return values


def _id_list(values, name: str, count: int | None = None):
    """values, checked by the one id rule: a list (or tuple) of non-empty strings
    that UTF-8 can encode, `count` of them if given; callers check the rest."""
    values = _entries(values, name, count)
    if any(not isinstance(i, str) or not i for i in values):
        raise InvalidInstanceError(f"{name}: ids must be non-empty strings")
    for i in values:
        try:
            i.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidInstanceError(f"{name}: id {i!r} cannot be encoded as UTF-8") from None
    return values


def _count(value, name: str) -> int:
    """value, checked by the one count rule: an int, not a bool, >= 0."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        too_long = type(value) is int and value <= -_TOO_LONG  # repr would raise
        got = f"-10**{_MAX_DIGITS} or less" if too_long else repr(value)
        raise InvalidInstanceError(f"{name}: must be a non-negative integer, got {got}")
    return value


def _payoff_table(table, name: str, width: int) -> None:
    """table, checked in place by the one payoff rule: rows of `width` exact rationals."""
    if not isinstance(table, dict):
        raise InvalidInstanceError(f"{name}: expected a dict, got {type(table).__name__}")
    for key, row in table.items():
        for i, value in enumerate(_entries(row, at := f"{name}[{key!r}]", width)):
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                kind = type(value).__name__
                raise InvalidInstanceError(f"{at}[{i}]: expected an int or a Fraction, got {kind}")
            parse_rational(value, f"{at}[{i}]")  # bounds the digits


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


def _plain_ratios(table, nq: int, nr: int) -> tuple[list[int], list[int]] | None:
    """An internal-cost table of plain "n/d" strings (see _plain), nq planes
    of nq rows of nr, as flat lists of normalized numerators and
    denominators in [district][hospital][ward] order, parsed in bulk one
    plane at a time, each distinct string once; None for any other table,
    which _rationals then walks to name its first bad element."""
    if type(table) not in (list, tuple) or len(table) != nq:
        return None
    nums, dens = [], []
    for plane in table:
        if type(plane) not in (list, tuple) or len(plane) != nq:
            return None
        if any(type(row) not in (list, tuple) or len(row) != nr for row in plane):
            return None
        values = list(itertools.chain.from_iterable(plane))
        try:
            text = "\n".join(values)
        except TypeError:  # a value that is not a string
            return None
        # assumptions 4 and 5 repeat each cost along the ward axis
        distinct = dict.fromkeys(values)
        if len(distinct) < len(values):
            text = "\n".join(distinct)
        if _PLAIN_LINES.fullmatch(text) is None:
            return None
        parts = text.replace("\n", "/").split("/")
        if len(parts) != 2 * len(distinct):  # a value held the separator
            return None
        try:
            plane_nums, plane_dens = list(map(int, parts[::2])), list(map(int, parts[1::2]))
        except ValueError:  # the interpreter's digit limit set below _MAX_DIGITS
            return None
        if 0 in plane_dens:
            return None
        gcds = list(map(math.gcd, plane_nums, plane_dens))
        if gcds.count(1) != len(gcds):
            plane_nums = [n // g for n, g in zip(plane_nums, gcds)]
            plane_dens = [d // g for d, g in zip(plane_dens, gcds)]
        if len(distinct) < len(values):
            plane_nums = list(map(dict(zip(distinct, plane_nums)).__getitem__, values))
            plane_dens = list(map(dict(zip(distinct, plane_dens)).__getitem__, values))
        nums += plane_nums
        dens += plane_dens
    return nums, dens


def _nested(flat, nq: int, nr: int, kind=tuple):
    """A flat [district][hospital][ward] list as nq planes of nq rows of nr,
    each level a `kind` (tuple or list)."""
    rows = [kind(flat[i : i + nr]) for i in range(0, len(flat), nr)]
    return kind(kind(rows[i : i + nq]) for i in range(0, len(rows), nq))


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

    Every instance holds internal_cost as flat lists of normalized
    numerators and denominators in [district][hospital][ward] order
    (_internal_ratios), set by the constructor, which the cost model,
    check_assumption4 and instance_to_dict read. A table of plain "n/d"
    strings, as a scenario file holds it, is parsed straight into the
    ratios, and its Fraction table, one Fraction object per distinct value,
    is built the first time internal_cost is read. Any other table is kept
    as validated, and the ratios are read off it.
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
            ids = _id_list(getattr(self, name), name)
            if not ids:
                raise InvalidInstanceError(f"{name}: need at least one {kind}")
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
        sizes = _entries(self.group_sizes, "group_sizes", nr)
        group_sizes = tuple(_count(s, f"group_sizes[{i}]") for i, s in enumerate(sizes))
        budget = parse_rational(self.budget, "budget")
        if budget < 0:
            raise InvalidInstanceError(f"budget: must be non-negative, got {budget}")
        excel_cost = _rationals(self.excel_cost, "excel_cost", (nq, nr))
        ratios = _plain_ratios(self.internal_cost, nq, nr)
        if ratios is None:
            internal_cost = _rationals(self.internal_cost, "internal_cost", (nq, nq, nr))
            object.__setattr__(self, "internal_cost", internal_cost)
            values = [x for plane in internal_cost for row in plane for x in row]
            ratios = [x.numerator for x in values], [x.denominator for x in values]
        else:  # __getattr__ builds the table from the ratios if it is read
            object.__delattr__(self, "internal_cost")
        object.__setattr__(self, "_internal_ratios", ratios)
        parsed = {
            "population": population,
            "group_sizes": group_sizes,
            "excel_cost": excel_cost,
            "out_cost": _rationals(self.out_cost, "out_cost", (nq, nr)),
            "budget": budget,
        }
        for name, value in parsed.items():
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        # reached only for attributes the instance lacks: internal_cost is
        # one when __post_init__ parsed it straight into ratios
        ratios = self.__dict__.get("_internal_ratios") if name == "internal_cost" else None
        if ratios is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        nums, dens = ratios
        made = {key: Fraction(*key) for key in set(zip(nums, dens))}
        values = list(map(made.__getitem__, zip(nums, dens)))
        table = _nested(values, self.num_hospitals, self.num_wards)
        object.__setattr__(self, "internal_cost", table)
        return table

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
        free of the other wards' denominators. Internal costs come from the
        flat ratios (_internal_ratios), so no Fraction table is built."""
        start = time.perf_counter()
        nq, nr = self.num_hospitals, self.num_wards
        nums, dens = self._internal_ratios
        wards = []
        for ri, size in enumerate(self.group_sizes):
            outs = [row[ri].as_integer_ratio() for row in self.out_cost]
            # ward ri's internal costs, [district][hospital] row-major
            ward_nums, ward_dens = nums[ri::nr], dens[ri::nr]
            scale = math.lcm(*(d for _, d in outs), *ward_dens)
            at_scale = ward_dens.count(scale) == len(ward_dens)  # then keep each numerator
            internal = tuple(ward_nums) if at_scale else _scaled(zip(ward_nums, ward_dens), scale)
            counts = largest_remainder_split(size, self.population)
            rows = tuple(
                (count, out, internal[k : k + nq])
                for count, out, k in zip(counts, _scaled(outs, scale), range(0, nq * nq, nq))
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
    _count(total, "total")
    try:  # no integer ratios: shares not iterable, None, a string, NaN or an infinity
        ratios = [s.as_integer_ratio() for s in shares]
    except (TypeError, AttributeError, ValueError, OverflowError):
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
    by normalized integer ratios; only the witness's two sides are Fractions."""
    nums, dens = inst._internal_ratios
    nq, nr = inst.num_hospitals, inst.num_wards
    for k in range(0, len(nums), nr):
        row_nums, row_dens = nums[k : k + nr], dens[k : k + nr]
        n, d = row_nums[0], row_dens[0]
        if row_nums.count(n) == nr and row_dens.count(d) == nr:
            continue
        r = next(r for r in range(1, nr) if row_nums[r] != n or row_dens[r] != d)
        district, hospital = divmod(k // nr, nq)
        where = {
            "district": inst.hospitals[district],
            "hospital": inst.hospitals[hospital],
            "ward": inst.wards[0],
            "other_ward": inst.wards[r],
        }
        lhs, rhs = Fraction(n, d), Fraction(row_nums[r], row_dens[r])
        return AssumptionReport(4, (Violation("internal-cost-depends-on-ward", where, lhs, rhs),))
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
    nq, nr = (_count(n, f"dims[{i}]") for i, n in enumerate(_entries(dims, "dims", 2)))
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
    declaration order; rationals become "num/den" strings, the internal
    costs straight from their ratios."""
    doc = {"schema": SCHEMA_VERSION}
    for field in fields(ScenarioInstance):
        if field.name == "internal_cost":
            texts = _ratio_texts(*inst._internal_ratios)
            doc[field.name] = _nested(texts, inst.num_hospitals, inst.num_wards, list)
        else:
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


def _render(value, append, pad: str) -> None:
    """Append value's JSON text to a parts list, nested at pad ("\n" and two
    spaces per level). A module-level function, so that the recursion forms
    no reference cycle that would keep the parts alive."""
    if isinstance(value, str):
        append(_quote(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(sep)
            append(_quote(key))
            append(": ")
            _render(item, append, inner)
            sep = "," + inner
        append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            append(sep)
            _render(item, append, inner)
            sep = "," + inner
        append(pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    """json.dumps(doc, indent=2) + "\n", byte for byte, for documents of str
    keys and str, int, bool, None, list, tuple and dict values; any other
    type raises TypeError. json.dumps takes its pure-Python encoder whenever
    indent is set; this one escapes through the C string escaper."""
    parts: list[str] = []
    _render(doc, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


def _write_text(path, text: str) -> None:
    """Write text to path as UTF-8, overwriting an existing file in place.

    The file is opened without O_TRUNC and cut to the text's length after
    the write: on ext4 a file truncated to zero and rewritten is flushed to
    disk on close, which made each write several times slower. Only regular
    files are cut (/dev/null, ttys and FIFOs cannot be). A new file gets
    open()'s mode, 0o666 less the umask; an existing one keeps its mode, and
    a symlink is written through. Nothing is fsynced, and the write is not
    atomic."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):  # os.write may write less than asked
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def dumps_scenario(inst: ScenarioInstance) -> str:
    return _json_text(instance_to_dict(inst))


def save_scenario(inst: ScenarioInstance, path) -> None:
    _write_text(path, dumps_scenario(inst))


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
