"""Data model tests: integer splits, demand cells, assumption checkers,
seeded generation, and the JSON scenario format."""

import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, minimax_split
from wardalloc import (
    GenerationError,
    InstanceTooLargeError,
    InvalidInstanceError,
    ScenarioInstance,
    all_assumptions,
    check_assumption1,
    check_assumption2,
    check_assumption3,
    check_assumption4,
    check_assumption5,
    dumps_scenario,
    format_rational,
    generate_scenario,
    instance_from_dict,
    instance_to_dict,
    largest_remainder_split,
    load_scenario,
    parse_rational,
    save_scenario,
)
from wardalloc.cli import main
from wardalloc.scenario import PROFILES

THIRDS = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


# ---------------------------------------------------------------------------
# rational parsing


def test_parse_rational_forms():
    assert parse_rational(3) == 3
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/5") == Fraction(-2, 5)
    assert parse_rational(Fraction(1, 7)) == Fraction(1, 7)


@pytest.mark.parametrize("bad", [True, 1.5, None, "x/y", "1/0", [1]])
def test_parse_rational_rejects(bad):
    with pytest.raises(InvalidInstanceError):
        parse_rational(bad, "field")


def test_parse_rational_names_field():
    with pytest.raises(InvalidInstanceError, match="budget"):
        parse_rational("nope", "budget")


@pytest.mark.parametrize(
    "text", ["1e999999999", "1E400000", "2e-4301", "1e+4301", "1e4_301", "5.5E0004301"]
)
def test_load_rejects_huge_decimal_exponents(text):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["excel_cost"][1][0] = text
    with pytest.raises(InvalidInstanceError, match=r"excel_cost\[1\]\[0\]: decimal exponent"):
        instance_from_dict(doc)


def test_parse_rational_keeps_bounded_decimal_exponents():
    assert parse_rational("1.5e3") == 1500
    assert parse_rational("25E-2") == Fraction(1, 4)
    # the exponent bound itself is allowed when the value prints
    assert parse_rational("0.01e4_300") == 10**4298
    assert parse_rational("1e4_299") == 10**4299


@pytest.mark.parametrize(
    "value",
    [10**4300, -(10**4300), Fraction(1, 10**4300), Fraction(10**4300 + 1, 3), "1e4300",
     "-1e-4300", "123.4e4298"],
    ids=["10^4300", "-10^4300", "1/10^4300", "(10^4300+1)/3", "1e4300", "-1e-4300",
         "123.4e4298"],
)
def test_parse_rational_rejects_values_too_long_to_print(value):
    with pytest.raises(InvalidInstanceError, match=r"^field: more than 4300 digits"):
        parse_rational(value, "field")


def test_parse_rational_keeps_the_longest_printable_values():
    for value in (10**4300 - 1, -(10**4300 - 1), Fraction(1, 10**4300 - 1)):
        assert parse_rational(value) == value
        assert parse_rational(format_rational(value)) == value


def test_format_rational_round_trips():
    for x in (Fraction(3, 4), Fraction(5), Fraction(-7, 2), Fraction(0)):
        assert parse_rational(format_rational(x)) == x


def test_format_rational_refuses_a_value_too_long_to_write():
    with pytest.raises(InstanceTooLargeError, match="too long to write"):
        format_rational(Fraction(10**4300))


# ---------------------------------------------------------------------------
# integer splits


def test_split_equal_thirds():
    assert largest_remainder_split(7, THIRDS) == [3, 2, 2]


def test_split_exact_quotas():
    quarters = (Fraction(1, 4), Fraction(3, 4))
    assert largest_remainder_split(1000, quarters) == [250, 750]
    assert largest_remainder_split(400, quarters) == [100, 300]


def test_split_zero_total():
    assert largest_remainder_split(0, THIRDS) == [0, 0, 0]


@pytest.mark.parametrize(
    "total,shares",
    [
        (10, (Fraction(1, 3), Fraction(1, 3))),
        (10, (Fraction(2, 3), Fraction(2, 3))),
        (10, (Fraction(-1, 2), Fraction(3, 2))),
        (-5, (Fraction(1, 2), Fraction(1, 2))),
        (Fraction(5, 2), (Fraction(1, 2), Fraction(1, 2))),
        (True, (Fraction(1),)),
    ],
)
def test_split_rejects_what_it_cannot_split_exactly(total, shares):
    # each of these once came back with parts that do not sum to the total
    # or with negative parts
    with pytest.raises(InvalidInstanceError):
        largest_remainder_split(total, shares)


@pytest.mark.parametrize(
    "total,weights",
    [
        (7, (1, 1, 1)),
        (10, (1, 3, 2)),
        (13, (2, 4, 1)),
        (1, (9, 1)),
        (3, (1, 1)),
        (17, (5, 2, 2, 5)),
    ],
)
def test_split_matches_minimax_enumeration(total, weights):
    shares = [Fraction(w, sum(weights)) for w in weights]
    assert largest_remainder_split(total, shares) == minimax_split(total, shares)


@given(
    weights=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    total=st.integers(0, 25),
)
@settings(max_examples=200, deadline=None)
def test_split_minimax_property(weights, total):
    shares = [Fraction(w, sum(weights)) for w in weights]
    split = largest_remainder_split(total, shares)
    assert sum(split) == total
    assert all(c >= 0 for c in split)
    assert split == minimax_split(total, shares)


# ---------------------------------------------------------------------------
# demand cells


def test_demand_cells_ward_major_remainders_to_lowest_index():
    inst = make_instance((7, 2), (Fraction(1, 2), Fraction(1, 2)))
    cells = inst.demand_cells()
    assert [(c.district, c.ward, c.count) for c in cells] == [
        ("q1", "r1", 4),
        ("q2", "r1", 3),
        ("q1", "r2", 1),
        ("q2", "r2", 1),
    ]


def test_demand_cells_of_instance(comparable_market):
    cells = comparable_market.demand_cells()
    assert [(c.district, c.ward, c.count) for c in cells] == [
        ("q1", "r1", 250),
        ("q2", "r1", 750),
        ("q1", "r2", 100),
        ("q2", "r2", 300),
    ]


def test_demand_cells_conserve_groups():
    for seed in range(10):
        inst = generate_scenario(seed, (3, 4))
        by_ward = {r: 0 for r in inst.wards}
        for cell in inst.demand_cells():
            by_ward[cell.ward] += cell.count
        assert tuple(by_ward[r] for r in inst.wards) == inst.group_sizes


def test_demand_cells_reject_bad_population():
    with pytest.raises(InvalidInstanceError, match="population"):
        make_instance((5,), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(InvalidInstanceError, match="population"):
        make_instance((5,), (), hospitals=("q1",))


def test_demand_cells_reject_bad_sizes():
    with pytest.raises(InvalidInstanceError, match="group_sizes"):
        make_instance((-1,), (Fraction(1),))
    with pytest.raises(InvalidInstanceError, match="group_sizes"):
        make_instance((True,), (Fraction(1),))


# ---------------------------------------------------------------------------
# instance validation


def test_instance_rejects_population_sum():
    with pytest.raises(InvalidInstanceError, match="population"):
        make_instance((5, 5), (Fraction(1, 2), Fraction(2, 5)))


def test_instance_rejects_nonpositive_population():
    with pytest.raises(InvalidInstanceError, match="population"):
        make_instance((5, 5), (Fraction(0), Fraction(1)))


def test_instance_rejects_duplicate_ids():
    with pytest.raises(InvalidInstanceError, match="hospitals"):
        make_instance(
            (5, 5), (Fraction(1, 2), Fraction(1, 2)), hospitals=("a", "a")
        )


@pytest.mark.parametrize(
    "field, value",
    [("hospitals", "ab"), ("wards", "r1"), ("group_sizes", 5)],
)
def test_instance_rejects_fields_that_are_not_lists(field, value):
    kwargs = instance_to_dict(generate_scenario(0, (2, 2)))
    del kwargs["schema"]
    kwargs[field] = value
    with pytest.raises(InvalidInstanceError, match=f"^{field}: expected a list"):
        ScenarioInstance(**kwargs)


def test_instance_rejects_negative_cost():
    with pytest.raises(InvalidInstanceError, match=r"excel_cost\[1\]\[0\]"):
        make_instance(
            (5, 5),
            (Fraction(1, 2), Fraction(1, 2)),
            excel=[[1, 1], [-1, 1]],
        )


def test_instance_names_the_first_bad_element():
    # the sign of out_cost[0][0] is checked before out_cost[0][1] is parsed
    with pytest.raises(InvalidInstanceError) as info:
        make_instance((5, 5), (Fraction(1),), out=[["-1", "abc"]])
    assert str(info.value) == "out_cost[0][0]: must be non-negative, got -1"


def test_instance_rejects_ragged_matrix():
    with pytest.raises(InvalidInstanceError, match="out_cost"):
        make_instance(
            (5, 5),
            (Fraction(1, 2), Fraction(1, 2)),
            out=[[1, 2], [3]],
        )


def test_instance_rejects_negative_budget():
    with pytest.raises(InvalidInstanceError, match="budget"):
        make_instance((5,), (Fraction(1),), budget=-1)


def test_instance_index_lookups(comparable_market):
    assert comparable_market.hospital_index("q2") == 1
    assert comparable_market.ward_index("r1") == 0
    with pytest.raises(InvalidInstanceError, match="unknown hospital"):
        comparable_market.hospital_index("zz")
    with pytest.raises(InvalidInstanceError, match="unknown ward"):
        comparable_market.ward_index("zz")


# ---------------------------------------------------------------------------
# assumption checkers


def test_assumption1_holds_for_comparable_market(comparable_market):
    report = check_assumption1(comparable_market)
    assert report.assumption == 1
    assert report.holds
    assert report.violations == ()


def test_assumption1_fails_for_lopsided_market(lopsided_market):
    report = check_assumption1(lopsided_market)
    assert not report.holds
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.code == "group-not-above-smallest-district-slice"
    assert v.where == {"ward": "r2", "other_ward": "r1", "district": "q1"}
    assert v.lhs == 4
    assert v.rhs == 250


def test_assumption1_vacuous_with_single_ward():
    inst = make_instance((5,), (Fraction(1),))
    assert check_assumption1(inst).holds


def a2_instance(budget=10, out=25):
    return make_instance(
        (10, 10),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[5, 10], [10, 15]],
        internal=[[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        out=[[out, out], [out, out]],
        budget=budget,
    )


def test_assumption2_holds():
    # benefit: 4 cells x 5 patients x (25 - 0) summed over both hospitals
    # = 1000, well above the 40 total upgrade cost; budget 10 >= min cost 5
    assert check_assumption2(a2_instance()).holds


def test_assumption2_budget_below_cheapest():
    report = check_assumption2(a2_instance(budget=4))
    assert not report.holds
    v = report.violations[0]
    assert v.code == "budget-below-cheapest-upgrade"
    assert (v.lhs, v.rhs) == (4, 5)


def test_assumption2_benefit_not_above_cost():
    # out cost 1 makes the benefit 4 x 5 x 2 = 40, equal to the upgrade
    # total, and the comparison is strict
    report = check_assumption2(a2_instance(out=1))
    assert not report.holds
    v = report.violations[0]
    assert v.code == "inside-benefit-not-above-upgrade-cost"
    assert (v.lhs, v.rhs) == (40, 40)


def test_assumption3_always_holds(comparable_market, lopsided_market):
    assert check_assumption3(comparable_market).holds
    assert check_assumption3(lopsided_market).holds


def test_assumption4_reports_first_difference():
    inst = make_instance(
        (6, 6),
        (Fraction(1, 2), Fraction(1, 2)),
        internal=[[[3, 3], [4, 9]], [[5, 5], [6, 6]]],
    )
    report = check_assumption4(inst)
    assert not report.holds
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.code == "internal-cost-depends-on-ward"
    assert v.where == {
        "district": "q1",
        "hospital": "q2",
        "ward": "r1",
        "other_ward": "r2",
    }
    assert (v.lhs, v.rhs) == (4, 9)


def test_assumption4_holds_when_constant():
    inst = make_instance(
        (6, 6),
        (Fraction(1, 2), Fraction(1, 2)),
        internal=[[[3, 3], [4, 4]], [[5, 5], [6, 6]]],
    )
    assert check_assumption4(inst).holds


def test_assumption5_reports_first_difference():
    inst = make_instance(
        (6, 6),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[7, 7], [7, 8]],
    )
    report = check_assumption5(inst)
    assert not report.holds
    v = report.violations[0]
    assert v.code == "upgrade-cost-not-uniform"
    assert v.where == {
        "hospital": "q1",
        "ward": "r1",
        "other_hospital": "q2",
        "other_ward": "r2",
    }
    assert (v.lhs, v.rhs) == (7, 8)


def test_assumption5_holds_when_uniform():
    inst = make_instance(
        (6, 6), (Fraction(1, 2), Fraction(1, 2)), excel=[[7, 7], [7, 7]]
    )
    assert check_assumption5(inst).holds


def test_all_assumptions_order(comparable_market):
    reports = all_assumptions(comparable_market)
    assert [r.assumption for r in reports] == [1, 2, 3, 4, 5]


def test_violations_restate_instance_data():
    # every reported violation must be reproducible from the raw instance
    seen = set()
    for seed, dims, profile in itertools.product(
        range(20), [(2, 3), (3, 2), (4, 3)], PROFILES
    ):
        inst = generate_scenario(seed, dims, profile)
        for report in all_assumptions(inst):
            for v in report.violations:
                seen.add(v.code)
                if v.code == "group-not-above-smallest-district-slice":
                    k = inst.ward_index(v.where["ward"])
                    i = inst.ward_index(v.where["other_ward"])
                    j = inst.hospital_index(v.where["district"])
                    assert v.lhs == inst.group_sizes[k]
                    assert v.rhs == inst.group_sizes[i] * inst.population[j]
                    assert v.lhs <= v.rhs
                elif v.code == "budget-below-cheapest-upgrade":
                    assert v.lhs == inst.budget
                    assert v.rhs == min(min(row) for row in inst.excel_cost)
                    assert v.lhs < v.rhs
                elif v.code == "inside-benefit-not-above-upgrade-cost":
                    benefit = 0
                    for cell in inst.demand_cells():
                        d = inst.hospital_index(cell.district)
                        r = inst.ward_index(cell.ward)
                        for q in range(inst.num_hospitals):
                            out, c_in = inst.out_cost[d][r], inst.internal_cost[d][q][r]
                            benefit += cell.count * (out - c_in)
                    assert v.lhs == benefit
                    assert v.rhs == sum(sum(row) for row in inst.excel_cost)
                    assert v.lhs <= v.rhs
                elif v.code == "internal-cost-depends-on-ward":
                    d = inst.hospital_index(v.where["district"])
                    q = inst.hospital_index(v.where["hospital"])
                    r1 = inst.ward_index(v.where["ward"])
                    r2 = inst.ward_index(v.where["other_ward"])
                    assert v.lhs == inst.internal_cost[d][q][r1]
                    assert v.rhs == inst.internal_cost[d][q][r2]
                    assert v.lhs != v.rhs
                elif v.code == "upgrade-cost-not-uniform":
                    q1 = inst.hospital_index(v.where["hospital"])
                    r1 = inst.ward_index(v.where["ward"])
                    q2 = inst.hospital_index(v.where["other_hospital"])
                    r2 = inst.ward_index(v.where["other_ward"])
                    assert v.lhs == inst.excel_cost[q1][r1]
                    assert v.rhs == inst.excel_cost[q2][r2]
                    assert v.lhs != v.rhs
                else:
                    raise AssertionError(f"unknown violation code {v.code}")
    # the sample reaches the benefit violation, so its lhs is checked
    assert "inside-benefit-not-above-upgrade-cost" in seen


# One market that fails every data assumption: a lopsided group, a budget
# below every price, outside care cheaper than inside, one internal cost that
# changes with the ward at (north -> south), and one off-price upgrade.
EVERY_VIOLATION = make_instance(
    (10, 400),
    (Fraction(1, 4), Fraction(3, 4)),
    excel=[[5, 5], [Fraction(15, 2), 5]],
    internal=[[[1, 1], [1, Fraction(1, 2)]], [[2, 2], [1, 1]]],
    out=[[1, 2], [2, 1]],
    budget=Fraction(3, 2),
    hospitals=("north", "south"),
    wards=("icu", "er"),
)


@pytest.mark.parametrize(
    "code,message",
    [
        (
            "group-not-above-smallest-district-slice",
            "group icu has 10 patients, not more than the 100 patients of group er "
            "living in district north",
        ),
        ("budget-below-cheapest-upgrade", "budget 3/2 is below the cheapest upgrade cost 5"),
        (
            "inside-benefit-not-above-upgrade-cost",
            "total inside-treatment benefit -43 does not exceed the total upgrade cost 45/2",
        ),
        (
            "internal-cost-depends-on-ward",
            "internal cost from district north to hospital south differs across ward "
            "types: 1 for icu vs 1/2 for er",
        ),
        (
            "upgrade-cost-not-uniform",
            "upgrade cost is not uniform: (north, icu) costs 5 but (south, icu) costs 15/2",
        ),
    ],
)
def test_violation_message_text(tmp_path, capsys, code, message):
    [v] = [
        v for report in all_assumptions(EVERY_VIOLATION) for v in report.violations
        if v.code == code
    ]
    assert v.message == message
    assert str(v) == message
    path = tmp_path / "market.json"
    save_scenario(EVERY_VIOLATION, path)
    assert main(["check", "--input", str(path), "--format", "text"]) == 0
    assert f"  - {message}" in capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# seeded generation


def test_generate_deterministic():
    for profile in PROFILES:
        a = generate_scenario(11, (2, 3), profile)
        b = generate_scenario(11, (2, 3), profile)
        assert a == b
        assert dumps_scenario(a) == dumps_scenario(b)


def test_generate_seed_sensitivity():
    instances = {dumps_scenario(generate_scenario(s, (2, 2))) for s in range(5)}
    assert len(instances) == 5


def test_generate_profiles_meet_contracts():
    for seed in range(100):
        inst = generate_scenario(seed, (2, 3), "assumption1-satisfying")
        assert check_assumption1(inst).holds
        inst = generate_scenario(seed, (3, 2), "assumption4&5-satisfying")
        assert check_assumption4(inst).holds
        assert check_assumption5(inst).holds
        # unconstrained only has to validate, which the constructor enforces
        generate_scenario(seed, (3, 2))


def test_generate_rejects_bad_dims():
    with pytest.raises(InvalidInstanceError, match="dims"):
        generate_scenario(0, (0, 2))
    with pytest.raises(InvalidInstanceError, match="dims"):
        generate_scenario(0, (2, 0))


def test_generate_guards_size_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLargeError, match="dims: 1000000x1000000"):
            generate_scenario(0, (10**6, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # the largest size the benchmark generates stays allowed
    assert generate_scenario(0, (30, 20)).num_hospitals == 30


@pytest.mark.parametrize("dims", [(10**2200, 1), (10**5000, 1), (2, 10**5000)])
def test_generate_guard_message_prints_for_any_dims(dims):
    # |Q|^2 * |R| here has more digits than Python prints, and so may a dim
    with pytest.raises(InstanceTooLargeError, match="generator's cap") as info:
        generate_scenario(0, dims)
    assert str(info.value) == (
        "dims: need at least 10**4300 internal costs, over the generator's cap of 1000000"
    )


def test_generate_refuses_assumption1_with_one_hospital(monkeypatch):
    # one district makes every slice a whole group, so the smallest group
    # never exceeds another: refused before the generator draws anything
    monkeypatch.setattr("wardalloc.scenario._gen_default", None)
    for nr in (2, 4):
        with pytest.raises(
            GenerationError, match=f"cannot hold with one hospital and {nr} ward types"
        ):
            generate_scenario(0, (1, nr), "assumption1-satisfying")
    # group sizes are distinct draws from 1,100 values, too few for 1,101 wards
    with pytest.raises(GenerationError, match="1101 ward types need distinct group sizes"):
        generate_scenario(0, (2, 1101), "assumption1-satisfying")
    monkeypatch.undo()
    assert check_assumption1(generate_scenario(0, (1, 1), "assumption1-satisfying")).holds
    assert check_assumption1(generate_scenario(0, (2, 4), "assumption1-satisfying")).holds


def test_generate_rejects_unknown_profile():
    with pytest.raises(InvalidInstanceError, match="profile"):
        generate_scenario(0, (2, 2), "nope")


# ---------------------------------------------------------------------------
# JSON format


def test_round_trip_preserves_instance():
    inst = generate_scenario(3, (3, 2))
    doc = instance_to_dict(inst)
    again = instance_from_dict(doc)
    assert again == inst
    assert dumps_scenario(again) == dumps_scenario(inst)


def test_dump_is_json_with_rational_strings():
    inst = generate_scenario(3, (2, 2))
    doc = json.loads(dumps_scenario(inst))
    assert doc["schema"] == 1
    assert all("/" in v for v in doc["population"])
    assert "/" in doc["budget"]


def test_save_and_load(tmp_path):
    inst = generate_scenario(5, (2, 3))
    path = tmp_path / "scenario.json"
    save_scenario(inst, path)
    assert load_scenario(path) == inst
    # the file itself is byte-stable
    save_scenario(inst, tmp_path / "again.json")
    assert (tmp_path / "scenario.json").read_bytes() == (
        tmp_path / "again.json"
    ).read_bytes()


def test_load_accepts_bare_integers(tmp_path):
    doc = instance_to_dict(make_instance((4,), (Fraction(1),), budget=2))
    doc["budget"] = 2
    doc["population"] = [1]
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    inst = load_scenario(path)
    assert inst.budget == 2
    assert inst.population == (1,)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInstanceError, match="malformed JSON"):
        load_scenario(path)


@pytest.mark.parametrize(
    "data",
    [
        b'{"schema": ' + b"9" * 5000 + b"}",
        b"[" * 200_000 + b"]" * 200_000,
        b'{"schema": "\xff\xfe"}',
    ],
    ids=["int-over-4300-digits", "nested-200000-deep", "not-utf8"],
)
def test_load_rejects_undecodable_files(tmp_path, data):
    path = tmp_path / "odd.json"
    path.write_bytes(data)
    with pytest.raises(InvalidInstanceError, match="malformed JSON"):
        load_scenario(path)


@pytest.mark.parametrize("field", ["hospitals", "wards"])
def test_load_rejects_ids_not_encodable_as_utf8(tmp_path, field):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc[field][1] = "\ud800"  # a lone surrogate: valid JSON, not UTF-8
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match=f"{field}: id .* UTF-8"):
        load_scenario(path)


def test_load_rejects_wrong_schema(tmp_path):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["schema"] = 99
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="schema"):
        load_scenario(path)


@pytest.mark.parametrize("schema", [True, 1.0, "1"])
def test_load_rejects_schema_that_only_equals_one(tmp_path, schema):
    # True == 1.0 == 1 in Python; only the integer 1 is schema version 1
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["schema"] = schema
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="schema"):
        load_scenario(path)


@pytest.mark.parametrize("missing", ["hospitals", "population", "budget"])
def test_load_rejects_missing_field(tmp_path, missing):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    del doc[missing]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match=missing):
        load_scenario(path)


def test_load_rejects_population_not_summing(tmp_path):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["population"] = ["1/2", "2/5"]
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="population"):
        load_scenario(path)


def test_load_rejects_non_string_ids(tmp_path):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["wards"] = [1, 2]
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="wards"):
        load_scenario(path)


def test_instance_from_dict_rejects_non_object():
    with pytest.raises(InvalidInstanceError, match="object"):
        instance_from_dict([1, 2, 3])


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("excel_cost", 5, "excel_cost"),
        ("internal_cost", [[1, 2], [3, 4]], "internal_cost[0][0]"),
        ("population", None, "population"),
        ("out_cost", [[1, 2], 3], "out_cost[1]"),
    ],
)
def test_load_rejects_wrong_nesting(field, value, named):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc[field] = value
    with pytest.raises(InvalidInstanceError) as caught:
        instance_from_dict(doc)
    assert str(caught.value).startswith(f"{named}: expected a list")


# Any JSON value: scalars, lists and objects nested a few levels deep.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)
DOCUMENT_FIELDS = tuple(instance_to_dict(generate_scenario(0, (2, 2))))


def loads_or_rejects(doc):
    """A JSON document either becomes a usable instance or is rejected with
    an invalid-instance error; nothing else escapes."""
    try:
        inst = instance_from_dict(json.loads(json.dumps(doc)))
    except InvalidInstanceError:
        return
    assert sum(cell.count for cell in inst.demand_cells()) == sum(inst.group_sizes)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_any_json_document_loads_or_is_rejected(doc):
    loads_or_rejects(doc)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(DOCUMENT_FIELDS),
    st.lists(st.integers(0, 3), max_size=2),
    JSON_VALUES,
)
def test_any_field_value_loads_or_is_rejected(field, path, value):
    # replace one field, or one element nested inside it, by any JSON value
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    owner, key = doc, field
    for index in path:
        if not isinstance(owner[key], list) or not owner[key]:
            break
        owner, key = owner[key], index % len(owner[key])
    owner[key] = value
    loads_or_rejects(doc)
