"""LP export checks: its bytes are pinned on generated instances and equal
the per-term writer's on every kind of instance, and the model it writes
scores what evaluate_Z and exact_solve score."""

import dataclasses
import functools
import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    SHARES,
    as_file,
    coprime_instance,
    reference_export_ilp,
    small_denominator_instance,
    solve_lp_external,
    tie_heavy_instance,
    with_budget_share,
)
from wardalloc import (
    EMPTY_EXCELLENCE,
    PROFILES,
    ExcellenceSet,
    InstanceTooLargeError,
    admissible,
    evaluate_Z,
    exact_solve,
    export_ilp,
    generate_scenario,
    greedy_solve,
    instance_from_dict,
    instance_to_dict,
)
from wardalloc.central_plan import _LP_SAFE, _lp_num, _lp_terms

# SHA-256 of export_ilp(inst), and of export_ilp(inst, greedy's set) for the
# keys ending in "greedy", with inst = generate_scenario(seed, dims, profile).
LP_SHA256 = {
    "unconstrained 2x3 seed 0": "71f5a9c618833d54e3fb9437e4362c252445c8d0f43fea70fda317cbbd9c5f36",
    "unconstrained 2x3 seed 0 greedy": "71f5a9c618833d54e3fb9437e4362c252445c8d0f43fea70fda317cbbd9c5f36",
    "unconstrained 2x3 seed 1": "78af525013da7a87cab8a77998f73057a747643bb42fda452f0138ff305fee52",
    "unconstrained 2x3 seed 1 greedy": "40c38daa17b664b24ab54f5b8cfabded9ab88a777f5b89faaa7df20674b2be89",
    "unconstrained 2x3 seed 2": "ff60f5eec45e083460d1e17f6a7f5e86cbd2266bb796059d61866648cd47d1a1",
    "unconstrained 2x3 seed 2 greedy": "328a10673166a315f16ccb896adb2d0e7747a750d86204974e2a72f897d51aea",
    "unconstrained 3x3 seed 0": "4e30fe38df695019f4909ded9def7448777bb2125b69fd9d4f2993b9c6920821",
    "unconstrained 3x3 seed 0 greedy": "fff80225c11eb543520e07b184be51f6a8b444421ca56b5b814dcd23d706d04c",
    "unconstrained 3x3 seed 1": "351ae7f4382bd6c578ca10b68ac913e804acfa4ab245de9a36939d3fd6d774ad",
    "unconstrained 3x3 seed 1 greedy": "3b48073f3115d97b0b37e3847c2344f2c4164a7fd75528c984200d3cf6079428",
    "unconstrained 3x3 seed 2": "9cd710997bc760eda56778f57166e8b30ce30dd4d0d34da7cd490c1b3672c604",
    "unconstrained 3x3 seed 2 greedy": "d8ae32887541c8a9029d30877fe5ed853b615a149c09be78203358d6468da430",
    "unconstrained 4x4 seed 0": "3febdf18383ab3fe83edff5900dae557db921457f38efbd591b1fd1c5c1fec04",
    "unconstrained 4x4 seed 0 greedy": "a1da0227aca2ec5d056c296f08718c72e69020f7f86aaf4b6b4fed7d7b9eac73",
    "unconstrained 4x4 seed 1": "3c8e71aa17aea277911df74bd605fb0073e27dc8696d50e9f1fd92310fe83583",
    "unconstrained 4x4 seed 1 greedy": "7e147358c37d4b9a4271c761c64a03d0606e9260d3e318eb55d0ff4935b47cb0",
    "unconstrained 4x4 seed 2": "b94d77525d1725458885c784e327a54726a980ff40a244b340f01e7b258d10ee",
    "unconstrained 4x4 seed 2 greedy": "0832e19e56db5a3a4c9470c0a5f0240356bd6218c9b3bab8cbd652bd71990051",
    "unconstrained 6x5 seed 0": "da393da072ca330cb39fac788ef9643ef401315b564354cc259b5bac1d296235",
    "unconstrained 6x5 seed 0 greedy": "f9929c46623e75334b85555abb627b870473c7ccfc44e424ed90d59f3d77ac85",
    "unconstrained 6x5 seed 1": "896cd2df91140cc3bad3915ae8513ae0b2fa6a8296bb5c7e1e5a8fa8559fe852",
    "unconstrained 6x5 seed 1 greedy": "2f8e732dd4213088d8d550c045c9bf327c69d42ef6ca2532ed9d572d089ae8d1",
    "unconstrained 6x5 seed 2": "a0fd68fc50a2174fabe482ea0dd30f0d1d05665940c1ff0aaf8fb8e0e70556fd",
    "unconstrained 6x5 seed 2 greedy": "24da4dadd511b0aebf16b14bac095c2d7e14e1ba603c2a85c8ece1761a2cfc13",
    "unconstrained 10x8 seed 0": "363da678b5669d4ea0ac45929f63cfb0754045050ee3e811224b9c65431ad10c",
    "unconstrained 10x8 seed 0 greedy": "de165263c0bd49c437f95f61468990fa092d73ded9793f030a9f4e05273517eb",
    "unconstrained 10x8 seed 1": "312c41927d91492fc7a0447adcacb836c40909f50930654fc6c09b85afdf3d3f",
    "unconstrained 10x8 seed 1 greedy": "84f97ec9035b0191291674c20496741956543e71be15a303911d6795610a3215",
    "unconstrained 10x8 seed 2": "741b07bf3e596766604fda1ddba5e67e4ec34b97bcc9c3666ffedad63eb87c3e",
    "unconstrained 10x8 seed 2 greedy": "0c9b819b8713f182c5cd76f0772ea947af8d705f4bc3b4e286ee34a49462c2d6",
    "assumption1-satisfying 2x3 seed 0": "330abb17f66cc192a7fe8b6730fc411cc9e3ede1b0f5b9c6e41853c4f694ec22",
    "assumption1-satisfying 2x3 seed 0 greedy": "330abb17f66cc192a7fe8b6730fc411cc9e3ede1b0f5b9c6e41853c4f694ec22",
    "assumption1-satisfying 2x3 seed 1": "344d4e19bf5a7f688eb5195d9f08c837a5ec402de71738f6d365140268416b80",
    "assumption1-satisfying 2x3 seed 1 greedy": "50b55e0a463f6e2c269e4d051192520f237f87b6cc73f28a6b96a31ab2db758f",
    "assumption1-satisfying 2x3 seed 2": "dacfd662941d3ec4a14ffa11b067c7d38fc09daaa94db469b7819d28fc3022c9",
    "assumption1-satisfying 2x3 seed 2 greedy": "8f2891b4297899c2e4fc164a3e78396903383d438bb9eb7a822864da55413e7d",
    "assumption1-satisfying 3x3 seed 0": "c541026b0087e5798d54d3a85b8d50dd84528ef9ac0437daf7d88f50da6efb0f",
    "assumption1-satisfying 3x3 seed 0 greedy": "653222895075d870186a7a23ad0533ba7713071bc9f85fc88fcd5927fed77a9f",
    "assumption1-satisfying 3x3 seed 1": "e2c792b65c90c888cf192ad42e87dc1e4dcaad6e1cf70ff8f01de4dd4058407f",
    "assumption1-satisfying 3x3 seed 1 greedy": "cf582f908067c73bc1787f7ce8df5ee3973b274bf34e3c9f3abd9f27d6e23450",
    "assumption1-satisfying 3x3 seed 2": "2fa760da335efee03bc92f0c8eb58ed5d8a867aed50c9dbfb508700333671a9a",
    "assumption1-satisfying 3x3 seed 2 greedy": "9e374dd884af5506f5f3f4d951c82e1226750b67e4fafd2c4c2b221180116d8a",
    "assumption1-satisfying 4x4 seed 0": "2744a36a3d1605352c49c5d3497e2e8b80984109b5837a4be44b4d9f1c24b90d",
    "assumption1-satisfying 4x4 seed 0 greedy": "2fbe36b7a2e3bed8bbc39a1926343a3f893628c4e59bca804f009c80b83ece24",
    "assumption1-satisfying 4x4 seed 1": "f75f616f7634da6aff42a24386500902fa161d0b9d34881f66d426e9c981a6ab",
    "assumption1-satisfying 4x4 seed 1 greedy": "bacfef30abe862125049c1963ce5f358e3bd383245415ca42abd4985eae5ffc1",
    "assumption1-satisfying 4x4 seed 2": "e5e52a178ea5b8d35b2489c57d3ad5af1802b56d285cc5ef845d608606387593",
    "assumption1-satisfying 4x4 seed 2 greedy": "925c0f69212306d1cbf2e892002348c7ed74955a0200ad4d70c1cf8930daea41",
    "assumption1-satisfying 6x5 seed 0": "8275d0dc8b894fe0bfb191102d6072034448da9dfa4b44ad28776508e11fdacd",
    "assumption1-satisfying 6x5 seed 0 greedy": "4c451330b7d59003e088be4ef5d0af8968837cf86a83d66a6c7b6c351748529c",
    "assumption1-satisfying 6x5 seed 1": "4ecb1c6d1610516dd355b8495902f3ebdbda58a3fa3ef6e0f7ce42896e065228",
    "assumption1-satisfying 6x5 seed 1 greedy": "64ea4c8b3d3205224423cb21e20028c832be4188a56c0136f0665bd3823c0647",
    "assumption1-satisfying 6x5 seed 2": "0119cc2d2b931c8972a0e164f3e0d2a3d8b78547359c44ed33937a3f662fdd3e",
    "assumption1-satisfying 6x5 seed 2 greedy": "0e2ba01cd53cd73eb64db16aaf5bff869c266780f272c6b24263591715bcda10",
    "assumption1-satisfying 10x8 seed 0": "6f4aa611ebaf2f9f0598d2071261181014d59388815bdf428bb368c82add3bcc",
    "assumption1-satisfying 10x8 seed 0 greedy": "0b493b612dd0e4d74edda0abfde49886db2d1b3485a831904f326295d1c9a287",
    "assumption1-satisfying 10x8 seed 1": "c8b8f0cc87ffe4043791ccc26c610766ef2a91edf9f1a77135247dbb717edb2c",
    "assumption1-satisfying 10x8 seed 1 greedy": "7093f4d7e34d50519f2f07ed9bb8a0a837367661d08e189f5d99abc442636b82",
    "assumption1-satisfying 10x8 seed 2": "dc2b28751676dc9f050ce3561f26c3ec8f127faae502bcd861601365b40deea7",
    "assumption1-satisfying 10x8 seed 2 greedy": "b4d9cd282ac454055c8f19ed969d21faff0df2a675b83d2774bb9b8322ac53d6",
    "assumption4&5-satisfying 2x3 seed 0": "911879e6d3e445ef69a79ddfd814a9d283d0f1898aa1c3ec723e8a84da47339b",
    "assumption4&5-satisfying 2x3 seed 0 greedy": "9e19b7e8cb3ea279c60b46bd4eae653b699863defa1b909af04e79c6d52ebc8c",
    "assumption4&5-satisfying 2x3 seed 1": "e7503d3866f5d3cce4b9b865d08e73448fff2d7530c67b0c7e0cd0a8d8d70870",
    "assumption4&5-satisfying 2x3 seed 1 greedy": "cc70b768aa3bc814031cdc4c780032e34503683432b9bc84af2c1ae7daf8c27f",
    "assumption4&5-satisfying 2x3 seed 2": "aece0241cd9de989b8a0351eb24e1a6d61ad8fdf1dbb741fb276cfd1bf4709c1",
    "assumption4&5-satisfying 2x3 seed 2 greedy": "38319c5c5461c53ab4e477921bf7a54a2de2ac99affc94aebcec542a9a5835bd",
    "assumption4&5-satisfying 3x3 seed 0": "c7b6623e8b333af0e2090b681d7db2c264f6d158cad0630e6950763c73c26b3b",
    "assumption4&5-satisfying 3x3 seed 0 greedy": "edb170ba726feed5cadc12e0b2247eb5840193a8f09e9661b39de1434f20143b",
    "assumption4&5-satisfying 3x3 seed 1": "d2dedd13b5a5f047a33d00838a2e3cd32f7fafc1323240cd6d41917d68b99e15",
    "assumption4&5-satisfying 3x3 seed 1 greedy": "40614c807f4a58bc057d475590b9e99ecd5e769bde36dfd2d82b80fde872a01d",
    "assumption4&5-satisfying 3x3 seed 2": "bf74257d097fa6da26b8a91a97aed04ff3cf4bc80c8649cefd335857f23f71c8",
    "assumption4&5-satisfying 3x3 seed 2 greedy": "20a5ba9588b550b1b7d2b9d3ab337ba00105bb071822a3edcb275010eca43ddb",
    "assumption4&5-satisfying 4x4 seed 0": "3e3ceb6c4b0707ee805a55f1ecd8709e5ec6b3de6205e8b5443e2c4a4b9051ca",
    "assumption4&5-satisfying 4x4 seed 0 greedy": "01b735210cb4dc7cf9d4c68395bd5382b5ba7b502401c71168c44b64bdf496d5",
    "assumption4&5-satisfying 4x4 seed 1": "c20379cef1882eafac90d72c127f19c5513277968d4311e8d0db95b326c6af09",
    "assumption4&5-satisfying 4x4 seed 1 greedy": "58c5944aa1ed211b9f36ce3b1c990a562692eb6675f9947827e6d0d5ea349157",
    "assumption4&5-satisfying 4x4 seed 2": "b0cd984f02072f6916c19aa2759ba6a82678e4eb116206acd4a3965b5a998d75",
    "assumption4&5-satisfying 4x4 seed 2 greedy": "7c2f136ca1a03cc21755286d67f40318e1437ec4769aac5ebfa4ba41095712e0",
    "assumption4&5-satisfying 6x5 seed 0": "43595ce12bf8c1c46cbe076cc6b7e21c70191ad281be50489dbb77e7b919023f",
    "assumption4&5-satisfying 6x5 seed 0 greedy": "b9fdf0c9fa712c6f9655eef260a3680a3dfd0b08e9431750c93f9a5f41a78262",
    "assumption4&5-satisfying 6x5 seed 1": "3c8fc68daaf21e7afe8201f2dcc6e215971a0e55994cf8055168019abb99f6dc",
    "assumption4&5-satisfying 6x5 seed 1 greedy": "bc6d87b9d1c4b1479e14e90890614d0e58f1dd9e39cc22ca89e0e14d17ee1415",
    "assumption4&5-satisfying 6x5 seed 2": "106711979a5f7dfd090c677e73e9f619ff59b9ba96476fd98327646b77e01629",
    "assumption4&5-satisfying 6x5 seed 2 greedy": "e1c5f290675ae987e8bcee169b85cfff93c1087e706183f9ae2175014e80a71f",
    "assumption4&5-satisfying 10x8 seed 0": "d752527ff498140ada78aef721c5cf85401fe0bbf6df19e2889ba936ce825591",
    "assumption4&5-satisfying 10x8 seed 0 greedy": "251a211f73b203f14ab363372ca87d8411073280e105f2930c7db1f20d92516f",
    "assumption4&5-satisfying 10x8 seed 1": "483ee3bbbf4996e2d26bb80526f2469135fea56730ddcc7f650bfdab4fc4862c",
    "assumption4&5-satisfying 10x8 seed 1 greedy": "2b813bd9949fc8846364700d2d40296fa19f55fb1311b910c6f02686c982af7a",
    "assumption4&5-satisfying 10x8 seed 2": "b1b1025900f739071e9d947137cec8c38f8a18cdb579a628dfa01b67f799ba98",
    "assumption4&5-satisfying 10x8 seed 2 greedy": "b19a3dd65ff13b23bbca532c43fca95f2b56f97f85ff0672eb6396ffd1152f8e",
}


@functools.lru_cache(maxsize=None)
def instance(profile, dims, seed):
    return generate_scenario(seed, dims, profile)


def parse_key(key):
    profile, dims, _, seed, *greedy = key.split()
    nq, nr = map(int, dims.split("x"))
    return instance(profile, (nq, nr), int(seed)), bool(greedy)


@pytest.mark.parametrize("key", LP_SHA256)
def test_export_bytes_are_pinned(key):
    inst, greedy = parse_key(key)
    forced = greedy_solve(inst).excellence if greedy else None
    text = export_ilp(inst, forced_excellence=forced)
    assert hashlib.sha256(text.encode()).hexdigest() == LP_SHA256[key]


@pytest.mark.parametrize(
    "args", [(0, (30, 20)), (0, (20, 20), "assumption4&5-satisfying")], ids=["30x20", "20x20-a45"]
)
def test_export_peaks_below_four_times_its_text(args):
    # each section is joined once it is rendered, so the traced peak stays a
    # small multiple of the text: about 2.1x with the per-ward templates, 2.9x
    # while every line was formatted on its own, and 5.6x while every term
    # lived until the final join
    inst = generate_scenario(*args)
    inst._costs  # the instance's cost model, built before the trace
    tracemalloc.start()
    try:
        text = export_ilp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


def with_costs(inst, seed):
    """inst with internal and outside costs drawn from 0, 1/2, 1 and 3/2, so
    that zero terms are common."""
    rng = random.Random(seed)
    nq, nr = inst.num_hospitals, inst.num_wards

    def draw():
        return Fraction(rng.randint(0, 3), 2)

    internal = [[[draw() for _ in range(nr)] for _ in range(nq)] for _ in range(nq)]
    out = [[draw() for _ in range(nr)] for _ in range(nq)]
    return dataclasses.replace(inst, internal_cost=internal, out_cost=out)


# Instances on which export_ilp must write what the per-term writer writes.
WRITER_CASES = {
    **{
        f"generated {profile} {q}x{r}": lambda p=profile, d=(q, r): [
            as_file(generate_scenario(seed, d, p)) for seed in range(2)
        ]
        for profile in PROFILES
        for q, r in [(2, 2), (3, 5), (6, 4), (10, 8), (30, 20)]
    },
    # large ward scales, so non-integral coefficients are floats
    **{
        f"coprime {profile}": lambda p=profile: [
            coprime_instance(0, (3, 4), p),
            coprime_instance(1, (6, 6), p),
        ]
        for profile in PROFILES
    },
    "tie-heavy": lambda: [tie_heavy_instance(seed) for seed in range(30)],
    # zero counts and zero costs: skipped zero terms move the line breaks
    "small-denominator": lambda: [
        with_costs(small_denominator_instance(seed, wards=3), seed) for seed in range(30)
    ],
}


def outcome(call, *args):
    """call's result, or its size-guard error as text."""
    try:
        return call(*args)
    except InstanceTooLargeError as exc:
        return f"InstanceTooLargeError: {exc}"


@pytest.mark.parametrize("case", WRITER_CASES)
def test_export_writes_what_the_per_term_writer_writes(case):
    for inst in WRITER_CASES[case]():
        for forced in (None, greedy_solve(inst).excellence):
            assert outcome(export_ilp, inst, forced) == outcome(reference_export_ilp, inst, forced)


def guard_case(field, index, value, budget=None):
    """The seed-1 4x3 generated file with the value of field at index set
    to value, and its budget set too when one is given."""
    doc = instance_to_dict(generate_scenario(1, (4, 3)))
    *outer, last = index
    functools.reduce(lambda table, i: table[i], outer, doc[field])[last] = value
    if budget is not None:
        doc["budget"] = budget
    return instance_from_dict(doc)


@pytest.mark.parametrize(
    "inst, message",
    [
        # 10**400 / 3 is beyond the largest float
        pytest.param(guard_case("excel_cost", (2, 1), f"1{'0' * 400}/3"),
                     "LP row obj: the coefficient of y_2_1 is too large to write", id="y"),
        # internal_cost[d][q][r] is x_d_r_q's; the cell's count, 69, is no multiple of 7
        pytest.param(guard_case("internal_cost", (1, 2, 1), f"1{'0' * 400}/7"),
                     "LP row obj: the coefficient of x_1_1_2 is too large to write", id="x"),
        # a non-zero count times 10**-400 has 0 as its nearest float
        pytest.param(guard_case("out_cost", (3, 2), f"1/1{'0' * 400}"),
                     "LP row obj: the coefficient of xout_3_2 is too small to write", id="xout"),
        # 10**4299 writes in the objective; times the price scale, a
        # multiple of 10, it has more digits than Python writes
        pytest.param(guard_case("excel_cost", (0, 2), "1e4299", budget="1/10"),
                     "LP row budget: the coefficient of y_0_2 is too large to write",
                     id="budget-coefficient"),
        pytest.param(guard_case("excel_cost", (0, 0), "1/7", budget="9e4299"),
                     "LP row budget: the right-hand side is too large to write",
                     id="budget-rhs"),
    ],
)
def test_size_guard_names_the_one_value_out_of_range(inst, message):
    # every other value of the file writes, so the error is this value's
    assert inst._costs.wards[1].rows[1][0] == 69  # the count of x_1_1_2's cell
    assert outcome(export_ilp, inst) == f"InstanceTooLargeError: {message}"
    assert outcome(reference_export_ilp, inst) == f"InstanceTooLargeError: {message}"


def test_block_terms_are_lp_num_terms_at_the_bound():
    edge = _LP_SAFE - 1
    ns = [0, 1, -1, 7, 4, 2**999 + 1, edge - 1, edge, -edge, 10**301, 0, 3]
    names = [f"v{i}" for i in range(len(ns))] + ["past"]

    def per_term(block, scale):
        return [f"{_lp_num(n, scale, 'obj', v)} {v}" for n, v in zip(block, names) if n]

    # in range, and past it: an int that writes at scale 1, and one that no
    # scale writes
    for block in (ns, [*ns, _LP_SAFE], [*ns, 10**4299], [*ns, 10**4300]):
        for scale in (1, 3, 4, 10**300, edge, _LP_SAFE):
            assert outcome(_lp_terms, block, scale, "obj", names) == outcome(per_term, block, scale)


SOLVER_CASES = [
    (profile, dims, seed)
    for profile in PROFILES
    for dims in [(3, 3), (4, 3), (3, 5), (4, 4)]
    for seed in range(3)
]


needs_milp = pytest.mark.skipif(
    solve_lp_external("Minimize\n obj: 1 a\nSubject To\n c1: a = 1\nBinary\n a\nEnd\n")
    is None,
    reason="no external MILP solver installed",
)


def fixed_lp(inst, excellence):
    """The export with y fixed to 1 on excellence's pairs and to 0 on all
    others (forced_excellence pins y to 1 only)."""
    zeros = "".join(
        f" y_{qi}_{ri} = 0\n"
        for qi, q in enumerate(inst.hospitals)
        for ri, r in enumerate(inst.wards)
        if (q, r) not in excellence
    )
    text = export_ilp(inst, forced_excellence=excellence)
    return text.replace("\nBinary\n", f"\n{zeros}Binary\n")


@needs_milp
@pytest.mark.parametrize("profile, dims, seed", SOLVER_CASES)
def test_export_scores_what_the_solvers_score(profile, dims, seed):
    """The free model solves to exact_solve's z; with every y fixed to a set,
    to evaluate_Z's z of that set: greedy's, the empty one and a random
    two-pair set that fits the budget (when one does)."""
    inst = instance(profile, dims, seed)
    z = exact_solve(inst).z_value
    assert solve_lp_external(export_ilp(inst)) == pytest.approx(float(z), rel=1e-6)

    pairs = list(itertools.product(inst.hospitals, inst.wards))
    fitting = [
        s for s in map(ExcellenceSet.of, itertools.combinations(pairs, 2)) if admissible(s, inst)
    ]
    sets = [greedy_solve(inst).excellence, EMPTY_EXCELLENCE]
    if fitting:
        sets.append(random.Random(seed).choice(fitting))
    for excellence in sets:
        z = evaluate_Z(excellence, inst).z_value
        assert solve_lp_external(fixed_lp(inst, excellence)) == pytest.approx(
            float(z), rel=1e-6
        ), excellence


@needs_milp
@pytest.mark.parametrize("profile", ["unconstrained", "assumption4&5-satisfying"])
@pytest.mark.parametrize("dims", [(6, 10), (8, 8)])
def test_exact_matches_the_milp_optimum(profile, dims):
    """At 60 and 64 pairs, beyond the unpruned enumeration oracle, the
    external MILP optimum of the export is exact_solve's z."""
    inst = instance(profile, dims, 1)
    z = exact_solve(inst).z_value
    assert solve_lp_external(export_ilp(inst)) == pytest.approx(float(z), rel=1e-6)


@needs_milp
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", range(3))
def test_greedy_is_bounded_by_the_milp_optimum(profile, seed):
    """Where exact_solve hits its cap (10x10), greedy's z is at least the
    external MILP optimum, and the model with every y fixed to greedy's set
    solves to greedy's z; at the generator's budget and at shares of all
    upgrade costs."""
    base = instance(profile, (10, 10), seed)
    for inst in [base] + [with_budget_share(base, share) for share in SHARES]:
        greedy = greedy_solve(inst)
        z = float(greedy.z_value)
        assert solve_lp_external(export_ilp(inst)) <= z * (1 + 1e-6)
        fixed = solve_lp_external(fixed_lp(inst, greedy.excellence))
        assert fixed == pytest.approx(z, rel=1e-6)
