import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import parse_solution, solution_to_doc
from vcspkit.costs import Cost, INF, ZERO, format_cost
from vcspkit.errors import FormatError
from vcspkit.formats import (
    count_to_doc,
    dumps,
    parse_instance,
    serialize_instance,
)
from vcspkit.instances import AssignmentSet, BinaryInstance, CountFunction, CountInstance
from vcspkit.testkit import fixtures, gen_full_laminar_tree, gen_matching_encoding, gen_profile
from vcspkit.triangles import Scheme

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

MINIMAL_BINARY = """
{"format": "vcsp-binary/1",
 "variables": [{"name": "x", "domain": ["a"]}]}
"""


def test_minimal_binary_document():
    inst = parse_instance(MINIMAL_BINARY)
    assert isinstance(inst, BinaryInstance)
    assert inst.n == 1
    assert inst.unary[0][0] == ZERO


def test_inf_literal():
    text = """
    {"format": "vcsp-binary/1",
     "variables": [{"name": "x", "domain": ["a"]}],
     "unary": [{"var": 0, "costs": ["inf"]}]}
    """
    inst = parse_instance(text)
    assert inst.unary[0][0] == INF


def test_duplicate_sets_merge_on_load():
    text = """
    {"format": "vcsp-cfc/1",
     "variables": [{"name": "x", "domain": ["0", "1"]}],
     "constant": "0",
     "sets": [
       {"assignments": [[0, 0]], "g": ["0", "1"]},
       {"assignments": [[0, 0]], "g": ["0", "1"]}
     ]}
    """
    inst = parse_instance(text)
    assert isinstance(inst, CountInstance)
    assert len(inst.sets) == 1
    assert inst.sets[0].g.table == (ZERO, Cost(2))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "invalid JSON"),
        ('{"format": "nope"}', "unknown or missing format"),
        ('{"format": "vcsp-binary/1", "variables": []}', "variables"),
        (
            '{"format": "vcsp-binary/1", "variables": [{"name": "x", "domain": ["a"]}],'
            ' "unary": [{"var": 0, "costs": ["1", "2"]}]}',
            "length",
        ),
        (
            '{"format": "vcsp-binary/1", "variables": [{"name": "x", "domain": ["a"]},'
            ' {"name": "y", "domain": ["a"]}],'
            ' "binary": [{"i": 1, "j": 0, "costs": [["0"]]}]}',
            "i < j",
        ),
        (
            '{"format": "vcsp-binary/1", "variables": [{"name": "x", "domain": ["a"]}],'
            ' "unary": [{"var": 0, "costs": ["-1"]}]}',
            "non-negative",
        ),
        (
            '{"format": "vcsp-cfc/1", "variables": [{"name": "x", "domain": ["a", "b"]}],'
            ' "sets": [{"assignments": [[0, 0]], "g": ["0", "1", "2"]}]}',
            "s+1",
        ),
        (
            '{"format": "vcsp-cfc/1", "variables": [{"name": "x", "domain": ["a", "b"]}],'
            ' "sets": [{"assignments": [[0, 5]], "g": ["0", "1"]}]}',
            "outside domain",
        ),
        (
            '{"format": "vcsp-binary/1", "variables": [{"name": "x", "domain": ["a"]},'
            ' {"name": "y", "domain": ["a"]}], "unary": [{"var": true, "costs": ["1"]}]}',
            "bad variable index",
        ),
        (
            '{"format": "vcsp-binary/1", "variables": [{"name": "x", "domain": ["a"]},'
            ' {"name": "y", "domain": ["a"]}],'
            ' "binary": [{"i": false, "j": true, "costs": [["0"]]}]}',
            "pair indices must be ints",
        ),
        (
            '{"format": "vcsp-cfc/1", "variables": [{"name": "x", "domain": ["a", "b"]}],'
            ' "sets": [{"assignments": [[0, true]], "g": ["0", "1"]}]}',
            "assignment must be [varIdx, valIdx]",
        ),
        (
            '{"format": "vcsp-solution/1", "assignment": [true], "cost": "0"}',
            "'assignment' must be a list of value indices",
        ),
    ],
)
def test_parse_errors(text, fragment):
    parse = parse_solution if '"vcsp-solution/1"' in text else parse_instance
    with pytest.raises(FormatError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_fixture_files_round_trip_bit_exact():
    table = fixtures()
    for name, inst in table.items():
        path = FIXTURE_DIR / f"{name}.json"
        text = path.read_text(encoding="utf-8")
        assert serialize_instance(parse_instance(text)) == text
        # the shipped file matches the constructed fixture
        assert serialize_instance(inst) == text


def test_sets_share_one_tuple_per_assignment():
    tree = gen_full_laminar_tree(8, 3, 0)
    universe = tree.universe()
    sets = list(tree.sets)
    for k in range(1, len(sets), 3):
        members = universe - sets[k].members
        sets[k] = AssignmentSet(members, CountFunction.zero(len({i for i, _ in members})))
    complemented = CountInstance.build(tree.domains, sets)
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURE_DIR.glob("*.json"))]
    texts += [serialize_instance(tree), serialize_instance(complemented)]
    for text in texts:
        inst = parse_instance(text)
        members = [m for aset in inst.sets for m in aset.members]
        assert len({id(m) for m in members}) <= sum(map(len, inst.domains))
        assert all(type(m) is tuple and type(m[0]) is int and type(m[1]) is int for m in members)
        written = {frozenset(map(tuple, s["assignments"])) for s in json.loads(text)["sets"]}
        assert {aset.members for aset in inst.sets} == written


def test_generated_instances_round_trip():
    insts = [
        gen_profile(4, 2, {"<", "="}, Scheme.ORDER, seed=3),
        gen_matching_encoding(4, [(0, 1), (1, 2), (2, 3)]),
    ]
    for inst in insts:
        text = serialize_instance(inst)
        again = serialize_instance(parse_instance(text))
        assert again == text
        assert parse_instance(text) == inst


def test_solution_documents():
    doc = solution_to_doc((1, 0, 2), Cost(5))
    text = dumps(doc)
    assignment, total = parse_solution(text)
    assert assignment == (1, 0, 2)
    assert total == Cost(5)
    assert json.loads(text)["format"] == "vcsp-solution/1"


_VARIABLES = [{"name": "x", "domain": ["a", "b"]}, {"name": "y", "domain": ["a", "b", "c"]}]
_MALFORMED_COST = "; expected inf, n or p/q, non-negative"


def _binary_text(**fields):
    return json.dumps({"format": "vcsp-binary/1", "variables": _VARIABLES, **fields})


def _count_text(**fields):
    return json.dumps({"format": "vcsp-cfc/1", "variables": _VARIABLES, **fields})


def _row(*costs):
    return {"i": 0, "j": 1, "costs": list(costs)}


def _set(assignments, g=("0", "1", "2")):
    return {"assignments": assignments, "g": list(g)}


# one document per raise site of parse_binary_instance and parse_count_instance
# (the final InstanceError re-raises are unreachable once these checks pass),
# with the whole message and its location
PARSE_ERRORS = {
    "unary-not-a-list": (_binary_text(unary={}), "'unary' must be a list"),
    "unary-not-an-object": (_binary_text(unary=[["0", "0"]]),
                            "unary entry must be an object (at unary[0])"),
    "unary-bool-index": (_binary_text(unary=[{"var": True, "costs": ["0", "0", "0"]}]),
                         "bad variable index True (at unary[0])"),
    "unary-index-out-of-range": (_binary_text(unary=[{"var": 2, "costs": ["0"]}]),
                                 "bad variable index 2 (at unary[0])"),
    "unary-negative-index": (_binary_text(unary=[{"var": -1, "costs": ["0"]}]),
                             "bad variable index -1 (at unary[0])"),
    "unary-repeated": (
        _binary_text(unary=[{"var": 1, "costs": ["0", "0", "0"]},
                            {"var": 1, "costs": ["1", "0", "0"]}]),
        "duplicate unary table on variable 1 (at unary[1])",
    ),
    "unary-costs-not-a-list": (_binary_text(unary=[{"var": 0, "costs": "0"}]),
                               "unary costs must be a list (at unary[0])"),
    "unary-wrong-length": (_binary_text(unary=[{"var": 1, "costs": ["0", "0"]}]),
                           "unary table length 2 != domain size 3 (at unary[0])"),
    "unary-bad-cost": (_binary_text(unary=[{"var": 0, "costs": ["0", "-1"]}]),
                       f"malformed cost string '-1'{_MALFORMED_COST} (at unary[0].costs[1])"),
    "binary-not-a-list": (_binary_text(binary="x"), "'binary' must be a list"),
    "binary-not-an-object": (_binary_text(binary=[None]),
                             "binary entry must be an object (at binary[0])"),
    "binary-bool-index": (_binary_text(binary=[{"i": False, "j": True, "costs": []}]),
                          "pair indices must be ints (at binary[0])"),
    "binary-missing-index": (_binary_text(binary=[{"i": 0, "costs": []}]),
                             "pair indices must be ints (at binary[0])"),
    "binary-pair-order": (_binary_text(binary=[{"i": 1, "j": 0, "costs": []}]),
                          "pair (1, 0) must satisfy 0 <= i < j < n (at binary[0])"),
    "binary-pair-out-of-range": (_binary_text(binary=[{"i": 0, "j": 2, "costs": []}]),
                                 "pair (0, 2) must satisfy 0 <= i < j < n (at binary[0])"),
    "binary-repeated": (
        _binary_text(binary=[_row(["0"] * 3, ["0"] * 3), _row(["1"] * 3, ["0"] * 3)]),
        "duplicate binary table on pair (0, 1) (at binary[1])",
    ),
    "binary-wrong-row-count": (_binary_text(binary=[_row(["0"] * 3)]),
                               "expected 2 rows (at binary[0])"),
    "binary-rows-not-a-list": (_binary_text(binary=[{"i": 0, "j": 1, "costs": "00"}]),
                               "expected 2 rows (at binary[0])"),
    "binary-wrong-row-length": (_binary_text(binary=[_row(["0"] * 3, ["0"] * 2)]),
                                "row 1 must have 3 entries (at binary[0])"),
    "binary-row-not-a-list": (_binary_text(binary=[_row(["0"] * 3, "000")]),
                              "row 1 must have 3 entries (at binary[0])"),
    "binary-bad-cost": (
        _binary_text(binary=[_row(["0"] * 3, ["0", "1/0", "0"])]),
        "cost denominator must be positive: '1/0' (at binary[0].costs[1][1])",
    ),
    "binary-cost-not-a-string": (
        _binary_text(binary=[_row(["0", "0", 5], ["0"] * 3)]),
        "cost must be a string, got int (at binary[0].costs[0][2])",
    ),
    "count-bad-constant": (_count_text(constant="1.5"),
                           f"malformed cost string '1.5'{_MALFORMED_COST} (at constant)"),
    "count-sets-not-a-list": (_count_text(sets={"assignments": []}), "'sets' must be a list"),
    "count-set-not-an-object": (_count_text(sets=[[[0, 0]]]),
                                "set entry must be an object (at sets[0])"),
    "count-no-assignments": (_count_text(sets=[{"g": ["0", "1"]}]),
                             "set needs a non-empty 'assignments' list (at sets[0])"),
    "count-empty-assignments": (_count_text(sets=[_set([])]),
                                "set needs a non-empty 'assignments' list (at sets[0])"),
    "count-bool-index": (
        _count_text(sets=[_set([[0, 0]], ["0", "1"]), _set([[0, True]], ["0", "1"])]),
        "assignment must be [varIdx, valIdx], got [0, True] (at sets[1])",
    ),
    "count-float-index": (_count_text(sets=[_set([[1.0, 0]])]),
                          "assignment must be [varIdx, valIdx], got [1.0, 0] (at sets[0])"),
    "count-short-pair": (_count_text(sets=[_set([[0, 0], [1]])]),
                         "assignment must be [varIdx, valIdx], got [1] (at sets[0])"),
    "count-long-pair": (_count_text(sets=[_set([[0, 0, 0]])]),
                        "assignment must be [varIdx, valIdx], got [0, 0, 0] (at sets[0])"),
    "count-pair-not-a-list": (_count_text(sets=[_set([{"0": 0}])]),
                              "assignment must be [varIdx, valIdx], got {'0': 0} (at sets[0])"),
    "count-variable-out-of-range": (_count_text(sets=[_set([[2, 0]])]),
                                    "variable index 2 out of range (at sets[0])"),
    "count-negative-variable": (_count_text(sets=[_set([[-1, 0]])]),
                                "variable index -1 out of range (at sets[0])"),
    "count-value-out-of-range": (_count_text(sets=[_set([[0, 1], [1, 3]])]),
                                 "value index 3 outside domain of variable 1 (at sets[0])"),
    "count-negative-value": (_count_text(sets=[_set([[0, -1]])]),
                             "value index -1 outside domain of variable 0 (at sets[0])"),
    "count-repeated-assignment": (_count_text(sets=[_set([[1, 2], [0, 0], [1, 2]])]),
                                  "repeated assignment (1, 2) (at sets[0])"),
    "count-no-g": (_count_text(sets=[{"assignments": [[0, 0]]}]),
                   "set needs a cost table 'g' (at sets[0])"),
    "count-g-not-a-list": (_count_text(sets=[{"assignments": [[0, 0]], "g": "01"}]),
                           "set needs a cost table 'g' (at sets[0])"),
    "count-wrong-g-length": (_count_text(sets=[_set([[0, 0], [0, 1]])]),
                             "g has length 3, expected s+1 = 2 (at sets[0])"),
    "count-bad-cost": (
        _count_text(sets=[_set([[0, 0]], ["0", "1"]), _set([[0, 0], [1, 0]], ["0", "1", "x"])]),
        f"malformed cost string 'x'{_MALFORMED_COST} (at sets[1].g[2])",
    ),
    "count-cost-not-a-string": (_count_text(sets=[_set([[0, 0]], [None, "1"])]),
                                "cost must be a string, got NoneType (at sets[0].g[0])"),
    "count-g-support-not-contiguous": (
        _count_text(sets=[_set([[0, 0], [1, 0]], ["0", "inf", "0"])]),
        "finite support of a count function must be a contiguous interval, got [0, 2] (at sets[0])",
    ),
}


@pytest.mark.parametrize("text,message", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
def test_parse_error_text_is_pinned(text, message):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert str(err.value) == message


# text that json escapes (quotes, backslashes, control characters) or, with
# ensure_ascii=False, writes as is (non-ASCII, U+2028)
_CHARACTERS = st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t/\u2028é€😀'), st.characters())
_STRINGS = st.text(_CHARACTERS, max_size=6)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
    st.floats(),
    _STRINGS,
)
_KEYS = st.one_of(_STRINGS, st.integers(), st.booleans(), st.none(), st.floats())
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_JSON_VALUES)
# equal tuples that json writes differently, at one depth, and an empty one
@example([(1, 0), (True, False), (1.0, 0), (1, 0), ()])
# lists of int tuples, written as one piece, and the lists next to them
@example([(1, 0), (True, 2), (3, 4)])
@example([(1, 2), [1, 2], (3,)])
@example([(), ()])
@example([(1,), (1, 2, 3)])
@example([[(1, 2)], {"k": [(1, 2), (1, 2)]}, (1, 2)])
def test_dumps_writes_the_bytes_of_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


_FINITE_COSTS = st.one_of(
    st.just(ZERO),
    st.integers(0, 9).map(Cost),
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)).map(Cost),
)
_COSTS = _FINITE_COSTS | st.just(INF)
_NAME = st.text(_CHARACTERS, min_size=1, max_size=3)


@st.composite
def _ragged_domains(draw):
    return [draw(st.lists(_NAME, min_size=1, max_size=3, unique=True))
            for _ in range(draw(st.integers(1, 4)))]


@st.composite
def _binary_instances(draw):
    domains = draw(_ragged_domains())
    n = len(domains)
    names = draw(st.none() | st.lists(_NAME, min_size=n, max_size=n, unique=True))
    # absent tables read as zeros, and an all-zero unary table is not written
    unary = {i: [draw(_COSTS) for _ in domains[i]]
             for i in range(n) if draw(st.booleans())}
    binary = {(i, j): [[draw(_COSTS) for _ in domains[j]] for _ in domains[i]]
              for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    return BinaryInstance.build(domains, names=names, unary=unary, binary=binary)


@st.composite
def _count_sets(draw):
    """(domains, sets): some sets share their members, so they merge."""
    domains = draw(_ragged_domains())
    universe = [(i, a) for i, dom in enumerate(domains) for a in range(len(dom))]
    sets = []
    for _ in range(draw(st.integers(0, 5))):
        if sets and draw(st.booleans()):
            members = draw(st.sampled_from(sets)).members
        else:
            members = draw(st.sets(st.sampled_from(universe), min_size=1))
        s = len({i for i, _ in members})
        # finite on a contiguous interval of counts, possibly empty
        lo = draw(st.integers(0, s + 1))
        hi = draw(st.integers(lo, s + 1))
        table = tuple(draw(_FINITE_COSTS) if lo <= m < hi else INF for m in range(s + 1))
        sets.append(AssignmentSet(frozenset(members), CountFunction(table)))
    return domains, sets


def _assert_round_trip(inst):
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_binary_instances())
def test_binary_instances_round_trip(inst):
    _assert_round_trip(inst)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_count_sets(), _COSTS)
def test_count_instances_round_trip(domains_and_sets, constant):
    domains, sets = domains_and_sets
    inst = CountInstance.build(domains, sets, constant=constant)
    _assert_round_trip(inst)
    # a document that lists each set as given parses to the merged instance
    doc = count_to_doc(inst)
    doc["sets"] = [{"assignments": sorted(a.members), "g": [format_cost(c) for c in a.g.table]}
                   for a in sets]
    assert parse_instance(dumps(doc)) == inst


def _paths(value, path=()):
    """Every path into a JSON value, the root's included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


_HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([-1, 0, 1, 2**64, -(2**64), 10**400]),
    st.floats(),
    st.sampled_from(["", "0", "1/0", "-1", "inf", "x", "１", "1_0"]),
    st.lists(st.one_of(st.integers(-2, 3), st.booleans(), st.none()), max_size=3),
    st.dictionaries(st.sampled_from(["var", "i", "j", "costs", "g", "assignments", "name"]),
                    st.integers(-1, 3), max_size=2),
)


# valid documents of both kinds: the count fixtures, and binary instances
# with unary tables, ragged domains, fractions and inf
_VALID_DOCUMENTS = [p.read_text(encoding="utf-8") for p in sorted(FIXTURE_DIR.glob("*.json"))] + [
    serialize_instance(gen_profile(4, 2, {"<", "="}, Scheme.ORDER, seed=3)),
    serialize_instance(gen_matching_encoding(4, [(0, 1), (1, 2), (2, 3)])),
    serialize_instance(BinaryInstance.build(
        [["a"], ["b", "c", "d"], ["e", "f"]],
        unary={0: [INF], 2: [Cost(Fraction(1, 2)), ZERO]},
        binary={(1, 2): [[ZERO, INF], [Cost(3), Cost(Fraction(5, 6))], [INF, ZERO]]},
    )),
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_VALID_DOCUMENTS), st.data())
def test_mutated_documents_parse_or_raise_format_error(text, data):
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = data.draw(_HOSTILE)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    try:
        parse_instance(json.dumps(doc))
    except FormatError:
        pass
