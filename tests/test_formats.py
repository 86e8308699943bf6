import json
import pathlib

import pytest

from helpers import parse_solution, solution_to_doc
from vcspkit.costs import Cost, INF, ZERO
from vcspkit.errors import FormatError
from vcspkit.formats import (
    dumps,
    parse_instance,
    serialize_instance,
)
from vcspkit.instances import BinaryInstance, CountInstance
from vcspkit.testkit import fixtures, gen_matching_encoding, gen_profile
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
