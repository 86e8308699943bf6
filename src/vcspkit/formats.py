"""On-disk JSON formats for instances and solutions.

Three document kinds, distinguished by their ``format`` field:
``vcsp-binary/1``, ``vcsp-cfc/1`` and ``vcsp-solution/1``.  Cost strings are
ASCII decimal integers, ``p/q`` fractions, or ``inf``.  ``serialize_instance``
is the canonical writer; parsing its output reproduces the same bytes.
Solution documents are only written, by ``SolveResult.to_doc``.
"""

from __future__ import annotations

import json

from .costs import ZERO as ZERO_COST, format_cost, parse_cost
from .errors import FormatError, InstanceError
from .instances import (
    AssignmentSet,
    BinaryInstance,
    CountFunction,
    CountInstance,
)

BINARY_FORMAT = "vcsp-binary/1"
COUNT_FORMAT = "vcsp-cfc/1"
SOLUTION_FORMAT = "vcsp-solution/1"


def _expect(cond, message, where=None):
    if not cond:
        raise FormatError(message, where)


def _is_index(v):
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", where=f"line {exc.lineno}, col {exc.colno}")
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply")


def _parse_variables(doc):
    raw = doc.get("variables")
    _expect(isinstance(raw, list) and raw, "non-empty 'variables' list required")
    names, domains = [], []
    for k, entry in enumerate(raw):
        where = f"variables[{k}]"
        _expect(isinstance(entry, dict), "variable entry must be an object", where)
        name = entry.get("name")
        dom = entry.get("domain")
        _expect(isinstance(name, str) and name, "variable needs a non-empty name", where)
        _expect(
            isinstance(dom, list) and dom and all(isinstance(v, str) for v in dom),
            "variable needs a non-empty list of value names",
            where,
        )
        _expect(len(set(dom)) == len(dom), "duplicate value names in a domain", where)
        names.append(name)
        domains.append(tuple(dom))
    _expect(len(set(names)) == len(names), "duplicate variable names")
    return tuple(names), tuple(domains)


def _list_field(doc, key):
    """The list under ``key``; an absent key is an empty list."""
    raw = doc.get(key, [])
    _expect(isinstance(raw, list), f"{key!r} must be a list")
    return raw


def _parse_cost_at(s, where):
    try:
        return parse_cost(s)
    except FormatError as exc:
        raise FormatError(str(exc), where)


def _cost_reader():
    """``_parse_cost_at`` that parses each distinct cost string once, for
    the cost strings of one document."""
    seen = {}

    def read(s, where):
        c = seen.get(s) if isinstance(s, str) else None
        if c is None:
            c = seen[s] = _parse_cost_at(s, where)
        return c

    return read


def parse_binary_instance(doc) -> BinaryInstance:
    names, domains = _parse_variables(doc)
    parse_cost_at = _cost_reader()
    n = len(names)
    unary = {}
    for k, entry in enumerate(_list_field(doc, "unary")):
        where = f"unary[{k}]"
        _expect(isinstance(entry, dict), "unary entry must be an object", where)
        var = entry.get("var")
        _expect(_is_index(var) and 0 <= var < n, f"bad variable index {var!r}", where)
        _expect(var not in unary, f"duplicate unary table on variable {var}", where)
        costs = entry.get("costs")
        _expect(isinstance(costs, list), "unary costs must be a list", where)
        _expect(
            len(costs) == len(domains[var]),
            f"unary table length {len(costs)} != domain size {len(domains[var])}",
            where,
        )
        unary[var] = tuple(parse_cost_at(c, f"{where}.costs[{i}]") for i, c in enumerate(costs))
    binary = {}
    for k, entry in enumerate(_list_field(doc, "binary")):
        where = f"binary[{k}]"
        _expect(isinstance(entry, dict), "binary entry must be an object", where)
        i, j = entry.get("i"), entry.get("j")
        _expect(_is_index(i) and _is_index(j), "pair indices must be ints", where)
        _expect(0 <= i < j < n, f"pair ({i}, {j}) must satisfy 0 <= i < j < n", where)
        _expect((i, j) not in binary, f"duplicate binary table on pair ({i}, {j})", where)
        rows = entry.get("costs")
        _expect(isinstance(rows, list) and len(rows) == len(domains[i]),
                f"expected {len(domains[i])} rows", where)
        table = []
        for a, row in enumerate(rows):
            _expect(isinstance(row, list) and len(row) == len(domains[j]),
                    f"row {a} must have {len(domains[j])} entries", where)
            table.append([parse_cost_at(c, f"{where}.costs[{a}][{b}]") for b, c in enumerate(row)])
        binary[(i, j)] = table
    try:
        return BinaryInstance.build(domains, names=names, unary=unary, binary=binary)
    except InstanceError as exc:
        raise FormatError(str(exc))


def parse_count_instance(doc) -> CountInstance:
    names, domains = _parse_variables(doc)
    n = len(names)
    parse_cost_at = _cost_reader()
    constant = parse_cost_at(doc.get("constant", "0"), "constant")
    sets = []
    for k, entry in enumerate(_list_field(doc, "sets")):
        where = f"sets[{k}]"
        _expect(isinstance(entry, dict), "set entry must be an object", where)
        raw_members = entry.get("assignments")
        _expect(isinstance(raw_members, list) and raw_members,
                "set needs a non-empty 'assignments' list", where)
        members = set()
        for pair in raw_members:
            _expect(
                isinstance(pair, list) and len(pair) == 2
                and all(_is_index(v) for v in pair),
                f"assignment must be [varIdx, valIdx], got {pair!r}",
                where,
            )
            i, a = pair
            _expect(0 <= i < n, f"variable index {i} out of range", where)
            _expect(0 <= a < len(domains[i]), f"value index {a} outside domain of variable {i}", where)
            _expect((i, a) not in members, f"repeated assignment ({i}, {a})", where)
            members.add((i, a))
        g_raw = entry.get("g")
        _expect(isinstance(g_raw, list), "set needs a cost table 'g'", where)
        s = len({i for i, _ in members})
        _expect(len(g_raw) == s + 1,
                f"g has length {len(g_raw)}, expected s+1 = {s + 1}", where)
        table = [parse_cost_at(c, f"{where}.g[{m}]") for m, c in enumerate(g_raw)]
        try:
            sets.append(AssignmentSet(frozenset(members), CountFunction(tuple(table))))
        except InstanceError as exc:
            raise FormatError(str(exc), where)
    try:
        return CountInstance.build(domains, sets, names=names, constant=constant)
    except InstanceError as exc:
        raise FormatError(str(exc))


def parse_instance(text):
    """Parse a JSON document into a BinaryInstance or CountInstance."""
    doc = _load_json(text)
    _expect(isinstance(doc, dict), "top-level document must be an object")
    fmt = doc.get("format")
    if fmt == BINARY_FORMAT:
        return parse_binary_instance(doc)
    if fmt == COUNT_FORMAT:
        return parse_count_instance(doc)
    raise FormatError(f"unknown or missing format field {fmt!r}")


def binary_to_doc(inst: BinaryInstance) -> dict:
    doc = {
        "format": BINARY_FORMAT,
        "variables": [
            {"name": name, "domain": list(dom)} for name, dom in zip(inst.names, inst.domains)
        ],
        "unary": [
            {"var": i, "costs": [format_cost(c) for c in table]}
            for i, table in enumerate(inst.unary)
            if any(c != ZERO_COST for c in table)
        ],
        "binary": [
            {"i": i, "j": j, "costs": [[format_cost(c) for c in row] for row in table]}
            for (i, j), table in sorted(inst.binary.items())
        ],
    }
    return doc


def count_to_doc(inst: CountInstance) -> dict:
    return {
        "format": COUNT_FORMAT,
        "variables": [
            {"name": name, "domain": list(dom)} for name, dom in zip(inst.names, inst.domains)
        ],
        "constant": format_cost(inst.constant),
        "sets": [
            {
                "assignments": [[i, a] for i, a in sorted(aset.members)],
                "g": [format_cost(c) for c in aset.g.table],
            }
            for aset in inst.sets
        ],
    }


def dumps(doc) -> str:
    """Canonical JSON rendering used for all emitted documents."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def serialize_instance(inst) -> str:
    if isinstance(inst, BinaryInstance):
        return dumps(binary_to_doc(inst))
    if isinstance(inst, CountInstance):
        return dumps(count_to_doc(inst))
    raise TypeError(f"cannot serialise {type(inst).__name__}")
