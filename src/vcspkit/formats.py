"""On-disk JSON formats for instances and solutions.

Three document kinds, distinguished by their ``format`` field:
``vcsp-binary/1``, ``vcsp-cfc/1`` and ``vcsp-solution/1``.  Cost strings are
ASCII decimal integers, ``p/q`` fractions, or ``inf``.  ``serialize_instance``
is the canonical writer; parsing its output reproduces the same bytes.
The parsers read each distinct cost string once per document, and the count
parser shares member pairs the same way: every set of a document holds the
one ``(i, a)`` tuple of each of its assignments.  Solution documents are
only written, by ``SolveResult.to_doc``.

``dumps`` writes every emitted document.  Its canonical bytes are those of
``json.dumps(doc, indent=2, ensure_ascii=False)`` and a newline, but built
from pieces joined once: with an indent, the standard library's encoder runs
in pure Python, which took longer than solving on large count instances.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring

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
    """A reader of cost lists that parses each distinct cost string once per
    document.  ``read(raw, where, *at)`` gives the costs of the list ``raw``
    as a tuple; when entry m is no cost, the error's location is
    ``where.format(*at, m)``, built only then."""
    seen = {}

    def read(raw, where, *at):
        for m, s in enumerate(raw):
            if type(s) is not str or s not in seen:
                try:
                    seen[s] = parse_cost(s)
                except FormatError as exc:
                    raise FormatError(str(exc), where.format(*at, m))
        return tuple([seen[s] for s in raw])

    return read


# Each entry is checked with plain conditions, and a message and its location
# are built only when a check fails.  They cover all the instance constructors
# test, so the final ``build`` raises no InstanceError.


def parse_binary_instance(doc) -> BinaryInstance:
    names, domains = _parse_variables(doc)
    read_costs = _cost_reader()
    n = len(names)
    unary = {}
    for k, entry in enumerate(_list_field(doc, "unary")):
        if not isinstance(entry, dict):
            raise FormatError("unary entry must be an object", f"unary[{k}]")
        var = entry.get("var")
        if not (_is_index(var) and 0 <= var < n):
            raise FormatError(f"bad variable index {var!r}", f"unary[{k}]")
        if var in unary:
            raise FormatError(f"duplicate unary table on variable {var}", f"unary[{k}]")
        costs = entry.get("costs")
        if not isinstance(costs, list):
            raise FormatError("unary costs must be a list", f"unary[{k}]")
        if len(costs) != len(domains[var]):
            raise FormatError(
                f"unary table length {len(costs)} != domain size {len(domains[var])}",
                f"unary[{k}]",
            )
        unary[var] = read_costs(costs, "unary[{}].costs[{}]", k)
    binary = {}
    for k, entry in enumerate(_list_field(doc, "binary")):
        if not isinstance(entry, dict):
            raise FormatError("binary entry must be an object", f"binary[{k}]")
        i, j = entry.get("i"), entry.get("j")
        if not (_is_index(i) and _is_index(j)):
            raise FormatError("pair indices must be ints", f"binary[{k}]")
        if not 0 <= i < j < n:
            raise FormatError(f"pair ({i}, {j}) must satisfy 0 <= i < j < n", f"binary[{k}]")
        if (i, j) in binary:
            raise FormatError(f"duplicate binary table on pair ({i}, {j})", f"binary[{k}]")
        rows = entry.get("costs")
        if not (isinstance(rows, list) and len(rows) == len(domains[i])):
            raise FormatError(f"expected {len(domains[i])} rows", f"binary[{k}]")
        table = []
        for a, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == len(domains[j])):
                raise FormatError(f"row {a} must have {len(domains[j])} entries", f"binary[{k}]")
            table.append(read_costs(row, "binary[{}].costs[{}][{}]", k, a))
        binary[(i, j)] = table
    return BinaryInstance.build(domains, names=names, unary=unary, binary=binary)


def parse_count_instance(doc) -> CountInstance:
    names, domains = _parse_variables(doc)
    n = len(names)
    read_costs = _cost_reader()
    constant = _parse_cost_at(doc.get("constant", "0"), "constant")
    # one (i, a) tuple per assignment, shared by every set that holds it
    pairs = [[(i, a) for a in range(len(dom))] for i, dom in enumerate(domains)]
    sets = []
    for k, entry in enumerate(_list_field(doc, "sets")):
        if not isinstance(entry, dict):
            raise FormatError("set entry must be an object", f"sets[{k}]")
        raw_members = entry.get("assignments")
        if not (isinstance(raw_members, list) and raw_members):
            raise FormatError("set needs a non-empty 'assignments' list", f"sets[{k}]")
        members = set()
        for pair in raw_members:
            # json.loads makes no int subclass but bool, and a bool is no index
            if not (type(pair) is list and len(pair) == 2
                    and type(pair[0]) is int and type(pair[1]) is int):
                raise FormatError(
                    f"assignment must be [varIdx, valIdx], got {pair!r}", f"sets[{k}]"
                )
            i, a = pair
            if not 0 <= i < n:
                raise FormatError(f"variable index {i} out of range", f"sets[{k}]")
            row = pairs[i]
            if not 0 <= a < len(row):
                raise FormatError(f"value index {a} outside domain of variable {i}", f"sets[{k}]")
            member = row[a]
            if member in members:
                raise FormatError(f"repeated assignment ({i}, {a})", f"sets[{k}]")
            members.add(member)
        g_raw = entry.get("g")
        if not isinstance(g_raw, list):
            raise FormatError("set needs a cost table 'g'", f"sets[{k}]")
        s = len({i for i, _ in members})
        if len(g_raw) != s + 1:
            raise FormatError(f"g has length {len(g_raw)}, expected s+1 = {s + 1}", f"sets[{k}]")
        g = read_costs(g_raw, "sets[{}].g[{}]", k)
        try:
            sets.append(AssignmentSet(members, CountFunction(g)))
        except InstanceError as exc:
            raise FormatError(str(exc), f"sets[{k}]")
    return CountInstance.build(domains, sets, names=names, constant=constant)


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
                "assignments": sorted(aset.members),
                "g": [format_cost(c) for c in aset.g.table],
            }
            for aset in inst.sets
        ],
    }


_INT = frozenset([int])


def _write(v, nl, out, written):
    """Append to ``out`` the text of ``v`` as ``json.dumps(indent=2,
    ensure_ascii=False)`` writes it at the depth whose line break and indent
    is ``nl``.  Each item of a container is appended after its separator, and
    ``dumps`` joins the pieces once.  Text built a container at a time is
    copied once per depth, and those megabyte-sized copies made the peak
    memory of a round trip depend on the allocator's earlier state.  A list
    of tuples of items of type int (so that no bool or float shares a key),
    a set's assignments, is one piece joined from the tuples' texts, each
    built once per depth and kept in that depth's dict in ``written``: the
    members of a count document's sets repeat from set to set."""
    t = type(v)
    if t is tuple or t is list or isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if (t is list and all(type(x) is tuple for x in v)
                and _INT.issuperset(map(type, chain.from_iterable(v)))):
            texts = written.setdefault(inner, {})
            items = [texts.get(x) or _int_tuple(x, inner, texts) for x in v]
            out.append(f"[{inner}{sep.join(items)}{nl}]")
            return
        first = len(out)
        for x in v:
            if type(x) is str:
                out.append(sep + encode_basestring(x))
            elif type(x) is int:
                out.append(sep + int.__repr__(x))
            else:
                out.append(sep)
                _write(x, inner, out, written)
        out[first] = "[" + out[first][1:]
        out.append(nl + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        first = len(out)
        for k, x in v.items():
            out.append(f",{inner}{_key(k)}: ")
            _write(x, inner, out, written)
        out[first] = "{" + out[first][1:]
        out.append(nl + "}")
    elif t is str:
        out.append(encode_basestring(v))
    elif t is int:
        out.append(int.__repr__(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    else:
        # a float, or a str or int subclass: json's text, or its TypeError
        out.append(json.dumps(v, ensure_ascii=False))


def _int_tuple(v, nl, texts):
    """The text of a tuple of exact ints at the depth of ``nl``, kept in
    ``texts``, that depth's cache."""
    inner = nl + "  "
    texts[v] = text = f"[{inner}{f',{inner}'.join(map(int.__repr__, v))}{nl}]" if v else "[]"
    return text


def _key(k):
    """A dict key as json writes it: a str escaped, an int, float, bool or
    None as its JSON text in quotes, anything else json's TypeError."""
    if type(k) is str:
        return encode_basestring(k)
    return json.dumps({k: 0}, ensure_ascii=False)[1:-4]


def dumps(doc) -> str:
    """Canonical JSON rendering used for all emitted documents: the bytes of
    ``json.dumps(doc, indent=2, ensure_ascii=False)`` and a newline."""
    out = []
    _write(doc, "\n", out, {})
    out.append("\n")
    return "".join(out)


def serialize_instance(inst) -> str:
    if isinstance(inst, BinaryInstance):
        return dumps(binary_to_doc(inst))
    if isinstance(inst, CountInstance):
        return dumps(count_to_doc(inst))
    raise TypeError(f"cannot serialise {type(inst).__name__}")
