"""Command-line front end.

Every command writes exactly one JSON document to stdout; human-readable
diagnostics go to stderr.  Exit codes: 0 success (including infinite-cost
results), 1 internal error, 2 usage error (a missing argument, an unknown
command or option: an error document of kind ``usage``, with the usage on
stderr), 3 input validation error (an input that cannot be read or an
output path that cannot be written included), 4 class or precondition violation,
5 oracle budget exceeded.  ``--help`` and ``--version`` print text, not
JSON, and exit 0.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import __version__
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ClassViolation,
    FormatError,
    GenerationError,
    InstanceError,
)
from .formats import (
    dumps,
    parse_instance,
    serialize_instance,
)
from .instances import BinaryInstance, CountInstance

# Each command imports the modules it runs, so a process loads (and, without
# cached bytecode, compiles) only those.

# the values of triangles.Scheme, spelled out so that building the parser
# imports no triangles; a test pins the two together
SCHEMES = ("csp", "maxcsp", "order", "min0", "maxm")

NAMED_GRAPHS = {
    "k3": (3, [(0, 1), (0, 2), (1, 2)]),
    "p3": (3, [(0, 1), (1, 2)]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "petersen": (
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    ),
}


def _read_text(path):
    try:
        if path == "-":
            if sys.stdin is None:
                raise FormatError("cannot read -: standard input is closed")
            # bytes decoded here when the stream has them, so that the
            # locale does not choose the decoding; a text stream is read as is
            buffer = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise FormatError(f"cannot read {path}: not UTF-8 text")


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc.strerror}")


def _emit(doc):
    sys.stdout.write(dumps(doc))


def _load(path, want=None):
    # parsing leaves no cyclic garbage, so the collector's passes over the
    # many new tuples and sets only cost time
    enabled = gc.isenabled()
    gc.disable()
    try:
        inst = parse_instance(_read_text(path))
    finally:
        if enabled:
            gc.enable()
    if want is not None and not isinstance(inst, want):
        raise FormatError(f"expected a {want.__name__} document")
    return inst


def _require_at_least(option, value, least):
    if value < least:
        raise FormatError(f"{option} must be at least {least}, got {value}")


def _parse_graph(args):
    if args.named:
        return NAMED_GRAPHS[args.named]
    if args.edges is None:
        raise FormatError("either --named or --edges is required")
    edges = []
    vertices = args.vertices or 0
    _require_at_least("--vertices", vertices, 0)
    if args.edges.strip():
        for part in args.edges.split(","):
            try:
                u, v = part.split("-")
                u, v = int(u), int(v)
            except ValueError:
                raise FormatError(f"malformed edge {part!r}; expected like 0-1")
            edges.append((u, v))
            vertices = max(vertices, u + 1, v + 1)
    if vertices == 0:
        raise FormatError("the graph has no vertices; give --edges or --vertices")
    return vertices, edges


def cmd_classify(args):
    from .triangles import Scheme, profile_report

    inst = _load(args.file, BinaryInstance)
    _emit(profile_report(inst, Scheme(args.scheme)))
    return 0


def cmd_solve(args):
    from .binary_solvers import dispatch

    _require_at_least("--oracle-budget", args.oracle_budget, 0)
    inst = _load(args.file, BinaryInstance)
    result = dispatch(inst, oracle_budget=args.oracle_budget)
    _emit(result.to_doc())
    return 0


def cmd_solve_cfc(args):
    from .cfc import _require_convex, _solve_forest, build_laminar_forest, forest_to_dot
    from .flow import network_to_dot

    inst = _load(args.file, CountInstance)
    _require_convex(inst)
    forest = build_laminar_forest(inst)
    result, net = _solve_forest(inst, forest)
    # drawn only from an instance the solver has accepted
    if args.dot_forest:
        _write_text(args.dot_forest, forest_to_dot(forest))
    if args.dot_network and net is None:
        print("note: no network drawn: a set has no finite count", file=sys.stderr)
    elif args.dot_network:
        _write_text(args.dot_network, network_to_dot(net))
    _emit(result.to_doc())
    return 0


def cmd_check(args):
    inst = _load(args.file)
    prop = args.property
    doc = {"property": prop}
    if prop == "jwp":
        from .triangles import check_jwp

        if not isinstance(inst, BinaryInstance):
            raise FormatError("the jwp check applies to binary instances")
        holds, witness = check_jwp(inst)
        doc["holds"] = holds
        if witness is not None:
            doc["witness"] = list(witness)
    elif prop == "convex":
        from .cfc import first_nonconvex_set

        if not isinstance(inst, CountInstance):
            raise FormatError("the convex check applies to count instances")
        bad = first_nonconvex_set(inst)
        if bad is not None:
            doc["witness"] = {"set": bad[0], "count": bad[1]}
        doc["holds"] = bad is None
    else:
        from .cfc import CROSS_FREE, LAMINAR, check_family

        if not isinstance(inst, CountInstance):
            raise FormatError("family checks apply to count instances")
        kind, witness = check_family([a.members for a in inst.sets], inst.universe())
        if prop == "laminar":
            doc["holds"] = kind == LAMINAR
        else:
            doc["holds"] = kind in (LAMINAR, CROSS_FREE)
        doc["kind"] = kind
        if witness is not None:
            i, j = witness
            doc["witness"] = {
                "sets": [i, j],
                "members": [sorted(inst.sets[i].members), sorted(inst.sets[j].members)],
            }
    _emit(doc)
    return 0


def cmd_rename(args):
    from .renaming import recognize_renamable, solve_renaming

    inst = _load(args.file, CountInstance)
    ren = recognize_renamable(inst)
    if ren is None:
        _emit({"renamable": False})
        return 0
    result = solve_renaming(inst, ren)
    _emit({
        "renamable": True,
        "renaming": [bool(f) for f in ren.flags],
        "result": result.to_doc(),
    })
    return 0


def cmd_gen(args):
    from . import testkit
    from .triangles import Scheme

    if args.kind in ("profile", "soft-gcc", "nested-gcc"):
        _require_at_least("--n", args.n, 1)
        _require_at_least("--d", args.d, 1)
    if args.kind == "profile":
        inst = testkit.gen_profile(
            args.n, args.d, frozenset(args.types.split(",")), Scheme(args.scheme), args.seed
        )
    elif args.kind == "maxcut":
        vertices, edges = _parse_graph(args)
        inst = testkit.gen_maxcut(vertices, edges)
    elif args.kind == "matching":
        vertices, edges = _parse_graph(args)
        inst = testkit.gen_matching_encoding(vertices, edges)
    elif args.kind == "soft-gcc":
        inst = testkit.gen_soft_gcc(args.n, args.d, _parse_bounds(args.bounds, args.d))
    elif args.kind == "nested-gcc":
        groups = _parse_groups(args.groups)
        pairs = iter(_parse_bounds(args.bounds, len(groups) * args.d))
        bounds = {(gi, val): next(pairs) for gi in range(len(groups)) for val in range(args.d)}
        inst = testkit.gen_nested_gcc(args.n, args.d, groups, bounds)
    else:  # fixture
        table = testkit.fixtures()
        if args.name not in table:
            raise FormatError(f"unknown fixture {args.name!r}; have {sorted(table)}")
        inst = table[args.name]
    text = serialize_instance(inst)
    if args.output:
        _write_text(args.output, text)
    sys.stdout.write(text)
    return 0


def _parse_bounds(spec, count):
    """count lo:hi pairs, taking those of spec in a cycle."""
    out = []
    for part in spec.split(","):
        try:
            lo, hi = part.split(":")
            out.append((int(lo), int(hi)))
        except ValueError:
            raise FormatError(f"malformed bounds {part!r}; expected like 0:1")
    return [out[k % len(out)] for k in range(count)]


def _parse_groups(spec):
    try:
        groups = [tuple(int(v) for v in grp.split("-")) for grp in spec.split(",")]
    except ValueError:
        raise FormatError(f"malformed groups {spec!r}; expected like 0-1-2,0-1")
    for grp in groups:
        if len(set(grp)) != len(grp):
            raise FormatError(f"group {'-'.join(map(str, grp))} names a variable twice")
    return groups


def cmd_oracle(args):
    from . import testkit

    _require_at_least("--budget", args.budget, 0)
    inst = _load(args.file)
    if isinstance(inst, BinaryInstance):
        result = testkit.oracle_binary(inst, budget=args.budget)
    else:
        result = testkit.oracle_count(inst, budget=args.budget)
    _emit(result.to_doc())
    return 0


class _Parser(argparse.ArgumentParser):
    """On a usage error, writes the usage error document as well as
    argparse's usage text; subcommand parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _emit({"error": {"kind": "usage", "message": message}})
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="vcspkit",
        description="Classify and solve binary VCSPs by triangle patterns; "
        "solve cross-free convex count instances by convex flow.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="triangle profile and dichotomy verdict")
    p.add_argument("file")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="dispatch a binary instance to its class solver")
    p.add_argument("file")
    p.add_argument("--oracle-budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-cfc", help="solve a cross-free convex count instance")
    p.add_argument("file")
    p.add_argument("--dot-network", metavar="PATH")
    p.add_argument("--dot-forest", metavar="PATH")
    p.set_defaults(func=cmd_solve_cfc)

    p = sub.add_parser("check", help="check a structural property")
    p.add_argument("file")
    p.add_argument("--property", required=True,
                   choices=["laminar", "crossfree", "convex", "jwp"])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rename", help="recognise and solve a renamable instance")
    p.add_argument("file")
    p.set_defaults(func=cmd_rename)

    p = sub.add_parser("gen", help="emit a generated instance")
    p.add_argument("kind", choices=["profile", "maxcut", "matching", "soft-gcc",
                                    "nested-gcc", "fixture"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--types", default="=", help="comma-separated target types")
    p.add_argument("--scheme", default="order", choices=SCHEMES)
    p.add_argument("--named", choices=sorted(NAMED_GRAPHS))
    p.add_argument("--edges", help="comma-separated edges like 0-1,1-2")
    p.add_argument("--vertices", type=int)
    p.add_argument("--bounds", default="0:1", help="comma-separated lo:hi pairs")
    p.add_argument("--groups", default="0", help="variable groups like 0-1-2,0-1")
    p.add_argument("--name", help="fixture name")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="exhaustive optimum within a budget")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_oracle)

    return parser


# (exception types, error kind, exit code) of the input's faults; any other
# exception, a failed self-check's ``InternalError`` included, is a fault of
# the program: kind internal, exit 1
_ERRORS = (
    (FormatError, "format", 3),
    ((ClassViolation, GenerationError), "class", 4),
    (BudgetExceeded, "budget", 5),
    (InstanceError, "instance", 3),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, kind, code in _ERRORS:
            if isinstance(exc, types):
                error = {"kind": kind, "message": str(exc)}
                if getattr(exc, "witness", None) is not None:
                    error["witness"] = exc.witness
                _emit({"error": error})
                print(f"error: {exc}", file=sys.stderr)
                return code
        message = f"{type(exc).__name__}: {exc}"
        _emit({"error": {"kind": "internal", "message": message}})
        print(f"internal error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
