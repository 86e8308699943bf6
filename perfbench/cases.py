"""Inputs of the benchmark workloads, generated from seeds.

A workload is a fixed list of cases.  A case names a generator, its
parameters and the public function that solves it.  ``--seed n`` selects
slot ``n % SLOTS`` of ``refs.json``, which stores, per slot and case, the
generator seed, the digest of the input instance (``digest``) and the
reference answer computed at the commit that defined the benchmark.  The
digest is of the instance, not of its text, so that a change to the
serialised layout leaves it unchanged.  ``make_refs.py`` rebuilds that
file.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from vcspkit.costs import Cost, ZERO, format_cost
from vcspkit.formats import serialize_instance
from vcspkit.instances import AssignmentSet, BinaryInstance, CountFunction, CountInstance
from vcspkit.renaming import rename_set
from vcspkit.testkit import gen_full_laminar_tree, gen_profile
from vcspkit.triangles import Scheme

HERE = Path(__file__).resolve().parent
# where set-up processes write the generated inputs
INPUT_DIR = HERE.parent / ".bench_build" / "perfbench"
SLOTS = 32
DEFAULT_SEED = 0
# Not used while tuning the benchmark; a later change confirms a claimed
# gain on this seed as well as on the default one.
HELD_OUT_SEED = 23

# solver id -> (scheme, target triangle types) whose generated instances
# dispatch routes to that solver
ROUTES = {
    "sac": ("csp", (">", "0", "inf")),
    "trivial": ("csp", ("<", ">", "inf")),
    "lr": ("maxcsp", (">", "0")),
    "matching-cardinality": ("maxcsp", (">", "1")),
    "min0-structure": ("min0", (">0", "0")),
    "weighted-matching": ("maxm", (">M", "M")),
}

@dataclass(frozen=True)
class Case:
    """One input and the public call that solves it.

    ``kind`` and ``params`` select the generator; ``call`` is the solving
    function for in-process workloads and None for CLI inputs; ``route`` is
    the solver id a binary case must be dispatched to.
    """

    id: str
    kind: str
    params: dict = field(default_factory=dict)
    call: str | None = None
    route: str | None = None


def _binary(n, d, call):
    return [
        Case(f"route-{solver}", "profile",
             {"n": n, "d": d, "scheme": scheme, "types": list(types)}, call, solver)
        for solver, (scheme, types) in ROUTES.items()
    ]


def workload_cases(workload, small=False):
    """The cases of a workload; ``small`` gives the oracle-sized versions
    of the same generators used to cross-check the reference answers."""
    if workload == "binary-dispatch":
        return _binary(7 if small else 16, 3, "dispatch")
    if workload == "cfc-laminar":
        sizes = (3, 4, 5) if small else (100, 200, 400)
        return [Case(f"tree-{n}", "tree", {"n": n, "d": 3 if small else 4}, "solve_cfc")
                for n in sizes]
    if workload == "cfc-crossfree":
        n, sizes = (5, (8, 10)) if small else (100, (200, 400))
        return [Case(f"complemented-{n}", "complemented-tree",
                     {"n": n, "d": 3 if small else 4, "share": 0.3}, "solve_cfc")] + [
            Case(f"renamed-{m}", "renamed-tree", {"n": m, "share": 0.5}, "solve_renamable")
            for m in sizes
        ]
    if workload == "cli-small":
        return _binary(6, 2, None) + [Case(name, "fixture") for name in FIXTURE_COMMANDS]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("binary-dispatch", "cfc-laminar", "cfc-crossfree", "cli-small")

# The module whose functions a workload calls in-process.  A set-up process
# imports it, as a user's program would before its first call.
SOLVING_MODULE = {
    "binary-dispatch": "vcspkit.binary_solvers",
    "cfc-laminar": "vcspkit.cfc",
    "cfc-crossfree": "vcspkit.renaming",
    "cli-small": None,
}

# CLI commands run on each fixture: every one exits 0 on it.
FIXTURE_COMMANDS = {
    "maxsat-overlap": (("check", "--property", "crossfree"), ("rename",)),
    "pair-grid": (("check", "--property", "crossfree"), ("solve-cfc",)),
    "sat-blocks": (("check", "--property", "crossfree"), ("rename",), ("solve-cfc",)),
    "sat-fan": (("check", "--property", "crossfree"), ("rename",)),
}


def cli_commands(case):
    """The vcspkit commands of cli-small on a case, as (name, *options)."""
    if case.kind == "fixture":
        return FIXTURE_COMMANDS[case.id]
    scheme = ROUTES[case.route][0]
    return (("solve",), ("classify", "--scheme", scheme), ("check", "--property", "jwp"))


def cli_answer(command, doc):
    """The fields of a CLI output document that must match the reference."""
    name = command[0]
    if name == "solve":
        return {"cost": doc["cost"], "solver": doc["solver"]}
    if name == "solve-cfc":
        return {"cost": doc["cost"]}
    if name == "rename":
        return {"renamable": doc["renamable"],
                "cost": doc["result"]["cost"] if doc["renamable"] else None}
    if name == "classify":
        return {"observed": doc["observed"], "verdict": doc["verdict"]}
    return {"holds": doc["holds"], "kind": doc.get("kind")}


# Expected share of count inputs whose family is not laminar.
NON_LAMINAR_SHARE = {"cfc-laminar": 0.0, "cfc-crossfree": 1.0}


def linear_penalty(size, lo, hi):
    """Count function 0 on [lo, hi], growing by 1 per unit outside it."""
    return CountFunction(tuple(
        Cost(lo - m) if m < lo else Cost(m - hi) if m > hi else ZERO
        for m in range(size + 1)
    ))


def build(case, seed):
    """The instance of a generated case, from ``seed``."""
    p = case.params
    if case.kind == "profile":
        return gen_profile(p["n"], p["d"], frozenset(p["types"]), Scheme(p["scheme"]), seed)
    rng = random.Random(seed)
    if case.kind == "tree":
        return gen_full_laminar_tree(p["n"], p["d"], seed)
    if case.kind == "complemented-tree":
        # complements cross the sets that contain them, so the family is
        # cross-free but not laminar; the penalties keep the optimum finite
        base = gen_full_laminar_tree(p["n"], p["d"], rng.randrange(2**31))
        universe = base.universe()
        sets = list(base.sets)
        inner = [k for k, aset in enumerate(sets) if aset.members != universe]
        for k in rng.sample(inner, round(p["share"] * len(inner))):
            members = universe - sets[k].members
            s = len({i for i, _ in members})
            lo = rng.randint(0, s)
            sets[k] = AssignmentSet(members, linear_penalty(s, lo, rng.randint(lo, s)))
        return CountInstance.build(base.domains, sets)
    if case.kind == "renamed-tree":
        # renaming preserves every solution's cost, so the optimum equals
        # that of the underlying laminar tree
        base = gen_full_laminar_tree(p["n"], 2, rng.randrange(2**31))
        sets = list(base.sets)
        for k in rng.sample(range(len(sets)), round(p["share"] * len(sets))):
            sets[k] = rename_set(sets[k], base.domains)
        return CountInstance.build(base.domains, sets)
    raise ValueError(f"unknown case kind {case.kind!r}")


def digest(inst):
    """SHA-256 of a canonical form of an instance, built from its fields
    alone: independent of ``vcspkit.formats`` and of set order."""
    if isinstance(inst, BinaryInstance):
        form = ["binary", inst.names, inst.domains,
                [[format_cost(c) for c in t] for t in inst.unary],
                sorted([i, j, [[format_cost(c) for c in row] for row in t]]
                       for (i, j), t in inst.binary.items())]
    else:
        form = ["count", inst.names, inst.domains, format_cost(inst.constant),
                sorted([sorted(a.members), [format_cost(c) for c in a.g.table]]
                       for a in inst.sets)]
    text = json.dumps(form, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_refs(workload, seed):
    """(references of the seed's slot, commit the references come from)."""
    refs = json.loads((HERE / "refs.json").read_text("utf-8"))
    return refs["workloads"][workload][seed % SLOTS], refs["commit"]


def write_inputs(workload, seed):
    """Body of a set-up process: import, generate and serialise the
    workload's inputs into INPUT_DIR."""
    if SOLVING_MODULE[workload]:
        importlib.import_module(SOLVING_MODULE[workload])
    refs, _ = load_refs(workload, seed)
    out = INPUT_DIR / workload
    out.mkdir(parents=True, exist_ok=True)
    for case in workload_cases(workload):
        if case.kind != "fixture":
            text = serialize_instance(build(case, refs[case.id]["seed"]))
            (out / f"{case.id}.json").write_text(text, encoding="utf-8")


def has_route_shape(case, inst):
    """Whether a binary instance has the shape its route's instances share in
    every slot, so that slots differ in data but not in the number and kind
    of triangle scans dispatch makes.  sac instances forbid some pair (they
    are not the constraint-free case); min0-structure instances have a
    non-zero minimum binary cost, so normalisation by it is exercised;
    weighted-matching instances have a zero minimum."""
    costs = list(inst.all_binary_costs())
    if case.route == "sac":
        return any(c.is_infinite for c in costs)
    if case.route == "min0-structure":
        return min(costs) != ZERO
    if case.route == "weighted-matching":
        return min(costs) == ZERO
    return True


def is_laminar(inst):
    """Laminarity by insertion in decreasing size: every set must lie inside
    one current minimal container.  Independent of ``vcspkit.cfc``, and
    linear in the members, where ``check_family`` compares every pair."""
    container = {}
    for k, aset in enumerate(sorted(inst.sets, key=lambda a: -len(a.members))):
        if len({container.get(m) for m in aset.members}) != 1:
            return False
        for m in aset.members:
            container[m] = k
    return True
