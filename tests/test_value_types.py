"""The contract every value class keeps: immutable fields, equality and hash
over the fields, the ``Name(field=value, ...)`` repr, a constructor taking
the fields in order, and copies and pickles that compare equal."""

import copy
import pickle

import pytest

from helpers import gen_random_crossfree, gen_random_pair_sets, gen_random_renamable, network
from vcspkit.binary_solvers import dispatch
from vcspkit.cfc import build_laminar_forest, build_network, reduce_domains_pairsets
from vcspkit.costs import INF, ZERO
from vcspkit.flow import min_convex_cost_flow
from vcspkit.matching import MatchingGraph
from vcspkit.renaming import TwoSatInstance, recognize_renamable
from vcspkit.results import SolveResult
from vcspkit.testkit import gen_full_laminar_tree, gen_profile
from vcspkit.triangles import Scheme, has_soft_unaries, profile, scan_triangles, verdict

# each class's constructor parameters, in order
FIELDS = {
    "IntegerCosts": ("den", "unary", "binary"),
    "IntegerCount": ("table", "support", "slopes", "bend"),
    "IntegerCounts": ("den", "counts", "constant"),
    "BinaryInstance": ("names", "domains", "unary", "binary"),
    "CountFunction": ("table",),
    "AssignmentSet": ("members", "g"),
    "CountInstance": ("names", "domains", "constant", "sets"),
    "Arc": ("tail", "head", "cost"),
    "FlowNetwork": ("num_nodes", "source", "sink", "value", "arcs", "den"),
    "Flow": ("amounts", "total"),
    "Infeasible": ("witness_arc",),
    "TriangleProfile": ("scheme", "observed", "witnesses", "mu", "m_value"),
    "TriangleScan": ("inst", "values", "ranks"),
    "Verdict": ("kind", "solver", "rule"),
    "LaminarForest": ("instance", "sets", "counts", "father", "smallest"),
    "DomainReduction": ("reduced", "origin"),
    "MatchingGraph": ("num_vertices", "edges"),
    "TwoSatInstance": ("num_vars", "clauses"),
    "Renaming": ("flags", "renamed", "forest"),
    "SolveResult": ("assignment", "cost", "solver", "certificate", "verdicts"),
}

# the classes whose fields are all hashable; the others hold a dict or a
# mapping proxy and raise TypeError on hash
HASHABLE = {
    "IntegerCount", "IntegerCounts", "CountFunction", "AssignmentSet", "CountInstance",
    "Arc", "FlowNetwork", "Flow", "Infeasible", "Verdict", "MatchingGraph",
    "TwoSatInstance",
}

# the classes that hold a mapping proxy (the binary tables), which deepcopy
# and pickle refuse
UNPICKLABLE = {"BinaryInstance", "IntegerCosts", "TriangleScan"}

# the classes whose last constructor parameter has a default
DEFAULTED = {"SolveResult", "TriangleProfile"}


@pytest.fixture(scope="module")
def values():
    """One object of each value class, from small seeded inputs."""
    binary = gen_profile(5, 2, {">M", "M"}, Scheme.MAXM, 4)
    prof = profile(binary, Scheme.MAXM)
    count = gen_random_crossfree(4, 3, 7)
    forest = build_laminar_forest(count)
    net = build_network(build_laminar_forest(gen_full_laminar_tree(4, 2, 0)))
    ren = recognize_renamable(gen_random_renamable(4, 3))
    assert ren is not None
    made = [
        binary, binary.integer_costs, count, count.integer_counts,
        count.integer_counts.counts[0], count.sets[0], count.sets[0].g,
        forest, net, net.arcs[0], min_convex_cost_flow(net),
        min_convex_cost_flow(network(3, 0, 2, 0, [(1, 2, (INF, INF, ZERO))])),
        prof, scan_triangles(binary),
        verdict(prof, binary.max_domain, has_soft_unaries(binary)),
        reduce_domains_pairsets(gen_random_pair_sets([4, 2], 5)),
        MatchingGraph(4, ((0, 1, 3), (1, 2, 5), (2, 3, 1))),
        TwoSatInstance(3, ((1, -2), (2, 3), (-1, -3))), ren, dispatch(binary),
    ]
    return {type(v).__name__: v for v in made}


def test_every_value_class_is_covered(values):
    assert set(values) == set(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_value_class_contract(values, name):
    obj = values[name]
    fields = FIELDS[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1

    rebuilt = type(obj)(*[getattr(obj, field) for field in fields])
    assert rebuilt == obj and not rebuilt != obj
    assert obj != (*[getattr(obj, field) for field in fields],)
    if name in HASHABLE:
        assert hash(rebuilt) == hash(obj)
    else:
        with pytest.raises(TypeError):
            hash(obj)

    shown = ", ".join(f"{field}={getattr(obj, field)!r}" for field in fields)
    assert repr(obj) == f"{name}({shown})"

    assert copy.copy(obj) == obj
    if name in UNPICKLABLE:
        with pytest.raises(TypeError):
            pickle.dumps(obj)
        with pytest.raises(TypeError):
            copy.deepcopy(obj)
    else:
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj

    given = [getattr(obj, field) for field in fields]
    with pytest.raises(TypeError):
        type(obj)(*given, None)
    if name not in DEFAULTED:
        with pytest.raises(TypeError):
            type(obj)(*given[:-1])


def test_solve_results_do_not_share_a_certificate():
    first, second = SolveResult(None, None, "x"), SolveResult(None, None, "x")
    assert first == second
    assert first.certificate == {} and first.certificate is not second.certificate
    assert first.verdicts == ()
