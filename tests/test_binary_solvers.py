import hashlib
import random
from fractions import Fraction

import pytest

from helpers import near_1e17_maxm_instance
from vcspkit import binary_solvers, triangles
from vcspkit.binary_solvers import SOLVERS, dispatch, solve_class
from vcspkit.costs import Cost, INF, ZERO
from vcspkit.errors import ClassViolation, GenerationError, InstanceError, InternalError, VcspError
from vcspkit.formats import dumps
from vcspkit.instances import BinaryInstance, evaluate_binary
from vcspkit.testkit import gen_matching_encoding, gen_profile, oracle_binary
from vcspkit.triangles import Scheme

C = Cost


def crisp(rows):
    return [[INF if v else ZERO for v in row] for row in rows]


def test_sac_solver_examples():
    # all binaries zero: per-variable unary minima
    inst = BinaryInstance.build(
        [["a", "b"]] * 3,
        unary={0: [C(2), C(1)], 1: [C(5), C(7)], 2: [ZERO, C(4)]},
    )
    res = solve_class(inst, "sac")
    assert res.cost == C(6)
    assert res.assignment == (1, 0, 0)
    # single variable
    inst = BinaryInstance.build([["a", "b"]], unary={0: [C(3), C(1)]})
    assert solve_class(inst, "sac").cost == C(1)


def test_sac_solver_handles_wipeout():
    inst = BinaryInstance.build(
        [["a"], ["b"]], binary={(0, 1): crisp([[1]])}
    )
    res = solve_class(inst, "sac")
    assert res.cost == INF
    assert evaluate_binary(inst, res.assignment) == INF


def test_trivial_crisp_three_variables_is_infeasible():
    inst = gen_profile(4, 2, {"<", ">", "inf"}, Scheme.CSP, seed=0)
    res = solve_class(inst, "trivial")
    assert res.cost == INF


def test_trivial_small_brute_force():
    inst = gen_profile(2, 3, {"<", ">", "inf"}, Scheme.CSP, seed=1)
    res = solve_class(inst, "trivial")
    assert res.cost == oracle_binary(inst).cost


def test_trivial_rejects_oversized_two_colour_instance():
    inst = gen_profile(5, 2, {"<", ">"}, Scheme.MAXCSP, seed=0)
    big = BinaryInstance.build(
        [["0", "1"]] * 6,
        binary={
            (i, j): [[C(1), C(1)], [C(1), C(1)]] for i in range(6) for j in range(i + 1, 6)
        },
    )
    solve_class(inst, "trivial")  # in class, fine
    with pytest.raises(ClassViolation):
        solve_class(big, "trivial")


def test_lr_quadratic_term_value():
    # with four variables and one cross pick the binary cost is 4
    n, k = 4, 1
    assert (n - 1) + k * (n - 2 - k) == 4


def test_lr_all_zero_instance():
    inst = BinaryInstance.build([["a", "b"]] * 4)
    res = solve_class(inst, "lr")
    assert res.cost == ZERO


def test_matching_cardinality_path_graph():
    # path on three vertices: maximum matching 1, optimum pairs - 1 = 2
    inst = gen_matching_encoding(3, [(0, 1), (1, 2)])
    res = solve_class(inst, "matching-cardinality")
    assert res.cost == C(2)
    assert res.certificate["matching_size"] == 1


def test_matching_cardinality_no_zero_cells():
    inst = BinaryInstance.build(
        [["a", "b"]] * 4,
        binary={
            (i, j): [[C(1), C(1)], [C(1), C(1)]] for i in range(4) for j in range(i + 1, 4)
        },
    )
    res = solve_class(inst, "matching-cardinality")
    assert res.cost == C(6)
    assert res.certificate["matching_size"] == 0


def test_matching_cardinality_petersen():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    inst = gen_matching_encoding(10, edges)
    res = solve_class(inst, "matching-cardinality")
    assert res.certificate["matching_size"] == 5
    assert res.cost == C(45 - 5)


def test_min0_star_case():
    inst = gen_profile(5, 3, {">0", "0"}, Scheme.MIN0, seed=101)
    res = solve_class(inst, "min0-structure")
    assert res.cost == oracle_binary(inst).cost


def test_min0_single_value_case():
    # one distinct non-zero cost spread over two disjoint-scope tables
    side = {(i, a): (i + a) % 2 for i in range(4) for a in range(2)}
    binary = {
        (i, j): [
            [C(3) if side[(i, a)] != side[(j, b)] else ZERO for b in range(2)]
            for a in range(2)
        ]
        for i in range(4)
        for j in range(i + 1, 4)
    }
    unary = {i: [C(Fraction(1, 2)), C(2)] for i in range(4)}
    inst = BinaryInstance.build([["0", "1"]] * 4, unary=unary, binary=binary)
    res = solve_class(inst, "min0-structure")
    assert res.certificate["case"] == "single-value"
    assert res.cost == oracle_binary(inst).cost


def test_min0_rejects_two_values_on_disjoint_scopes():
    binary = {
        (0, 1): [[C(1)]],
        (2, 3): [[C(2)]],
        (0, 2): [[ZERO]], (0, 3): [[ZERO]], (1, 2): [[ZERO]], (1, 3): [[ZERO]],
    }
    inst = BinaryInstance.build([["a"]] * 4, binary=binary)
    with pytest.raises(ClassViolation) as err:
        solve_class(inst, "min0-structure")
    assert err.value.witness is not None


def test_weighted_matching_constant_tables():
    m = C(5)
    inst = BinaryInstance.build(
        [["a", "b"]] * 4,
        binary={
            (i, j): [[m, m], [m, m]] for i in range(4) for j in range(i + 1, 4)
        },
    )
    res = solve_class(inst, "weighted-matching")
    assert res.cost == C(30)  # 6 pairs * 5
    assert res.certificate["matching"] == []


def test_weighted_matching_identity_holds():
    for seed in range(25):
        inst = gen_profile(6, 3, {">M", "M"}, Scheme.MAXM, seed=seed)
        res = solve_class(inst, "weighted-matching")
        cert = res.certificate
        weight = _parse(cert["matching_weight"])
        m_val = _parse(cert["m_value"])
        offset = _parse(cert["unary_offset"])
        pairs = cert["pair_count"]
        assert weight + (res.cost - offset) == m_val * pairs


def test_weighted_matching_wipeout_certificate():
    # variable 0 has no finite value: no assignment has a finite cost
    inst = BinaryInstance.build([["a", "b"]] * 2, unary={0: [INF, INF]},
                                binary={(0, 1): [[C(1), ZERO], [C(1), C(1)]]})
    doc = dispatch(inst).to_doc()
    assert doc["cost"] == "inf"
    assert doc["solver"] == "weighted-matching"
    assert doc["certificate"] == {"wipeout_variable": 0}


def test_matching_cardinality_all_one_unary_constant():
    # path 0-1-2: one pair is cheap at most; variables 0 and 2 pay 1 whatever they take
    base = gen_matching_encoding(3, [(0, 1), (1, 2)])
    unary = {i: [C(1)] * len(base.domains[i]) for i in (0, 2)}
    inst = BinaryInstance.build(base.domains, unary=unary, binary=dict(base.binary))
    res = solve_class(inst, "matching-cardinality")
    assert res.certificate["all_one_unary_constant"] == "2"
    assert res.certificate["matching_size"] == 1
    assert res.cost == C(4) == oracle_binary(inst).cost


def _zero_one_unaries(inst, seed):
    """``inst`` with random {0, 1} unary tables, about a third of them all one."""
    rng = random.Random(seed)
    unary = {
        i: [C(1)] * len(dom) if rng.random() < 1 / 3 else [rng.choice((ZERO, C(1))) for _ in dom]
        for i, dom in enumerate(inst.domains)
    }
    return BinaryInstance.build(inst.domains, unary=unary, binary=dict(inst.binary))


def test_matching_routes_agree_on_zero_one_instances():
    # matching-cardinality is the weighted reduction with M = 1
    constants = 0
    for seed in range(90):
        base = gen_profile(2 + seed % 7, 1 + seed % 3, {">", "1"}, Scheme.MAXCSP, seed)
        for inst in (base, _zero_one_unaries(base, seed)):
            card = solve_class(inst, "matching-cardinality")
            wm = solve_class(inst, "weighted-matching")
            assert (wm.assignment, wm.cost) == (card.assignment, card.cost), f"seed {seed}"
            assert wm.certificate["unary_offset"] == card.certificate["all_one_unary_constant"]
            constants += card.certificate["all_one_unary_constant"] != "0"
    assert constants >= 40


# SHA-256 of the `dispatch` documents of the matching cells' `gen_profile`
# corpus and of the direct matching-cardinality documents on its {>, 1} half,
# computed before the two matching routes shared one reduction.  A change
# that picks another optimum must update this constant on purpose.
_PINNED_MATCHING_DOCS = "8f88acc65b37c8ed8467a2da6a459175eff35a330461d58ac0a8fe68b54757c5"


def test_matching_routes_match_pinned_digest():
    digest = hashlib.sha256()
    for scheme, types in ((Scheme.MAXM, {">M", "M"}), (Scheme.MAXCSP, {">", "1"})):
        for n in (2, 3, 6, 10, 16):
            for d in (1, 2, 3):
                for seed in range(30):
                    inst = gen_profile(n, d, types, scheme, seed)
                    digest.update(dumps(dispatch(inst).to_doc()).encode())
                    if scheme is Scheme.MAXCSP:
                        doc = solve_class(inst, "matching-cardinality").to_doc()
                        digest.update(dumps(doc).encode())
    assert digest.hexdigest() == _PINNED_MATCHING_DOCS


# SHA-256 of the binary documents below, computed before the routes took
# dispatch's profile.  A change that alters any of them must update this
# constant on purpose.
_PINNED_BINARY_DOCS = "e93a8820eaec5cf9f7cf6029ffb0ee957cfcc5a3b906d4b44d20ed77ae10f299"

# binary costs of the random corpus: inf and denominators 2 and 7 included
_COST_POOL = [ZERO, C(1), C(2), C(Fraction(1, 2)), C(Fraction(3, 7)), INF]


def _binary_corpus():
    """``gen_profile`` instances of every cell with a solver, for n up to 8
    and d up to 3, a few small ones of the cells without, and random
    instances with absent tables, ragged domains and mixed costs."""
    for scheme, cells in triangles._SOLVER_CELLS.items():
        for cell, solver in cells:
            ns, seeds = ((1, 2, 3, 5, 8), range(4)) if solver else ((1, 2, 3), range(1))
            for n in ns:
                for d in (1, 2, 3):
                    for seed in seeds:
                        try:
                            yield gen_profile(n, d, cell, scheme, seed)
                        except GenerationError:
                            pass
    rng = random.Random(23)
    for _ in range(600):
        n = rng.randint(1, 5)
        domains = [[str(v) for v in range(rng.randint(1, 3))] for _ in range(n)]
        pool = rng.sample(_COST_POOL, rng.randint(1, 4))
        unary = {i: [rng.choice(_COST_POOL) for _ in dom]
                 for i, dom in enumerate(domains) if rng.random() < 0.6}
        binary = {(i, j): [[rng.choice(pool) for _ in domains[j]] for _ in domains[i]]
                  for i in range(n) for j in range(i + 1, n) if rng.random() < 0.8}
        yield BinaryInstance.build(domains, unary=unary, binary=binary)


def _document(call):
    """``call()``'s document, or the type, message and witness of its error."""
    try:
        return call()
    except VcspError as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "witness", None)]


def test_binary_documents_match_pinned_digest():
    digest = hashlib.sha256()
    for inst in _binary_corpus():
        docs = [_document(lambda: dispatch(inst, oracle_budget=20_000).to_doc())]
        docs += [_document(lambda: solve_class(inst, solver).to_doc()) for solver in SOLVERS]
        docs += [_document(lambda: triangles.profile_report(inst, scheme)) for scheme in Scheme]
        for doc in docs:
            digest.update(dumps(doc).encode())
    assert digest.hexdigest() == _PINNED_BINARY_DOCS


def _parse(text):
    from vcspkit.costs import parse_cost

    return parse_cost(text)


# unary costs with inf and denominators 5 and 7, which no generated binary
# table has; the solvers' classes constrain the binary tables only
_ODD_UNARIES = [ZERO, C(1), C(Fraction(2, 5)), C(Fraction(3, 7)), C(Fraction(9, 5)), INF]


def _with_odd_unaries(inst, seed):
    rng = random.Random(seed)
    unary = {i: [rng.choice(_ODD_UNARIES) for _ in dom] for i, dom in enumerate(inst.domains)}
    return BinaryInstance.build(inst.domains, unary=unary, binary=dict(inst.binary))


_CASE_ID = {
    "sac": "solve_sac_class",
    "trivial": "solve_trivial_class",
    "lr": "solve_lr_class",
    "matching-cardinality": "solve_matching_cardinality_class",
    "min0-structure": "solve_min0_class",
    "weighted-matching": "solve_weighted_matching_class",
}


@pytest.mark.parametrize(
    "solver,scheme,types,n,d,count",
    [
        ("sac", Scheme.CSP, {">", "0", "inf"}, 6, 3, 40),
        ("trivial", Scheme.CSP, {"<", ">", "inf"}, 5, 3, 25),
        ("trivial", Scheme.MAXCSP, {"<", ">"}, 5, 3, 25),
        ("lr", Scheme.MAXCSP, {">", "0"}, 6, 3, 40),
        ("matching-cardinality", Scheme.MAXCSP, {">", "1"}, 6, 3, 40),
        ("min0-structure", Scheme.MIN0, {">0", "0"}, 6, 3, 40),
        ("weighted-matching", Scheme.MAXM, {">M", "M"}, 6, 3, 40),
    ],
    # each case keeps the id it had when every route had a function of its own
    ids=lambda v: _CASE_ID.get(v) if isinstance(v, str) else None,
)
def test_solver_agrees_with_oracle(solver, scheme, types, n, d, count):
    rng = random.Random(hash((scheme.value, tuple(sorted(types)))) & 0xFFFF)
    for _ in range(count):
        nn = rng.randint(2, n)
        dd = rng.randint(1, d)
        seed = rng.randrange(2**30)
        inst = gen_profile(nn, dd, types, scheme, seed)
        inputs = [inst]
        if solver != "matching-cardinality":  # zero/one unaries only
            inputs.append(_with_odd_unaries(inst, seed))
        for inst in inputs:
            res = solve_class(inst, solver)
            want = oracle_binary(inst)
            assert res.cost == want.cost, f"seed {seed} n={nn} d={dd}"
            assert evaluate_binary(inst, res.assignment) == res.cost


def test_dispatch_routes_to_sac():
    inst = gen_profile(4, 3, {">", "0", "inf"}, Scheme.CSP, seed=5)
    res = dispatch(inst)
    assert res.solver == "sac"
    assert res.cost == oracle_binary(inst).cost


def test_dispatch_routes_to_weighted_matching():
    inst = gen_profile(5, 3, {">M", "M"}, Scheme.MAXM, seed=6)
    res = dispatch(inst)
    assert res.solver == "weighted-matching"


def test_dispatch_weighted_matching_exact_near_1e17():
    inst = near_1e17_maxm_instance()
    res = dispatch(inst)
    assert res.solver == "weighted-matching"
    assert res.cost == C(400000000000000033) == oracle_binary(inst).cost
    assert res.certificate["matching"] == [[0, 2], [1, 3]]


def test_dispatch_falls_back_to_oracle_on_jwp_cells():
    inst = gen_profile(4, 2, {"<", "="}, Scheme.ORDER, seed=7)
    res = dispatch(inst)
    assert res.solver == "oracle"
    kinds = {v["kind"] for v in res.verdicts}
    assert "tractable-unimplemented" in kinds
    assert res.cost == oracle_binary(inst).cost


def test_dispatch_re_evaluates_the_oracle_fallback(monkeypatch):
    inst = gen_profile(4, 2, {"<", "="}, Scheme.ORDER, seed=7)
    real = binary_solvers._enumerate

    def wrong_cost(inst):
        x, total = real(inst)
        return x, total + C(1)

    monkeypatch.setattr(binary_solvers, "_enumerate", wrong_cost)
    with pytest.raises(InternalError, match="internal check failed"):
        dispatch(inst)


def test_dispatch_reports_unsolved_over_budget():
    inst = gen_profile(4, 2, {"<", "="}, Scheme.ORDER, seed=8)
    res = dispatch(inst, oracle_budget=3)
    assert not res.solved
    assert res.to_doc() == {
        "format": "vcsp-solution/1",
        "assignment": None,
        "cost": None,
        "solver": "none",
        "status": "unsolved",
        "verdicts": [
            {"scheme": "maxm", "observed": ["<M", "M", "other"], "kind": "np-hard",
             "solver": None, "rule": "max-anchored-triangle-dichotomy"},
            {"scheme": "min0", "observed": ["0", "<0", "other"], "kind": "np-hard",
             "solver": None, "rule": "min-anchored-triangle-dichotomy"},
            {"scheme": "order", "observed": ["<", "="], "kind": "tractable-unimplemented",
             "solver": None, "rule": "order-triangle-dichotomy"},
        ],
        "certificate": {"reason": "search space 16 exceeds the oracle budget"},
    }


def test_dispatch_is_deterministic():
    inst = gen_profile(5, 3, {">", "0"}, Scheme.MAXCSP, seed=9)
    a = dispatch(inst)
    b = dispatch(inst)
    assert a == b


def test_dispatch_small_domain_still_uses_mapped_solver():
    # a fully crisp two-value instance is trivially tractable, but its
    # profile still maps to a solver, which beats an oracle fallback
    base = gen_profile(5, 2, {">", "0", "inf"}, Scheme.CSP, seed=10)
    inst = BinaryInstance.build(
        base.domains, names=base.names, binary=dict(base.binary)
    )
    res = dispatch(inst)
    assert res.solver == "sac"
    assert any(v["kind"] == "trivial-small-domain" for v in res.verdicts)
    assert res.cost == oracle_binary(inst).cost


_ROUTED_CELLS = pytest.mark.parametrize(
    "scheme,types,solver",
    [
        (Scheme.CSP, {">", "0", "inf"}, "sac"),
        (Scheme.CSP, {"<", ">", "inf"}, "trivial"),
        (Scheme.MAXCSP, {">", "0"}, "lr"),
        (Scheme.MAXCSP, {">", "1"}, "matching-cardinality"),
        (Scheme.MAXCSP, {"<", ">"}, "trivial"),
        (Scheme.MIN0, {">0", "0"}, "min0-structure"),
        (Scheme.MIN0, {"delta0", "<0", ">0"}, "trivial"),
        (Scheme.MAXM, {">M", "M"}, "weighted-matching"),
        (Scheme.MAXM, {"deltaM", "<M", ">M"}, "trivial"),
    ],
)


def _count_scans(monkeypatch):
    calls = []
    real_scan = triangles._found_in_order

    def counting_scan(inst, values, ranks):
        calls.append(inst)
        return real_scan(inst, values, ranks)

    # every scan of the triangles, whether through scan_triangles or from
    # the rank tables a profile or a solver's check has already built,
    # starts here
    monkeypatch.setattr(triangles, "_found_in_order", counting_scan)
    return calls


@_ROUTED_CELLS
def test_dispatch_scans_triangles_once(monkeypatch, scheme, types, solver):
    # every applicable scheme's profile reads the one scan, and so does the
    # routed solver's own profile check
    inst = gen_profile(5, 3, types, scheme, seed=3)
    calls = _count_scans(monkeypatch)
    res = dispatch(inst)
    assert res.solver == solver
    assert len(calls) == 1
    assert res.cost == oracle_binary(inst).cost


@_ROUTED_CELLS
def test_dispatch_hands_its_profile_to_the_route(monkeypatch, scheme, types, solver):
    # the route reads the profile its verdict came from: no profile check of
    # its own, and the public solver's answer
    inst = gen_profile(5, 3, types, scheme, seed=3)
    want = solve_class(inst, solver).to_doc()
    checks = []
    real_check = binary_solvers._require_profile

    def counting_check(*args):
        checks.append(args[1])
        return real_check(*args)

    monkeypatch.setattr(binary_solvers, "_require_profile", counting_check)
    calls = _count_scans(monkeypatch)
    doc = dispatch(inst).to_doc()
    assert doc.pop("verdicts")
    assert doc == want
    assert len(calls) == 1
    assert checks == []


def test_out_of_range_solver_call_raises_before_scanning(monkeypatch):
    # crisp costs include inf, outside every scheme of weighted-matching's
    # cells: the range check alone decides, and no triangle is scanned
    inst = gen_profile(5, 3, {">", "0", "inf"}, Scheme.CSP, seed=0)
    assert INF in set(inst.all_binary_costs())
    calls = _count_scans(monkeypatch)
    with pytest.raises(ClassViolation, match="anchored schemes require finite"):
        solve_class(inst, "weighted-matching")
    assert calls == []


def test_unknown_solver_name_raises_before_scanning(monkeypatch):
    inst = gen_profile(5, 3, {">", "0", "inf"}, Scheme.CSP, seed=0)
    calls = _count_scans(monkeypatch)
    with pytest.raises(ValueError, match="'weighted_matching'.*'lr', 'matching-cardinality'"):
        solve_class(inst, "weighted_matching")
    assert calls == []


# -- the profile check owns the structure each solver relies on -------------

# solver -> the cells probed: (scheme, cell, common costs, rare costs, the
# variable counts tried on random instances)
_CELL_OF = {
    "matching-cardinality": [(Scheme.MAXCSP, {">", "1"}, [1], [0], (3, 5))],
    "weighted-matching": [(Scheme.MAXM, {">M", "M"}, [3], [0, 1, 2, Fraction(1, 2)], (3, 5))],
    "min0-structure": [(Scheme.MIN0, {">0", "0"}, [0], [1, 2, Fraction(1, 2), 3], (3, 5))],
    "lr": [(Scheme.MAXCSP, {">", "0"}, [0], [1], (3, 5))],
    # the two-colour cells, on up to seven variables
    "trivial": [
        (Scheme.MAXCSP, {"<", ">"}, [0, 1], [], (3, 7)),
        (Scheme.MIN0, {"delta0", "<0", ">0"}, [1, 2], [0], (3, 7)),
        (Scheme.MAXM, {"deltaM", "<M", ">M"}, [1, 2], [3], (3, 7)),
    ],
}


def _full_row(inst, i, a, j):
    """Costs of (i, a) against every value of j; an absent table is zero."""
    table = inst.binary.get((min(i, j), max(i, j)))
    if table is None:
        return [ZERO] * len(inst.domains[j])
    return list(table[a]) if i < j else [row[a] for row in table]


def _hit_in_two_tables(inst, below):
    """Whether some assignment has an entry ``below`` in two tables."""
    return any(
        sum(any(below(c) for c in _full_row(inst, i, a, j)) for j in range(inst.n) if j != i) > 1
        for i in range(inst.n)
        for a in range(len(inst.domains[i]))
    )


def _max_binary(inst):
    costs = [c for t in inst.binary.values() for row in t for c in row]
    if len(inst.binary) < inst.n * (inst.n - 1) // 2:
        costs.append(ZERO)
    return max(costs, default=ZERO)


def _pair_minimum_exceeds(inst, m):
    lows = [min(t) for t in inst.unary]
    if any(lo.is_infinite for lo in lows):
        return False
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            best = min(
                inst.unary[i][a].value - lows[i].value + w.value
                + inst.unary[j][b].value - lows[j].value
                for a in range(len(inst.domains[i]))
                if not inst.unary[i][a].is_infinite
                for b, w in enumerate(_full_row(inst, i, a, j))
                if not inst.unary[j][b].is_infinite
            )
            if best > m.value:
                return True
    return False


def _signatures_fit_two_sides(inst, mu, one):
    """Whether, against every pivot (a1, a2) of variables 0 and 1, each
    (i, b) has the signature (c[0, i](a1, b), c[1, i](a2, b)) of one of the
    pivot's two sides, on costs less ``mu``: (one, 0) or (0, one) under a
    pivot of cost ``one``, else (0, 0) or (one, one)."""
    for a1 in range(len(inst.domains[0])):
        for a2 in range(len(inst.domains[1])):
            if _full_row(inst, 0, a1, 1)[a2] - mu == one:
                sides = {(one, ZERO), (ZERO, one)}
            else:
                sides = {(ZERO, ZERO), (one, one)}
            for i in range(2, inst.n):
                for c1, c2 in zip(_full_row(inst, 0, a1, i), _full_row(inst, 1, a2, i)):
                    if (c1 - mu, c2 - mu) not in sides:
                        return False
    return True


def _nonzero_pairs(inst, mu):
    """The pairs with an entry other than ``mu``, and those entries less mu."""
    pairs, values = [], set()
    for pair, table in inst.binary.items():
        found = {c - mu for row in table for c in row if c != mu}
        if found:
            pairs.append(pair)
            values |= found
    return pairs, values


def _in_cell_instances():
    """Seeded instances, generated and random, each tagged with its solver
    and the scheme and cell it was made for."""
    for solver, cells in _CELL_OF.items():
        for scheme, cell, _, _, _ in cells:
            for n in range(3, 8):
                for d in range(1, 4):
                    for seed in range(30):
                        try:
                            yield solver, scheme, cell, gen_profile(n, d, cell, scheme, seed)
                        except GenerationError:
                            pass
    rng = random.Random(99)
    for _ in range(1000):
        for solver, cells in _CELL_OF.items():
            for scheme, cell, common, rare, (lo, hi) in cells:
                n = rng.randint(lo, hi)
                domains = [["v"] * rng.randint(1, 3) for _ in range(n)]
                p = rng.choice([0.05, 0.15, 0.3])

                def cost():
                    pool = rare if rare and rng.random() < p else common
                    return C(Fraction(rng.choice(pool)))

                unary = {i: [C(rng.randint(0, 2)) for _ in domains[i]] for i in range(n)}
                binary = {
                    (i, j): [[cost() for _ in domains[j]] for _ in domains[i]]
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.85
                }
                inst = BinaryInstance.build(domains, unary=unary, binary=binary)
                yield solver, scheme, cell, inst


def test_profile_check_settles_the_solver_conditions():
    seen = {solver: 0 for solver in _CELL_OF}
    for solver, scheme, cell, inst in _in_cell_instances():
        try:
            prof = triangles.profile(inst, scheme)
        except ClassViolation:
            continue
        if not prof.observed <= cell:
            continue
        seen[solver] += 1
        if solver == "matching-cardinality":
            assert not _hit_in_two_tables(inst, lambda c: c == ZERO)
        elif solver == "weighted-matching":
            m = _max_binary(inst)
            assert not _hit_in_two_tables(inst, lambda c: c < m)
            assert not _pair_minimum_exceeds(inst, m)
        elif solver == "lr":
            assert _signatures_fit_two_sides(inst, ZERO, C(1))
        elif solver == "trivial":
            # R(3, 3) = 6: no two-colour cell holds six variables
            assert inst.n <= 5
        else:
            if len(inst.binary) < inst.n * (inst.n - 1) // 2:
                assert prof.mu == ZERO
            pairs, values = _nonzero_pairs(inst, prof.mu)
            if pairs and not set.intersection(*(set(pair) for pair in pairs)):
                assert len(values) == 1
                assert _signatures_fit_two_sides(inst, prof.mu, values.pop())
    assert sum(seen.values()) >= 3000
    assert min(seen.values()) >= 400


def test_profile_check_rejects_what_the_solvers_rely_on():
    # (0, a) zero-pairs with variables 1 and 2
    zero_twice = BinaryInstance.build(
        [["a"]] * 3, binary={(0, 1): [[ZERO]], (0, 2): [[ZERO]], (1, 2): [[C(1)]]}
    )
    with pytest.raises(ClassViolation, match="triangle type .* outside"):
        solve_class(zero_twice, "matching-cardinality")
    # (0, a) is below the maximum 2 in the tables with 1 and 2
    below_twice = BinaryInstance.build(
        [["a"]] * 3, binary={(0, 1): [[C(1)]], (0, 2): [[ZERO]], (1, 2): [[C(2)]]}
    )
    with pytest.raises(ClassViolation, match="triangle type .* outside"):
        solve_class(below_twice, "weighted-matching")
    # six variables whose every pair costs 1: no two-colour cell holds them
    all_one = BinaryInstance.build(
        [["a"]] * 6, binary={(i, j): [[C(1)]] for i in range(6) for j in range(i + 1, 6)}
    )
    with pytest.raises(ClassViolation, match="triangle type .* outside"):
        solve_class(all_one, "trivial")
    # a {0, 0, 1} triangle: the pivot (0, 0) sees the signature (0, 0)
    # under a pivot of cost 1
    one_costly = BinaryInstance.build(
        [["a"]] * 3, binary={(0, 1): [[C(1)]], (0, 2): [[ZERO]], (1, 2): [[ZERO]]}
    )
    with pytest.raises(ClassViolation, match="triangle type .* outside"):
        solve_class(one_costly, "lr")
    # the values 1 and 2 on disjoint pairs, which share no variable
    two_values = BinaryInstance.build([["a"]] * 4, binary={
        (0, 1): [[C(1)]], (2, 3): [[C(2)]],
        (0, 2): [[ZERO]], (0, 3): [[ZERO]], (1, 2): [[ZERO]], (1, 3): [[ZERO]],
    })
    with pytest.raises(ClassViolation, match="triangle type .* outside"):
        solve_class(two_values, "min0-structure")
