import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from helpers import pair_cost
from vcspkit.costs import Cost, INF, ONE, ZERO
from vcspkit.errors import ClassViolation
from vcspkit.instances import BinaryInstance
from vcspkit.testkit import gen_maxcut, gen_profile
from vcspkit.triangles import (
    _found_in_order,
    ALPHABET,
    OTHER,
    Scheme,
    check_jwp,
    classify_triple,
    profile,
    profile_report,
    scan_triangles,
)

C = Cost


@pytest.mark.parametrize(
    "costs,expected",
    [
        ((ZERO, ZERO, ZERO), "0"),
        ((ZERO, ZERO, INF), "<"),
        ((ZERO, INF, INF), ">"),
        ((INF, INF, INF), "inf"),
    ],
)
def test_classify_crisp(costs, expected):
    assert classify_triple(costs, Scheme.CSP) == expected


@pytest.mark.parametrize(
    "costs,expected",
    [
        ((ZERO, ZERO, ZERO), "0"),
        ((ZERO, ZERO, C(1)), "<"),
        ((ZERO, C(1), C(1)), ">"),
        ((C(1), C(1), C(1)), "1"),
    ],
)
def test_classify_zero_one(costs, expected):
    assert classify_triple(costs, Scheme.MAXCSP) == expected


@pytest.mark.parametrize(
    "costs,expected",
    [
        ((C(3), C(3), C(3)), "="),
        ((ZERO, ZERO, C(5)), "<"),
        ((C(1), C(2), C(3)), "delta"),
        ((C(2), C(5), C(5)), ">"),
        ((C(1), INF, INF), ">"),  # infinity participates as the maximum
        ((C(1), C(2), INF), "delta"),
    ],
)
def test_classify_order(costs, expected):
    assert classify_triple(costs, Scheme.ORDER) == expected


@pytest.mark.parametrize(
    "costs,expected",
    [
        ((ZERO, C(4), C(4)), ">0"),
        ((ZERO, ZERO, C(4)), "<0"),
        ((ZERO, C(2), C(4)), "delta0"),
        ((ZERO, ZERO, ZERO), "0"),
        ((C(1), C(2), C(3)), "other"),
    ],
)
def test_classify_min_anchored(costs, expected):
    assert classify_triple(costs, Scheme.MIN0) == expected


@pytest.mark.parametrize(
    "costs,expected",
    [
        ((C(1), C(2), C(3)), "deltaM"),
        ((C(1), C(1), C(3)), "<M"),
        ((C(1), C(3), C(3)), ">M"),
        ((C(3), C(3), C(3)), "M"),
        ((C(1), C(2), C(2)), "other"),
    ],
)
def test_classify_max_anchored(costs, expected):
    assert classify_triple(costs, Scheme.MAXM, m_value=C(3)) == expected


def test_classify_range_errors():
    with pytest.raises(ClassViolation):
        classify_triple((ZERO, C(2), ZERO), Scheme.CSP)
    with pytest.raises(ClassViolation):
        classify_triple((ZERO, C(Fraction(1, 2)), C(1)), Scheme.MAXCSP)
    with pytest.raises(ClassViolation):
        classify_triple((ZERO, INF, ZERO), Scheme.MIN0)
    with pytest.raises(ClassViolation):
        classify_triple((ZERO, C(5), ZERO), Scheme.MAXM, m_value=C(4))


def test_classification_is_permutation_invariant():
    rng = random.Random(31)
    pool = [ZERO, C(1), C(2), C(3), C(Fraction(1, 2)), INF]
    for _ in range(300):
        triple = tuple(rng.choice(pool) for _ in range(3))
        finite = all(not c.is_infinite for c in triple)
        for scheme in Scheme:
            if scheme is Scheme.CSP and any(c not in (ZERO, INF) for c in triple):
                continue
            if scheme is Scheme.MAXCSP and any(c not in (ZERO, C(1)) for c in triple):
                continue
            if scheme in (Scheme.MIN0, Scheme.MAXM) and not finite:
                continue
            kwargs = {"m_value": C(3)} if scheme is Scheme.MAXM else {}
            if scheme is Scheme.MAXM and any(c > C(3) for c in triple):
                continue
            results = {
                classify_triple(perm, scheme, **kwargs)
                for perm in itertools.permutations(triple)
            }
            assert len(results) == 1


def test_profile_of_tiny_instances_is_empty():
    inst = BinaryInstance.build([["a", "b"], ["a", "b"]], binary={(0, 1): [[ZERO, C(1)], [C(1), ZERO]]})
    assert profile(inst, Scheme.MAXCSP).observed == frozenset()


def test_profile_of_all_zero_tables():
    inst = BinaryInstance.build([["a"]] * 4)
    assert profile(inst, Scheme.ORDER).observed == {"="}


def test_profile_witnesses_reclassify():
    inst = gen_profile(5, 3, {">", "0", "inf"}, Scheme.CSP, seed=12)
    prof = profile(inst, Scheme.CSP)
    for tt, (i, a, j, b, k, c) in prof.witnesses.items():
        triple = (
            pair_cost(inst, i, a, j, b),
            pair_cost(inst, i, a, k, c),
            pair_cost(inst, j, b, k, c),
        )
        assert classify_triple(triple, Scheme.CSP) == tt


def test_triangle_free_maxcut_profile():
    # a 5-cycle has no triangles, so the encoding cannot reach type 1
    inst = gen_maxcut(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    prof = profile(inst, Scheme.MAXCSP)
    assert prof.observed <= {"<", ">", "0"}
    # a clique does produce an all-ones triangle
    inst = gen_maxcut(3, [(0, 1), (0, 2), (1, 2)])
    assert "1" in profile(inst, Scheme.MAXCSP).observed


def test_min_anchored_normalisation():
    # constant shift must not change the profile
    base = gen_profile(4, 2, {">0", "0"}, Scheme.MIN0, seed=4)
    shifted = BinaryInstance.build(
        base.domains,
        names=base.names,
        unary={i: list(t) for i, t in enumerate(base.unary)},
        binary={
            pair: [[c + C(2) for c in row] for row in table]
            for pair, table in base.binary.items()
        },
    )
    assert profile(shifted, Scheme.MIN0).observed == profile(base, Scheme.MIN0).observed
    assert profile(shifted, Scheme.MIN0).mu == profile(base, Scheme.MIN0).mu + C(2)


def test_min_and_max_anchored_are_reflections():
    # reflecting all binary costs swaps the min-anchored and max-anchored views
    swap = {"0": "M", "<0": ">M", ">0": "<M", "delta0": "deltaM", "other": "other"}
    rng = random.Random(77)
    for seed in range(10):
        n, d = 4, 2
        pool = [ZERO, C(1), C(2), C(3)]
        binary = {
            (i, j): [[rng.choice(pool) for _ in range(d)] for _ in range(d)]
            for i in range(n)
            for j in range(i + 1, n)
        }
        inst = BinaryInstance.build([["0", "1"]] * n, binary=binary)
        top = C(3)
        reflected = BinaryInstance.build(
            [["0", "1"]] * n,
            binary={
                pair: [[top - c for c in row] for row in table]
                for pair, table in binary.items()
            },
        )
        mirrored = {swap[t] for t in profile(inst, Scheme.MIN0).observed}
        assert mirrored == profile(reflected, Scheme.MAXM).observed


def test_jwp_cases():
    ok, _ = check_jwp(BinaryInstance.build([["a"]] * 3))
    assert ok
    inst = BinaryInstance.build(
        [["a"]] * 3,
        binary={(0, 1): [[C(2)]], (0, 2): [[C(2)]], (1, 2): [[C(5)]]},
    )
    assert check_jwp(inst)[0]
    inst = BinaryInstance.build(
        [["a"]] * 3,
        binary={(0, 1): [[C(1)]], (0, 2): [[C(2)]], (1, 2): [[C(3)]]},
    )
    ok, witness = check_jwp(inst)
    assert not ok
    assert witness == (0, 0, 1, 0, 2, 0)


def test_report_shape():
    inst = gen_profile(4, 2, {">", "1"}, Scheme.MAXCSP, seed=2)
    doc = profile_report(inst, Scheme.MAXCSP)
    assert doc["scheme"] == "maxcsp"
    assert doc["verdict"]["solver"] == "matching-cardinality"
    assert set(doc["witnesses"]) == set(doc["observed"])


def _reference_triangles(inst):
    """Every triangle in (i, j, k, a, b, c) order, as (witness, Cost triple)."""
    n = inst.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for a in range(len(inst.domains[i])):
                    for b in range(len(inst.domains[j])):
                        for c in range(len(inst.domains[k])):
                            triple = (
                                pair_cost(inst, i, a, j, b),
                                pair_cost(inst, i, a, k, c),
                                pair_cost(inst, j, b, k, c),
                            )
                            yield (i, a, j, b, k, c), triple


def _reference_range_error(inst, scheme):
    for (i, j), table in sorted(inst.binary.items()):
        for a, row in enumerate(table):
            for b, x in enumerate(row):
                at = f"c[{i},{j}]({a},{b})"
                if scheme is Scheme.CSP and not (x == ZERO or x.is_infinite):
                    return f"crisp scheme: cost {x} at {at} is neither 0 nor inf", [i, j, a, b, str(x)]
                if scheme is Scheme.MAXCSP and x not in (ZERO, ONE):
                    return f"zero/one scheme: cost {x} at {at}", [i, j, a, b, str(x)]
                if scheme in (Scheme.MIN0, Scheme.MAXM) and x.is_infinite:
                    return (
                        f"anchored schemes require finite binary costs, found inf at {at}",
                        [i, j, a, b, "inf"],
                    )
    return None


def _reference_profile(inst, scheme):
    """(observed, witnesses, mu, m_value), or the range check's
    (message, witness), from one classify_triple call per triangle."""
    error = _reference_range_error(inst, scheme)
    if error is not None:
        return error
    costs = [
        pair_cost(inst, i, a, j, b)
        for i in range(inst.n)
        for j in range(i + 1, inst.n)
        for a in range(len(inst.domains[i]))
        for b in range(len(inst.domains[j]))
    ]
    mu = min(costs, default=ZERO) if scheme is Scheme.MIN0 else None
    m_value = max(costs, default=ZERO) if scheme is Scheme.MAXM else None
    witnesses = {}
    for witness, triple in _reference_triangles(inst):
        if mu is not None:
            triple = tuple(x - mu for x in triple)
        witnesses.setdefault(classify_triple(triple, scheme, m_value=m_value), witness)
    return frozenset(witnesses), witnesses, mu, m_value


def _reference_jwp(inst):
    for witness, triple in _reference_triangles(inst):
        t = sorted(triple)
        if t[0] != t[1]:
            return False, witness
    return True, None


_POOLS = (
    (ZERO, INF),
    (ZERO, ONE),
    (ZERO, ONE, C(2), C(Fraction(1, 3)), C(Fraction(5, 2))),
    (ONE, C(3), C(Fraction(1, 3)), C(Fraction(5, 2))),
    (ZERO, ONE, C(Fraction(1, 3)), C(Fraction(5, 2)), INF),
)


def _random_instance(rng):
    n = rng.choice((1, 2, 2, 3, 3, 4, 4, 5, 5, 6))
    if rng.random() < 0.5:
        sizes = [rng.randint(1, 3)] * n
    else:
        sizes = [rng.randint(1, 3) for _ in range(n)]
    pool = rng.choice(_POOLS)
    pool = rng.sample(pool, rng.randint(1, len(pool)))
    absent = rng.choice((0.0, 0.3, 0.7))
    binary = {
        (i, j): [[rng.choice(pool) for _ in range(sizes[j])] for _ in range(sizes[i])]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() >= absent
    }
    return BinaryInstance.build([[str(v) for v in range(d)] for d in sizes], binary=binary)


def _wide_instance(rng):
    """Costs drawn from up to 40 values, so most triangles hold costs that
    are neither the minimum, the maximum, 0 nor 1."""
    n = rng.randint(3, 6)
    sizes = [rng.randint(1, 3) for _ in range(n)]
    pool = [C(Fraction(rng.randint(0, 60), rng.choice((1, 2, 7)))) for _ in range(rng.randint(3, 40))]
    if rng.random() < 0.2:
        pool.append(INF)
    absent = rng.choice((0.0, 0.3))
    binary = {
        (i, j): [[rng.choice(pool) for _ in range(sizes[j])] for _ in range(sizes[i])]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() >= absent
    }
    return BinaryInstance.build([[str(v) for v in range(d)] for d in sizes], binary=binary)


def test_profile_and_jwp_match_per_triangle_reference():
    rng = random.Random(2012)
    seen = {scheme: set() for scheme in Scheme}
    rejected = 0
    instances = itertools.chain(
        (_random_instance(rng) for _ in range(1200)),
        (_wide_instance(rng) for _ in range(300)),
    )
    for inst in instances:
        assert len(scan_triangles(inst).first) <= 16
        for scheme in Scheme:
            expected = _reference_profile(inst, scheme)
            try:
                prof = profile(inst, scheme)
            except ClassViolation as exc:
                assert (str(exc), exc.witness) == expected
                rejected += 1
                continue
            assert (prof.observed, prof.witnesses, prof.mu, prof.m_value) == expected
            seen[scheme] |= prof.observed
        assert check_jwp(inst) == _reference_jwp(inst)
    assert rejected > 0
    for scheme in Scheme:
        extra = {OTHER} if scheme in (Scheme.MIN0, Scheme.MAXM) else set()
        assert seen[scheme] == ALPHABET[scheme] | extra


def test_scan_stays_bounded_with_all_distinct_costs():
    n, d = 9, 3
    costs = itertools.count(1)
    binary = {
        (i, j): [[C(next(costs)) for _ in range(d)] for _ in range(d)]
        for i in range(n)
        for j in range(i + 1, n)
    }
    inst = BinaryInstance.build([[str(v) for v in range(d)]] * n, binary=binary)
    distinct = {tuple(sorted(t)) for _, t in _reference_triangles(inst)}
    assert len(distinct) == n * (n - 1) * (n - 2) // 6 * d**3
    assert len(scan_triangles(inst).first) <= 16
    for scheme in (Scheme.ORDER, Scheme.MIN0, Scheme.MAXM):
        prof = profile(inst, scheme)
        assert (prof.observed, prof.witnesses, prof.mu, prof.m_value) == _reference_profile(inst, scheme)


def _reference_ranks(inst):
    """The distinct binary costs, 0 among them when a table is absent, and
    every pair's table as ranks into them."""
    n, sizes = inst.n, [len(d) for d in inst.domains]
    costs = set(inst.all_binary_costs())
    if len(inst.binary) < n * (n - 1) // 2:
        costs.add(ZERO)
    values = tuple(sorted(costs))
    rank = {x: r for r, x in enumerate(values)}
    table = {
        (i, j): [[rank[pair_cost(inst, i, a, j, b)] for b in range(sizes[j])] for a in range(sizes[i])]
        for i, j in itertools.combinations(range(n), 2)
    }
    return values, table


def _reference_scan(inst):
    """``scan_triangles``'s values and first, and each scheme's
    (observed, witnesses, mu, m_value) or range error, from one walk over
    every triangle in loop order."""
    n, sizes = inst.n, [len(d) for d in inst.domains]
    values, table = _reference_ranks(inst)
    first, triples = {}, {}
    for i, j, k in itertools.combinations(range(n), 3):
        t_ij, t_ik, t_jk = table[i, j], table[i, k], table[j, k]
        for a, b, c in itertools.product(range(sizes[i]), range(sizes[j]), range(sizes[k])):
            key = tuple(sorted((t_ij[a][b], t_ik[a][c], t_jk[b][c])))
            if key not in triples:
                triples[key] = (i, j, k, a, b, c)
                x, y, z = key
                first.setdefault((x == 0, z == len(values) - 1, x == y, y == z), (triples[key], key))
    profiles = {}
    for scheme in Scheme:
        profiles[scheme] = _reference_range_error(inst, scheme)
        if profiles[scheme] is not None:
            continue
        mu = (values[0] if values else ZERO) if scheme is Scheme.MIN0 else None
        m_value = (values[-1] if values else ZERO) if scheme is Scheme.MAXM else None
        earliest = {}
        for key, pos in triples.items():
            triple = [values[r] - mu if mu is not None else values[r] for r in key]
            tt = classify_triple(triple, scheme, m_value=m_value)
            earliest[tt] = min(earliest.get(tt, pos), pos)
        witnesses = {tt: (i, a, j, b, k, c) for tt, (i, j, k, a, b, c) in earliest.items()}
        profiles[scheme] = (frozenset(witnesses), witnesses, mu, m_value)
    return values, first, profiles


def _distinct_pool(rng, size, zero=False):
    """``size`` distinct costs, some fractional, ``inf`` among them at times."""
    pool = {ZERO} if zero else set()
    if rng.random() < 0.3:
        pool.add(INF)
    while len(pool) < size:
        pool.add(C(Fraction(rng.randint(0, 4 * size), rng.choice((1, 1, 2, 3)))))
    return list(pool)


# The ``edge`` kind's count of distinct costs, ``over`` has one more: the
# count up to which a block scan ran before it became the only scan.
_EDGE = 18


def _differential_instance(rng, kind):
    """``small``: up to 5 distinct costs; ``edge`` and ``over``: exactly
    ``_EDGE`` and one more, where there are cells for all of them (0 among
    them, so absent tables add none); ``many``: 40 to 400 drawn, placed as
    far as 6 to 8 variables with ragged domains of 2 to 5 values have cells,
    so that most tables hold only distinct costs; ``long``: more than 64
    positions (k, c), so that the masks span several machine words, on few
    variables with large domains."""
    if kind == "many":
        sizes = [rng.randint(2, 5) for _ in range(rng.randint(6, 8))]
        pool = _distinct_pool(rng, rng.randint(40, 400), zero=True)
    elif kind == "long":
        sizes = []
        while sum(sizes) <= 64:
            sizes.append(rng.randint(8, 24))
        pool = _distinct_pool(rng, rng.choice((2, 3, 5, _EDGE, _EDGE + 1)), zero=True)
    elif kind == "small":
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(3, 5))]
        pool = _distinct_pool(rng, rng.randint(1, 5))
    else:
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(4, 5))]
        pool = _distinct_pool(rng, _EDGE + (kind == "over"), zero=True)
    n = len(sizes)
    absent = rng.choice((0.0, 0.2, 0.5))
    binary = {
        (i, j): [[rng.choice(pool) for _ in range(sizes[j])] for _ in range(sizes[i])]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() >= absent
    }
    cells = [(pair, a, b) for pair, rows in binary.items() for a, row in enumerate(rows) for b in range(len(row))]
    for (pair, a, b), x in zip(rng.sample(cells, min(len(cells), len(pool))), pool):
        binary[pair][a][b] = x
    return BinaryInstance.build([[str(v) for v in range(d)] for d in sizes], binary=binary)


def test_scan_and_profiles_match_per_triangle_walk_on_both_paths():
    rng = random.Random(1211)
    tally = Counter()
    for kind in ["small"] * 2000 + ["edge"] * 500 + ["over"] * 500 + ["many"] * 60 + ["long"] * 12:
        inst = _differential_instance(rng, kind)
        values, first, profiles = _reference_scan(inst)
        scan = scan_triangles(inst)
        assert (scan.values, scan.first) == (values, first)
        for scheme in Scheme:
            try:
                prof = profile(inst, scheme, scan=scan)
            except ClassViolation as exc:
                assert (str(exc), exc.witness) == profiles[scheme]
                continue
            assert (prof.observed, prof.witnesses, prof.mu, prof.m_value) == profiles[scheme]
        tally[len(values)] += 1
        if sum(len(d) for d in inst.domains) > 64:
            tally["long", len(values) > _EDGE] += 1
        tally["many", len(values) > 100] += kind == "many"
    assert tally[_EDGE] >= 400 and tally[_EDGE + 1] >= 400
    assert tally["many", False] >= 10 and tally["many", True] >= 30
    assert tally["long", False] >= 5 and tally["long", True] >= 2


def _jwp_violating_instance(rng, count):
    """c[i,j] = f(i) for a non-decreasing f with ``count`` distinct values
    has the property; one to three entries set off it break it somewhere."""
    n = max(count + 1, rng.randint(4, 8))
    sizes = [rng.randint(1, 2) for _ in range(n)]
    levels = sorted(_distinct_pool(rng, count))
    f = sorted(levels + [rng.choice(levels) for _ in range(n - count)])
    binary = {
        (i, j): [[f[i]] * sizes[j] for _ in range(sizes[i])]
        for i in range(n)
        for j in range(i + 1, n)
    }
    while True:
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(n), 2))
            binary[i, j][rng.randrange(sizes[i])][rng.randrange(sizes[j])] = rng.choice(levels)
        inst = BinaryInstance.build([[str(v) for v in range(d)] for d in sizes], binary=binary)
        if not _reference_jwp(inst)[0]:
            return inst


def test_early_stopping_jwp_matches_reference_on_both_paths():
    rng = random.Random(4)
    paths = Counter()
    for count in [rng.randint(2, _EDGE) for _ in range(150)] + [
        rng.randint(_EDGE + 1, _EDGE + 4) for _ in range(60)
    ]:
        inst = _jwp_violating_instance(rng, count)
        ok, witness = check_jwp(inst)
        assert not ok
        assert (ok, witness) == _reference_jwp(inst)
        paths[len(scan_triangles(inst).values) > _EDGE] += 1
    assert paths[False] >= 100 and paths[True] >= 40


def _reference_batches(inst):
    """The per-triangle walk grouped by variable pair: for each pair i < j
    in order whose triangles show a signature not seen before, that batch
    of signatures, each with its earliest triangle and sorted rank triple."""
    n, sizes = inst.n, [len(d) for d in inst.domains]
    values, table = _reference_ranks(inst)
    seen, batches = set(), []
    for i, j in itertools.combinations(range(n), 2):
        batch = {}
        for k in range(j + 1, n):
            for a, b, c in itertools.product(range(sizes[i]), range(sizes[j]), range(sizes[k])):
                key = tuple(sorted((table[i, j][a][b], table[i, k][a][c], table[j, k][b][c])))
                x, y, z = key
                sig = (x == 0, z == len(values) - 1, x == y, y == z)
                if sig not in seen:
                    seen.add(sig)
                    batch[sig] = ((i, j, k, a, b, c), key)
        if batch:
            batches.append(batch)
    return batches


def _batch_instance(rng):
    """n of 1 to 12, ragged domains of 1 to 4 values, an absent share from
    0 to 1 and 1 to ``_EDGE`` or to 60 distinct costs, ``inf`` and fractions
    among them at times (0 too when a table may be absent, so that absent
    tables add no value), each placed in some cell where there is room."""
    n = rng.randint(1, 12)
    sizes = [rng.randint(1, 4) for _ in range(n)]
    absent = rng.choice((0.0, 1.0, rng.random(), rng.random(), rng.random()))
    pool = _distinct_pool(rng, rng.randint(1, rng.choice((_EDGE, 60))), zero=absent > 0)
    binary = {
        (i, j): [[rng.choice(pool) for _ in range(sizes[j])] for _ in range(sizes[i])]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() >= absent
    }
    cells = [(pair, a, b) for pair, rows in binary.items() for a, row in enumerate(rows) for b in range(len(row))]
    for (pair, a, b), x in zip(rng.sample(cells, min(len(cells), len(pool))), pool):
        binary[pair][a][b] = x
    return BinaryInstance.build([[str(v) for v in range(d)] for d in sizes], binary=binary)


def test_block_scan_batches_match_per_pair_reference_walk():
    # check_jwp stops at the first batch holding a violation, so the batches
    # and their order are part of the scan's contract, not only first
    rng = random.Random(32)
    tally = Counter()
    instances = [_batch_instance(rng) for _ in range(800)]
    instances += [_differential_instance(rng, "long") for _ in range(5)]
    for inst in instances:
        scan = scan_triangles(inst)
        assert list(_found_in_order(inst, scan.values, scan.ranks)) == _reference_batches(inst)
        sizes = [len(d) for d in inst.domains]
        tally["n <= 2"] += inst.n <= 2
        tally["largest domain after the first"] += max(sizes) > sizes[0]
        tally["no table"] += inst.n > 1 and not inst.binary
        tally["every table"] += inst.n > 2 and len(inst.binary) == inst.n * (inst.n - 1) // 2
        tally["inf"] += INF in scan.values
        tally["fraction"] += any("/" in str(x) for x in scan.values)
        tally[len(scan.values)] += 1
        tally["long"] += sum(sizes) > 64
        tally["past the edge"] += len(scan.values) > _EDGE
    assert tally["n <= 2"] >= 100 and tally["largest domain after the first"] >= 350
    assert tally["no table"] >= 120 and tally["every table"] >= 100
    assert tally["inf"] >= 100 and tally["fraction"] >= 300
    assert tally[1] >= 100 and tally[_EDGE] >= 10 and tally["long"] == 5
    assert tally["past the edge"] >= 100


def _top_apart_instance(n, d, count, seed):
    """Random tables over the costs 0 .. count - 1, the largest only in
    tables c[i,j] with i even and j odd: no three variables have two such
    pairs, so no triangle holds it thrice and the scan cannot stop early."""
    rng = random.Random(seed)
    binary = {
        (i, j): [[C(rng.randrange(count if i % 2 == 0 and j % 2 else count - 1)) for _ in range(d)]
                 for _ in range(d)]
        for i in range(n)
        for j in range(i + 1, n)
    }
    return BinaryInstance.build([[str(v) for v in range(d)]] * n, binary=binary)


# Reference peaks: the per-(a, b) mask scan the block scan replaced peaked
# at 0.97 MB and 0.11 MB on the first two shapes, and the block scan at
# 7.6 MB on the third, past 18 costs, once it was the only scan.  The bound
# allows each 4 MB more, so that the D³-wide masks cannot grow unnoticed.
# No time is asserted.
@pytest.mark.parametrize("n,d,count,reference_peak", [
    (40, 8, 3, 969_000), (6, 20, 5, 112_000), (40, 8, 24, 7_580_000)])
def test_scan_memory_stays_bounded_on_wide_shapes(n, d, count, reference_peak):
    inst = _top_apart_instance(n, d, count, seed=0)
    inst.integer_costs  # built once per instance, outside the scan
    tracemalloc.start()
    try:
        first = scan_triangles(inst).first
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    every = {(x == 0, z == count - 1, x == y, y == z)
             for x, y, z in itertools.combinations_with_replacement(range(count), 3)}
    # every signature but that of the top cost thrice
    assert set(first) == every - {(False, True, True, True)}
    assert peak < reference_peak + 4_000_000
