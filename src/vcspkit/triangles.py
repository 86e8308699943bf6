"""Triangle enumeration, cost-triple classification and dichotomy verdicts.

A triangle is a set of assignments to three distinct variables; its triple
is the multiset of the three pairwise binary costs.  Five classification
schemes are supported:

* ``CSP``     crisp binaries, alphabet ``{<, >, 0, inf}``
* ``MAXCSP``  zero/one costs, alphabet ``{<, >, 0, 1}``
* ``ORDER``   order pattern of arbitrary costs, alphabet ``{delta, <, >, =}``
* ``MIN0``    pattern anchored at the instance-wide minimum binary cost
* ``MAXM``    pattern anchored at the instance-wide maximum binary cost

MIN0 and MAXM have a residual ``other`` type (all three costs off the
anchor), kept first-class so classification is total.

Every type is a function of a triple's sorted costs alone, and reads only
their equalities and which of them are the instance-wide minimum or maximum
binary cost.  So the triangles are scanned once (``scan_triangles``), on
integer ranks into the sorted distinct binary costs, and each scheme types
one triple per signature found (see ``TriangleScan``), which visits them on
the first read of ``first``: ``profile`` rejects a cost outside the scheme's
range before any triangle is visited.  Ranks are exact
because they keep order and equality, and each triple is typed on the
``Cost`` values its ranks stand for.  The tables are ranked on the
instance's integer costs over one denominator
(``BinaryInstance.integer_costs``, shared with the class solvers and the
oracle), so only the distinct values become ``Cost`` values; answers are
re-evaluated on the ``Cost`` tables.

With at most 18 distinct values (``_MASK_VALUES``) the scan takes one
variable pair at a time as a block of bits, one per triangle (k, a, b, c):
three ANDs of masks find all of the pair's triangles with one kind of
triple at once, for each kind still unseen, and the lowest set bit is the
earliest.  With more values the scan visits each triangle.  ``check_jwp``
stops at the first variable pair (or triple, on the loop) that violates the
property.
"""

from __future__ import annotations

import enum
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from operator import or_
from typing import Mapping, Optional, Tuple

from .costs import ONE, Cost, ZERO
from .errors import ClassViolation
from .frozen import Frozen
from .instances import BinaryInstance


class Scheme(enum.Enum):
    CSP = "csp"
    MAXCSP = "maxcsp"
    ORDER = "order"
    MIN0 = "min0"
    MAXM = "maxm"


OTHER = "other"

ALPHABET = {
    Scheme.CSP: frozenset({"0", "<", ">", "inf"}),
    Scheme.MAXCSP: frozenset({"0", "<", ">", "1"}),
    Scheme.ORDER: frozenset({"=", "<", ">", "delta"}),
    Scheme.MIN0: frozenset({"0", "<0", ">0", "delta0"}),
    Scheme.MAXM: frozenset({"M", "<M", ">M", "deltaM"}),
}


def classify_triple(costs, scheme: Scheme, m_value: Optional[Cost] = None) -> str:
    """Type of a multiset of three binary costs under the given scheme.

    For MIN0 the entries must already have the instance-wide minimum
    subtracted; for MAXM ``m_value`` is the instance-wide maximum.
    """
    t = sorted(costs)
    if len(t) != 3:
        raise ClassViolation(f"a triple has exactly 3 costs, got {len(t)}")
    a, b, c = t
    if scheme is Scheme.MAXM and (m_value is None or m_value.is_infinite):
        raise ClassViolation("max-anchored classification needs the finite instance maximum")
    for x in t:
        if not in_range(scheme, x) or (scheme is Scheme.MAXM and x > m_value):
            raise ClassViolation(f"cost {x} outside the range of {scheme}")
    if scheme is Scheme.CSP:
        infs = sum(1 for x in t if x.is_infinite)
        return ("0", "<", ">", "inf")[infs]
    if scheme is Scheme.MAXCSP:
        ones = sum(1 for x in t if x == ONE)
        return ("0", "<", ">", "1")[ones]
    if scheme is Scheme.ORDER:
        if a == c:
            return "="
        if a == b:
            return "<"
        if b == c:
            return ">"
        return "delta"
    if scheme is Scheme.MIN0:
        if a > ZERO:
            return OTHER
        if c == ZERO:
            return "0"
        if b == ZERO:
            return "<0"
        return ">0" if b == c else "delta0"
    if scheme is Scheme.MAXM:
        if c < m_value:
            return OTHER
        if a == m_value:
            return "M"
        if b == m_value:
            return ">M"
        return "<M" if a == b else "deltaM"
    raise ClassViolation(f"unknown scheme {scheme!r}")


class TriangleProfile(Frozen):
    """The set of triple types observed over all triangles of an instance."""

    __slots__ = _fields = ("scheme", "observed", "witnesses", "mu", "m_value")

    def __init__(
        self,
        scheme: Scheme,
        observed: frozenset,
        witnesses: Mapping[str, Tuple[int, int, int, int, int, int]],
        mu: Optional[Cost] = None,  # subtracted minimum (MIN0 only)
        m_value: Optional[Cost] = None,  # instance maximum (MAXM only)
    ):
        Frozen.__init__(self, scheme, observed, witnesses, mu, m_value)


def in_range(scheme: Scheme, x: Cost) -> bool:
    """Whether a binary cost lies in the range the scheme classifies."""
    if scheme is Scheme.CSP:
        return x == ZERO or x.is_infinite
    if scheme is Scheme.MAXCSP:
        return x == ZERO or x == ONE
    return scheme is Scheme.ORDER or not x.is_infinite


_RANGE_MESSAGES = {
    Scheme.CSP: "crisp scheme: cost {x} at c[{i},{j}]({a},{b}) is neither 0 nor inf",
    Scheme.MAXCSP: "zero/one scheme: cost {x} at c[{i},{j}]({a},{b})",
    Scheme.MIN0: "anchored schemes require finite binary costs, found inf at c[{i},{j}]({a},{b})",
    Scheme.MAXM: "anchored schemes require finite binary costs, found inf at c[{i},{j}]({a},{b})",
}


def _range_check(inst: BinaryInstance, scheme: Scheme, values):
    """Reject the first binary cost outside the scheme's range.

    ``values`` are the distinct binary costs; the tables are walked only
    when one of them is out of range, to name the first such entry.
    """
    if all(in_range(scheme, x) for x in values):
        return
    for (i, j), table in sorted(inst.binary.items()):
        for a, row in enumerate(table):
            for b, x in enumerate(row):
                if not in_range(scheme, x):
                    raise ClassViolation(
                        _RANGE_MESSAGES[scheme].format(x=x, i=i, j=j, a=a, b=b),
                        witness=[i, j, a, b, str(x)],
                    )


class TriangleScan(Frozen):
    """The kinds of cost triple over all triangles of an instance.

    ``values`` holds the distinct binary costs in increasing order, with
    ``ZERO`` added when some variable pair has no table, and ``ranks`` every
    pair i < j's table as ranks into them; ``first`` is computed from these
    on its first read.  The signature of a
    sorted rank triple (x, y, z) is ``(x == 0, z == len(values) - 1, x == y,
    y == z)``: whether it holds the minimum, whether it holds the maximum,
    and its equalities.  A type reads no more than that once the range check
    has passed (the crisp and zero/one ranges have at most two values, the
    minimum and the maximum), so ``first`` has at most 16 entries however
    many distinct costs there are.  It maps each signature to the first
    triangle with it, given as (i, j, k, a, b, c) so that tuple order is loop
    order, and to that triangle's sorted rank triple.

    With at most ``_MASK_VALUES`` (18) distinct values the scan is a block
    scan.  Triangle (i, j, k, a, b, c) of the pair i < j is bit
    ((k·D + a)·D + b)·D + c, D the largest domain, so the lowest set bit of
    a mask is its earliest triangle.  Per variable v and range of ranks,
    A[v] holds the bits with k > v where c[v,k](a, c) has a rank in the
    range, for every b, and B[v] those where c[v,k](b, c) has, for every a;
    X[x] holds the (a, b) where c[i,j] has rank x, for every k and c.
    Beside x the ranks split at 0, x and the top rank into at most five
    ranges, and a range for y and one for z fix the signature of (x, y, z),
    save that inside one wider range it also reads whether y = z (one more
    AND, with the bits where the two ranks are equal).  So X[x] & A[i] &
    B[j] holds the pair's triangles of one signature.  Only range pairs
    whose signature is unseen are ANDed, and the scan ends once every
    signature the values allow is seen.  With more values it visits every
    triangle.  Both give the same ``first``.
    """

    _fields = ("inst", "values", "ranks")

    @cached_property
    def first(self):
        first = {}
        for found in _found_in_order(self.inst, self.values, self.ranks):
            first.update(found)
        return first


# Up to this many distinct binary costs the block scan runs; above it the
# per-triangle loop does.  On random n=16, d=3 tables with 12 to 24 distinct
# costs the block scan took 1.3-5.3 ms against 11-21 ms for the loop over
# three runs, and the two broke even between 128 and 256 values.  The
# switch stays at 18: the block scan keeps masks per value (at n=40, d=8 its
# peak grows from 3.0 MB at 18 values to 5.6 MB at 72, the loop's stays
# under 0.1 MB), and the tests reach both scans on oracle-sized instances
# at this count.
_MASK_VALUES = 18


def _signature(x, y, z, top):
    x, y, z = sorted((x, y, z))
    return (x == 0, z == top, x == y, y == z)


@lru_cache(maxsize=_MASK_VALUES + 1)
def _rank_ranges(count):
    """``(table, spans, signatures)`` over ``count`` distinct values.

    Beside a rank x of c[i,j], the ranks split at 0, x and the top rank into
    at most five ranges.  Ranks y (of c[i,k]) and z (of c[j,k]) in different
    ranges, or in one range of a single rank, fix the signature of (x, y, z);
    in one wider range, it is fixed once it is known whether y = z.
    ``spans`` lists every range [lo, hi) that occurs, the single ranks
    first, so that span r is rank r.  ``table[x]`` holds ``(y span, ((z span,
    sig, sig_apart), ...))`` per range of y: ``sig`` is the signature when
    y = z, and ``sig_apart`` the one when y ≠ z, None unless both lie in one
    wider range.  ``signatures`` holds every signature a triple can have."""
    top = count - 1
    spans = {(r, r + 1): r for r in range(count)}
    table = []
    for x in range(count):
        marks = sorted({0, x, top})
        ranges = [(m, m + 1) for m in marks]
        ranges += [(lo + 1, hi) for lo, hi in zip(marks, marks[1:]) if hi - lo > 1]
        table.append(tuple(
            (spans.setdefault(ys, len(spans)), tuple(
                (spans.setdefault(zs, len(spans)), _signature(x, ys[0], zs[0], top),
                 _signature(x, ys[0], ys[0] + 1, top) if ys == zs and ys[1] - ys[0] > 1 else None)
                for zs in ranges))
            for ys in ranges))
    signatures = frozenset(
        _signature(x, y, z, top) for x in range(count) for y in range(x, count) for z in range(y, count))
    return tuple(table), tuple(spans), signatures


def _block_scan(sizes, ranks, count):
    """``_found_in_order`` a variable pair at a time, on the masks
    ``TriangleScan`` describes."""
    n = len(sizes)
    if n < 3:
        return
    d = max(sizes)
    dd, w = d * d, d**3
    table, spans, signatures = _rank_ranges(count)
    every_k = sum(1 << k * w for k in range(n))
    every_a = sum(1 << a * dd for a in range(d))
    every_b = sum(1 << b * d for b in range(d))
    row_cells, pairs, spreads, patterns, sides = {}, {}, {}, {}, [None] * n

    def cells(row):
        """The (rank r, bits c where the row holds r) of a row, each pair
        kept once per scan."""
        found = row_cells.get(row)
        if found is None:
            by_rank = {}
            for c, r in enumerate(row):
                by_rank[r] = by_rank.get(r, 0) | 1 << c
            found = row_cells[row] = tuple(pairs.setdefault(cell, cell) for cell in by_rank.items())
        return found

    def spread(p):
        """Bits b·D + c, for every c, at the bits b of ``p``: a row of X."""
        found = spreads.get(p)
        if found is None:
            found = spreads[p] = sum((1 << d) - 1 << b * d for b in range(d) if p >> b & 1)
        return found

    def third(v):
        """Per span in ``used`` (None for the others), A[v] and B[v]: the
        (k, a, b, c) with k > v where the rank of c[v,k](a, c) lies in it,
        for every b, and those where the rank of c[v,k](b, c) does, for
        every a."""
        as_a, as_b = [0] * count, [0] * count
        tables = [(ranks[v, k], k * w) for k in range(v + 1, n)]
        for a in range(sizes[v]):
            by_rank = [0] * count  # the (k, c) where c[v,k](a, c) has rank r
            for t, shift in tables:
                for r, p in cells(t[a]):
                    by_rank[r] |= p << shift
            for r, m in enumerate(by_rank):
                as_a[r] |= m << a * dd
                as_b[r] |= m << a * d
        out = []
        for by_rank in [m * every_b for m in as_a], [m * every_a for m in as_b]:
            below = list(accumulate(by_rank, or_, initial=0))
            out.append([below[hi] ^ below[lo] if s in used else None for s, (lo, hi) in enumerate(spans)])
        return out

    seen, live = set(), None
    for i in range(n - 2):
        span_a = None
        for j in range(i + 1, n - 1):
            if live is None:
                if len(seen) == len(signatures):
                    return
                # the span pairs that can still give an unseen signature, and
                # the spans they read; these only shrink as the scan goes on
                live = [[(y, unseen) for y, zs in per_x if (unseen := [
                    z for z in zs if z[1] not in seen or z[2] is not None and z[2] not in seen])]
                    for per_x in table]
                used = set()
                for per_x in live:
                    for y, zs in per_x:
                        used.add(y)
                        for z, _, sig_apart in zs:
                            used.add(z)
                            if sig_apart is not None:
                                used.update(range(count))  # read by ``equal``
            if span_a is None:
                span_a = (sides[i] or third(i))[0]
            if sides[j] is None:
                sides[j] = third(j)
            span_b = sides[j][1]
            t_ij = ranks[i, j]
            pattern = patterns.get(t_ij)
            if pattern is None:
                # X[x] is the (a, b) pattern of rank x in c[i,j], repeated over k
                by_rank = {}
                for a, row in enumerate(t_ij):
                    for x, p in cells(row):
                        by_rank[x] = by_rank.get(x, 0) | spread(p) << a * dd
                pattern = patterns[t_ij] = list(by_rank.items())
            hits, equal = {}, None
            for x, ab in pattern:
                if not live[x]:
                    continue
                block = ab * every_k
                for y, zs in live[x]:
                    xy = block & span_a[y]
                    if not xy:
                        continue
                    for z, sig, sig_apart in zs:
                        m = xy & span_b[z]
                        if m and sig_apart is not None:
                            if equal is None:
                                # where c[i,k](a, c) and c[j,k](b, c) have one rank
                                equal = 0
                                for r in range(count):
                                    equal |= span_a[r] & span_b[r]
                            apart = m & ~equal
                            if apart:
                                hits[sig_apart] = hits.get(sig_apart, 0) | apart
                                m ^= apart
                        if m:
                            hits[sig] = hits.get(sig, 0) | m
            found = {}
            for sig, m in hits.items():
                if sig not in seen:
                    k, low = divmod((m & -m).bit_length() - 1, w)
                    a, low = divmod(low, dd)
                    b, c = divmod(low, d)
                    key = tuple(sorted((t_ij[a][b], ranks[i, k][a][c], ranks[j, k][b][c])))
                    found[sig] = ((i, j, k, a, b, c), key)
            if found:
                seen.update(found)
                live = None
                yield found
        sides[i] = None


def _loop_scan(n, ranks, top):
    """``_found_in_order`` triangle by triangle, for each (i, j, k)."""
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            t_ij = ranks[i, j]
            for k in range(j + 1, n):
                t_ik = ranks[i, k]
                t_jk = ranks[j, k]
                # few distinct triples per variable triple: sort only those
                local = {}
                for a, (row_ij, row_ik) in enumerate(zip(t_ij, t_ik)):
                    for b, (x, row_jk) in enumerate(zip(row_ij, t_jk)):
                        for c, (y, z) in enumerate(zip(row_ik, row_jk)):
                            key = (x, y, z)
                            if key not in local:
                                local[key] = (i, j, k, a, b, c)
                found = {}
                for key, pos in local.items():
                    x, y, z = sorted(key)
                    sig = (x == 0, z == top, x == y, y == z)
                    if sig not in seen:
                        seen.add(sig)
                        found[sig] = (pos, (x, y, z))
                if found:
                    yield found


def _found_in_order(inst: BinaryInstance, values, ranks):
    """The entries of ``TriangleScan.first``, yielded in loop order, a batch
    after each variable pair (or triple), so that a caller wanting only the
    earliest triangle of some kind can stop at the first batch holding it.
    Within a batch the entries come in no set order; both readers take the
    least position."""
    if len(values) <= _MASK_VALUES:
        return _block_scan([len(d) for d in inst.domains], ranks, len(values))
    return _loop_scan(inst.n, ranks, len(values) - 1)


def scan_triangles(inst: BinaryInstance) -> TriangleScan:
    """The ``TriangleScan`` of ``inst``, its triangles not yet visited.

    Entries are ranked on the instance's integer costs
    (``BinaryInstance.integer_costs``), so only the distinct values are
    made into ``Cost`` values; an absent table has the rank of ``ZERO``.
    Equal tables, and equal rows, are ranked once and share one tuple.
    """
    ints = inst.integer_costs
    n, sizes = inst.n, [len(d) for d in inst.domains]
    tables = {
        (i, j): ints.binary.get((i, j)) or ((0,) * sizes[j],) * sizes[i]
        for i in range(n)
        for j in range(i + 1, n)
    }
    ranked = dict.fromkeys(tables.values())
    rows = dict.fromkeys(chain.from_iterable(ranked))
    present = set(chain.from_iterable(rows))
    order = sorted(v for v in present if v is not None)
    if None in present:
        order.append(None)
    rank = {v: r for r, v in enumerate(order)}.__getitem__
    for row in rows:
        rows[row] = tuple(map(rank, row))
    for table in ranked:
        ranked[table] = tuple(map(rows.__getitem__, table))
    ranks = {pair: ranked[table] for pair, table in tables.items()}
    return TriangleScan(inst, tuple(map(ints.cost, order)), ranks)


def profile(
    inst: BinaryInstance, scheme: Scheme, scan: Optional[TriangleScan] = None
) -> TriangleProfile:
    """Exact type set over all triangles, with one witness per observed type.

    ``scan`` is ``scan_triangles(inst)``, made here when not given.  A cost
    outside the scheme's range is rejected before any triangle is visited.
    """
    if scan is None:
        scan = scan_triangles(inst)
    _range_check(inst, scheme, scan.values)
    values = scan.values
    lo, hi = (values[0], values[-1]) if values else (ZERO, ZERO)
    mu = lo if scheme is Scheme.MIN0 else None
    m_value = hi if scheme is Scheme.MAXM else None
    earliest = {}
    for pos, key in scan.first.values():
        triple = [values[r] for r in key]
        if mu is not None and mu != ZERO:
            triple = [x - mu for x in triple]
        tt = classify_triple(triple, scheme, m_value=m_value)
        if tt not in earliest or pos < earliest[tt]:
            earliest[tt] = pos
    return TriangleProfile(
        scheme=scheme,
        observed=frozenset(earliest),
        witnesses={tt: (i, a, j, b, k, c) for tt, (i, j, k, a, b, c) in earliest.items()},
        mu=mu,
        m_value=m_value,
    )


def check_jwp(inst: BinaryInstance):
    """True iff every triangle's triple is all-equal or has its two minima equal.

    Returns ``(ok, witness)`` with the first violating triangle in
    lexicographic (i, j, k, a, b, c) order, or None.  The violating triples
    are exactly those whose two least ranks differ (the ORDER types ``>``
    and ``delta``), so the scan stops at the first batch that finds one.
    """
    scan = scan_triangles(inst)
    for found in _found_in_order(inst, scan.values, scan.ranks):
        bad = [pos for (_, _, low_equal, _), (pos, _) in found.items() if not low_equal]
        if bad:
            i, j, k, a, b, c = min(bad)
            return False, (i, a, j, b, k, c)
    return True, None


class Verdict(Frozen):
    """Dichotomy outcome for a profile: tractable (with a solver), JWP-only,
    NP-hard, or trivially small-domain.

    ``kind`` is "tractable", "tractable-unimplemented", "np-hard" or
    "trivial-small-domain"; ``solver`` names the route, if any, and ``rule``
    the reason.
    """

    __slots__ = _fields = ("kind", "solver", "rule")

    def to_doc(self):
        return {"kind": self.kind, "solver": self.solver, "rule": self.rule}


# The dichotomy: each scheme's tractable cells, mapped to implemented
# solvers in preference order.  A profile is tractable iff some cell holds
# it, and each solver checks its input against its own cells.  Cells
# solvable only through the two-smallest-equal triangle property have no
# dedicated solver here (solver None) and come last in their scheme.
_SOLVER_CELLS = {
    Scheme.CSP: (
        (frozenset({">", "0", "inf"}), "sac"),
        (frozenset({"<", ">", "inf"}), "trivial"),
        (frozenset({"<", "0", "inf"}), None),
    ),
    Scheme.MAXCSP: (
        (frozenset({">", "1"}), "matching-cardinality"),
        (frozenset({">", "0"}), "lr"),
        (frozenset({"<", ">"}), "trivial"),
        (frozenset({"<", "0", "1"}), None),
    ),
    Scheme.ORDER: (
        (frozenset({"<", "="}), None),
    ),
    Scheme.MIN0: (
        (frozenset({">0", "0"}), "min0-structure"),
        (frozenset({"delta0", "<0", ">0"}), "trivial"),
        (frozenset({"<0", "0"}), None),
    ),
    Scheme.MAXM: (
        (frozenset({">M", "M"}), "weighted-matching"),
        (frozenset({"deltaM", "<M", ">M"}), "trivial"),
        (frozenset({"<M", "M"}), None),
    ),
}

_RULES = {
    Scheme.CSP: "crisp-triangle-dichotomy",
    Scheme.MAXCSP: "zero-one-triangle-dichotomy",
    Scheme.ORDER: "order-triangle-dichotomy",
    Scheme.MIN0: "min-anchored-triangle-dichotomy",
    Scheme.MAXM: "max-anchored-triangle-dichotomy",
}
_RULE_CSP_SOFT = "crisp-binary-soft-unary-dichotomy"


def _lookup_cell(scheme: Scheme, observed: frozenset) -> Tuple[bool, Optional[str]]:
    """Whether some tractable cell of the scheme holds every observed type
    (the dichotomy's split, independent of domain size), and the solver of
    the first that does, None only if no cell with a solver holds them."""
    for cell, solver in _SOLVER_CELLS[scheme]:
        if observed <= cell:
            return True, solver
    return False, None


def verdict(prof: TriangleProfile, domain_max: int, soft_unaries_present: bool) -> Verdict:
    """Dichotomy verdict for a profile at the given maximum domain size."""
    scheme = prof.scheme
    csp = scheme is Scheme.CSP
    rule = _RULE_CSP_SOFT if csp and soft_unaries_present else _RULES[scheme]
    if domain_max <= (2 if csp and not soft_unaries_present else 1):
        return Verdict("trivial-small-domain", None, rule)
    tractable, solver = _lookup_cell(scheme, prof.observed)
    if not tractable:
        return Verdict("np-hard", None, rule)
    if solver is None:
        return Verdict("tractable-unimplemented", None, rule)
    return Verdict("tractable", solver, rule)


def has_soft_unaries(inst: BinaryInstance) -> bool:
    """True if some unary cost lies outside {0, inf}."""
    return any(
        not (c == ZERO or c.is_infinite) for table in inst.unary for c in table
    )


def profile_report(inst: BinaryInstance, scheme: Scheme) -> dict:
    """JSON-ready report: scheme, observed types, witnesses, verdict, rule."""
    prof = profile(inst, scheme)
    v = verdict(prof, inst.max_domain, has_soft_unaries(inst))
    doc = {
        "scheme": scheme.value,
        "observed": sorted(prof.observed),
        "witnesses": {t: list(w) for t, w in sorted(prof.witnesses.items())},
        "verdict": v.to_doc(),
    }
    if prof.mu is not None:
        doc["normalised_minimum"] = str(prof.mu)
        pairs = inst.n * (inst.n - 1) // 2
        doc["normalisation_offset"] = str(prof.mu * pairs) if pairs else "0"
    if prof.m_value is not None:
        doc["maximum_cost"] = str(prof.m_value)
    return doc
