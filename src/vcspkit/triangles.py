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

The scan takes one variable pair at a time as a block of bits, one per
triangle (k, a, b, c): three ANDs of masks find all of the pair's triangles
with one kind of triple at once, for each kind still unseen, and the lowest
set bit is the earliest.  Its masks are kept per rank that occurs, so its
work follows the ranks present, however many distinct costs there are.
``check_jwp`` stops at the first variable pair that violates the property.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations_with_replacement
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

    The scan is a block scan.  Triangle (i, j, k, a, b, c) of the pair
    i < j is bit ((k·D + a)·D + b)·D + c, D the largest domain, so the
    lowest set bit of a mask is its earliest triangle.  Per variable v and
    range of ranks, A[v] holds the bits with k > v where c[v,k](a, c) has a
    rank in the range, for every b, and B[v] those where c[v,k](b, c) has,
    for every a; X[x] holds the (a, b) where c[i,j] has rank x, for every k
    and c.
    Beside x the ranks split at 0, x and the top rank into at most five
    ranges, and a range for y and one for z fix the signature of (x, y, z),
    save that inside one wider range it also reads whether y = z (one more
    AND, with the bits where the two ranks are equal).  So X[x] & A[i] &
    B[j] holds the pair's triangles of one signature.  Only range pairs
    whose signature is unseen are ANDed, and the scan ends once every
    signature the values allow is seen.  A[v] and B[v] hold one mask per
    rank present at v, and the mask of a wider range is made from them on
    first read, so no part of the scan walks every distinct value.
    """

    _fields = ("inst", "values", "ranks")

    @cached_property
    def first(self):
        first = {}
        for found in _found_in_order(self.inst, self.values, self.ranks):
            first.update(found)
        return first


def _signature(x, y, z, top):
    x, y, z = sorted((x, y, z))
    return (x == 0, z == top, x == y, y == z)


def _ranges(x, top):
    """The ranges [lo, hi) of ranks beside a rank x: 0, x, the top rank, the
    gap between 0 and x and the gap between x and the top; some are empty
    or repeated."""
    return (0, 1), (x, x + 1), (top, top + 1), (1, x), (x + 1, top)


@lru_cache(maxsize=None)
def _gap_row(below, above):
    """The ranges of ranks y and z beside a rank x, and the signature each
    pair of them gives, for x = ``below`` and the top rank ``below + above``.

    Ranks y (of c[i,k]) and z (of c[j,k]) in different ranges, or in one
    range of a single rank, fix the signature of (x, y, z); in one wider
    range, it is fixed once it is known whether y = z.  The row holds ``(y
    slot, ((z slot, sig, sig_apart), ...))`` per range of y, a slot being an
    index into ``_ranges``: ``sig`` is the signature when y = z, and
    ``sig_apart`` the one when y ≠ z, None unless both lie in one wider
    range.  A signature reads only equalities and the two ends, so every x
    whose gaps to 0 and to the top are ``below`` and ``above``, 3 standing
    for 3 or more, has this row."""
    x, top = below, below + above
    slots = {}
    for slot, (lo, hi) in enumerate(_ranges(x, top)):
        if lo < hi:
            slots.setdefault((lo, hi), slot)
    return tuple(
        (y, tuple((z, _signature(x, ys[0], zs[0], top),
                   _signature(x, ys[0], ys[0] + 1, top) if y == z and ys[1] - ys[0] > 1 else None)
                  for zs, z in slots.items()))
        for ys, y in slots.items())


@lru_cache(maxsize=None)
def _signatures(top):
    """Every signature of a triple of ranks up to ``top``.  The ranks 0, 1,
    2, 3 and ``top`` show them all, and every top rank from 4 up gives the
    same set."""
    ranks = sorted({min(r, top) for r in (0, 1, 2, 3, top)})
    return frozenset(_signature(*key, top) for key in combinations_with_replacement(ranks, 3))


class _RankMasks(dict):
    """Masks by range of ranks, each the OR of the masks in ``by_rank`` of
    the ranks present in it: a single rank r is keyed r, a wider range [lo,
    hi) is keyed (lo, hi) and made on first read as the XOR of two prefix
    ORs over the ranks present."""

    __slots__ = ("by_rank", "present", "below")

    def __init__(self, by_rank):
        dict.__init__(self, by_rank)
        self.by_rank, self.below = by_rank, None

    def __missing__(self, key):
        mask = 0  # a single rank that is not present
        if isinstance(key, tuple):
            if self.below is None:
                self.present = sorted(self.by_rank)
                self.below = list(accumulate(map(self.by_rank.__getitem__, self.present), or_, initial=0))
            lo, hi = key
            mask = self.below[bisect_left(self.present, hi)] ^ self.below[bisect_left(self.present, lo)]
        self[key] = mask
        return mask


def _found_in_order(inst: BinaryInstance, values, ranks):
    """The entries of ``TriangleScan.first``, yielded in loop order, a batch
    after each variable pair, so that a caller wanting only the earliest
    triangle of some kind can stop at the first batch holding it.  Within a
    batch the entries come in no set order; both readers take the least
    position.  The pair's triangles are found on the masks ``TriangleScan``
    describes."""
    sizes = [len(d) for d in inst.domains]
    n = len(sizes)
    if n < 3:
        return
    d = max(sizes)
    dd, w = d * d, d**3
    top = len(values) - 1
    signatures = _signatures(min(top, 4))
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
        """A[v] and B[v] by range of ranks: the (k, a, b, c) with k > v where
        the rank of c[v,k](a, c) lies in the range, for every b, and those
        where the rank of c[v,k](b, c) does, for every a."""
        as_a, as_b = {}, {}
        tables = [(ranks[v, k], k * w) for k in range(v + 1, n)]
        for a in range(sizes[v]):
            by_rank = {}  # the (k, c) where c[v,k](a, c) has rank r
            for t, shift in tables:
                for r, p in cells(t[a]):
                    by_rank[r] = by_rank.get(r, 0) | p << shift
            for r, m in by_rank.items():
                as_a[r] = as_a.get(r, 0) | m << a * dd
                as_b[r] = as_b.get(r, 0) | m << a * d
        return (_RankMasks({r: m * every_b for r, m in as_a.items()}),
                _RankMasks({r: m * every_a for r, m in as_b.items()}))

    def unseen(x):
        """The range pairs beside rank x that can still give an unseen
        signature, as ``_gap_row`` gives them, each range as its key."""
        keys = [lo if hi == lo + 1 else (lo, hi) for lo, hi in _ranges(x, top)]
        return [(keys[y], left) for y, zs in _gap_row(min(x, 3), min(top - x, 3)) if (left := [
            (keys[z], sig, sig_apart) for z, sig, sig_apart in zs
            if sig not in seen or sig_apart is not None and sig_apart not in seen])]

    # per rank x, once met since the last new signature, its unseen range pairs
    seen, live = set(), [None] * len(values)
    for i in range(n - 2):
        span_a = None
        for j in range(i + 1, n - 1):
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
                row = live[x]
                if row is None:
                    row = live[x] = unseen(x)
                if not row:
                    continue
                block = ab * every_k
                for y, zs in row:
                    xy = block & span_a[y]
                    if not xy:
                        continue
                    for z, sig, sig_apart in zs:
                        m = xy & span_b[z]
                        if m and sig_apart is not None:
                            if equal is None:
                                # where c[i,k](a, c) and c[j,k](b, c) have one rank
                                equal = 0
                                for r in span_a.by_rank.keys() & span_b.by_rank.keys():
                                    equal |= span_a.by_rank[r] & span_b.by_rank[r]
                            apart = m & ~equal
                            if apart:
                                hits[sig_apart] = hits.get(sig_apart, 0) | apart
                                m ^= apart
                        if m:
                            hits[sig] = hits.get(sig, 0) | m
            if not hits:
                continue
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
                live = [None] * len(values)
                yield found
                if len(seen) == len(signatures):
                    return
        sides[i] = None


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
    and ``delta``), so the scan stops after the first variable pair whose
    batch holds one.
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
