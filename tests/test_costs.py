import random
from fractions import Fraction

import pytest

from vcspkit.costs import Cost, INF, ZERO, format_cost, parse_cost
from vcspkit.errors import FormatError


def test_exact_rational_addition():
    assert Cost(Fraction(1, 2)) + Cost(Fraction(1, 3)) == Cost(Fraction(5, 6))


def test_infinity_is_absorbing():
    assert Cost(7) + INF == INF
    assert INF + Cost(7) == INF
    assert INF + INF == INF


def test_zero_is_identity():
    assert ZERO + Cost(4) == Cost(4)


def test_total_order_puts_infinity_on_top():
    assert Cost(10**9) < INF
    assert not INF < INF
    assert max(Cost(3), INF) == INF
    assert sorted([INF, Cost(1), ZERO]) == [ZERO, Cost(1), INF]


def test_negative_costs_rejected():
    with pytest.raises(ValueError):
        Cost(-1)
    with pytest.raises(ValueError):
        Cost(Fraction(-1, 2))


def test_no_float_mode():
    with pytest.raises(TypeError):
        Cost(0.5)


def test_subtraction_and_scaling():
    assert Cost(5) - Cost(2) == Cost(3)
    assert INF - Cost(2) == INF
    with pytest.raises(ValueError):
        Cost(1) - INF
    assert Cost(Fraction(3, 2)) * 4 == Cost(6)
    assert INF * 3 == INF


def _random_cost(rng):
    if rng.random() < 0.08:
        return INF
    return Cost(Fraction(rng.randint(0, 40), rng.randint(1, 9)))


def test_addition_laws_on_random_triples():
    rng = random.Random(20240)
    for _ in range(10_000):
        a, b, c = (_random_cost(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        if a >= b:
            assert a + c >= b + c


@pytest.mark.parametrize(
    "text,expected",
    [("inf", INF), ("7", Cost(7)), ("0", ZERO), ("5/6", Cost(Fraction(5, 6))),
     ("10/4", Cost(Fraction(5, 2)))],
)
def test_parse_cost(text, expected):
    assert parse_cost(text) == expected


@pytest.mark.parametrize(
    "text", ["-3", "1.5", "x", "1/0", "3/-2", "", "1_0", "+1", "-0", "\u0663", "1/+2"]
)
def test_parse_cost_rejects(text):
    with pytest.raises(FormatError):
        parse_cost(text)


def test_format_round_trips():
    rng = random.Random(7)
    for _ in range(500):
        c = _random_cost(rng)
        assert parse_cost(format_cost(c)) == c


@pytest.mark.parametrize("value", [10**4300, Fraction(1, 10**4300)], ids=["numerator", "denominator"])
def test_format_rejects_more_digits_than_str_writes(value):
    with pytest.raises(FormatError, match="more digits than can be written"):
        format_cost(Cost(value))


def test_cost_keeps_a_given_fraction():
    half = Fraction(1, 2)
    assert Cost(half).value is half
    with pytest.raises(ValueError):
        Cost(Fraction(-1, 3))
    with pytest.raises(TypeError):
        Cost(True)


def test_cost_sum_is_exact_over_mixed_denominators():
    from vcspkit.costs import cost_sum

    assert cost_sum([]) == ZERO
    parts = [Cost(Fraction(1, 2)), Cost(Fraction(1, 3)), Cost(2), Cost(Fraction(5, 6))]
    assert cost_sum(parts) == Cost(Fraction(11, 3))
    assert cost_sum(iter(parts + [INF, Cost(1)])) == INF
    rng = random.Random(11)
    for _ in range(300):
        items = [INF if rng.random() < 0.03 else Cost(Fraction(rng.randint(0, 40), rng.randint(1, 12)))
                 for _ in range(rng.randint(0, 12))]
        pairwise = ZERO
        for c in items:
            pairwise = pairwise + c
        assert cost_sum(items) == pairwise


def test_no_float_in_the_package():
    import pathlib

    import vcspkit

    package = pathlib.Path(vcspkit.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    assert [p.name for p in modules if "float(" in p.read_text(encoding="utf-8")] == []
