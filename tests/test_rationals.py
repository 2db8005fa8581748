"""Exact rational coefficients, continued fractions, and slope transforms.

Oracle strategy: every expansion is cross-checked against fractions.Fraction
arithmetic, which shares no code with the integer state machines under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from tightcert.errors import CalculusError, ExcludedSlopeError, ParseError
from tightcert.rationals import (
    INF,
    NegContinuedFraction,
    SurgeryCoeff,
    coeff,
    eval_continued_fraction,
    min_split_count,
    neg_continued_fraction,
    pushoff_coeff_from_slope,
    residual_coeff,
    slope_from_pushoff_coeff,
)


def as_fraction(c: SurgeryCoeff) -> Fraction:
    """The value of a finite coefficient as a Fraction."""
    assert not c.is_infinite
    return Fraction(c.num, c.den)


def frac_eval(coeffs):
    """Independent Fraction-based evaluation of a_1 - 1/(a_2 - ...)."""
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a - Fraction(1) / value
    return value


def frac_expand(value):
    """Independent Fraction-based expansion via repeated floor."""
    out = []
    while True:
        a = math.floor(value)
        out.append(a)
        if a == value:
            return out
        value = Fraction(-1) / (value - a)


def random_negative(rng):
    p = rng.randrange(-60, 0)
    q = rng.randrange(1, 41)
    return SurgeryCoeff(p, q)


# ---------------------------------------------------------------------------
# SurgeryCoeff basics
# ---------------------------------------------------------------------------


def test_construction_normalizes():
    assert SurgeryCoeff(2, 4) == SurgeryCoeff(1, 2)
    assert SurgeryCoeff(-2, -4) == SurgeryCoeff(1, 2)
    assert SurgeryCoeff(3, -6) == SurgeryCoeff(-1, 2)
    assert SurgeryCoeff(0, 5) == SurgeryCoeff(0, 1)
    assert SurgeryCoeff(7) == SurgeryCoeff(7, 1)
    inf = SurgeryCoeff(-9, 0)
    assert inf.num == 1 and inf.den == 0
    assert inf == INF and inf.is_infinite


def test_construction_rejects_bad_parts():
    with pytest.raises(CalculusError):
        SurgeryCoeff(0, 0)
    with pytest.raises(CalculusError):
        SurgeryCoeff(1.5, 2)
    with pytest.raises(CalculusError):
        SurgeryCoeff("3", 2)


def test_bool_parts_are_stored_as_ints():
    c = SurgeryCoeff(True, 2)
    assert type(c.num) is int and type(c.den) is int
    assert str(c) == "1/2" and c == SurgeryCoeff(1, 2)
    assert str(SurgeryCoeff(-3, True)) == "-3" and str(SurgeryCoeff(False)) == "0"
    assert SurgeryCoeff.parse(str(c)) == c


def test_hash_agrees_with_equality_to_ints():
    assert 3 in {SurgeryCoeff(3)} and SurgeryCoeff(3) in {3}
    assert {SurgeryCoeff(-6, 2): "x"}.get(-3) == "x"
    assert SurgeryCoeff(1) in {True}
    rng = random.Random(2103)
    for _ in range(300):
        a = SurgeryCoeff(rng.randrange(-30, 31), rng.randrange(1, 9))
        n = rng.randrange(-30, 31)
        assert (a == n) == (n in {a}) == (a in {n})
        b = SurgeryCoeff(a.num * 3, a.den * 3)
        assert a == b and hash(a) == hash(b)


def test_str_and_parse_frozen():
    assert str(SurgeryCoeff(3, 2)) == "3/2"
    assert str(SurgeryCoeff(-7)) == "-7"
    assert str(SurgeryCoeff(0)) == "0"
    assert str(INF) == "inf"
    assert SurgeryCoeff.parse("3/2") == SurgeryCoeff(3, 2)
    assert SurgeryCoeff.parse("-7") == SurgeryCoeff(-7)
    assert SurgeryCoeff.parse(" inf ") == INF
    assert SurgeryCoeff.parse("-10/4") == SurgeryCoeff(-5, 2)


def test_parse_round_trip_random():
    rng = random.Random(2101)
    for _ in range(200):
        c = SurgeryCoeff(rng.randrange(-99, 100), rng.randrange(0, 12))
        assert SurgeryCoeff.parse(str(c)) == c


def test_parse_rejects_garbage():
    for text in ("", "x", "1.5", "3/2/5", "--4", "/3"):
        with pytest.raises(ParseError):
            SurgeryCoeff.parse(text)


def test_coeff_coercion():
    assert coeff(5) == SurgeryCoeff(5)
    assert coeff("7/3") == SurgeryCoeff(7, 3)
    assert coeff(Fraction(-4, 6)) == SurgeryCoeff(-2, 3)
    assert coeff(INF) is INF
    with pytest.raises(CalculusError):
        coeff(1.5)


def test_comparisons_match_fraction_order():
    rng = random.Random(2102)
    for _ in range(300):
        a = SurgeryCoeff(rng.randrange(-30, 31), rng.randrange(1, 9))
        b = SurgeryCoeff(rng.randrange(-30, 31), rng.randrange(1, 9))
        fa, fb = as_fraction(a), as_fraction(b)
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a > b) == (fa > fb)
        assert (a >= b) == (fa >= fb)
        assert (a == b) == (fa == fb)


def test_infinite_compares_largest():
    assert INF > SurgeryCoeff(10**9)
    assert SurgeryCoeff(-3, 2) < INF
    assert INF >= INF and INF <= INF and INF == SurgeryCoeff(2, 0)
    assert not INF < INF


def test_int_coercion_in_comparisons_and_sum():
    assert SurgeryCoeff(3, 2) > 1
    assert SurgeryCoeff(3, 2) < 2
    assert SurgeryCoeff(4, 2) == 2
    assert 1 + SurgeryCoeff(1, 2) == SurgeryCoeff(3, 2)
    assert SurgeryCoeff(1, 2) + SurgeryCoeff(1, 3) == SurgeryCoeff(5, 6)
    assert INF + 7 == INF
    assert -SurgeryCoeff(3, -2) == SurgeryCoeff(3, 2)
    assert -INF == INF


def test_fraction_coercion_on_both_sides():
    half = SurgeryCoeff(1, 2)
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != Fraction(1, 3) and Fraction(1, 3) != half
    assert half < Fraction(1) and Fraction(1) > half
    assert half >= Fraction(2, 4) and Fraction(1, 3) <= half
    assert INF > Fraction(10**9) and Fraction(-(10**9)) < INF
    assert INF != Fraction(1) and not INF < Fraction(1)
    assert half + Fraction(1, 3) == SurgeryCoeff(5, 6) == Fraction(1, 3) + half
    assert Fraction(1, 2) in {half} and half in {Fraction(2, 4)}
    assert {SurgeryCoeff(6, 4): "x"}.get(Fraction(3, 2)) == "x"
    assert SurgeryCoeff(4, 2) in {Fraction(2)}


def test_fraction_comparisons_and_hash_match_fraction():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    part = st.tuples(st.integers(-40, 40), st.integers(1, 12))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(part, part)
    def run(a, b):
        c, fc, fb = SurgeryCoeff(*a), Fraction(*a), Fraction(*b)
        for x, y, fx, fy in ((c, fb, fc, fb), (fb, c, fb, fc)):
            assert (x < y) == (fx < fy) and (x <= y) == (fx <= fy)
            assert (x > y) == (fx > fy) and (x >= y) == (fx >= fy)
            assert (x == y) == (fx == fy) and (x != y) == (fx != fy)
        assert hash(c) == hash(fc) and (fb in {c}) == (c == fb)
        assert c + fb == fc + fb == fb + c

    run()


def test_int_bool_and_inf_comparisons_match_fraction():
    # Ints and coefficients are compared without building a coefficient,
    # bools through ``_coerce``; INF is compared as math.inf.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.one_of(
        st.just(INF), st.builds(SurgeryCoeff, st.integers(-40, 40), st.integers(1, 12))
    )
    others = st.one_of(coeffs, st.integers(-60, 60), st.booleans())

    def value(x):
        if isinstance(x, SurgeryCoeff):
            return math.inf if x.is_infinite else as_fraction(x)
        return Fraction(x)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(coeffs, others)
    def run(c, o):
        fc, fo = value(c), value(o)
        for x, y, fx, fy in ((c, o, fc, fo), (o, c, fo, fc)):
            assert (x < y) == (fx < fy) and (x <= y) == (fx <= fy)
            assert (x > y) == (fx > fy) and (x >= y) == (fx >= fy)
            assert (x == y) == (fx == fy) and (x != y) == (fx != fy)

    run()


# ---------------------------------------------------------------------------
# Negative continued fractions
# ---------------------------------------------------------------------------


def test_expansion_frozen_examples():
    assert neg_continued_fraction(SurgeryCoeff(-2)).coeffs == (-2,)
    assert neg_continued_fraction(SurgeryCoeff(-5, 3)).coeffs == (-2, -3)
    assert neg_continued_fraction(SurgeryCoeff(-7, 2)).coeffs == (-4, -2)
    assert neg_continued_fraction(SurgeryCoeff(-1)).coeffs == (-1,)
    assert neg_continued_fraction(SurgeryCoeff(-1, 2)).coeffs == (-1, -2)


def test_expansion_round_trip_random():
    rng = random.Random(2103)
    for _ in range(300):
        r = random_negative(rng)
        cf = neg_continued_fraction(r)
        assert cf.coeffs[0] <= -1
        assert all(a <= -2 for a in cf.coeffs[1:])
        assert len(cf) <= abs(r.num) + r.den
        assert cf.value() == r
        assert frac_eval(cf.coeffs) == as_fraction(r)


def test_expansion_matches_floor_oracle():
    rng = random.Random(2104)
    for _ in range(200):
        r = random_negative(rng)
        assert list(neg_continued_fraction(r)) == frac_expand(as_fraction(r))


def test_leading_minus_one_exactly_on_unit_interval():
    rng = random.Random(2105)
    for _ in range(200):
        r = random_negative(rng)
        cf = neg_continued_fraction(r)
        if SurgeryCoeff(-1) < r:
            assert cf.coeffs[0] == -1 and len(cf) > 1
        elif r == SurgeryCoeff(-1):
            assert cf.coeffs == (-1,)
        else:
            assert cf.coeffs[0] <= -2


def test_expansion_rejects_nonnegative_and_infinite():
    for bad in (SurgeryCoeff(0), SurgeryCoeff(3, 2), INF):
        with pytest.raises(CalculusError):
            neg_continued_fraction(bad)


def test_continued_fraction_invariant_enforced():
    with pytest.raises(CalculusError):
        NegContinuedFraction(())
    with pytest.raises(CalculusError):
        NegContinuedFraction((0,))
    with pytest.raises(CalculusError):
        NegContinuedFraction((-2, -1))
    assert NegContinuedFraction((-1,)).value() == SurgeryCoeff(-1)


def test_stabilization_counts():
    assert NegContinuedFraction((-2, -3)).stabilization_counts() == (1, 1)
    assert NegContinuedFraction((-4, -2)).stabilization_counts() == (3, 0)
    assert NegContinuedFraction((-1, -2)).stabilization_counts() == (0, 0)
    assert NegContinuedFraction((-2,)).stabilization_counts() == (1,)


def test_eval_continued_fraction_general():
    assert eval_continued_fraction([-2, -2, -2]) == SurgeryCoeff(-4, 3)
    assert eval_continued_fraction([0]) == SurgeryCoeff(0)
    assert eval_continued_fraction([5, 3]) == SurgeryCoeff(14, 3)
    with pytest.raises(CalculusError):
        eval_continued_fraction([])
    with pytest.raises(CalculusError):
        eval_continued_fraction([-3, 0])


def test_eval_matches_fraction_oracle_random():
    rng = random.Random(2106)
    for _ in range(200):
        coeffs = [rng.randrange(-6, -1) for _ in range(rng.randrange(1, 7))]
        assert as_fraction(eval_continued_fraction(coeffs)) == frac_eval(coeffs)


# ---------------------------------------------------------------------------
# Slope <-> companion-coefficient transforms
# ---------------------------------------------------------------------------


def test_transform_frozen_examples():
    assert pushoff_coeff_from_slope(SurgeryCoeff(5, 2)) == SurgeryCoeff(3, 5)
    assert pushoff_coeff_from_slope(SurgeryCoeff(-3)) == SurgeryCoeff(4, 3)
    assert pushoff_coeff_from_slope(SurgeryCoeff(1, 2)) == SurgeryCoeff(-1)
    assert pushoff_coeff_from_slope(SurgeryCoeff(0)) == INF
    assert pushoff_coeff_from_slope(INF) == SurgeryCoeff(1)
    assert slope_from_pushoff_coeff(INF) == SurgeryCoeff(0)
    assert slope_from_pushoff_coeff(SurgeryCoeff(1)) == INF


def test_slope_one_is_excluded():
    with pytest.raises(ExcludedSlopeError):
        pushoff_coeff_from_slope(SurgeryCoeff(1))
    with pytest.raises(ExcludedSlopeError):
        pushoff_coeff_from_slope(SurgeryCoeff(7, 7))


def test_transforms_invert_each_other():
    rng = random.Random(2107)
    seen_both_signs = set()
    for _ in range(300):
        r = SurgeryCoeff(rng.randrange(-40, 41), rng.randrange(1, 13))
        if r == 1:
            continue
        rp = pushoff_coeff_from_slope(r)
        assert slope_from_pushoff_coeff(rp) == r
        if not rp.is_infinite:
            assert as_fraction(rp) == (as_fraction(r) - 1) / as_fraction(r)
        seen_both_signs.add(r > 0)
    assert seen_both_signs == {True, False}


def test_pushoff_coeff_sign_tracks_slope_branch():
    rng = random.Random(2108)
    for _ in range(200):
        r = SurgeryCoeff(rng.randrange(-40, 41), rng.randrange(1, 13))
        if r == 1 or r.num == 0:
            continue
        rp = pushoff_coeff_from_slope(r)
        if SurgeryCoeff(0) < r < SurgeryCoeff(1):
            assert rp < 0
        else:
            assert rp > 0


def test_residual_frozen_examples():
    rp = SurgeryCoeff(2, 7)
    assert residual_coeff(rp, 1) == SurgeryCoeff(2, 5)
    assert residual_coeff(rp, 3) == SurgeryCoeff(2)
    assert residual_coeff(rp, 4) == SurgeryCoeff(-2)
    assert residual_coeff(SurgeryCoeff(1, 3), 3).is_infinite
    assert min_split_count(rp) == 4


def test_residual_matches_fraction_oracle():
    rng = random.Random(2109)
    for _ in range(300):
        rp = SurgeryCoeff(rng.randrange(1, 30), rng.randrange(1, 30))
        k = rng.randrange(1, 12)
        got = residual_coeff(rp, k)
        denominator = 1 - k * as_fraction(rp)
        if denominator == 0:
            assert got.is_infinite
        else:
            assert as_fraction(got) == as_fraction(rp) / denominator


def test_min_split_count_properties():
    rng = random.Random(2110)
    for _ in range(200):
        rp = SurgeryCoeff(rng.randrange(1, 30), rng.randrange(1, 30))
        k = min_split_count(rp)
        assert residual_coeff(rp, k) < 0
        if k > 1:
            earlier = residual_coeff(rp, k - 1)
            assert earlier.is_infinite or earlier > 0
    for j in range(1, 21):
        assert min_split_count(SurgeryCoeff(1, j)) == j + 1


def test_residual_and_split_rejections():
    with pytest.raises(CalculusError):
        residual_coeff(INF, 1)
    with pytest.raises(CalculusError):
        residual_coeff(SurgeryCoeff(1, 2), 0)
    with pytest.raises(CalculusError):
        min_split_count(SurgeryCoeff(-1, 2))
    with pytest.raises(CalculusError):
        min_split_count(INF)
