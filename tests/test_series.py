"""Tests for the truncated bivariate power series ring."""

import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from humbert import series
from humbert.rosenhain import rosenhain_triple
from humbert.series import (NotAUnit, NotDivisible, TruncatedSeries,
                            series_to_record, word_primes)
from humbert.theta import humbert_params

rng = random.Random(20260826)


def reference_product(f, g):
    """The dict convolution of f and g modulo (p^n, q^n), n the smaller
    precision: an independent reference for `TruncatedSeries.__mul__`."""
    n = min(f.precision, g.precision)
    a, b = f.terms, g.terms
    if len(a) > len(b):
        a, b = b, a
    # bucket the larger operand by p-exponent, columns sorted, so the
    # truncation cutoff turns into loop breaks instead of per-term tests
    rows = {}
    for (i, j), c in b.items():
        rows.setdefault(i, []).append((j, c))
    rows = sorted((i, sorted(cols)) for i, cols in rows.items())
    out = {}
    get = out.get
    for (i1, j1), c1 in a.items():
        imax = n - i1
        jmax = n - j1
        for i2, cols in rows:
            if i2 >= imax:
                break
            i = i1 + i2
            for j2, c2 in cols:
                if j2 >= jmax:
                    break
                k = (i, j1 + j2)
                v = get(k)
                out[k] = c1 * c2 if v is None else v + c1 * c2
    return TruncatedSeries(out, n)


def random_series(precision, max_terms=8, unit=False):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        i = rng.randrange(precision)
        j = rng.randrange(precision)
        terms[(i, j)] = rng.randint(-9, 9)
    if unit:
        terms[(0, 0)] = rng.choice([1, -1])
    return TruncatedSeries(terms, precision)


def test_ring_axioms_randomized():
    for _ in range(1000):
        n = rng.choice([4, 6, 8])
        f = random_series(n)
        g = random_series(n)
        h = random_series(n)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        one = TruncatedSeries.one(n)
        zero = TruncatedSeries({}, n)
        assert f * one == f
        assert f + zero == f
        assert f + (-f) == zero


def test_inverse_randomized():
    for _ in range(200):
        n = rng.choice([4, 6, 8, 10])
        f = random_series(n, unit=True)
        g = f.inverse()
        assert f * g == TruncatedSeries.one(n)


def reference_inverse(f):
    """1/f = c (1 + x + x^2 + ...) for x = 1 - c f, c = +-1 the constant
    term of f, by the dict convolution: the geometric series of the paper,
    an independent reference for `TruncatedSeries.inverse`.  x has no
    constant term, so x^k vanishes mod (p^n, q^n) for k > 2n - 2."""
    n = f.precision
    one = TruncatedSeries.one(n)
    c = TruncatedSeries({(0, 0): f.constant_term()}, n)
    x = one - reference_product(c, f)
    total = power = one
    for _ in range(2 * n - 2):
        power = reference_product(power, x)
        total = total + power
    return reference_product(c, total)


@pytest.mark.parametrize("f", [
    # a unit on 4Z x 4Z, as every Rosenhain input is: the solve steps by 4
    TruncatedSeries({(0, 0): 1, (4, 0): 3, (0, 8): -2, (8, 4): 5,
                     (12, 12): -1, (20, 4): 7}, 30),
    # on 3Z x 3Z, with no term on either axis
    TruncatedSeries({(0, 0): -1, (3, 6): 2, (9, 3): -4}, 20),
    # a generic unit, gcd 1
    TruncatedSeries({(0, 0): 1, (1, 0): -2, (0, 3): 1, (2, 5): 4,
                     (4, 4): -3}, 9),
    # constants, with and without a grid to step over
    TruncatedSeries({(0, 0): -1}, 7),
    TruncatedSeries({(0, 0): 1}, 1)])
def test_inverse_matches_the_reference_inverse(f):
    assert f.inverse() == reference_inverse(f)


def test_inverse_requires_unit():
    f = TruncatedSeries({(1, 0): 1}, 6)
    with pytest.raises(NotAUnit):
        f.inverse()
    with pytest.raises(NotAUnit):
        TruncatedSeries({}, 6).inverse()


def test_inverse_requires_constant_term_plus_minus_one():
    # 2 + p is invertible over Q but not over Z
    two_plus_p = TruncatedSeries({(0, 0): 2, (1, 0): 1}, 6)
    with pytest.raises(NotAUnit):
        two_plus_p.inverse()
    minus_one = TruncatedSeries({(0, 0): -1, (0, 1): 3}, 6)
    assert minus_one * minus_one.inverse() == TruncatedSeries.one(6)


def test_coefficients_are_ints():
    with pytest.raises(TypeError):
        TruncatedSeries({(0, 0): Fraction(1, 3)}, 4)
    with pytest.raises(TypeError):
        TruncatedSeries({(0, 0): Fraction(2, 1)}, 4)
    with pytest.raises(TypeError):
        TruncatedSeries({(1, 0): 0.5}, 4)
    f = TruncatedSeries({(0, 0): np.int64(3), (1, 2): np.int32(-2)}, 4)
    assert f.terms == {(0, 0): 3, (1, 2): -2}
    assert all(type(c) is int for c in f.terms.values())


def test_inverse_geometric():
    # 1/(1-p) is the geometric series
    n = 8
    f = TruncatedSeries.one(n) - TruncatedSeries({(1, 0): 1}, n)
    g = f.inverse()
    assert g == TruncatedSeries({(i, 0): 1 for i in range(n)}, n)


def test_monomial_division_round_trip():
    for _ in range(200):
        n = rng.choice([6, 8, 10])
        a = rng.randrange(3)
        b = rng.randrange(3)
        f = random_series(n)
        kept = {k: c for k, c in f.terms.items()
                if k[0] + a < n and k[1] + b < n}
        g = TruncatedSeries({(i + a, j + b): c
                             for (i, j), c in f.terms.items()}, n)
        assert g.divide_monomial(a, b) == TruncatedSeries(kept, n)


def test_divide_monomial_not_divisible():
    f = TruncatedSeries({(0, 1): 1, (2, 2): 3}, 6)
    with pytest.raises(NotDivisible):
        f.divide_monomial(1, 0)


def test_truncation_cuts_high_terms():
    f = TruncatedSeries({(3, 0): 1, (4, 0): 1, (0, 5): 7}, 4)
    assert f.terms == {(3, 0): 1}
    g = TruncatedSeries({(3, 0): 1}, 4) * TruncatedSeries({(1, 0): 1}, 4)
    assert g == TruncatedSeries({}, 4)


def test_mixed_precision_takes_min():
    f = TruncatedSeries.one(10)
    g = TruncatedSeries.one(6)
    assert (f * g).precision == 6
    assert (f + g).precision == 6


def test_serialization_round_trip():
    # the record carries every term, sorted, with denominator 1
    for _ in range(200):
        f = random_series(rng.choice([4, 8, 12]))
        rec = series_to_record(f)
        assert rec["precision"] == f.precision
        assert [[i, j] for i, j, _ in rec["terms"]] == sorted(
            [i, j] for i, j in f.terms)
        assert {(i, j): int(s.removesuffix("/1"))
                for i, j, s in rec["terms"]} == f.terms


def test_serialization_is_sorted_and_stringly_exact():
    f = TruncatedSeries({(2, 1): 3, (0, 0): -2}, 5)
    rec = series_to_record(f)
    assert rec["precision"] == 5
    assert rec["terms"] == [[0, 0, "-2/1"], [2, 1, "3/1"]]


@st.composite
def _product_operands(draw):
    """Two series on one lattice sZ x sZ, s = 1 or 4, of independent
    precisions, with small or very large coefficients."""
    s = draw(st.sampled_from([1, 4]))
    coefficients = st.one_of(st.integers(-9, 9),
                             st.integers(-2 ** 1100, 2 ** 1100))

    def operand():
        n = draw(st.integers(1, 40))
        cell = st.integers(0, (n - 1) // s).map(lambda i: s * i)
        terms = st.dictionaries(st.tuples(cell, cell), coefficients,
                                max_size=12)
        return TruncatedSeries(draw(terms), n)
    return operand(), operand()


_WIDE = TruncatedSeries({(0, 0): 2 ** 1100 + 1, (1, 2): -(2 ** 1030),
                         (3, 0): 5}, 7)


@settings(max_examples=200, deadline=None)
@given(_product_operands())
@example((TruncatedSeries({}, 9), _WIDE))  # zero operand
@example((TruncatedSeries({(0, 0): -7}, 12), _WIDE))  # constant operand
@example((TruncatedSeries({(0, 0): 3}, 1), TruncatedSeries({(0, 0): 5}, 1)))
# coefficients past 2^1024: the exact l1-norm bound
@example((_WIDE, TruncatedSeries({(0, 1): 2 ** 1025, (2, 2): -1}, 5)))
@example((TruncatedSeries({(4, 0): 3, (0, 8): -1}, 13),
          TruncatedSeries({(0, 0): 1, (8, 4): 2 ** 70}, 30)))  # stride 4
def test_product_matches_the_reference_product(operands):
    f, g = operands
    want = reference_product(f, g)
    assert f * g == want
    assert g * f == want


def test_rosenhain_triple_matches_the_reference_product(monkeypatch):
    # the Delta = 12 triple at N = 112, rebuilt with the dict convolution
    # for every product, is the triple of the grid product
    disc = humbert_params(12)
    want = rosenhain_triple(disc, 112)
    monkeypatch.setattr(TruncatedSeries, "__mul__", reference_product)
    assert rosenhain_triple(disc, 112).series() == want.series()


@pytest.mark.parametrize("key", [(-1, 5), (-1, 50), (50, -1), (-3, -3)])
def test_a_negative_exponent_is_an_error(key):
    # also past the precision, where the term would otherwise be cut
    with pytest.raises(ValueError, match="negative exponent"):
        TruncatedSeries({key: 1}, 10)


def test_word_primes_are_found_once():
    # the consecutive primes above 2^20, each found by trial division once
    # per process and kept: a later walk reads the kept list
    want = [p for p in range(2 ** 20 + 1, 2 ** 20 + 2000, 2)
            if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
    assert list(islice(word_primes(), len(want))) == want
    kept = series._WORD_PRIMES
    assert kept[:len(want)] == want
    found = len(kept)
    assert list(islice(word_primes(), found)) == kept
    assert len(series._WORD_PRIMES) == found
