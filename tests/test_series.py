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
from humbert.rosenhain import rosenhain_triple, smallest_precision
from humbert.series import (InputError, NotAUnit, NotDivisible,
                            TruncatedSeries, _grid_product, _toeplitz,
                            series_to_record, word_primes)
from humbert.theta import ThetaChar, humbert_params, restricted_theta

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


def negative(f):
    """-f, at the precision of f."""
    return TruncatedSeries({k: -c for k, c in f.terms.items()}, f.precision)


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
        assert f + negative(f) == zero


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
    x = one + negative(reference_product(c, f))
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


def test_truncate_cannot_raise_the_precision():
    f = TruncatedSeries({(0, 0): 1, (2, 1): 3}, 6)
    assert f.truncate(2) == TruncatedSeries({(0, 0): 1}, 2)
    with pytest.raises(InputError, match="cannot raise precision 6 to 7"):
        f.truncate(7)


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
    f = TruncatedSeries.one(n) + TruncatedSeries({(1, 0): -1}, n)
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


def reference_triple(disc, n):
    """(e1, e2, e3) from t1, t2, t3, t4, s8 and s10, formed as
    `rosenhain_triple` forms them, by `reference_inverse` and nine
    `reference_product`s: an independent reference for the one-pass
    triple."""
    t = {i: restricted_theta(ThetaChar.from_index(i), disc, n)
         for i in (1, 2, 3, 4)}
    i0, j0 = 1 + disc.k, disc.k + disc.ell - 1
    for i in (8, 10):
        u = restricted_theta(ThetaChar.from_index(i), disc, n + i0)
        u = u.divide_monomial(i0, j0).truncate(n)
        t[i] = TruncatedSeries({k: c // 2 for k, c in u.terms.items()}, n)
    squares = []
    for top, bottom in ((1, 2), (3, 4), (8, 10)):
        r = reference_product(t[top], reference_inverse(t[bottom]))
        squares.append(reference_product(r, r))
    a, b, c = squares
    return (reference_product(a, b), reference_product(b, c),
            reference_product(a, c))


def test_rosenhain_triple_matches_the_reference_triple():
    # the one-pass triple is the triple of the dict convolution, at the
    # precision of the certify workload (Delta = 8's e1 lies on 8Z x 8Z,
    # the grid on 4Z x 4Z) and at Delta = 4's smallest N
    cases = [(5, 112), (8, 112), (12, 112)]
    cases.append((4, smallest_precision(humbert_params(4))))
    for delta, n in cases:
        disc = humbert_params(delta)
        assert rosenhain_triple(disc, n).series() == reference_triple(disc, n)


def _two_products(grid, weight, mods):
    """compute for `_exact_grid` on the term maps [f, g]: the k = 2 outputs
    f g and g g."""
    by_f, by_g = (_toeplitz(grid(i)) for i in (0, 1))
    acc = grid(1)
    return [_grid_product(acc, by_f, mods), _grid_product(acc, by_g, mods)]


def _two_bound(norms):
    """The l1 bound of `_two_products` from the l1 norms of f and g, the
    reference for the bound `_exact_grid` derives past the float range."""
    return max(norms[0] * norms[1], norms[1] ** 2)


def _spy_crt(monkeypatch):
    """The (prime count, bound) of each later `_crt_symmetric` call."""
    calls = []
    crt = series._crt_symmetric

    def spy(residues, primes, bound):
        calls.append((len(primes), bound))
        return crt(residues, primes, bound)
    monkeypatch.setattr(series, "_crt_symmetric", spy)
    return calls


def test_exact_grid_returns_one_series_per_output(monkeypatch):
    # a generic pair (gcd 1) through one k = 2 pass: each output is the
    # dict convolution, at one prime count and through one CRT
    n = 12
    f = TruncatedSeries({(0, 0): 3, (1, 0): -7, (0, 5): 2 ** 40,
                         (3, 2): -11, (7, 1): 5}, n)
    g = TruncatedSeries({(0, 0): -1, (0, 1): 9, (2, 3): 2 ** 30 + 1,
                         (5, 5): -4, (11, 0): 8, (6, 9): -(2 ** 25)}, n)
    crts = _spy_crt(monkeypatch)
    fg, gg = series._exact_grid([f.terms, g.terms], n, _two_products)
    assert fg == reference_product(f, g)
    assert gg == reference_product(g, g)
    assert len(crts) == 1 and crts[0][0] > 1


def test_exact_grid_falls_back_to_the_l1_bound(monkeypatch):
    # a coefficient past 2^1024 has no float64 majorant: the k = 2 pass
    # runs its products on the l1 norms, which gives the exact l1 bound,
    # takes its primes from it and is still exact
    n = 9
    f = TruncatedSeries({(0, 0): 2 ** 1100 + 1, (1, 2): -(2 ** 1030),
                         (3, 0): 5}, n)
    g = TruncatedSeries({(0, 0): 1, (2, 1): -3, (0, 4): 2 ** 20}, n)
    crts = _spy_crt(monkeypatch)
    fg, gg = series._exact_grid([f.terms, g.terms], n, _two_products)
    norms = [sum(map(abs, e.terms.values())) for e in (f, g)]
    assert [bound for _, bound in crts] == [_two_bound(norms)]
    assert fg == reference_product(f, g)
    assert gg == reference_product(g, g)
    # the product's own bound is ||f||_1 ||g||_1
    crts.clear()
    assert f * g == fg
    assert [bound for _, bound in crts] == [norms[0] * norms[1]]


def test_a_nan_majorant_in_one_output_falls_back_to_the_l1_bound(
        monkeypatch):
    # f^2 overflows the float64 majorant of the second output (inf, then
    # inf * 0 = nan in the next product), while the first output's stays
    # finite: the pass must then use the l1 bound for both outputs
    n = 9
    f = TruncatedSeries({(0, 0): 2 ** 600, (1, 1): 3}, n)
    g = TruncatedSeries({(0, 0): 1, (2, 1): -3, (0, 4): 7}, n)

    def compute(grid, weight, mods):
        by_f, by_g = (_toeplitz(grid(i)) for i in (0, 1))
        f2 = _grid_product(grid(0), by_f, mods)
        return [_grid_product(grid(1), by_g, mods),
                _grid_product(f2, by_g, mods)]
    crts = _spy_crt(monkeypatch)
    gg, ffg = series._exact_grid([f.terms, g.terms], n, compute)
    norms = [sum(map(abs, e.terms.values())) for e in (f, g)]
    assert [bound for _, bound in crts] == [
        max(norms[1] ** 2, norms[0] ** 2 * norms[1])]
    assert gg == reference_product(g, g)
    assert ffg == reference_product(reference_product(f, f), g)


def test_a_one_prime_product_still_runs_the_majorant_pass(monkeypatch):
    # an l1 bound below 2^19 fits one prime, yet the pass has one bound
    # path: compute runs on the float majorant, then at the one prime
    n = 10
    f = TruncatedSeries({(0, 0): 3, (2, 1): -5, (4, 7): 11}, n)
    g = TruncatedSeries({(0, 0): -1, (1, 3): 6, (5, 0): 2}, n)
    assert 2 * 19 * 9 + 1 < next(word_primes())  # ||f||_1 ||g||_1 = 171
    passes, exact_grid = [], series._exact_grid

    def spy_exact_grid(maps, n, compute):
        def spy_compute(*args):  # mods comes last
            passes.append(None if args[-1] is None else args[-1].size)
            return compute(*args)
        return exact_grid(maps, n, spy_compute)
    monkeypatch.setattr(series, "_exact_grid", spy_exact_grid)
    crts = _spy_crt(monkeypatch)
    assert f * g == reference_product(f, g)
    assert passes == [None, 1]
    assert [count for count, _ in crts] == [1]


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


@pytest.mark.parametrize("layers", [None, 3])
@pytest.mark.parametrize("index", [0, 63])
def test_reduce_is_int_mod_up_to_its_bound(index, layers):
    # v - p floor(v/p), in place, against Python's int % p at the edges of
    # residue classes, where v/p is an integer or 1/p from one, up to the
    # largest value the helper admits, 2^53 - p - 1; for the smallest and
    # the largest of the first 64 word primes, with p as a number or
    # repeated in a (layers, 1, 1) array
    p = list(islice(word_primes(), 64))[index]
    top = 2 ** 53 - p - 1
    ks = [1, 2, 3, 2 ** 31, 2 ** 32, top // p - 1, top // p]
    ks += [rng.randrange(2 ** 32, top // p) for _ in range(300)]
    values = [0, p - 1, top] + [v for k in ks for v in (k * p - 1, k * p,
                                                        k * p + 1)
                                if v <= top]
    values += [rng.randrange(top + 1) for _ in range(200)]
    assert all(int(float(v)) == v for v in values)
    mods = p if layers is None else np.full((layers, 1, 1), float(p))
    v = np.array(values, dtype=np.float64)
    if layers:
        v = np.tile(v, (layers, 1, 1))
    assert series._reduce(v, mods) is v
    assert (v == np.array([x % p for x in values], dtype=np.float64)).all()
    with pytest.raises(AssertionError, match="past"):
        series._reduce(np.array([0.0, top + 1]), mods)
