"""Tests for the exact Rosenhain invariant expansions."""

import math

import numpy as np
import pytest

from humbert import rosenhain, series
from humbert.degrees import admissible_range
from humbert.rosenhain import rosenhain_triple
from humbert.series import TruncatedSeries
from humbert.theta import ThetaChar, humbert_params, restricted_theta

DISCS = [4, 5, 8, 12, 13]


@pytest.mark.parametrize("delta", DISCS)
def test_constant_terms_are_one(delta):
    triple = rosenhain_triple(humbert_params(delta), 20)
    for f in triple.series():
        assert f.constant_term() == 1


@pytest.mark.parametrize("delta", DISCS)
def test_integrality(delta):
    triple = rosenhain_triple(humbert_params(delta), 60)
    for f in triple.series():
        assert all(type(c) is int for c in f.terms.values())


@pytest.mark.parametrize("delta", DISCS)
def test_definition_unwinds(delta):
    # e1 * th2^2 * th4^2 == th1^2 * th3^2 without any division,
    # and the same unwinding for e2, e3 after cancelling the common
    # monomial from th8, th10.
    disc = humbert_params(delta)
    n = 40
    triple = rosenhain_triple(disc, n)
    th = {i: restricted_theta(ThetaChar.from_index(i), disc, n)
          for i in (1, 2, 3, 4, 8, 10)}
    sq = {i: f * f for i, f in th.items()}
    assert triple.e1 * sq[2] * sq[4] == sq[1] * sq[3]
    i0 = 1 + disc.k
    j0 = disc.k + disc.ell - 1
    u8 = th[8].divide_monomial(i0, j0)
    u10 = th[10].divide_monomial(i0, j0)
    assert triple.e2 * sq[4] * (u10 * u10) == sq[3] * (u8 * u8)
    assert triple.e3 * sq[2] * (u10 * u10) == sq[1] * (u8 * u8)


def test_minimum_inputs_rejected():
    with pytest.raises(ValueError):
        rosenhain_triple(humbert_params(4), 3)


def test_smallest_valid_precision_is_named():
    # below N = k + 2 the ideal factor p^(1+k) q^(k+l-1) of t8 and t10
    # truncates to zero; the triple is refused there with a ValueError that
    # names delta and the smallest valid N, instead of a division by zero
    for delta in admissible_range(60):
        if delta < 4:
            continue
        disc = humbert_params(delta)
        smallest = max(4, disc.k + 2)
        assert rosenhain_triple(disc, smallest).precision == smallest
        with pytest.raises(ValueError) as info:
            rosenhain_triple(disc, smallest - 1)
        assert ("delta=%d" % delta) in str(info.value)
        assert ("smallest valid N is %d" % smallest) in str(info.value)


def test_small_precision_example_runs():
    triple = rosenhain_triple(humbert_params(12), 8)
    assert triple.precision == 8
    for f in triple.series():
        assert f.constant_term() == 1


@pytest.mark.parametrize("delta", DISCS)
def test_distinctness_at_adequate_precision(delta):
    # at high enough precision the three invariants and the constants
    # 0 and 1 are pairwise distinguishable in the truncated ring
    triple = rosenhain_triple(humbert_params(delta), 60)
    e1, e2, e3 = triple.series()
    one = TruncatedSeries.one(60)
    assert e1 != e2 and e1 != e3 and e2 != e3
    assert e1 != one and e2 != one and e3 != one


def test_truncation_consistency_across_precision():
    # recomputing at lower precision must agree with truncating
    disc = humbert_params(5)
    hi = rosenhain_triple(disc, 40)
    lo = rosenhain_triple(disc, 24)
    for f, g in zip(hi.series(), lo.series()):
        cut = TruncatedSeries(
            {k: c for k, c in f.terms.items() if k[0] < 24 and k[1] < 24},
            24)
        assert cut == g


def _truncation_cases():
    for delta in (4, 5, 8, 9, 12, 13):
        k = humbert_params(delta).k
        for n in range(max(4, k + 2), 41):
            yield delta, n
    # the precisions of the automatic searches
    for delta, n in ((5, 60), (5, 76), (8, 76), (12, 60), (12, 76),
                     (13, 76)):
        yield delta, n


def test_triple_is_the_truncation_of_a_longer_one():
    # the triple at N is the image of the triple at N + 8, for every
    # precision: t8 and t10 are divided by p^(1+k) q^(k+l-1), so their
    # expansions must reach past N
    for delta, n in _truncation_cases():
        disc = humbert_params(delta)
        hi = rosenhain_triple(disc, n + 8)
        cut = tuple(e.truncate(n) for e in hi.series())
        assert rosenhain_triple(disc, n).series() == cut, (delta, n)


def test_rosenhain_ratio_is_formed_in_integers():
    # t8 and t10 have even coefficients, so the halved quotients have unit
    # constant terms; a series only holds ints, so an intermediate Fraction
    # would raise TypeError before the triple is built
    for delta in (4, 5, 8, 12):
        triple = rosenhain_triple(humbert_params(delta), 40)
        for f in triple.series():
            assert all(type(c) is int for c in f.terms.values())


@pytest.mark.parametrize("index, term", [(8, (2, 0)), (10, (9, 9))])
def test_t8_or_t10_outside_the_halved_ideal_is_a_violation(monkeypatch,
                                                           index, term):
    # Delta = 5 (i0, j0 = 2, 1): a term below p^2 q^1 of t8, or an odd
    # coefficient of t10, is an IntegralityViolation
    theta = rosenhain.restricted_theta

    def broken(char, disc, precision):
        f = theta(char, disc, precision)
        if char == ThetaChar.from_index(index):
            f = f + TruncatedSeries({term: 1}, precision)
        return f
    monkeypatch.setattr(rosenhain, "restricted_theta", broken)
    with pytest.raises(rosenhain.IntegralityViolation,
                       match="t%d has the term" % index):
        rosenhain_triple(humbert_params(5), 20)


def test_triple_is_one_exact_grid_pass(monkeypatch):
    # three unit inversions, then one `_exact_grid` call for all nine
    # products: one majorant pass, one residue pass at three primes (the
    # widest single product's count at Delta = 5, N = 84) and one CRT,
    # and no series product
    calls = {"exact_grid": 0, "inverse": 0, "passes": [], "crt": []}
    exact_grid, inverse = rosenhain._exact_grid, TruncatedSeries.inverse
    crt = series._crt_symmetric

    def spy_exact_grid(maps, n, compute):
        calls["exact_grid"] += 1

        def spy_compute(grid, weight, mods):
            calls["passes"].append(None if mods is None else mods.size)
            return compute(grid, weight, mods)
        return exact_grid(maps, n, spy_compute)

    def spy_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def spy_crt(residues, primes, bound):
        calls["crt"].append(len(primes))
        return crt(residues, primes, bound)

    def no_product(self, other):
        raise AssertionError("a series product outside the grid pass")
    monkeypatch.setattr(rosenhain, "_exact_grid", spy_exact_grid)
    monkeypatch.setattr(TruncatedSeries, "inverse", spy_inverse)
    monkeypatch.setattr(series, "_crt_symmetric", spy_crt)
    monkeypatch.setattr(TruncatedSeries, "__mul__", no_product)
    for k, delta in enumerate((4, 5, 8, 12, 13), 1):
        rosenhain_triple(humbert_params(delta), 84)
        assert (calls["exact_grid"], calls["inverse"]) == (k, 3 * k)
    calls.update(passes=[], crt=[])
    rosenhain_triple(humbert_params(5), 84)
    assert calls["passes"] == [None, 3]
    assert calls["crt"] == [3]


def _triple_bound(norms):
    """The l1 bound max(ab, bc, ac)^2 on e1, e2, e3 from the l1 norms of
    t1, 1/t2, t3, 1/t4, s8, 1/s10; a = |t1|_1 |1/t2|_1."""
    a, b, c = map(math.prod, zip(norms[::2], norms[1::2]))
    return max(a * b, b * c, a * c) ** 2


def test_triple_bound_past_the_float_range(monkeypatch):
    # a nan float64 majorant forces the exact pass on the l1 norms of the
    # six operands: its bound is max(ab, bc, ac)^2, and the triple is the
    # one the majorant's bound gives
    disc = humbert_params(5)
    want = rosenhain_triple(disc, 40)
    norms, bounds = [], []
    exact_grid, crt = rosenhain._exact_grid, series._crt_symmetric

    def spy_exact_grid(maps, n, compute):
        norms.extend(sum(map(abs, e.values())) for e in maps)

        def no_majorant(grid, weight, mods):
            outs = compute(grid, weight, mods)
            if outs[0].dtype == np.float64 and mods is None:
                outs[0][...] = np.nan
            return outs
        return exact_grid(maps, n, no_majorant)

    def spy_crt(residues, primes, bound):
        bounds.append(bound)
        return crt(residues, primes, bound)
    monkeypatch.setattr(rosenhain, "_exact_grid", spy_exact_grid)
    monkeypatch.setattr(series, "_crt_symmetric", spy_crt)
    assert rosenhain_triple(disc, 40) == want
    assert bounds == [_triple_bound(norms)]


def test_triple_refuses_a_discriminant_that_is_an_int():
    with pytest.raises(TypeError):
        rosenhain_triple(5, 24)
