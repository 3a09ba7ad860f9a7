"""Restricted Fourier expansions of Gaudry's Rosenhain triple on H_Delta.

With the three squared quotients A = (t1/t2)^2, B = (t3/t4)^2 and
C = (t8/t10)^2,

    e1 = A B = t1^2 t3^2 / (t2^2 t4^2)
    e2 = B C = t3^2 t8^2 / (t4^2 t10^2)
    e3 = A C = t1^2 t8^2 / (t2^2 t10^2)

t8 and t10 lie in the monomial ideal (p^(1+k) q^(k+l-1)), so C is computed
after exact monomial cancellation.  Every coefficient of t8 and t10 is even
(the lattice terms pair up under (x1, x2) -> (-1-x1, -1-x2) with equal
exponents and signs, and no term is its own partner), so s8 and s10, the
cancelled series halved, are integer series with constant terms 1 and -1,
and C = (s8/s10)^2.  t2, t4 and s10 have constant term +-1, so each is a unit;
after their three inversions the triple is formed in integers by one exact
grid pass (`series._exact_grid`): nine products, one majorant, one residue
pass and one CRT.
"""

from dataclasses import dataclass

from .series import (InputError, TruncatedSeries, _exact_grid, _grid_product,
                     _toeplitz)
from .theta import Discriminant, NotAdmissible, ThetaChar, restricted_theta


class IntegralityViolation(ArithmeticError):
    """t8 or t10 has a term outside 2 p^(1+k) q^(k+l-1) Z[[p,q]], or some
    e_i has a constant term other than 1 (a bug)."""


@dataclass(frozen=True)
class RosenhainSeries:
    e1: TruncatedSeries
    e2: TruncatedSeries
    e3: TruncatedSeries
    disc: Discriminant
    precision: int

    def series(self):
        return (self.e1, self.e2, self.e3)


def smallest_precision(disc):
    """The smallest valid N, max(4, k + 2).

    At N = k + 2 the first term p^(1+k) of t8 and t10 lies below N; the bound
    guards no division (rosenhain_triple expands t8 and t10 past N).
    """
    return max(4, disc.k + 2)


def check_precision(disc, precision):
    """An InputError naming smallest_precision(disc) if N is below it."""
    smallest = smallest_precision(disc)
    if precision < smallest:
        raise InputError("precision N=%d is too small for delta=%d; the "
                         "smallest valid N is %d"
                         % (precision, disc.delta, smallest))


def rosenhain_triple(disc, precision):
    """Compute (e1, e2, e3) on H_Delta to the given per-variable precision.

    Delta = 1 is rejected: there k + l - 1 = 0 and the monomial-cancellation
    bookkeeping degenerates.  The precision must be at least
    smallest_precision(disc).
    """
    if not isinstance(disc, Discriminant):
        raise TypeError("disc must be a Discriminant")
    if disc.delta < 4:
        raise NotAdmissible("rosenhain_triple requires delta >= 4")
    check_precision(disc, precision)
    t = {i: restricted_theta(ThetaChar.from_index(i), disc, precision)
         for i in (1, 2, 3, 4)}
    # t[8] and t[10] hold s8 and s10: t8, t10 over 2 p^i0 q^j0, in one
    # pass over their expansions to N + i0, whose quotients are exact below
    # N (j0 <= i0) and are cut there
    i0, j0 = 1 + disc.k, disc.k + disc.ell - 1
    for i in (8, 10):
        half = {}
        for (a, b), c in restricted_theta(ThetaChar.from_index(i), disc,
                                          precision + i0).terms.items():
            if a < i0 or b < j0 or c % 2:
                raise IntegralityViolation("t%d has the term %d p^%d q^%d "
                                           "outside 2 p^%d q^%d Z[[p,q]]"
                                           % (i, c, a, b, i0, j0))
            half[(a - i0, b - j0)] = c // 2
        t[i] = TruncatedSeries(half, precision)
    maps = []
    for top, bottom in ((1, 2), (3, 4), (8, 10)):
        maps += [t[top].terms, t[bottom].inverse().terms]
    triple = _exact_grid(maps, precision, _triple_grids)
    for name, e in zip(("e1", "e2", "e3"), triple):
        if e.constant_term() != 1:
            raise IntegralityViolation("%s has constant term %r, expected 1"
                                       % (name, e.constant_term()))
    return RosenhainSeries(*triple, disc, precision)


def _triple_grids(grid, weight, mods):
    """e1, e2, e3 from the grids of t1, 1/t2, t3, 1/t4, s8, 1/s10 in nine
    `series._exact_grid` products: the quotients (the sparse theta series
    the factor), their squares A, B and C, then A B, B C and A C."""

    def mul(acc, factor):
        return _grid_product(acc, _toeplitz(factor), mods)
    squares = []
    for top in (0, 2, 4):
        r = mul(grid(top + 1), grid(top))
        squares.append(mul(r, r))
    a, b, c = squares
    return mul(a, b), mul(b, c), mul(a, c)

