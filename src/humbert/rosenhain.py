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

import functools
import math
from dataclasses import dataclass

from .series import (TruncatedSeries, _exact_grid, _grid, _grid_product,
                     _toeplitz)
from .theta import Discriminant, NotAdmissible, ThetaChar, restricted_theta


class IntegralityViolation(ArithmeticError):
    """t8 or t10 has an odd coefficient, or some e_i has a constant term
    other than 1 (a bug)."""


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
    """A ValueError naming smallest_precision(disc) if N is below it."""
    smallest = smallest_precision(disc)
    if precision < smallest:
        raise ValueError("precision N=%d is too small for delta=%d; the "
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
    # t[8] and t[10] hold s8 and s10: cancel the ideal factor p^i0 q^j0 of
    # t8, t10 before squaring.  The quotient of an expansion to N + i0 is
    # exact below N (j0 <= i0), and is cut there; then halve it
    i0, j0 = 1 + disc.k, disc.k + disc.ell - 1
    for i in (8, 10):
        u = restricted_theta(ThetaChar.from_index(i), disc, precision + i0)
        u = u.divide_monomial(i0, j0).truncate(precision)
        if any(c % 2 for c in u.terms.values()):
            raise IntegralityViolation("t%d has an odd coefficient" % i)
        t[i] = TruncatedSeries({k: c // 2 for k, c in u.terms.items()},
                               precision)
    maps = []
    for top, bottom in ((1, 2), (3, 4), (8, 10)):
        maps += [t[top].terms, t[bottom].inverse().terms]
    triple = _exact_grid(maps, precision,
                         functools.partial(_triple_grids, maps), _triple_bound)
    for name, e in zip(("e1", "e2", "e3"), triple):
        if e.constant_term() != 1:
            raise IntegralityViolation("%s has constant term %r, expected 1"
                                       % (name, e.constant_term()))
    return RosenhainSeries(*triple, disc, precision)


def _triple_grids(maps, s, m, weight, mods):
    """e1, e2, e3 from the maps of t1, 1/t2, t3, 1/t4, s8, 1/s10 in nine
    `series._exact_grid` products: the quotients (the sparse theta series
    the factor), their squares A, B and C, then A B, B C and A C."""

    def mul(acc, grid):
        return _grid_product(acc, _toeplitz(grid), mods)
    squares = []
    for top, inverse in zip(maps[::2], maps[1::2]):
        r = mul(_grid(inverse, s, m, weight), _grid(top, s, m, weight))
        squares.append(mul(r, r))
    a, b, c = squares
    return mul(a, b), mul(b, c), mul(a, c)


def _triple_bound(norms):
    """The l1 bound max(ab, bc, ac)^2 on e1, e2, e3; a = |t1|_1 |1/t2|_1."""
    a, b, c = map(math.prod, zip(norms[::2], norms[1::2]))
    return max(a * b, b * c, a * c) ** 2
