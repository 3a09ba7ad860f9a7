"""Restricted Fourier expansions of Gaudry's Rosenhain triple on H_Delta.

    e1 = t1^2 t3^2 / (t2^2 t4^2)
    e2 = t3^2 t8^2 / (t4^2 t10^2)
    e3 = t1^2 t8^2 / (t2^2 t10^2)

t8 and t10 lie in the monomial ideal (p^(1+k) q^(k+l-1)), so the squared
ratio t8^2/t10^2 is computed by exact monomial cancellation followed by a
unit inversion.  Every coefficient of t8 and t10 is even (the lattice terms
pair up under (x1, x2) -> (-1-x1, -1-x2) with equal exponents and signs, and
no term is its own partner), so the halved quotients s8 and s10 are integer
series with constant terms 1 and -1, and t8^2/t10^2 = s8^2 (s10^2)^-1 is
formed in integers.
"""

from dataclasses import dataclass

from .series import TruncatedSeries
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
    smallest = smallest_precision(disc)
    if precision < smallest:
        raise ValueError("precision N=%d is too small for delta=%d; the "
                         "smallest valid N is %d"
                         % (precision, disc.delta, smallest))
    th = {i: restricted_theta(ThetaChar.from_index(i), disc, precision)
          for i in (1, 2, 3, 4)}
    sq = {i: t * t for i, t in th.items()}
    # cancel the ideal factor p^i0 q^j0 of t8, t10 before squaring.  The
    # quotient of an expansion to N + i0 is exact below N (j0 <= i0), and is
    # cut there; then halve it
    i0, j0 = 1 + disc.k, disc.k + disc.ell - 1
    half = {}
    for i in (8, 10):
        u = restricted_theta(ThetaChar.from_index(i), disc, precision + i0)
        u = u.divide_monomial(i0, j0).truncate(precision)
        if any(c % 2 for c in u.terms.values()):
            raise IntegralityViolation("t%d has an odd coefficient" % i)
        half[i] = TruncatedSeries({k: c // 2 for k, c in u.terms.items()},
                                  precision)
    # s10^2 has constant term (-1)^2 = 1, so its inverse is integral
    ratio = half[8] * half[8] * (half[10] * half[10]).inverse()
    e1 = sq[1] * sq[3] * (sq[2] * sq[4]).inverse()
    e2 = sq[3] * ratio * sq[4].inverse()
    e3 = sq[1] * ratio * sq[2].inverse()
    triple = (e1, e2, e3)
    for name, e in zip(("e1", "e2", "e3"), triple):
        if e.constant_term() != 1:
            raise IntegralityViolation("%s has constant term %r, expected 1"
                                       % (name, e.constant_term()))
    return RosenhainSeries(e1, e2, e3, disc, precision)
