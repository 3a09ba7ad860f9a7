"""Component counts and degree bookkeeping for Humbert surfaces.

m(Delta) is the number of components in the level-2 Satake compactification;
a_Delta is the Siegel coefficient tying the component polynomial degrees
together through the recursion

    a_Delta = sum over x > 0 with Delta/x^2 admissible of
              m(Delta/x^2) * deg_fstar(Delta/x^2).

sigma1(0) = 0 by convention: it is the unique choice under which the Siegel
formula and the recursion reproduce the known degree table.
"""

import math
from functools import lru_cache

from .theta import humbert_params


def sigma1(n):
    """Sum of positive divisors; sigma1(0) = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
        d += 1
    return total


def m_components(delta):
    """Number of Humbert components at level 2: 10 / 15 / 6 by congruence."""
    humbert_params(delta)  # admissibility check
    if delta % 8 == 1:
        return 10
    if delta % 4 == 0:
        return 15
    return 6  # delta = 5 mod 8


def _is_square(n):
    r = math.isqrt(n)
    return r * r == n


def a_delta(delta):
    """Siegel's coefficient, by the elementary divisor-sum formula."""
    humbert_params(delta)
    total = 0
    x = -math.isqrt(delta)
    while x * x <= delta:
        rem = delta - x * x
        if rem % 4 == 0:
            total += sigma1(rem // 4)
        x += 1
    total *= 24
    if _is_square(delta):
        total += 12 * delta - 2
    return total


class NonIntegralDegree(ArithmeticError):
    """The degree recursion failed to produce a positive integer."""


@lru_cache(maxsize=None)
def deg_fstar(delta):
    """Degree of a component polynomial in the Satake compactification."""
    humbert_params(delta)
    rest = 0
    x = 2
    while x * x <= delta:
        if delta % (x * x) == 0:
            sub = delta // (x * x)
            if sub % 4 in (0, 1):
                rest += m_components(sub) * deg_fstar(sub)
        x += 1
    num = a_delta(delta) - rest
    m = m_components(delta)
    if num <= 0 or num % m:
        raise NonIntegralDegree("recursion inconsistent at delta=%d" % delta)
    return num // m


class SpecialCase(ValueError):
    """Delta = 1 degrees are bracketed as special (formula would give 0)."""


def deg_conjectured(delta):
    """Conjectured degree of the affine component polynomial.

    Equals deg_fstar for nonsquare discriminants; for Delta = n^2 the
    conjecture is (1 - 1/n) * deg_fstar.  Conjectural, not proved.
    """
    humbert_params(delta)
    if delta == 1:
        raise SpecialCase("delta=1 is special; no affine degree is assigned")
    d = deg_fstar(delta)
    if _is_square(delta):
        n = math.isqrt(delta)
        val = d * (n - 1)
        if val % n:
            raise NonIntegralDegree("conjectured degree not integral")
        return val // n
    return d


def admissible_range(max_delta):
    """Admissible discriminants up to max_delta, ascending."""
    return [d for d in range(1, max_delta + 1) if d % 4 in (0, 1)]


def degree_table(max_delta):
    """Rows (delta, m, a_delta, deg_fstar, deg_conjectured-or-None)."""
    rows = []
    for d in admissible_range(max_delta):
        try:
            conj = deg_conjectured(d)
        except SpecialCase:
            conj = None
        rows.append((d, m_components(d), a_delta(d), deg_fstar(d), conj))
    return rows
