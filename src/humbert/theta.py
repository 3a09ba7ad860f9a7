"""Fourier expansions of the six even theta constants restricted to H_Delta.

After the substitution r = pq the restricted expansion of theta_{abcd} is

    sum over (x1, x2) in Z^2 of
        (-1)^(x1*c + x2*d) * p^((2x1+a)^2 + k(2x2+b)^2)
                           * q^((2x1+a+2x2+b)^2 + (k+l-1)(2x2+b)^2)

with Delta = 4k + l, l in {0, 1}.  All coefficients are integers.
"""

import math
from dataclasses import dataclass

from .series import InputError, TruncatedSeries


class NotAdmissible(InputError):
    """Discriminant is not congruent to 0 or 1 mod 4 (or not positive)."""


@dataclass(frozen=True)
class Discriminant:
    delta: int
    k: int
    ell: int

    def __post_init__(self):
        if self.delta <= 0 or self.delta % 4 not in (0, 1):
            raise NotAdmissible("delta must be positive and = 0, 1 mod 4")
        if self.delta != 4 * self.k + self.ell or self.ell not in (0, 1):
            raise InputError("inconsistent decomposition delta = 4k + ell")


def humbert_params(delta):
    """Decompose an admissible discriminant as delta = 4k + ell, ell in {0,1}."""
    if delta <= 0 or delta % 4 not in (0, 1):
        raise NotAdmissible("delta=%r is not admissible" % (delta,))
    ell = delta % 4
    return Discriminant(delta, (delta - ell) // 4, ell)


# the six even theta constants used throughout, by classical index
THETA_CHARS = {
    1: (0, 0, 0, 0),
    2: (0, 0, 1, 1),
    3: (0, 0, 1, 0),
    4: (0, 0, 0, 1),
    8: (1, 1, 0, 0),
    10: (1, 1, 1, 1),
}

_ALLOWED = frozenset(THETA_CHARS.values())


@dataclass(frozen=True)
class ThetaChar:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if (self.a, self.b, self.c, self.d) not in _ALLOWED:
            raise InputError(
                "unsupported characteristic %r; only the six even "
                "characteristics 0000, 0011, 0010, 0001, 1100, 1111 are used"
                % ((self.a, self.b, self.c, self.d),))

    @classmethod
    def from_index(cls, idx):
        return cls(*THETA_CHARS[idx])

    @classmethod
    def from_string(cls, s):
        if len(s) != 4 or set(s) - {"0", "1"}:
            raise InputError("characteristic must be four bits, e.g. 1100")
        return cls(*(int(ch) for ch in s))


def enumerate_lattice(char, disc, precision):
    """Yield (x1, x2, sign, p_exp, q_exp) for all terms below the truncation.

    For k >= 1 both coordinates are bounded by the p-exponent.  For k = 0
    (only Delta = 1) the second q-term vanishes, so x1 is bounded by the
    p-exponent and x2, per x1, by the q-exponent.
    """
    a, b, c, d = char.a, char.b, char.c, char.d
    k, ell = disc.k, disc.ell
    n = precision
    kl = k + ell - 1

    def x_range(coef, off):
        # all x with coef*(2x+off)^2 < n, that is |2x + off| <= r, ascending
        r = math.isqrt((n - 1) // coef)
        return range((-r - off + 1) // 2, (r - off) // 2 + 1)

    if n < 1:
        return  # nothing lies below the truncation

    for x1 in x_range(1, a):
        u = 2 * x1 + a
        # Delta = 1: the q-exponent reduces to (u+v)^2 and must bound x2
        for x2 in x_range(k, b) if k else x_range(1, u + b):
            v = 2 * x2 + b
            p_exp = u * u + k * v * v
            if p_exp >= n:
                continue
            q_exp = (u + v) ** 2 + kl * v * v
            if q_exp >= n:
                continue
            sign = -1 if (x1 * c + x2 * d) % 2 else 1
            yield (x1, x2, sign, p_exp, q_exp)


def restricted_theta(char, disc, precision):
    """The restricted Fourier expansion as a TruncatedSeries."""
    terms = {}
    for _, _, sign, i, j in enumerate_lattice(char, disc, precision):
        terms[(i, j)] = terms.get((i, j), 0) + sign
    return TruncatedSeries(terms, precision)
