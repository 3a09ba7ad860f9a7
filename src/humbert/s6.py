"""The S6 action on Rosenhain coordinates.

A permutation of the six Weierstrass symbols (0, 1, inf, e1, e2, e3) acts on
a level-2 point by permuting the tuple and renormalising the first three
coordinates back to (0, 1, inf) with the unique Moebius transformation

    mu(x) = (x - u1)(u2 - u3) / ((x - u3)(u2 - u1)),

evaluated projectively so that inf needs no special casing: each symbol is a
point (x0 : x1), with inf = (1 : 0), and each difference a - b is the
determinant a0 b1 - b0 a1.  The images of the last three coordinates give a
triple of rational functions in e1, e2, e3.
"""

import math
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .degrees import SpecialCase
from .poly import (DegenerateOnly, _dense, _stripped, _z_tables, raw_mul,
                   strip_degenerate_factors)
from .series import InputError
from .theta import humbert_params

SYMBOLS = ("0", "1", "inf", "e1", "e2", "e3")


class Perm6:
    """A bijection of the six symbols, stored as the indices of its images."""

    __slots__ = ("_index",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != sorted(SYMBOLS):
            raise InputError("not a permutation of %r" % (SYMBOLS,))
        self._index = tuple(map(SYMBOLS.index, images))

    @classmethod
    def _of(cls, index):  # from an index tuple, taken as valid
        out = object.__new__(cls)
        out._index = index
        return out

    @classmethod
    def identity(cls):
        return cls(SYMBOLS)

    @classmethod
    def parse(cls, text):
        """Parse cycle notation like "(0,e1,e3,inf,e2,1)(...)"."""
        text = text.replace(" ", "")
        if text in ("", "()", "id"):
            return cls.identity()
        mapping = {}
        pos = 0
        while pos < len(text):
            if text[pos] != "(":
                raise InputError("expected '(' at %d in %r" % (pos, text))
            end = text.find(")", pos)
            if end < 0:
                raise InputError("unbalanced cycle in %r" % (text,))
            cyc = text[pos + 1:end].split(",")
            # each symbol is checked as it enters, so a repeat within one
            # cycle is caught like a repeat across cycles
            for s, image in zip(cyc, cyc[1:] + cyc[:1]):
                if s not in SYMBOLS:
                    raise InputError("unknown symbol %r" % (s,))
                if s in mapping:
                    raise InputError("symbol %r repeated" % (s,))
                mapping[s] = image
            pos = end + 1
        return cls(mapping.get(s, s) for s in SYMBOLS)

    def __call__(self, symbol):
        return SYMBOLS[self._index[SYMBOLS.index(symbol)]]

    def __mul__(self, other):
        # (self * other)(x) = self(other(x))
        return Perm6._of(tuple(map(self._index.__getitem__, other._index)))

    def inverse(self):
        return Perm6._of(tuple(map(self._index.index, range(6))))

    def __eq__(self, other):
        if not isinstance(other, Perm6):
            return NotImplemented
        return self._index == other._index

    def __hash__(self):
        return hash(self._index)

    def cycles(self):
        out, seen = [], set()
        for k in range(6):
            cyc = [k]
            while (j := self._index[cyc[-1]]) != k:
                cyc.append(j)
            if len(cyc) > 1 and k not in seen:
                seen.update(cyc)
                out.append(tuple(map(SYMBOLS.__getitem__, cyc)))
        return out

    def __repr__(self):
        return "Perm6(%s)" % (str(self),)

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(%s)" % ",".join(c) for c in cycs)


def all_perms():
    """All 720 permutations, in a fixed deterministic order."""
    return [Perm6._of(p) for p in permutations(range(6))]


def mulclose(gens):
    """Closure of a generator list under composition (breadth-first)."""
    els = {Perm6.identity()}
    boundary = list(els)
    gens = list(gens)
    while boundary:
        new = []
        for g in gens:
            for b in boundary:
                c = g * b
                if c not in els:
                    els.add(c)
                    new.append(c)
        boundary = new
    return els


# -- the induced rational maps ------------------------------------------

# each symbol as a projective point (x0 : x1) of integer term maps, with
# inf = (1 : 0)
_ONE = {(0, 0, 0): 1}
_POINT = {
    "0": ({}, _ONE),
    "1": (_ONE, _ONE),
    "inf": (_ONE, {}),
    "e1": ({(1, 0, 0): 1}, _ONE),
    "e2": ({(0, 1, 0): 1}, _ONE),
    "e3": ({(0, 0, 1): 1}, _ONE),
}


def _det(a, b):
    """a0 b1 - b0 a1, which is a - b when both points are finite."""
    out = raw_mul(a[0], b[1])
    for k, v in raw_mul(b[0], a[1]).items():
        out[k] = out.get(k, 0) - v
    return out


def induced_map(sigma):
    """The rational-function triple induced by a symbol permutation.

    Three (num, den) pairs of integer term maps, one per e-coordinate.  Each
    factor of mu(x) is a 2x2 determinant of projective points; a determinant
    with inf in it is +-1, and the two of them in one cross-ratio are equal,
    so they cancel as the limit 1 would.  The surviving factors are the
    constant +-1 or distinct degenerate-locus linear forms, so num and den
    share no factor.  Their joint content and sign are left as they come:
    scaling num_i and den_i together by g scales the cleared polynomial of
    `act` by g^(d_i), which its canonical form divides out.
    """
    u1, u2, u3, *xs = (_POINT[sigma(s)] for s in SYMBOLS)
    pairs = []
    for x in xs:
        num = raw_mul(_det(x, u1), _det(u2, u3))
        den = raw_mul(_det(x, u3), _det(u2, u1))
        if not num or not den:
            # the six symbols are pairwise distinct, so mu can send an
            # e-coordinate to 0 or inf only when sigma moves it onto one of
            # the renormalised slots -- which the tuple layout rules out
            raise AssertionError("cross-ratio image degenerated")
        pairs.append((num, den))
    return tuple(pairs)


class ContractionPlan(NamedTuple):
    """mats[i] is M_i, M_i[e, k] the coefficient in z_i[e] of monomial k of
    table i, int64 when norm < 2^63 and object otherwise; norm, prod_i max_e
    |z_i[e]|_1, bounds every entry.  scatter[i], on axis i, holds the
    row-major indices of table i's monomials in the box `shape`: they are
    linear in the exponents, so sum(scatter) indexes every cell (209,000 on
    average for h12, too many to keep).  Plans are cached: read only."""

    scatter: tuple
    mats: tuple
    norm: int
    shape: tuple


@lru_cache(maxsize=4096)
def contraction_plan(sigma, degrees):
    """The `ContractionPlan` of sigma's induced map at the degrees d_i of
    F.  With z_i[e] = num_i^e den_i^(d_i - e) the tables of `_z_tables`,
    prod_i den_i^d_i F(phi) is F's dense tensor contracted with M_1, M_2
    and M_3, the cells whose monomial products coincide summed."""
    z = _z_tables(induced_map(sigma), degrees)
    supports = [sorted(set().union(*table)) for table in z]
    _, n2, n3 = shape = tuple(sum(max(k[v] for k in s) for s in supports) + 1
                              for v in range(3))
    scatter = tuple(np.array([(a * n2 + b) * n3 + c for a, b, c in s]
                             ).reshape((-1,) + (1,) * (2 - i))
                    for i, s in enumerate(supports))
    norm = math.prod(max(sum(map(abs, t.values())) for t in table)
                     for table in z)
    dtype = np.int64 if norm < 2 ** 63 else object
    # each read from one flat list: converting nested lists touches another
    # 64 KB of numpy's code, which shows in the peak RSS
    mats = tuple(np.array([t.get(k, 0) for t in table for k in s],
                          dtype=dtype).reshape(len(table), -1)
                 for s, table in zip(supports, z))
    return ContractionPlan(scatter, mats, norm, shape)


def act(sigma, poly):
    """Pull a component polynomial through the induced coordinate change:
    F x_1 M_1 x_2 M_2 x_3 M_3 of sigma's `contraction_plan`, each product
    contracting the leading axis, then one `np.add.at` of the cells into
    the plan's box, which `_stripped` strips of the degenerate factors that
    clearing the denominators brings in.  All in int64 when |F|_1 * norm <
    2^63, a bound on every partial sum and on the box's l1, else on Python
    ints, the matrices widened exactly as no entry passes the norm."""
    plan = contraction_plan(sigma, poly.degrees)
    mats = plan.mats
    if sum(map(abs, poly.terms.values())) * plan.norm >= 2 ** 63:
        mats = [m.astype(object) for m in mats]
    t = _dense(poly.terms, poly.degrees, mats[0].dtype)
    for m in mats:
        t = t.reshape(len(m), -1).T @ m
    box = np.zeros(plan.shape, t.dtype)
    np.add.at(box.reshape(-1), sum(plan.scatter).ravel(), t.reshape(-1))
    return _stripped(box)


# the cheapest generating pair of S6 measured: (e1,e2) swaps e1 and e2, and
# (0,inf,e3,e2,1) sends e1, e2, e3 to e3/(e3 - e1), e3/(e3 - 1), e3/(e3 - e2),
# a monomial over one binomial each.  On h12's orbit one act of each costs
# 0.19 and 0.20 ms, against 0.19 ms for (0,1) and 0.82 ms for the 6-cycle,
# whose cells share monomials (best of 5, 2-core x86-64, 30% spread).
_S6_GENERATORS = (Perm6.parse("(e1,e2)"), Perm6.parse("(0,inf,e3,e2,1)"))


def orbit_and_stabilizer(poly):
    """The S6 orbit and the stabilizer of a component polynomial, as sets.

    One breadth-first search from root = strip_degenerate_factors(poly) =
    act(identity, poly) under _S6_GENERATORS, the fewest (two) that generate
    S6 and the cheapest pair to act with.  rep maps each image y to a
    permutation with act(rep[y], root) == y; a step onto a known image gives
    the Schreier generator rep[y]^-1 * g * rep[x], and these generate the
    stabilizer of root (Schreier's lemma).  As act(s * t, f) == act(s,
    act(t, f)), a new image y = act(g, x) has the reverse edge act(g^-1, y)
    == x, read, not acted, when g^-1 is a generator: 2m acts for m images,
    less one per image first reached by the self-inverse (e1,e2).  A
    constant gives (set(), all 720); a degenerate-only poly (set(), set());
    a non-canonical poly the orbit of its canonical form and an empty
    stabilizer.
    """
    return _search(poly, True)


def _search(poly, stabilizer):
    """orbit_and_stabilizer, with Schreier generators only if `stabilizer`."""
    if poly.degree() == 0:
        return set(), set(all_perms())
    try:
        root = strip_degenerate_factors(poly)
    except DegenerateOnly:
        return set(), set()
    rep = {root: Perm6.identity()}
    schreier = []
    boundary = [(root, None, None)]  # (x, g with act(g, x) known, that act)
    while boundary:
        new = []
        for x, known, back in boundary:
            for g in _S6_GENERATORS:
                y = back if g == known else act(g, x)
                h = g * rep[x]
                if y not in rep:
                    rep[y] = h
                    new.append((y, g.inverse(), x))
                elif stabilizer and h != rep[y]:
                    schreier.append(rep[y].inverse() * h)
        boundary = new
    if not stabilizer or root != poly:
        return set(rep), set()
    return set(rep), mulclose(schreier)


def orbit(poly):
    """The orbit half of orbit_and_stabilizer(poly), with no closure."""
    return _search(poly, False)[0]


def fixed_group(poly):
    """The stabilizer half of orbit_and_stabilizer(poly)."""
    return _search(poly, True)[1]


# generator sets quoted from the fixed-group classification
_G_EVEN = ["(0,e1,e3,inf,e2,1)", "(e1,e2)", "(1,e1,e3,e2)"]
_CONJ_EVEN = "(1,inf)(e1,e2,e3)"
_GENS_1MOD8 = ["(0,e1)(1,e2)(inf,e3)", "(1,inf)", "(e1,e2)", "(e2,e3)"]
_GENS_5MOD8 = ["(0,e1)(1,e2)(inf,e3)", "(1,e3,e2,e1,inf)", "(inf,e1,e3,e2)"]


def paper_generators(delta):
    """Fixed-group generators for the component h_Delta, by congruence class.

    Even Delta = 4k: the order-48 group G for odd k, its conjugate by
    g = (1,inf)(e1,e2,e3) for even k.  Under the composition convention
    (sigma * tau)(x) = sigma(tau(x)) used here, the conjugate that fixes
    the even-k components is g * h * g^-1.  Delta = 1 mod 8 gives an
    order-72 group, Delta = 5 mod 8 an order-120 group.
    """
    disc = humbert_params(delta)
    if delta == 1:
        raise SpecialCase("delta=1 fixed group is special")
    if delta % 4 == 0:
        gens = [Perm6.parse(s) for s in _G_EVEN]
        if disc.k % 2 == 0:
            g = Perm6.parse(_CONJ_EVEN)
            ginv = g.inverse()
            gens = [g * h * ginv for h in gens]
        return gens
    if delta % 8 == 1:
        return [Perm6.parse(s) for s in _GENS_1MOD8]
    return [Perm6.parse(s) for s in _GENS_5MOD8]
