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

from .degrees import SpecialCase
from .poly import (DegenerateOnly, _grlex_key, raw_add, raw_mul,
                   substitute_rational)
from .theta import humbert_params

SYMBOLS = ("0", "1", "inf", "e1", "e2", "e3")


class Perm6:
    """A bijection of the six symbols, stored as an image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != sorted(SYMBOLS):
            raise ValueError("not a permutation of %r" % (SYMBOLS,))
        self.images = images

    @classmethod
    def identity(cls):
        return cls(SYMBOLS)

    @classmethod
    def from_mapping(cls, mapping):
        return cls(tuple(mapping.get(s, s) for s in SYMBOLS))

    @classmethod
    def from_cycles(cls, cycles):
        """Build from cycle notation, e.g. [("0", "e1"), ("1", "e2")]."""
        mapping = {}
        for cyc in cycles:
            for s in cyc:
                if s not in SYMBOLS:
                    raise ValueError("unknown symbol %r" % (s,))
                if s in mapping:
                    raise ValueError("symbol %r repeated" % (s,))
            for i, s in enumerate(cyc):
                mapping[s] = cyc[(i + 1) % len(cyc)]
        return cls.from_mapping(mapping)

    @classmethod
    def parse(cls, text):
        """Parse cycle notation like "(0,e1,e3,inf,e2,1)(...)"."""
        text = text.replace(" ", "")
        if text in ("", "()", "id"):
            return cls.identity()
        cycles = []
        pos = 0
        while pos < len(text):
            if text[pos] != "(":
                raise ValueError("expected '(' at %d in %r" % (pos, text))
            end = text.find(")", pos)
            if end < 0:
                raise ValueError("unbalanced cycle in %r" % (text,))
            cyc = tuple(text[pos + 1:end].split(","))
            cycles.append(cyc)
            pos = end + 1
        return cls.from_cycles(cycles)

    def __call__(self, symbol):
        return self.images[SYMBOLS.index(symbol)]

    def __mul__(self, other):
        # (self * other)(x) = self(other(x))
        return Perm6(tuple(self(other(s)) for s in SYMBOLS))

    def inverse(self):
        mapping = {img: s for s, img in zip(SYMBOLS, self.images)}
        return Perm6.from_mapping(mapping)

    def __eq__(self, other):
        if not isinstance(other, Perm6):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def cycles(self):
        seen = set()
        out = []
        for s in SYMBOLS:
            if s in seen:
                continue
            cyc = [s]
            seen.add(s)
            t = self(s)
            while t != s:
                cyc.append(t)
                seen.add(t)
                t = self(t)
            if len(cyc) > 1:
                out.append(tuple(cyc))
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
    return [Perm6(p) for p in permutations(SYMBOLS)]


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
    return raw_add(raw_mul(a[0], b[1]),
                   raw_mul(b[0], {k: -v for k, v in a[1].items()}))


@lru_cache(maxsize=None)
def induced_map(sigma):
    """The rational-function triple induced by a symbol permutation.

    Three (num, den) pairs of integer term maps, one per e-coordinate.  They
    are cached and shared, so no caller may mutate them.  Each factor of
    mu(x) is a 2x2 determinant of projective points; a determinant with inf
    in it is +-1, and the two of them in one cross-ratio are equal, so they
    cancel as the limit 1 would.  The surviving factors are the constant
    +-1 or distinct degenerate-locus linear forms, so num and den share no
    factor and the joint content removal fully reduces.
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
        # joint scaling only: relative sign/scale of num and den matters
        g = math.gcd(*num.values(), *den.values())
        if den[max(den, key=_grlex_key)] < 0:
            g = -g
        num = {k: v // g for k, v in num.items()}
        den = {k: v // g for k, v in den.items()}
        pairs.append((num, den))
    return tuple(pairs)


def act(sigma, poly):
    """Pull a component polynomial through the induced coordinate change."""
    return substitute_rational(poly, induced_map(sigma))


# (0,1) and the 6-cycle (0,1,inf,e1,e2,e3) generate S6
_S6_GENERATORS = (Perm6.parse("(0,1)"), Perm6.parse("(0,1,inf,e1,e2,e3)"))


def _orbit_search(poly):
    """Breadth-first search of the S6 orbit of poly over two generators.

    Returns (root, rep, schreier).  root = act(identity, poly) is the
    canonical form; rep maps each orbit element y to a coset representative
    with act(rep[y], poly) == y; schreier holds the nontrivial Schreier
    generators rep[y]^-1 * g * rep[x], which generate the stabilizer of root
    (Schreier's lemma).  Both rest on act(s * t, f) == act(s, act(t, f)).
    Costs one act per generator and orbit element, plus one for root.
    Raises DegenerateOnly when poly has no factor off the degenerate loci.
    """
    identity = Perm6.identity()
    root = act(identity, poly)
    rep = {root: identity}
    schreier = []
    boundary = [root]
    while boundary:
        new = []
        for x in boundary:
            for g in _S6_GENERATORS:
                y = act(g, x)
                h = g * rep[x]
                if y not in rep:
                    rep[y] = h
                    new.append(y)
                elif h != rep[y]:
                    schreier.append(rep[y].inverse() * h)
        boundary = new
    return root, rep, schreier


def orbit(poly):
    """The S6 orbit of a component polynomial, as a set of canonical forms.

    Exact: a breadth-first search from act(identity, poly) under the two
    generators (0,1) and (0,1,inf,e1,e2,e3) of S6, so it costs 1 + 2 * size
    calls to act.  Empty when poly is constant or degenerate-only.
    """
    try:
        _, rep, _ = _orbit_search(poly)
    except DegenerateOnly:
        return set()
    return set(rep)


def fixed_group(poly):
    """All permutations fixing the canonical form of poly, as a set.

    Exact: the breadth-first search of orbit() records a Schreier generator
    for every generator step that lands on an image already found, and the
    stabilizer is their closure.  A constant is fixed by all 720
    permutations; a degenerate-only or non-canonical poly by none.
    """
    if poly.degree() == 0:
        return set(all_perms())
    try:
        root, _, schreier = _orbit_search(poly)
    except DegenerateOnly:
        return set()
    if root != poly:
        return set()
    return mulclose(schreier)


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
