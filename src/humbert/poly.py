"""Exact trivariate polynomials in the Rosenhain coordinates (e1, e2, e3).

Canonical form: integer coefficients with content 1, positive coefficient on
the graded-lex greatest monomial, no zero terms stored.  Component equality
throughout the package is equality of canonical forms.  The constructor
accepts only integers (anything `operator.index` takes), so a rational
coefficient is a TypeError.
"""

import functools
import math
import operator
import re

import numpy as np

from .series import (InputError, _exact_grid, _grid_product, _mod_chunk,
                     _reduce, _toeplitz)


class ZeroPolynomial(InputError):
    pass


class DegenerateOnly(ValueError):
    """Polynomial is a product of degenerate-locus factors only."""


class ParseError(InputError):
    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


def _grlex_key(mono):
    a, b, c = mono
    return (a + b + c, a, b, c)


# -- raw term-dict arithmetic (exponent triple -> integer) -------------

def raw_mul(f, g):
    out = {}
    for (a1, b1, c1), x in f.items():
        for (a2, b2, c2), y in g.items():
            k = (a1 + a2, b1 + b2, c1 + c2)
            s = out.get(k, 0) + x * y
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


class MultiPoly:
    """Canonical-form trivariate integer polynomial.  Its exponent triples
    are interned in _KEYS, so the images of an orbit search share them;
    degrees holds its degrees in e1, e2 and e3."""

    __slots__ = ("terms", "degrees", "_hash")
    _KEYS = {}

    def __init__(self, terms):
        # (a, b, c) -> anything `operator.index` takes: a float is a TypeError
        clean = {k: v for k, v in zip(terms, map(operator.index,
                                                  terms.values())) if v}
        if not clean:
            raise ZeroPolynomial("zero polynomial has no canonical form")
        self._set(clean, clean.values(), clean[max(clean, key=_grlex_key)],
                  tuple(map(max, zip(*clean))))

    def _set(self, keys, values, lead, degrees):
        # the terms over their content, signed by the lead coefficient
        g = math.gcd(*values) if lead > 0 else -math.gcd(*values)
        key = self._KEYS.setdefault
        self.terms = {key(k, k): v // g for k, v in zip(keys, values)}
        self.degrees = degrees
        self._hash = None
        return self

    def degree(self):
        return max(a + b + c for (a, b, c) in self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:  # an orbit search looks each image up often
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        return "MultiPoly(%d terms, degree %d)" % (len(self.terms),
                                                   self.degree())

    def __str__(self):
        return format_poly(self)

    def to_record(self):
        """Structured record, terms sorted graded-lex descending."""
        keys = sorted(self.terms, key=_grlex_key, reverse=True)
        return {"terms": [[a, b, c, str(self.terms[(a, b, c)])]
                          for (a, b, c) in keys]}


# -- evaluation --------------------------------------------------------

def eval_on_series(poly, rosenhain):
    """Evaluate on a Rosenhain series triple, exactly, in the truncated ring.

    The value comes from `series._exact_grid`, on the grid of sZ x sZ that
    holds every exponent of e1, e2 and e3 below the precision N, by one
    nested Horner scheme,

        F = sum_a x^a * (sum_b y^b * L_ab),   L_ab = sum_c f_abc * e3^c,

    where y = e1 and x = e2, with b and a their exponents.  The L_ab cost
    no series product: each is one matmul of its coefficients by e3^0, ...,
    e3^d3.  The b sums are
    folded by Horner's rule in y and the a sum by Horner's rule in x, each
    step one `_grid_product` summed onto the next coefficient and reduced
    once.  With d_x, d3 the degrees of F in x and e3 and B_a the largest b
    in a term x^a y^b e3^c of F, that is max(d3 - 1, 0) + sum_a B_a + d_x
    series products: 70 for the 233 terms of the degree-16 h12, of which
    the 55 b steps multiply by the sparser series.  On the l1 norms the
    scheme gives the bound sum |f_abc| |e1|_1^a |e2|_1^b |e3|_1^c.
    """
    # the inner steps multiply by y = e1, the sparser: e1 has no more terms
    # than e2 on every triple (a test pins it for Delta from 4 to 60)
    x, y, e3 = rosenhain.e2, rosenhain.e1, rosenhain.e3
    rows = {}
    for (a, b, c), coef in poly.terms.items():
        rows.setdefault(b, []).append((a, c, coef))
    return _exact_grid([x.terms, y.terms, e3.terms],
                       min(x.precision, y.precision, e3.precision),
                       functools.partial(_horner_grid, rows,
                                         poly.degrees[2]))[0]


def _horner_grid(rows, d3, grid, weight, mods):
    """The nested Horner scheme of `eval_on_series` on the grids of x, y
    and e3 (grid(0), grid(1), grid(2)), as a list of one output.

    rows maps a to the (b, c, coef) of the terms x^a y^b e3^c; grid,
    weight and mods are as in `series._exact_grid`.  L_ab is one matmul of
    a (layers, 1, d3 + 1) weight row by the (layers, d3 + 1, m^2) powers of
    e3, made and reduced as Horner's rule meets it: each cell sums at most
    d3 + 1 products of two residues, exact in any order while
    d3 < `_mod_chunk`(1, p), as asserted.  (One matmul per a, of all its
    rows at once, made OpenBLAS touch 384 KB more of its buffer, which
    raised the peak RSS.)
    """
    assert mods is None or d3 < _mod_chunk(1, int(np.max(mods)))
    z = grid(2)
    layers, m, _ = z.shape
    pows = np.zeros((layers, d3 + 1, m, m), z.dtype)
    pows[:, 0, 0, 0] = 1
    pows[:, 1:2] = z[:, None]  # e3^1, unless d3 = 0
    x, y, z = (_toeplitz(e) for e in (grid(0), grid(1), z))
    for c in range(2, d3 + 1):
        _grid_product(pows[:, c - 1], z, mods, add=pows[:, c])
    pows = pows.reshape(layers, d3 + 1, m * m)

    def coefficient(w):  # L_ab from its (layers, 1, d3 + 1) weights
        return _reduce((w @ pows).reshape(layers, m, m), mods)

    def inner(a):
        # an a with no term has one zero coefficient
        bs, cs, coefs = zip(*rows.get(a, [(0, 0, 0)]))
        w = np.zeros((max(bs) + 1, layers, 1, d3 + 1), pows.dtype)
        w[bs, :, 0, cs] = weight(coefs).T
        return _horner(y, map(coefficient, w[::-1]), mods)
    return [_horner(x, map(inner, reversed(range(max(rows) + 1))), mods)]


def _horner(x, coeffs, mods):
    """c_0 + x * (c_1 + x * (... + x * c_d)) from the grids c_d, ..., c_0 of
    coeffs, top first: one `_grid_product` per step, summed into c_k."""
    coeffs = iter(coeffs)
    acc = next(coeffs)
    for c in coeffs:
        acc = _grid_product(acc, x, mods, add=c)
    return acc


def complex_evaluator(poly):
    """The evaluation of poly at complex triples, summed term by term in
    graded-lex order; the order, the coefficients and the degree in each
    variable are read from poly once, here."""
    terms = [(poly.terms[k],) + k for k in sorted(poly.terms, key=_grlex_key)]
    d1, d2, d3 = poly.degrees

    def evaluate(z):
        z1, z2, z3 = z
        p1 = [z1 ** i for i in range(d1 + 1)]
        p2 = [z2 ** i for i in range(d2 + 1)]
        p3 = [z3 ** i for i in range(d3 + 1)]
        total = 0j
        for coeff, a, b, c in terms:
            total += coeff * p1[a] * p2[b] * p3[c]
        return total
    return evaluate


# -- degenerate loci and rational substitution --------------------------

# the degenerate loci but e_i = 0, which `_stripped` trims: (i, j) for the
# factor e_i - t, t = 1 when j is None and t = e_j otherwise
_DEGENERATE_LOCI = ((0, None), (1, None), (2, None), (0, 1), (0, 2), (1, 2))


def _dense(terms, degrees, dtype=None):
    """The dense array of a term map of the given degrees: int64 when
    |terms|_1 < 2^63 and object otherwise, unless a dtype is given."""
    if dtype is None:
        dtype = np.int64 if sum(map(abs, terms.values())) < 2 ** 63 else object
    _, nb, nc = shape = [d + 1 for d in degrees]
    cells = [0] * math.prod(shape)
    for (a, b, c), v in terms.items():
        cells[(a * nb + b) * nc + c] = v
    return np.array(cells, dtype).reshape(shape)


def _quotient(g, i, j):
    """The quotient of a dense array G by e_i - t, (i, j) a locus of
    `_DEGENERATE_LOCI`, or None if not divisible.  G(e_i = t) is the sum of
    G along axis i for t = 1, and for t = e_j the sum of the rows of the
    (i, j) planes with row a shifted by a, so that column s holds the e_i^a
    e_j^(s - a) that meet at e_j^s.  If it is 0, (e_i - t) Q = G gives q_a
    = q_(a-1) - g_a: Q is -cumsum along the same axis, read back through
    the same skew.  No sum passes |G|_1, so int64 cannot wrap."""
    if j is None:
        if np.count_nonzero(np.add.reduce(g, i)):
            return None
        return -g.cumsum(axis=i)[(slice(None),) * i + (slice(-1),)]
    axes = (i, j, 3 - i - j)
    ni, nj, no = map(g.shape.__getitem__, axes)
    # pad each row with ni zeros and re-view it flat, ni cells shorter
    skew = np.zeros((ni, ni + nj, no), g.dtype)
    skew[:, :nj] = g.transpose(axes)
    skew = skew.reshape(-1, no)[:ni * (ni + nj - 1)].reshape(ni, -1, no)
    if np.count_nonzero(np.add.reduce(skew)):
        return None
    # e_i^a e_j^b of Q sits at column a + b + 1
    flat = -skew.cumsum(axis=0).reshape(-1, no)
    q = flat[1:1 + (ni - 1) * (ni + nj)].reshape(ni - 1, -1, no)[:, :nj - 1]
    return q.transpose(tuple(map(axes.index, range(3))))


def strip_degenerate_factors(poly):
    """Divide out all degenerate-locus factors to maximal multiplicity, each
    e_i^k (k the least exponent of e_i) in one pass."""
    return _stripped(_dense(poly.terms, poly.degrees))


def _stripped(g):
    """strip_degenerate_factors on a nonzero dense array G, int64 only while
    |G|_1 < 2^63: the e_i^k go with the zero slices at its ends, and a
    quotient, which stays trimmed, is widened to object unless its l1 stays
    below 2^63.  The divisors are monic, so G over its content is canonical:
    in row-major (lex) order its lead is the last cell of greatest degree."""
    exps = np.argwhere(g)
    g = g[tuple(map(slice, exps.min(axis=0), exps.max(axis=0) + 1))]
    for i, j in _DEGENERATE_LOCI:
        # each e_i - t vanishes at (1, 1, 1), where G is its sum
        while not g.sum() and (q := _quotient(g, i, j)) is not None:
            wide = sum(map(abs, q.ravel().tolist())) >= 2 ** 63
            g = q.astype(object) if wide else q
    if g.size == 1:
        raise DegenerateOnly("product of degenerate factors only")
    exps = np.argwhere(g)
    values = g[tuple(exps.T)].tolist()
    degree = exps.sum(axis=1).tolist()
    return object.__new__(MultiPoly)._set(
        map(tuple, exps.tolist()), values,
        values[-1 - degree[::-1].index(max(degree))],
        tuple(n - 1 for n in g.shape))


def _z_tables(phi, degrees):
    """The tables z_i[e] = num_i^e den_i^(d_i - e), e <= d_i, of the three
    (num_i, den_i) pairs of term maps of phi at the degrees d_i, in
    3(d_i - 1) products each for d_i >= 1: d_i - 1 for each power ladder,
    whose tops are the ends, and d_i - 1 between."""
    z = []
    for (num, den), d in zip(phi, degrees):
        nums, dens = [{(0, 0, 0): 1}, num], [{(0, 0, 0): 1}, den]
        for _ in range(d - 1):
            nums.append(raw_mul(nums[-1], num))
            dens.append(raw_mul(dens[-1], den))
        z.append([dens[d]] + [raw_mul(nums[e], dens[d - e])
                              for e in range(1, d)] + [nums[d]] * (d > 0))
    return z


# -- text format --------------------------------------------------------

# a term: signs (optional on the first term only), then an integer or a
# factor, then more factors, each after an optional "*"
_FACTOR = r"e_?(?:\{[123]\}|[123])(?:\^(?:\{\d+\}|\d+))?"
_SIGNS = re.compile(r"\s*([+-][\s+-]*)?")
_TERM = re.compile(_SIGNS.pattern + r"(?:\d+|{0})(?:\s*\*?\s*{0})*".format(
    _FACTOR))
_PART = re.compile(r"e_?\{?([123])\}?(?:\^\{?(\d+))?|(\d+)")
_EXP_MARK = re.compile(r"\^\s*(?![\{\d])")


def parse_poly(text):
    """Parse the human/appendix notation: e.g. "e_1^2 - 4 e_{2}^{3}e_3".

    Factors are juxtaposed or joined by one "*", as in "4*e_2^3*e_3".  A
    brace around an index or an exponent needs its partner.  A term that
    fails to match is named at its first character past the signs.
    """
    if _EXP_MARK.search(text):
        raise ParseError("dangling exponent marker",
                         _EXP_MARK.search(text).start())
    if not text.strip():
        raise ParseError("empty input", 0)
    terms, pos, end = {}, 0, len(text.rstrip())
    while pos < end:
        m = _TERM.match(text, pos)
        if not m or pos and not m.group(1):
            at = _SIGNS.match(text, pos).end()
            if at >= end:
                raise ParseError("empty term", end)
            raise ParseError("unexpected character %r" % text[at], at)
        coef, mono = (-1) ** m.group().count("-"), [0, 0, 0]
        for var, exp, num in _PART.findall(m.group()):
            if num:
                coef *= int(num)
            else:
                mono[int(var) - 1] += int(exp or 1)
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + coef
        pos = m.end()
    if not any(terms.values()):
        raise ParseError("input cancels to zero", 0)
    return MultiPoly(terms)


def format_poly(poly):
    """Graded-lex descending text form, round-trips through parse_poly."""
    keys = sorted(poly.terms, key=_grlex_key, reverse=True)
    parts = []
    for idx, k in enumerate(keys):
        c = poly.terms[k]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        factors = "".join(
            ("e_%d" % (i + 1)) + ("^%d" % e if e > 1 else "")
            for i, e in enumerate(k) if e)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = factors
        else:
            body = "%d %s" % (mag, factors)
        if idx == 0:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append("%s %s" % (sign, body))
    return " ".join(parts)
