"""Exact trivariate polynomials in the Rosenhain coordinates (e1, e2, e3).

Canonical form: integer coefficients with content 1, positive coefficient on
the graded-lex greatest monomial, no zero terms stored.  Component equality
throughout the package is equality of canonical forms.  The constructor
accepts only integers (anything `operator.index` takes), so a rational
coefficient is a TypeError.
"""

import math
import operator
import re

from .series import TruncatedSeries


class ZeroPolynomial(ValueError):
    pass


class DegenerateOnly(ValueError):
    """Polynomial is a product of degenerate-locus factors only."""


class ParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


def _grlex_key(mono):
    a, b, c = mono
    return (a + b + c, a, b, c)


# -- raw term-dict arithmetic (exponent triple -> integer) -------------

def raw_add(f, g):
    out = dict(f)
    for k, c in g.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


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
    """Canonical-form trivariate integer polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        # terms: map (a, b, c) -> integer, anything `operator.index` takes
        # (a Fraction or a float is a TypeError); canonicalized here
        index = operator.index
        clean = {}
        for k, v in terms.items():
            v = index(v)
            if v:
                clean[k] = v
        if not clean:
            raise ZeroPolynomial("zero polynomial has no canonical form")
        g = math.gcd(*clean.values())
        if clean[max(clean, key=_grlex_key)] < 0:
            g = -g
        self.terms = {k: v // g for k, v in clean.items()}

    def degree(self):
        return max(a + b + c for (a, b, c) in self.terms)

    def degree_in(self, var):
        return max(k[var] for k in self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "MultiPoly(%d terms, degree %d)" % (len(self.terms),
                                                   self.degree())

    def __str__(self):
        return format_poly(self)

    def is_constant(self):
        return set(self.terms) == {(0, 0, 0)}

    def to_record(self):
        """Structured record, terms sorted graded-lex descending."""
        keys = sorted(self.terms, key=_grlex_key, reverse=True)
        return {"terms": [[a, b, c, str(self.terms[(a, b, c)])]
                          for (a, b, c) in keys]}


# -- evaluation --------------------------------------------------------

def eval_on_series(poly, rosenhain):
    """Evaluate on a Rosenhain series triple, in the truncated ring.

    Nested Horner scheme, exact in integers:

        F = sum_a x^a * (sum_b y^b * L_ab),   L_ab = sum_c f_abc * e3^c,

    where y is the sparser of e1 and e2 by term count and x the other one,
    with a and b their exponents.  Each L_ab is an integer combination of
    the powers e3^0, ..., e3^d3 and costs no series product; the b sums are
    folded by Horner's rule in y and the a sum by Horner's rule in x.  With
    d_x, d3 the degrees of F in x and e3 and B_a the largest b in a term
    x^a y^b e3^c of F, that is max(d3 - 1, 0) + sum_a B_a + d_x series
    products: 70 for the 233 terms of the degree-16 h12, where forming each
    monomial took 304 (one per term and one per (a, b) prefix).  The b
    steps are most of them, so each multiplies by the sparser series.
    """
    x, y, e3 = rosenhain.e1, rosenhain.e2, rosenhain.e3
    terms = poly.terms
    if len(y.terms) > len(x.terms):
        x, y = y, x
        terms = {(b, a, c): coef for (a, b, c), coef in terms.items()}
    n = min(x.precision, y.precision, e3.precision)
    pows3 = [TruncatedSeries.one(n)] + _powers(e3, poly.degree_in(2) - 1, e3,
                                               operator.mul)
    rows = {}
    for (a, b, c), coef in terms.items():
        rows.setdefault(a, {}).setdefault(b, []).append((coef, pows3[c]))
    inner = []
    for a in range(max(rows) + 1):
        cols = rows.get(a, {})
        inner.append(_horner(y, [_combine(cols.get(b, ()), n)
                                 for b in range(max(cols, default=0) + 1)]))
    return _horner(x, inner)


def _combine(pairs, n):
    """sum of coef * s over the (integer, series) pairs, at precision n."""
    out = {}
    get = out.get
    for coef, s in pairs:
        for k, v in s.terms.items():
            out[k] = get(k, 0) + coef * v
    return TruncatedSeries(out, n)


def _horner(x, coeffs):
    """coeffs[0] + x * (coeffs[1] + x * (... + x * coeffs[-1]))."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _powers(x, d, one, mul):
    """[one, x, x^2, ..., x^d] under the product `mul`."""
    pows = [one]
    for _ in range(d):
        pows.append(mul(pows[-1], x))
    return pows


def eval_complex(poly, z):
    """Evaluate at a complex triple with a deterministic summation order."""
    z1, z2, z3 = z
    d1, d2, d3 = (poly.degree_in(i) for i in range(3))
    p1 = [z1 ** i for i in range(d1 + 1)]
    p2 = [z2 ** i for i in range(d2 + 1)]
    p3 = [z3 ** i for i in range(d3 + 1)]
    total = 0j
    for (a, b, c) in sorted(poly.terms, key=_grlex_key):
        total += poly.terms[(a, b, c)] * p1[a] * p2[b] * p3[c]
    return total


# -- degenerate loci and rational substitution --------------------------

# the nine degenerate-locus factors, each written e_i - t with t = 0, 1 or
# the variable e_j; t is stored as the exponent of the monomial t (None for
# t = 0)
_DEGENERATE_LOCI = (
    (0, None), (1, None), (2, None),
    (0, (0, 0, 0)), (1, (0, 0, 0)), (2, (0, 0, 0)),
    (0, (0, 1, 0)), (0, (0, 0, 1)), (1, (0, 0, 1)),
)


def degenerate_factors():
    """The nine polynomials cutting out collided Weierstrass points."""
    out = []
    for i, t in _DEGENERATE_LOCI:
        e_i = tuple(int(v == i) for v in range(3))
        out.append(MultiPoly({e_i: 1} if t is None else {e_i: 1, t: -1}))
    return out


def divide_degenerate(terms, i, t):
    """The quotient of a term map by e_i - t, or None if not divisible.

    (i, t) is a locus of `_DEGENERATE_LOCI`.  The remainder F(e_i = t) is
    formed first, as a one-pass collapse of the term map.  Only when it
    vanishes is the quotient formed, by synthetic division in e_i: with
    F = sum_k F_k e_i^k and Q = sum_k Q_k e_i^k, Q_(k-1) = F_k + t Q_k from
    the top degree down.  For t = 0 that is a shift of e_i.
    """
    if t is None:
        if not all(k[i] for k in terms):
            return None
        return {k[:i] + (k[i] - 1,) + k[i + 1:]: v for k, v in terms.items()}
    j = t.index(1) if 1 in t else None  # t = e_j, or t = 1
    rem = {}
    for k, v in terms.items():
        kk = list(k)
        if j is not None:
            kk[j] += kk[i]
        kk[i] = 0
        kk = tuple(kk)
        rem[kk] = rem.get(kk, 0) + v
    if any(rem.values()):
        return None
    rows = {}
    for k, v in terms.items():
        rows.setdefault(k[i], []).append((k, v))
    quo = {}
    q_k = {}  # Q_k e_i^k as a term map
    for k in range(max(rows), 0, -1):
        # Q_(k-1) e_i^(k-1) = t * (Q_k e_i^k) / e_i + F_k e_i^(k-1)
        q = {}
        for key, v in q_k.items():
            kk = list(key)
            kk[i] -= 1
            if j is not None:
                kk[j] += 1
            q[tuple(kk)] = v
        for key, v in rows.get(k, ()):
            kk = key[:i] + (k - 1,) + key[i + 1:]
            q[kk] = q.get(kk, 0) + v
        q_k = {key: v for key, v in q.items() if v}
        quo.update(q_k)
    return quo


def strip_degenerate_factors(poly):
    """Divide out all degenerate-locus factors to maximal multiplicity."""
    terms = poly.terms
    for i, t in _DEGENERATE_LOCI:
        while (q := divide_degenerate(terms, i, t)) is not None:
            terms = q
    result = MultiPoly(terms)
    if result.is_constant():
        raise DegenerateOnly("product of degenerate factors only")
    return result


def substitute_rational(poly, phi):
    """F(phi1, phi2, phi3) with minimal uniform denominator clearing.

    phi is three (num, den) pairs of integer term maps, phi_i = num_i/den_i;
    they are only read.  The cleared polynomial is prod_i den_i^(deg_i F) *
    F(phi), normalized and stripped of degenerate-locus factors (Moebius
    clearing can only introduce factors supported on the degenerate loci).
    """
    d = [poly.degree_in(i) for i in range(3)]
    one = {(0, 0, 0): 1}
    num_pows = [_powers(num, d[i], one, raw_mul)
                for i, (num, _) in enumerate(phi)]
    den_pows = [_powers(den, d[i], one, raw_mul)
                for i, (_, den) in enumerate(phi)]
    # per-variable factors num_i^e * den_i^(deg_i - e); prefix products over
    # the first two variables are shared across terms with equal (a, b)
    z = [[raw_mul(num_pows[i][e], den_pows[i][d[i] - e])
          for e in range(d[i] + 1)] for i in range(3)]
    by_ab = {}
    for (a, b, c), coef in poly.terms.items():
        by_ab.setdefault((a, b), []).append((c, coef))
    total = {}
    for (a, b), tail in sorted(by_ab.items()):
        # sum the cheap z3 factors first so each group costs one product
        tail_sum = {}
        for c, coef in sorted(tail):
            for k, v in z[2][c].items():
                s = tail_sum.get(k, 0) + coef * v
                if s:
                    tail_sum[k] = s
                elif k in tail_sum:
                    del tail_sum[k]
        if not tail_sum:
            continue
        t = raw_mul(raw_mul(z[0][a], z[1][b]), tail_sum)
        for k, v in t.items():
            s = total.get(k, 0) + v
            if s:
                total[k] = s
            elif k in total:
                del total[k]
    if not total:
        raise ZeroPolynomial("substitution vanishes identically")
    return strip_degenerate_factors(MultiPoly(total))


# -- text format --------------------------------------------------------

_TOKEN = re.compile(r"""
    \s*(?:
        (?P<sign>[+-])
      | (?P<star>\*)
      | (?P<int>\d+)
      | e_?\{?(?P<var>[123])\}?(?:\^\{?(?P<exp>\d+)\}?)?
    )""", re.VERBOSE)
_EXP_MARK = re.compile(r"\^\s*(?![\{\d])")


def parse_poly(text):
    """Parse the human/appendix notation: e.g. "e_1^2 - 4 e_{2}^{3}e_3".

    Factors are juxtaposed or joined by one "*", as in "4*e_2^3*e_3".
    """
    if _EXP_MARK.search(text):
        raise ParseError("dangling exponent marker",
                         _EXP_MARK.search(text).start())
    terms = {}
    pos = 0
    n = len(text)
    sign = 1
    coef = None
    mono = [0, 0, 0]
    seen_factor = False
    star = None  # position of a "*" still waiting for its factor

    def flush(at):
        nonlocal sign, coef, mono, seen_factor
        if not seen_factor and coef is None:
            raise ParseError("empty term", at)
        c = sign * (1 if coef is None else coef)
        k = tuple(mono)
        s = terms.get(k, 0) + c
        if s:
            terms[k] = s
        elif k in terms:
            del terms[k]
        sign, coef, mono, seen_factor = 1, None, [0, 0, 0], False

    started = False
    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character %r" % text[pos], pos)
        pos = m.end()
        if star is not None and not m.group("var"):
            raise ParseError("'*' not followed by a factor", star)
        if m.group("star"):
            if coef is None and not seen_factor:
                raise ParseError("'*' without a left operand",
                                 m.start("star"))
            star = m.start("star")
        elif m.group("sign"):
            if started and (seen_factor or coef is not None):
                flush(pos)
            if m.group("sign") == "-":
                sign = -sign
            started = True
        elif m.group("int"):
            if coef is not None or seen_factor:
                raise ParseError("unexpected integer", m.start("int"))
            coef = int(m.group("int"))
            started = True
        else:
            var = int(m.group("var")) - 1
            exp = int(m.group("exp")) if m.group("exp") else 1
            mono[var] += exp
            seen_factor = True
            star = None
            started = True
    if star is not None:
        raise ParseError("'*' not followed by a factor", star)
    if not started:
        raise ParseError("empty input", 0)
    flush(pos)
    if not terms:
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
