"""Exact trivariate polynomials in the Rosenhain coordinates (e1, e2, e3).

Canonical form: integer coefficients with content 1, positive coefficient on
the graded-lex greatest monomial, no zero terms stored.  Component equality
throughout the package is equality of canonical forms.
"""

import heapq
import math
import operator
import re
from fractions import Fraction

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


def raw_scale(f, c):
    return {k: v * c for k, v in f.items()} if c else {}


class MultiPoly:
    """Canonical-form trivariate integer polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        # terms: map (a, b, c) -> nonzero integer; canonicalized here
        for v in terms.values():
            if v != int(v):
                raise ValueError("integer coefficients required; use "
                                 "from_fraction_terms for rationals")
        clean = {k: int(v) for k, v in terms.items() if v}
        if not clean:
            raise ZeroPolynomial("zero polynomial has no canonical form")
        g = 0
        for v in clean.values():
            g = math.gcd(g, v)
        lead = max(clean, key=_grlex_key)
        sign = 1 if clean[lead] > 0 else -1
        g *= sign
        self.terms = {k: v // g for k, v in clean.items()}

    @classmethod
    def _unnormalized(cls, terms):
        """Wrap a raw nonzero integer term map without canonicalizing.

        Only for rational-map components, where the relative sign and scale
        of numerator and denominator are meaningful.
        """
        obj = object.__new__(cls)
        obj.terms = {k: int(v) for k, v in terms.items() if v}
        if not obj.terms:
            raise ZeroPolynomial("zero polynomial")
        return obj

    @classmethod
    def from_fraction_terms(cls, terms):
        """Clear denominators of a rational coefficient map and normalize."""
        terms = {k: Fraction(v) for k, v in terms.items() if v}
        if not terms:
            raise ZeroPolynomial("zero polynomial")
        den = 1
        for v in terms.values():
            den = den * v.denominator // math.gcd(den, v.denominator)
        return cls({k: int(v * den) for k, v in terms.items()})

    def degree(self):
        return max(a + b + c for (a, b, c) in self.terms)

    def degree_in(self, var):
        return max(k[var] for k in self.terms)

    def leading_monomial(self):
        return max(self.terms, key=_grlex_key)

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

    @classmethod
    def from_record(cls, rec):
        return cls({(int(a), int(b), int(c)): int(v)
                    for a, b, c, v in rec["terms"]})


def normalize(terms):
    """Canonicalize a raw coefficient map (integers or Fractions)."""
    if any(isinstance(v, Fraction) for v in terms.values()):
        return MultiPoly.from_fraction_terms(terms)
    return MultiPoly(terms)


# -- evaluation --------------------------------------------------------

def eval_on_series(poly, rosenhain):
    """Evaluate on a Rosenhain series triple, in the truncated ring.

    Monomial powers are laddered and (e1^a * e2^b) subproducts shared across
    terms with a common (a, b) prefix.
    """
    e1, e2, e3 = rosenhain.e1, rosenhain.e2, rosenhain.e3
    n = min(e1.precision, e2.precision, e3.precision)
    pows1, pows2, pows3 = (
        _powers(e, poly.degree_in(i), TruncatedSeries.one(e.precision),
                operator.mul)
        for i, e in enumerate((e1, e2, e3)))
    by_ab = {}
    for (a, b, c), coef in poly.terms.items():
        by_ab.setdefault((a, b), []).append((c, coef))
    total = TruncatedSeries.zero(n)
    for (a, b) in sorted(by_ab):
        prefix = pows1[a] * pows2[b]
        for c, coef in sorted(by_ab[(a, b)]):
            t = prefix * pows3[c]
            total = total + TruncatedSeries(
                {k: v * coef for k, v in t.terms.items()}, t.precision)
    return total


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

def degenerate_factors():
    """The nine polynomials cutting out collided Weierstrass points."""
    e = [{(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}]
    one = {(0, 0, 0): 1}
    out = [MultiPoly(e[0]), MultiPoly(e[1]), MultiPoly(e[2])]
    for i in range(3):
        out.append(MultiPoly(raw_add(e[i], raw_scale(one, -1))))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        out.append(MultiPoly(raw_add(e[i], raw_scale(e[j], -1))))
    return out


_DEGENERATE = None


def _degenerate_list():
    global _DEGENERATE
    if _DEGENERATE is None:
        _DEGENERATE = degenerate_factors()
    return _DEGENERATE


def try_divide(f_terms, g):
    """Exact division of a raw integer term map by a MultiPoly.

    Returns the quotient map, or None if the division is not exact.
    Multivariate long division with respect to graded-lex order; sound here
    because we only ever divide by the fixed degenerate-locus binomials.
    """
    g_lead = g.leading_monomial()
    g_lc = g.terms[g_lead]
    rem = dict(f_terms)
    quo = {}
    # lazy max-heap over graded-lex order; stale entries are skipped
    heap = [(-(k[0] + k[1] + k[2]), -k[0], -k[1], -k[2]) for k in rem]
    heapq.heapify(heap)
    while heap:
        h = heapq.heappop(heap)
        lead = (-h[1], -h[2], -h[3])
        lc = rem.get(lead)
        if not lc:
            continue
        exps = tuple(lead[i] - g_lead[i] for i in range(3))
        if exps[0] < 0 or exps[1] < 0 or exps[2] < 0 or lc % g_lc:
            return None
        q = lc // g_lc
        quo[exps] = quo.get(exps, 0) + q
        for k, v in g.terms.items():
            kk = (exps[0] + k[0], exps[1] + k[1], exps[2] + k[2])
            s = rem.get(kk, 0) - q * v
            if s:
                if kk not in rem:
                    heapq.heappush(
                        heap, (-(kk[0] + kk[1] + kk[2]),
                               -kk[0], -kk[1], -kk[2]))
                rem[kk] = s
            elif kk in rem:
                del rem[kk]
    return quo if not rem else None


def _divisibility_test(g):
    """Cheap exact test for divisibility by one degenerate-locus factor.

    Each factor is a variable, a variable minus one, or a difference of two
    variables, so divisibility is equivalent to the vanishing of a collapse
    of the term map (a substitution that kills the factor).
    """
    mono = g.leading_monomial()
    if len(g.terms) == 1:
        var = mono.index(1)
        return lambda t: all(k[var] >= 1 for k in t)
    low = min(g.terms, key=_grlex_key)
    if low == (0, 0, 0):
        # e_var - 1: substitute e_var = 1 and check total collapse to zero
        var = mono.index(1)

        def test(t):
            acc = {}
            for k, v in t.items():
                kk = tuple(0 if i == var else k[i] for i in range(3))
                acc[kk] = acc.get(kk, 0) + v
            return not any(acc.values())
        return test
    # e_i - e_j: substitute e_j = e_i and check collapse to zero
    i = mono.index(1)
    j = low.index(1)

    def test(t):
        acc = {}
        for k, v in t.items():
            kk = [k[0], k[1], k[2]]
            kk[i] += kk[j]
            kk[j] = 0
            kk = tuple(kk)
            acc[kk] = acc.get(kk, 0) + v
        return not any(acc.values())
    return test


_DEGENERATE_TESTS = None


def _degenerate_tests():
    global _DEGENERATE_TESTS
    if _DEGENERATE_TESTS is None:
        _DEGENERATE_TESTS = [(g, _divisibility_test(g))
                             for g in _degenerate_list()]
    return _DEGENERATE_TESTS


def strip_degenerate_factors(poly):
    """Divide out all degenerate-locus factors to maximal multiplicity."""
    terms = dict(poly.terms)
    for g, test in _degenerate_tests():
        while test(terms):
            q = try_divide(terms, g)
            assert q is not None
            terms = q
    result = MultiPoly(terms)
    if result.is_constant():
        raise DegenerateOnly("product of degenerate factors only")
    return result


class RationalTriple:
    """Three rational functions (num, den) acting as a coordinate change."""

    __slots__ = ("nums", "dens")

    def __init__(self, pairs):
        nums, dens = [], []
        for num, den in pairs:
            nums.append(num)
            dens.append(den)
        self.nums = tuple(nums)
        self.dens = tuple(dens)

    @classmethod
    def identity(cls):
        one = MultiPoly({(0, 0, 0): 1})
        es = [MultiPoly({(1, 0, 0): 1}), MultiPoly({(0, 1, 0): 1}),
              MultiPoly({(0, 0, 1): 1})]
        return cls([(e, one) for e in es])


def substitute_rational(poly, phi):
    """F(phi1, phi2, phi3) with minimal uniform denominator clearing.

    The cleared polynomial is prod_i den_i^(deg_i F) * F(phi), normalized and
    stripped of degenerate-locus factors (Moebius clearing can only introduce
    factors supported on the degenerate loci).
    """
    d = [poly.degree_in(i) for i in range(3)]
    num_pows = [_powers(phi.nums[i].terms, d[i], {(0, 0, 0): 1}, raw_mul)
                for i in range(3)]
    den_pows = [_powers(phi.dens[i].terms, d[i], {(0, 0, 0): 1}, raw_mul)
                for i in range(3)]
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
      | (?P<int>\d+)
      | e_?\{?(?P<var>[123])\}?(?:\^\{?(?P<exp>\d+)\}?)?
    )""", re.VERBOSE)
_EXP_MARK = re.compile(r"\^\s*(?![\{\d])")


def parse_poly(text):
    """Parse the human/appendix notation: e.g. "e_1^2 - 4 e_{2}^{3}e_3"."""
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
        if m.group("sign"):
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
            started = True
    if not started:
        raise ParseError("empty input", 0)
    flush(pos)
    if not terms:
        raise ZeroPolynomial("input cancels to zero")
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
