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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

def word_primes():
    """The consecutive primes above 2^20, ascending, without end."""
    p = 2 ** 20 + 1
    while True:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def eval_on_series(poly, rosenhain):
    """Evaluate on a Rosenhain series triple, exactly, in the truncated ring.

    The value is found from its residues modulo word-size primes.  All work
    happens on the grid of sZ x sZ, s the gcd of every exponent of e1, e2
    and e3 below the precision N (4 for every Rosenhain triple, 1 for a
    generic one): each series is an array of m x m cells, m = ceil(N/s),
    with one float64 layer per modulus.  Products (`_grid_product`) and
    sums stay on that grid.

    The evaluation keeps one nested Horner scheme,

        F = sum_a x^a * (sum_b y^b * L_ab),   L_ab = sum_c f_abc * e3^c,

    where y is the sparser of e1 and e2 by term count and x the other one,
    with a and b their exponents.  Each L_ab is a combination of the powers
    e3^0, ..., e3^d3 and costs no series product; the b sums are folded by
    Horner's rule in y and the a sum by Horner's rule in x.  With d_x, d3
    the degrees of F in x and e3 and B_a the largest b in a term
    x^a y^b e3^c of F, that is max(d3 - 1, 0) + sum_a B_a + d_x series
    products: 70 for the 233 terms of the degree-16 h12, of which the 55
    b steps multiply by the sparser series.  It runs twice:

    1. A proven bound B >= max |coefficient of F(e)|, as the float64
       majorant sum |f_abc| |e1|^a |e2|^b |e3|^c, |e| being e with every
       coefficient replaced by its absolute value.  Every input and every
       intermediate value is nonnegative, so each rounding, to nearest,
       multiplies an exact value by at least 1 - 2^-53, and after K
       operations the computed majorant is at least (1 - 2^-53)^K >=
       1 - K 2^-53 times the true one.  K is far below 2^52, so that factor
       exceeds 1/2, and twice the computed majorant bounds every
       coefficient.  When a coefficient does not convert to float, or the
       majorant is not finite below 2^1000, B is the exact integer bound
       sum |f_abc| |e1|_1^a |e2|_1^b |e3|_1^c of the l1 norms instead:
       always finite, but looser.
    2. The residues of F(e) modulo consecutive primes above 2^20, all
       primes at once, one layer each, taking primes until their product M
       exceeds 2B + 1.  Each cell is mapped back to the unique integer of
       absolute value below M/2 with those residues, which is the exact
       coefficient.
    """
    x, y, e3 = rosenhain.e1, rosenhain.e2, rosenhain.e3
    terms = poly.terms
    if len(y.terms) > len(x.terms):
        x, y = y, x
        terms = {(b, a, c): coef for (a, b, c), coef in terms.items()}
    n = min(x.precision, y.precision, e3.precision)
    series = [{k: c for k, c in e.terms.items() if max(k) < n}
              for e in (x, y, e3)]
    s = math.gcd(*(i for e in series for k in e for i in k)) or n
    m = -(-n // s)
    rows = {}
    for (a, b, c), coef in terms.items():
        rows.setdefault(a, {}).setdefault(b, []).append((coef, c))
    grid = (rows, poly.degree_in(2), series, s, m)

    def magnitude(coefs):
        return np.array([[float(abs(c)) for c in coefs]])

    try:
        with np.errstate(over="ignore"):
            top = _horner_grid(*grid, magnitude, None).max()
    except OverflowError:  # float() of a coefficient past 2^1024
        top = math.inf
    if top < 2.0 ** 1000:
        bound = math.ceil(2 * top)
    else:
        n1, n2, n3 = (sum(map(abs, e.values())) for e in series)
        bound = sum(abs(f) * n1 ** a * n2 ** b * n3 ** c
                    for (a, b, c), f in terms.items())
    primes, mod = [], 1
    for p in word_primes():
        if mod > 2 * bound + 1:
            break
        primes.append(p)
        mod *= p
    mods = np.array(primes, dtype=np.float64).reshape(-1, 1, 1)

    def residues(coefs):
        return np.array([[c % p for c in coefs] for p in primes],
                        dtype=np.float64)

    values = _crt_symmetric(
        _horner_grid(*grid, residues, mods).astype(np.int64), primes, bound)
    return TruncatedSeries({(k // m * s, k % m * s): v
                            for k, v in values.items()}, n)


def _horner_grid(rows, d3, series, s, m, weight, mods):
    """The nested Horner scheme of `eval_on_series` on the m x m grid of
    sZ x sZ, in one float64 layer per modulus.

    rows maps a to b to the (coef, c) pairs of the terms x^a y^b e3^c, and
    series holds the term maps of x, y and e3.  weight turns k integers
    into a (layers, k) array.  mods is None for the majorant, where nothing
    is reduced, else the primes, (layers, 1, 1), and every value a residue.
    """
    x, y, z = (_grid_factor(e, s, m, weight) for e in series)
    one = np.zeros_like(z[0][:, :, 0])
    one[:, 0, 0] = 1

    def mul(acc, factor):
        return _grid_product(acc, factor, mods)

    def reduce(v):
        return v if mods is None else v % mods

    # an L_ab sums at most d3 + 1 products of two residues
    assert mods is None or d3 < _mod_chunk(1, int(mods.max()))

    def combination(pairs):
        w = weight([f for f, _ in pairs])[:, :, None, None]
        terms = (w[:, k] * pows[c] for k, (_, c) in enumerate(pairs))
        return reduce(sum(terms, np.zeros_like(one)))

    # the ladder starts from e3 itself as a grid: max(d3 - 1, 0) products
    pows = _powers(z[0][:, :, 0], d3, one, lambda acc, _: mul(acc, z))
    inner = []
    for a in range(max(rows) + 1):
        cols = rows.get(a, {})
        inner.append(_horner(y, [combination(cols.get(b, []))
                                 for b in range(max(cols, default=0) + 1)],
                             mul, reduce))
    return _horner(x, inner, mul, reduce)


def _mod_chunk(m, p):
    """The most blocks c of an m x m `_grid_product` mod p to sum unreduced:
    a block adds at most m (p-1)^2 to a residue, so c m (p-1)^2 + p < 2^53
    keeps every value an exact float64 integer; c >= 1 is asserted."""
    c = (2 ** 53 - 1 - p) // (m * (p - 1) ** 2)
    assert c >= 1, "float64 grid product inexact mod %d" % p
    return c


def _grid_factor(e, s, m, weight):
    """The term map e on sZ x sZ, weighted as in `_horner_grid`, as the
    multiplier of `_grid_product`: the Toeplitz blocks T_di[j', j] =
    E[di, j - j'] (0 for j < j') of the rows of its (layers, m, m) grid E,
    a reversed sliding-window view of E left-padded by m - 1 zeros, never
    stored (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 8),
    and the indices di of the rows that hold its terms."""
    assert all(i % s == 0 and j % s == 0 for i, j in e), \
        "term off the %dZ x %dZ lattice" % (s, s)
    w = weight(list(e.values()))
    padded = np.zeros((len(w), m, 2 * m - 1))
    padded[:, [i // s for i, _ in e], [m - 1 + j // s for _, j in e]] = w
    return (sliding_window_view(padded, m, axis=-1)[..., ::-1, :],
            sorted({i // s for i, _ in e}))


def _grid_product(acc, factor, mods):
    """acc times a `_grid_factor` E on the m x m grid, truncated to it, in
    every layer (or acc of k layers against one): one float64 matmul
    out[:, di:] += acc[:, :m - di] @ T_di per listed row di of E.  With
    mods, acc and E hold residues and the sum is reduced after every
    `_mod_chunk` blocks (Dumas, Giorgi and Pernet, FFLAS-FFPACK)."""
    blocks, rows = factor
    m = acc.shape[-1]
    chunk = None if mods is None else _mod_chunk(m, int(np.max(mods)))
    out = np.zeros_like(acc)
    for k, di in enumerate(rows, 1):
        out[:, di:] += acc[:, :m - di] @ blocks[:, di]
        if chunk and k % chunk == 0:
            out %= mods
    return out if mods is None else out % mods


def _horner(x, coeffs, mul, reduce):
    """coeffs[0] + x * (coeffs[1] + x * (... + x * coeffs[-1]))."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = reduce(mul(acc, x) + c)
    return acc


def _crt_symmetric(residues, primes, bound):
    """The nonzero integers of absolute value at most `bound` with the given
    residues, as a map from flat grid index to value.

    residues is an int64 (primes, m, m) array; the product M of the primes
    must exceed 2 bound + 1, so that the symmetric residue mod M, in
    (-M/2, M/2), is the integer itself.
    """
    mod = math.prod(primes)
    assert mod > 2 * bound + 1, "CRT modulus too small for the bound"
    basis = [mod // p * pow(mod // p, -1, p) for p in primes]
    flat = residues.reshape(len(primes), -1)
    cells = np.flatnonzero(flat.any(axis=0))
    out = {}
    for k, col in zip(cells.tolist(), flat[:, cells].T.tolist()):
        v = sum(map(operator.mul, col, basis)) % mod
        out[k] = v - mod if v > mod // 2 else v
    return out


def _lincomb(pairs):
    """sum of coef * f over the (integer, term map) pairs, zeros kept."""
    out = {}
    get = out.get
    for coef, f in pairs:
        for k, v in f.items():
            out[k] = get(k, 0) + coef * v
    return out


def _powers(x, d, one, mul):
    """[one, x, x^2, ..., x^d] under the product `mul`, in max(d - 1, 0)
    products: x^0 and x^1 are `one` and `x` themselves."""
    pows = [one, x]
    for _ in range(d - 1):
        pows.append(mul(pows[-1], x))
    return pows[:d + 1]


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
    they are only read.  With d_i the degree of F in e_i and z_i[e] =
    num_i^e den_i^(d_i - e), the cleared polynomial prod_i den_i^d_i F(phi)
    is formed innermost first, as nested sums in the manner of Horner:

        sum_a z1[a] * (sum_b z2[b] * (sum_c f_abc * z3[c])).

    Each table z_i costs 3(d_i - 1) products for d_i >= 1: the two power
    ladders take d_i - 1 each, and the ends z_i[0] = den_i^d_i and
    z_i[d_i] = num_i^d_i are read straight off them.  The c sums are
    integer combinations and cost no product; then there is one product by
    z2[b] per (a, b) and one by z1[a] per a, each on the small partial
    sums.  The result is normalized and stripped of degenerate-locus
    factors (Moebius clearing can only introduce factors supported on the
    degenerate loci).
    """
    one = {(0, 0, 0): 1}
    z = []
    for i, (num, den) in enumerate(phi):
        d = poly.degree_in(i)
        num_pows = _powers(num, d, one, raw_mul)
        den_pows = _powers(den, d, one, raw_mul)
        # the ends are plain powers; at d = 0 both are 1 and only z_i[0] is
        # read
        z.append([den_pows[d]]
                 + [raw_mul(num_pows[e], den_pows[d - e]) for e in range(1, d)]
                 + [num_pows[d]])
    rows = {}
    for (a, b, c), coef in poly.terms.items():
        rows.setdefault(a, {}).setdefault(b, []).append((coef, z[2][c]))
    # the sums read generators, so each product is added in as it is made
    inner = {}
    for a, cols in rows.items():
        inner[a] = _lincomb((1, raw_mul(z[1][b], _lincomb(tail)))
                            for b, tail in cols.items())
    total = _lincomb((1, raw_mul(z[0][a], s)) for a, s in inner.items())
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
