"""Tests for the S6 action on component polynomials."""

import cmath
import importlib.resources as ir
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from humbert import s6
from humbert.degrees import SpecialCase
from humbert.poly import (_DEGENERATE_LOCI, DegenerateOnly, MultiPoly,
                          _quotient, _z_tables, parse_poly, raw_mul,
                          strip_degenerate_factors)
from humbert.s6 import (Perm6, act, all_perms, fixed_group, induced_map,
                        mulclose, orbit, orbit_and_stabilizer,
                        paper_generators)
from humbert.series import InputError
from test_poly import _dense_of

rng = random.Random(31415)


def test_perm_parse_and_str_round_trip():
    for text in ["(e1,e2)", "(0,e1,e3,inf,e2,1)", "(1,inf)(e1,e2,e3)",
                 "(0,e1)(1,e2)(inf,e3)"]:
        s = Perm6.parse(text)
        assert Perm6.parse(str(s)) == s


def test_perm_refuses_a_non_permutation():
    for images in (("0", "0", "inf", "e1", "e2", "e3"),
                   ("0", "1", "inf", "e1", "e2"), ("0", "1", "inf", "e1",
                                                   "e2", "e4")):
        with pytest.raises(InputError, match="not a permutation"):
            Perm6(images)


@pytest.mark.parametrize("text", ["", "()", "id", " ( ) "])
def test_perm_parse_of_the_identity(text):
    assert Perm6.parse(text) == Perm6.identity()


def test_paper_generators_of_delta_one_are_special():
    with pytest.raises(SpecialCase):
        paper_generators(1)


@pytest.mark.parametrize("text, message", [
    ("(0,0)", "symbol '0' repeated"),
    ("(e1,e2,e1)", "symbol 'e1' repeated"),
    ("(0,e1)(e1,e2)", "symbol 'e1' repeated"),
    ("(0,e4)", "unknown symbol 'e4'"),
    ("(0,1", "unbalanced cycle"),
    ("0,1)", "expected '('"),
])
def test_perm_parse_rejects_bad_cycles(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Perm6.parse(text)


def test_group_axioms_randomized():
    perms = all_perms()
    for _ in range(200):
        a, b, c = rng.choice(perms), rng.choice(perms), rng.choice(perms)
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == Perm6.identity()
        assert a.inverse() * a == Perm6.identity()


def test_composition_order_convention():
    a = Perm6.parse("(e1,e2)")
    b = Perm6.parse("(e2,e3)")
    # (a*b)(x) = a(b(x)): e3 -> e2 -> e1
    assert (a * b)("e3") == "e1"
    assert (b * a)("e3") == "e2"


def test_all_perms_count():
    assert len(all_perms()) == 720
    assert len(set(all_perms())) == 720


def test_mulclose_full_group():
    gens = [Perm6.parse("(0,1)"), Perm6.parse("(0,1,inf,e1,e2,e3)")]
    assert len(mulclose(gens)) == 720
    assert len(mulclose(s6._S6_GENERATORS)) == 720


def test_generator_closure_orders():
    assert len(mulclose(paper_generators(4))) == 48
    assert len(mulclose(paper_generators(8))) == 48
    assert len(mulclose(paper_generators(9))) == 72
    assert len(mulclose(paper_generators(5))) == 120


def test_action_simple_variable_swap():
    f = MultiPoly({(2, 0, 0): 1, (0, 1, 0): 3, (0, 0, 0): 1})
    g = act(Perm6.parse("(e1,e2)"), f)
    assert g == MultiPoly({(0, 2, 0): 1, (1, 0, 0): 3, (0, 0, 0): 1})


def test_action_is_homomorphism_on_random_inputs():
    perms = all_perms()
    f0 = MultiPoly({(2, 1, 0): 1, (0, 0, 1): -3, (1, 1, 1): 2,
                    (0, 0, 0): 5})
    count = 0
    while count < 200:
        s = rng.choice(perms)
        t = rng.choice(perms)
        try:
            lhs = act(s * t, f0)
            rhs = act(s, act(t, f0))
        except DegenerateOnly:
            continue
        assert lhs == rhs
        count += 1


def test_identity_acts_trivially():
    f = MultiPoly({(2, 1, 0): 1, (0, 0, 1): -3, (0, 0, 0): 5})
    assert act(Perm6.identity(), f) == f


def test_induced_map_of_zero_one_swap():
    # (0,1) sends e_i to 1 - e_i, so e1^2 + 3 maps to e1^2 - 2e1 + 4
    f = MultiPoly({(2, 0, 0): 1, (0, 0, 0): 3})
    g = act(Perm6.parse("(0,1)"), f)
    assert g == MultiPoly({(2, 0, 0): 1, (1, 0, 0): -2, (0, 0, 0): 4})


def test_orbit_stabilizer_product():
    f0 = MultiPoly({(2, 1, 0): 1, (0, 0, 1): -3, (1, 1, 1): 2,
                    (0, 0, 0): 5})
    orb, fix = orbit_and_stabilizer(f0)
    assert len(orb) * len(fix) == 720


def test_orbit_and_stabilizer_of_h4_match_all_720_acts():
    # the search over the generating pair against one pass over all of S6
    h4 = parse_poly("e_1e_2 - e_3")
    image = {s: act(s, h4) for s in all_perms()}
    images = set(image.values())
    stab = {s for s, y in image.items() if y == h4}
    assert (len(images), len(stab)) == (15, 48)
    assert orbit_and_stabilizer(h4) == (images, stab)


def test_orbit_stabilizer_product_randomized():
    # one pass over all 720 gives the orbit and the stabilizer: the oracle
    perms = all_perms()
    done = 0
    while done < 200:
        terms = {(rng.randrange(2), rng.randrange(2), rng.randrange(2)):
                 rng.randint(-5, 5) for _ in range(4)}
        terms[(0, 0, 0)] = terms.get((0, 0, 0), 0) + 7
        if not any(k != (0, 0, 0) and c for k, c in terms.items()):
            continue
        f = MultiPoly(terms)
        images = set()
        stab = set()
        degenerate = False
        for s in perms:
            try:
                img = act(s, f)
            except DegenerateOnly:
                degenerate = True
                break
            images.add(img)
            if img == f:
                stab.add(s)
        if degenerate:
            continue
        assert len(images) * len(stab) == 720
        assert orbit_and_stabilizer(f) == (images, stab)
        done += 1


def test_induced_map_is_reduced():
    # numerator and denominator of each cross-ratio are products of
    # differences of four distinct pairs of symbols, so no degenerate
    # factor divides both, for any of the 720 permutations: e_i divides a
    # term map when every exponent of e_i in it is positive, and the six
    # other loci are divided out by `_quotient`, on the `_dense` arrays
    # that the strip divides
    for sigma in all_perms():
        for num, den in induced_map(sigma):
            for i in range(3):
                assert not (all(k[i] for k in num) and all(k[i] for k in den))
            num, den = _dense_of(num), _dense_of(den)
            for i, j in _DEGENERATE_LOCI:
                assert (_quotient(num, i, j) is None
                        or _quotient(den, i, j) is None)


def test_induced_map_is_the_cross_ratio_at_a_point():
    # num/den of each projective image against the float cross-ratio
    # (x - u1)(u2 - u3) / ((x - u3)(u2 - u1)) of the permuted six values,
    # with every factor that holds inf dropped, for all 720 permutations
    z = (0.3 + 0.7j, -1.2 + 0.4j, 2.1 - 0.9j)
    value = dict(zip(s6.SYMBOLS, (0, 1, None) + z))

    def at_z(terms):
        return sum(c * z[0] ** a * z[1] ** b * z[2] ** d
                   for (a, b, d), c in terms.items())

    def product(factors):
        out = 1
        for a, b in factors:
            if a is not None and b is not None:
                out *= a - b
        return out

    for sigma in all_perms():
        u1, u2, u3, *xs = (value[sigma(s)] for s in s6.SYMBOLS)
        for x, (num, den) in zip(xs, induced_map(sigma)):
            want = (product([(x, u1), (u2, u3)])
                    / product([(x, u3), (u2, u1)]))
            assert cmath.isclose(at_z(num) / at_z(den), want, rel_tol=1e-9)


def test_orbit_and_fixed_group_edge_cases():
    const = MultiPoly({(0, 0, 0): 3})
    assert orbit(const) == set()
    assert fixed_group(const) == set(all_perms())
    # e1 - e2 lies on the degenerate loci only
    degenerate = MultiPoly({(1, 0, 0): 1, (0, 1, 0): -1})
    assert orbit(degenerate) == set()
    assert fixed_group(degenerate) == set()
    # e1*e2*(e1 - 2) is not canonical: its component is e1 - 2
    factor = MultiPoly({(1, 0, 0): 1, (0, 0, 0): -2})
    with_degenerate = MultiPoly({(2, 1, 0): 1, (1, 1, 0): -2})
    assert orbit(with_degenerate) == orbit(factor)
    assert fixed_group(with_degenerate) == set()


_REFS = Path(__file__).resolve().parents[1] / "bench" / "refs"


def test_fixed_group_act_count(monkeypatch):
    # one act per generator and orbit element, less one per reverse edge:
    # an image first reached by the self-inverse (e1,e2) is read back, not
    # acted, when (e1,e2) comes up from it -- 2 * 15 - 6 for h12 and
    # 2 * 6 - 3 for h5.  The root costs none, and the one search that finds
    # the images also gives the stabilizer
    calls = []

    def counting_act(sigma, poly):
        calls.append(sigma)
        return act(sigma, poly)

    monkeypatch.setattr(s6, "act", counting_act)
    h12 = ir.files("humbert") / "data" / "h12.txt"
    for path, size, order, acts in [(h12, 15, 48, 24),
                                    (_REFS / "h5.txt", 6, 120, 9)]:
        h = parse_poly(path.read_text())
        calls.clear()
        assert len(s6.fixed_group(h)) == order
        assert len(calls) == acts
        calls.clear()
        orb, fix = s6.orbit_and_stabilizer(h)
        assert (len(orb), len(fix)) == (size, order)
        assert len(calls) == acts
        calls.clear()
        assert s6.orbit(h) == orb
        assert len(calls) == acts


def _lincomb(pairs):
    """sum of coef * f over the (integer, term map) pairs, zeros kept."""
    out = {}
    get = out.get
    for coef, f in pairs:
        for k, v in f.items():
            out[k] = get(k, 0) + coef * v
    return out


def substitute_rational(poly, phi):
    """F(phi1, phi2, phi3) with minimal uniform denominator clearing, by
    nested sums: the reference that `act` is checked against.

    phi is three (num, den) pairs of integer term maps, phi_i = num_i/den_i.
    With z_i[e] = num_i^e den_i^(d_i - e) the tables of `_z_tables`, the
    cleared polynomial prod_i den_i^d_i F(phi) is formed innermost first,
    in the manner of Horner,

        sum_a z1[a] * (sum_b z2[b] * (sum_c f_abc * z3[c])),

    and stripped of degenerate-locus factors.
    """
    z = _z_tables(phi, poly.degrees)
    rows = {}
    for (a, b, c), coef in poly.terms.items():
        rows.setdefault(a, {}).setdefault(b, []).append((coef, z[2][c]))
    total = _lincomb((1, raw_mul(z[0][a], _lincomb(
        (1, raw_mul(z[1][b], _lincomb(tail))) for b, tail in cols.items())))
        for a, cols in rows.items())
    return strip_degenerate_factors(MultiPoly(total))


@pytest.mark.parametrize("name", ["h4", "h5", "h8"])
def test_acts_match_the_nested_sums(name):
    # all 720 images of h4, h5 and h8 are the reference's; at h8's degrees
    # the 6-cycle's tensor has more cells than monomials, so cells that
    # share a monomial are summed
    f = (parse_poly("e_1e_2 - e_3") if name == "h4"
         else parse_poly((_REFS / (name + ".txt")).read_text()))
    for sigma in all_perms():
        assert act(sigma, f) == substitute_rational(f, induced_map(sigma))
    if name == "h8":
        index = sum(s6.contraction_plan(
            Perm6.parse("(0,1,inf,e1,e2,e3)"), f.degrees).scatter)
        assert index.size > len(np.unique(index))


def test_images_keep_their_degrees():
    # the degrees an image keeps, read from the stripped box, are the
    # largest exponents of its terms, on all 720 images of h8
    f = parse_poly((_REFS / "h8.txt").read_text())
    for sigma in all_perms():
        g = act(sigma, f)
        assert g.degrees == tuple(max(k[i] for k in g.terms)
                                  for i in range(3))


def _int64_plan(plan):
    return all(m.dtype == np.int64 for m in plan.mats)


@pytest.mark.parametrize("terms", [
    # content 1, one coefficient past 2^63
    {(1, 1, 1): 2 ** 64 + 1, (1, 0, 0): 3, (0, 0, 1): -7},
    # |F|_1 < 2^63, but 216 (2^60 + 1) of one cell is not: the bound is on
    # |F|_1 times the norms of the tables, not on F alone, and int64 cells
    # would overflow
    {(0, 0, 0): 2 ** 60 + 1, (4, 4, 4): 1},
])
def test_wide_coefficients_take_the_object_path(terms):
    # a search generator, and the 6-cycle, whose cells share monomials: the
    # plan's matrices are int64 and the act widens them
    f = MultiPoly(terms)
    degrees = f.degrees
    for sigma in (s6._S6_GENERATORS[1], Perm6.parse("(0,1,inf,e1,e2,e3)")):
        plan = s6.contraction_plan(sigma, degrees)
        assert _int64_plan(plan)
        assert sum(map(abs, f.terms.values())) * plan.norm >= 2 ** 63
        assert act(sigma, f) == substitute_rational(f, induced_map(sigma))


def test_narrow_coefficients_take_the_int64_path():
    f = parse_poly((_REFS / "h8.txt").read_text())
    degrees = f.degrees
    for sigma in s6._S6_GENERATORS:
        plan = s6.contraction_plan(sigma, degrees)
        assert _int64_plan(plan)
        assert sum(map(abs, f.terms.values())) * plan.norm < 2 ** 63
        assert act(sigma, f) == substitute_rational(f, induced_map(sigma))


def test_a_plan_past_int64_holds_object_matrices():
    # (0,inf,e3,e2,1) sends e1 to e3/(e3 - e1), so z_1[0] = +-(e3 - e1)^63
    # has l1 norm 2^63: the plan's norm has 64 bits, and its matrices are
    # Python ints from the start
    f = MultiPoly({(63, 0, 0): 1, (0, 0, 0): 1})
    sigma = s6._S6_GENERATORS[1]
    plan = s6.contraction_plan(sigma, (63, 0, 0))
    assert plan.norm.bit_length() == 64
    assert all(m.dtype == object for m in plan.mats)
    assert act(sigma, f) == substitute_rational(f, induced_map(sigma))


def test_the_720_plans_at_degrees_4_hold_one_matrix_set():
    # each plan keeps its M_i once: the 720 plans at (4, 4, 4), built past
    # the cache, trace under 6 MiB (7.0 MiB with int lists beside the
    # arrays)
    build = s6.contraction_plan.__wrapped__
    tracemalloc.start()
    try:
        plans = [build(sigma, (4, 4, 4)) for sigma in all_perms()]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(plans) == 720 and all(map(_int64_plan, plans))
    assert size < 6 * 2 ** 20


def test_orbit_does_not_close_the_stabilizer(monkeypatch):
    # orbit shares fixed_group's search but never calls mulclose
    h8 = parse_poly((_REFS / "h8.txt").read_text())
    closed = []
    real = s6.mulclose

    def spy(gens):
        closed.append(gens)
        return real(gens)

    monkeypatch.setattr(s6, "mulclose", spy)
    assert len(orbit(h8)) == 15
    assert closed == []
    assert len(fixed_group(h8)) == 48
    assert len(closed) == 1


def test_fixed_group_is_a_group():
    f0 = MultiPoly({(2, 1, 0): 1, (0, 0, 1): -3, (0, 0, 0): 5})
    fix = fixed_group(f0)
    assert Perm6.identity() in fix
    assert mulclose(list(fix)) == fix
