"""Tests for the S6 action on component polynomials."""

import cmath
import importlib.resources as ir
import random

import pytest

from humbert import s6
from humbert.poly import (_DEGENERATE_LOCI, DegenerateOnly, MultiPoly,
                          divide_degenerate, parse_poly)
from humbert.s6 import (Perm6, act, all_perms, fixed_group, induced_map,
                        mulclose, orbit, paper_generators)

rng = random.Random(31415)


def test_perm_parse_and_str_round_trip():
    for text in ["(e1,e2)", "(0,e1,e3,inf,e2,1)", "(1,inf)(e1,e2,e3)",
                 "(0,e1)(1,e2)(inf,e3)"]:
        s = Perm6.parse(text)
        assert Perm6.parse(str(s)) == s


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
    orb = orbit(f0)
    fix = fixed_group(f0)
    assert len(orb) * len(fix) == 720


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
        assert orbit(f) == images
        assert fixed_group(f) == stab
        done += 1


def test_induced_map_is_reduced():
    # numerator and denominator of each cross-ratio are products of
    # differences of four distinct pairs of symbols, so no degenerate
    # factor divides both, for any of the 720 permutations
    for sigma in all_perms():
        phi = induced_map(sigma)
        for num, den in phi:
            for i, t in _DEGENERATE_LOCI:
                assert (divide_degenerate(num, i, t) is None
                        or divide_degenerate(den, i, t) is None)


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


def test_fixed_group_act_count(monkeypatch):
    # one act for the root plus one per generator and orbit element
    h12 = parse_poly((ir.files("humbert") / "data" / "h12.txt").read_text())
    calls = []

    def counting_act(sigma, poly):
        calls.append(sigma)
        return act(sigma, poly)

    monkeypatch.setattr(s6, "act", counting_act)
    assert len(s6.fixed_group(h12)) == 48
    assert len(calls) <= 1 + 2 * 15


def test_fixed_group_is_a_group():
    f0 = MultiPoly({(2, 1, 0): 1, (0, 0, 1): -3, (0, 0, 0): 5})
    fix = fixed_group(f0)
    assert Perm6.identity() in fix
    assert mulclose(list(fix)) == fix
