"""Acceptance criteria, one test per criterion, one printed verdict each.

Criterion 5a runs the degree-4 search on H_4 at N=48.  The component is the
degree-2 relation e1 e2 - e3, so the degree-4 kernel is exactly its 10
multiples by monomials of degree <= 2 and can never be one-dimensional; the
criterion checks that the search names that factor (ImprimitiveKernel) and
that the factor passes the downstream checks.
"""

import importlib.resources as ir
import random
import time
from math import comb

import pytest

from humbert.degrees import (a_delta, admissible_range, deg_fstar,
                             degree_table, m_components)
from humbert.oracle import (pq_coordinates, rosenhain_numeric,
                            sample_humbert_point, verify_component)
from humbert.poly import MultiPoly, eval_on_series, parse_poly
from humbert import relations
from humbert.relations import ImprimitiveKernel, find_relation
from humbert.rosenhain import rosenhain_triple
from humbert.s6 import (Perm6, act, all_perms, fixed_group, mulclose,
                        orbit, orbit_and_stabilizer, paper_generators,
                        _G_EVEN, _CONJ_EVEN)
from humbert.series import TruncatedSeries
from humbert.theta import THETA_CHARS, ThetaChar, humbert_params, \
    restricted_theta
from test_oracle import eval_series_numeric, expansion_vs_direct

EXPECTED_DEG_FSTAR = [1, 4, 8, 8, 24, 16, 40, 32, 48, 32, 80, 48]


def verdict(name, ok, detail=""):
    print("ACCEPTANCE %s: %s%s" % (name, "PASS" if ok else "FAIL",
                                   " (%s)" % detail if detail else ""))


def h12_fixture():
    return parse_poly((ir.files("humbert") / "data" / "h12.txt").read_text())


def test_criterion_1_degree_table():
    t0 = time.time()
    rows = degree_table(24)
    elapsed = time.time() - t0
    got = [r[3] for r in rows]
    ok = got == EXPECTED_DEG_FSTAR and elapsed < 1.0
    for delta, m, _, _, _ in rows:
        if delta % 8 == 1:
            ok = ok and m == 10
        elif delta % 4 == 0:
            ok = ok and m == 15
        else:
            ok = ok and m == 6
    verdict("1 (degree table)", ok, "%.3fs" % elapsed)
    assert ok


def test_criterion_2_siegel_consistency():
    t0 = time.time()
    ok = True
    for delta in admissible_range(200):
        recursed = 0
        t = 1
        while t * t <= delta:
            if delta % (t * t) == 0:
                sub = delta // (t * t)
                if sub % 4 in (0, 1):
                    recursed += m_components(sub) * deg_fstar(sub)
            t += 1
        ok = ok and recursed == a_delta(delta)
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    verdict("2 (Siegel consistency to 200)", ok, "%.3fs" % elapsed)
    assert ok


def test_criterion_3_theta_leading_terms():
    t0 = time.time()
    ok = True
    for delta in (4, 5, 8, 12, 13):
        disc = humbert_params(delta)
        i0, j0 = 1 + disc.k, disc.k + disc.ell - 1
        n = max(12, i0 + 2, j0 + 2)
        t8 = restricted_theta(ThetaChar.from_index(8), disc, n)
        t10 = restricted_theta(ThetaChar.from_index(10), disc, n)
        for t, lead in ((t8, 2), (t10, -2)):
            ok = ok and all(i >= i0 and j >= j0 for i, j in t.terms)
            ok = ok and t.terms.get((i0, j0)) == lead
        for idx in (1, 2, 3, 4):
            f = restricted_theta(ThetaChar.from_index(idx), disc, n)
            ok = ok and f.constant_term() == 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    verdict("3 (theta leading terms)", ok, "%.3fs" % elapsed)
    assert ok


def test_criterion_4_golden_fixture():
    t0 = time.time()
    poly = h12_fixture()
    triple = rosenhain_triple(humbert_params(12), 100)
    value = eval_on_series(poly, triple)
    elapsed = time.time() - t0
    ok = value.is_zero() and elapsed < 600.0
    verdict("4 (golden fixture vanishes at N=100)", ok, "%.1fs" % elapsed)
    assert ok


def test_criterion_5a_delta4_degree4_as_stated():
    # the spec example pins N=48.  e1*e2 - e3 vanishes on H_4, so its
    # comb(5, 3) = 10 independent multiples by monomials of degree <= 2 lie
    # in the degree-4 kernel at every precision: the search identifies the
    # component by naming that factor, not by a one-dimensional kernel
    h4 = MultiPoly({(1, 1, 0): 1, (0, 0, 1): -1})
    with pytest.raises(ImprimitiveKernel) as info:
        find_relation(4, 4, precision=48)
    exc = info.value
    ok = exc.kernel_dim == 10 == comb(5, 3)
    ok = ok and exc.factor == h4 and exc.factor_degree == 2
    passed, max_res, _ = verify_component(exc.factor, 4, trials=20,
                                          tol=1e-6)
    ok = ok and passed and len(orbit(exc.factor)) == 15
    ok = ok and find_relation(4, 2, precision=48).polynomial == exc.factor
    verdict("5a (delta=4 d=4 kernel = the 10 multiples of e1*e2 - e3)", ok,
            "kernel dim %s, residual %.1e" % (exc.kernel_dim, max_res))
    assert ok


@pytest.mark.parametrize("delta,degree,orbit_size",
                         [(8, 8, 15), (5, 8, 6)])
def test_criterion_5_relation_discovery(delta, degree, orbit_size):
    t0 = time.time()
    report = find_relation(delta, degree)
    ok = report.kernel_dim == 1
    passed, max_res, _ = verify_component(report.polynomial, delta,
                                          trials=20, tol=1e-6)
    ok = ok and passed
    ok = ok and len(orbit(report.polynomial)) == orbit_size
    verdict("5 (delta=%d d=%d discovery)" % (delta, degree), ok,
            "residual %.1e, %.0fs" % (max_res, time.time() - t0))
    assert ok


@pytest.mark.slow
def test_criterion_6_delta12_stretch():
    t0 = time.time()
    report = find_relation(12, 16, symmetry="e1e2")
    elapsed = time.time() - t0
    ok = report.kernel_dim == 1
    ok = ok and report.polynomial == h12_fixture()
    ok = ok and elapsed < 3600.0
    verdict("6 (delta=12 d=16 symmetric search)", ok, "%.0fs" % elapsed)
    assert ok


@pytest.mark.slow
def test_criterion_6_delta9_stretch(monkeypatch):
    # the degree-16 component of H_9, found without symmetry, is one of
    # the m(9) = 10 components of H_9 and is fixed by the paper's group.
    # The whole 969-column system is eliminated once at each of the two
    # lift primes: the later attempts solve only their new equations at the
    # first prime, and the degree-14 check at N=170 reads the first prime's
    # kernel instead of eliminating the 680 degree-14 columns.  The
    # one-prime lift at N=212 is past the bound of its prime, so the
    # relation is rechecked exactly once, as the two-prime lift
    columns, rechecked = [], []
    nullspace, evaluate = relations._nullspace_mod, relations.eval_on_series

    def spying(mat, p):
        columns.append(mat.shape[1])
        return nullspace(mat, p)

    def counting(poly, ros):
        rechecked.append(ros.precision)
        return evaluate(poly, ros)

    monkeypatch.setattr(relations, "_nullspace_mod", spying)
    monkeypatch.setattr(relations, "eval_on_series", counting)
    t0 = time.time()
    report = find_relation(9, 16)
    elapsed = time.time() - t0
    h9 = report.polynomial
    ok = report.degree == 16 and report.kernel_dim == 1
    ok = ok and comb(14 + 3, 3) == 680 and 680 not in columns
    ok = ok and columns.count(comb(16 + 3, 3)) == 2
    ok = ok and rechecked == [report.precision + 8]
    checks = [passed for _, passed in report.residual_checks]
    ok = ok and checks == [True, True]
    orb, stab = orbit_and_stabilizer(h9)
    ok = ok and len(orb) == m_components(9) == 10
    ok = ok and stab == mulclose(paper_generators(9)) and len(stab) == 72
    verdict("6 (delta=9 d=16 search)", ok,
            "search %.0fs, %.0fs" % (elapsed, time.time() - t0))
    assert ok


def test_criterion_7_fixed_groups():
    t0 = time.time()
    G = mulclose([Perm6.parse(s) for s in _G_EVEN])
    g = Perm6.parse(_CONJ_EVEN)
    ok = len(G) == 48
    ok = ok and len(mulclose(paper_generators(9))) == 72
    ok = ok and len(mulclose(paper_generators(5))) == 120

    fg12 = fixed_group(h12_fixture())
    ok = ok and len(fg12) == 48 and fg12 == G
    ok = ok and all(s in fg12 for s in [Perm6.parse(t) for t in _G_EVEN])

    h8 = find_relation(8, 8).polynomial
    fg8 = fixed_group(h8)
    # conjugate of G by g = (1,inf)(e1,e2,e3); with the composition
    # convention (s*t)(x) = s(t(x)) the matching orientation is g G g^-1
    ok = ok and fg8 == {g * h * g.inverse() for h in G}

    h5 = find_relation(5, 8).polynomial
    fg5 = fixed_group(h5)
    ok = ok and len(fg5) == 120
    ok = ok and fg5 == mulclose(paper_generators(5))
    verdict("7 (fixed groups)", ok, "%.0fs" % (time.time() - t0))
    assert ok


def test_criterion_8_oracle_equivalence():
    t0 = time.time()
    ok = True
    worst = 0.0
    for delta in (4, 5, 12):
        disc = humbert_params(delta)
        for seed in range(5):
            pt = sample_humbert_point(disc, seed=seed)
            for idx in THETA_CHARS:
                err = expansion_vs_direct(disc, ThetaChar.from_index(idx),
                                          pt, 60)
                worst = max(worst, err)
                ok = ok and err < 1e-6
    # series-vs-numeric Rosenhain agreement; the dense Rosenhain series
    # need N = 120 for truncation below 1e-6 over the whole sampler box
    for delta in (4, 5, 12):
        disc = humbert_params(delta)
        triple = rosenhain_triple(disc, 120)
        for seed in range(5):
            pt = sample_humbert_point(disc, seed=seed)
            p, q = pq_coordinates(pt)
            for f, val in zip(triple.series(), rosenhain_numeric(pt, disc)):
                rel = abs(eval_series_numeric(f, p, q) - val) / abs(val)
                ok = ok and rel < 1e-6
    verdict("8 (oracle equivalence)", ok,
            "worst theta err %.1e, %.0fs" % (worst, time.time() - t0))
    assert ok


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = random.Random(1234)
    ok = True

    def rand_series(n, unit=False):
        terms = {(rng.randrange(n), rng.randrange(n)): rng.randint(-9, 9)
                 for _ in range(6)}
        if unit:
            terms[(0, 0)] = rng.choice([1, -1])
        return TruncatedSeries(terms, n)

    for _ in range(1000):
        n = rng.choice([4, 6])
        f, g, h = rand_series(n), rand_series(n), rand_series(n)
        ok = ok and (f + g) + h == f + (g + h) and f * g == g * f
        ok = ok and f * (g + h) == f * g + f * h
        ok = ok and (f * g) * h == f * (g * h)
    for _ in range(200):
        f = rand_series(6, unit=True)
        ok = ok and f * f.inverse() == TruncatedSeries.one(6)
    for _ in range(200):
        n = 8
        a, b = rng.randrange(2), rng.randrange(2)
        f = rand_series(n)
        kept = TruncatedSeries({k: c for k, c in f.terms.items()
                                if k[0] + a < n and k[1] + b < n}, n)
        shifted = TruncatedSeries({(i + a, j + b): c
                                   for (i, j), c in f.terms.items()}, n)
        ok = ok and shifted.divide_monomial(a, b) == kept
    for _ in range(200):
        terms = {(rng.randrange(4), rng.randrange(4), rng.randrange(4)):
                 rng.randint(-9, 9) for _ in range(5)}
        terms[(1, 0, 0)] = terms.get((1, 0, 0), 0) + 1
        f = MultiPoly(terms)
        lam = rng.choice((-1, 1)) * rng.randint(1, 7)
        ok = ok and MultiPoly({k: c * lam for k, c in f.terms.items()}) == f

    perms = all_perms()
    f0 = MultiPoly({(2, 1, 0): 1, (0, 0, 1): -3, (1, 1, 1): 2,
                    (0, 0, 0): 5})
    for _ in range(200):
        s, t = rng.choice(perms), rng.choice(perms)
        ok = ok and act(s * t, f0) == act(s, act(t, f0))

    done = 0
    while done < 200:
        terms = {(rng.randrange(2), rng.randrange(2), rng.randrange(2)):
                 rng.randint(-5, 5) for _ in range(4)}
        terms[(0, 0, 0)] = terms.get((0, 0, 0), 0) + 7
        if not any(k != (0, 0, 0) and c for k, c in terms.items()):
            continue
        f = MultiPoly(terms)
        images = set()
        stab = 0
        degenerate = False
        for s in perms:
            try:
                img = act(s, f)
            except Exception:
                degenerate = True
                break
            images.add(img)
            if img == f:
                stab += 1
        if degenerate:
            continue
        ok = ok and len(images) * stab == 720
        done += 1
    verdict("9 (property suites)", ok, "%.0fs" % (time.time() - t0))
    assert ok
