"""Tests for restricted theta constant expansions."""

import pytest

from humbert.series import InputError, TruncatedSeries
from humbert.theta import (THETA_CHARS, Discriminant, NotAdmissible,
                           ThetaChar, enumerate_lattice, humbert_params,
                           restricted_theta)

DISCS = [1, 4, 5, 8, 12, 13]


def test_humbert_params_splits_delta():
    assert humbert_params(4) == Discriminant(4, 1, 0)
    assert humbert_params(5) == Discriminant(5, 1, 1)
    assert humbert_params(8) == Discriminant(8, 2, 0)
    assert humbert_params(12) == Discriminant(12, 3, 0)
    assert humbert_params(13) == Discriminant(13, 3, 1)


def test_non_admissible_rejected():
    for bad in [0, 2, 3, -4, 6, 7, 10, 11]:
        with pytest.raises(NotAdmissible):
            humbert_params(bad)


def test_discriminant_checks_its_decomposition():
    # Delta = 6 is not admissible; 8 = 4k + l needs (k, l) = (2, 0)
    with pytest.raises(NotAdmissible):
        Discriminant(6, 1, 2)
    with pytest.raises(InputError, match="inconsistent decomposition") as e:
        Discriminant(8, 1, 0)
    assert not isinstance(e.value, NotAdmissible)


def test_characteristic_whitelist():
    assert set(THETA_CHARS) == {1, 2, 3, 4, 8, 10}
    assert ThetaChar.from_index(8) == ThetaChar(1, 1, 0, 0)
    with pytest.raises(ValueError):
        ThetaChar(1, 0, 0, 0)


@pytest.mark.parametrize("delta", DISCS)
def test_even_thetas_have_constant_term_one(delta):
    disc = humbert_params(delta)
    for idx in (1, 2, 3, 4):
        f = restricted_theta(ThetaChar.from_index(idx), disc, 12)
        assert f.constant_term() == 1


@pytest.mark.parametrize("delta", DISCS)
def test_theta8_theta10_leading_terms(delta):
    disc = humbert_params(delta)
    i0 = 1 + disc.k
    j0 = disc.k + disc.ell - 1
    n = max(12, i0 + 2, j0 + 2)
    t8 = restricted_theta(ThetaChar.from_index(8), disc, n)
    t10 = restricted_theta(ThetaChar.from_index(10), disc, n)
    assert all(i >= i0 and j >= j0 for i, j in t8.terms)
    assert t8.terms[(i0, j0)] == 2
    assert all(i >= i0 and j >= j0 for i, j in t10.terms)
    assert t10.terms[(i0, j0)] == -2


@pytest.mark.parametrize("delta", DISCS)
def test_expansions_are_integral(delta):
    disc = humbert_params(delta)
    for idx in THETA_CHARS:
        f = restricted_theta(ThetaChar.from_index(idx), disc, 16)
        assert all(type(c) is int for c in f.terms.values())


def test_lattice_enumeration_small():
    # Delta = 4 (k=1, ell=0), char (0,0,*,*): points with both exponents
    # below 4 are exactly x = (0,0), (-1,0), (0,-1), (-1,1)... checked by
    # brute force below instead of a hand list.
    disc = humbert_params(4)
    char = ThetaChar.from_index(1)
    got = {(t[0], t[1]) for t in enumerate_lattice(char, disc, 6)}
    brute = set()
    for x1 in range(-20, 21):
        for x2 in range(-20, 21):
            pe = (2 * x1 + char.a) ** 2 + disc.k * (2 * x2 + char.b) ** 2
            qe = ((2 * x1 + char.a + 2 * x2 + char.b) ** 2
                  + (disc.k + disc.ell - 1) * (2 * x2 + char.b) ** 2)
            if pe < 6 and qe < 6:
                brute.add((x1, x2))
    assert got == brute


@pytest.mark.parametrize("delta", DISCS)
def test_lattice_enumeration_matches_brute_force(delta):
    disc = humbert_params(delta)
    for idx in THETA_CHARS:
        char = ThetaChar.from_index(idx)
        got = {(t[0], t[1]) for t in enumerate_lattice(char, disc, 20)}
        brute = set()
        for x1 in range(-30, 31):
            for x2 in range(-30, 31):
                pe = (2 * x1 + char.a) ** 2 + disc.k * (2 * x2 + char.b) ** 2
                qe = ((2 * x1 + char.a + 2 * x2 + char.b) ** 2
                      + (disc.k + disc.ell - 1) * (2 * x2 + char.b) ** 2)
                if pe < 20 and qe < 20:
                    brute.add((x1, x2))
        assert got == brute


def brute_force_theta(char, disc, n):
    terms = {}
    for x1 in range(-40, 41):
        for x2 in range(-40, 41):
            pe = (2 * x1 + char.a) ** 2 + disc.k * (2 * x2 + char.b) ** 2
            qe = ((2 * x1 + char.a + 2 * x2 + char.b) ** 2
                  + (disc.k + disc.ell - 1) * (2 * x2 + char.b) ** 2)
            if pe < n and qe < n:
                sign = -1 if (x1 * char.c + x2 * char.d) % 2 else 1
                terms[(pe, qe)] = terms.get((pe, qe), 0) + sign
    return TruncatedSeries(terms, n)


@pytest.mark.parametrize("delta", DISCS)
def test_expansion_matches_definition(delta):
    disc = humbert_params(delta)
    for idx in THETA_CHARS:
        char = ThetaChar.from_index(idx)
        assert restricted_theta(char, disc, 16) == brute_force_theta(
            char, disc, 16)
