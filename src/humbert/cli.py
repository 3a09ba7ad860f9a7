"""Command-line interface.

Exit codes: 0 success, 1 usage (a bad option, an `InputError` from a
documented input check of the library, or an --in or --out path that cannot
be read or written), 2 NoRelation, 3 AmbiguousKernel (for an
ImprimitiveKernel, stderr names the lower-degree factor and the --degree to
search at), 4 verification failure, 5 parse error (a `ParseError`, the one
`InputError` with its own code), 6 internal consistency failure
(IntegralityViolation, NotAUnit, NotDivisible, NonIntegralDegree,
NonConvergent, NearVanishingDenominator or SamplingExhausted).  Any other
exception is a defect and is not caught.
"""

import json
import sys
from pathlib import Path

import click

from . import __version__
from .degrees import NonIntegralDegree, degree_table
from .oracle import (NearVanishingDenominator, NonConvergent,
                     SamplingExhausted, verify_component)
from .poly import ParseError, format_poly, parse_poly
from .relations import (_SYMMETRIES, AmbiguousKernel, ImprimitiveKernel,
                        NoRelation, find_relation)
from .rosenhain import IntegralityViolation, rosenhain_triple
from .s6 import fixed_group, orbit
from .series import InputError, NotAUnit, NotDivisible, series_to_record
from .theta import ThetaChar, humbert_params, restricted_theta

SCHEMA = "humbert/1"

EXIT_USAGE = 1
EXIT_NO_RELATION = 2
EXIT_AMBIGUOUS = 3
EXIT_VERIFY_FAIL = 4
EXIT_PARSE = 5
EXIT_INTERNAL = 6


def _emit(text, out):
    if out:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"))
    else:
        click.echo(text)


@click.group()
@click.version_option(__version__)
def main():
    """Humbert surface components in Rosenhain invariants, exactly."""


@main.command()
@click.option("--max", "max_delta", type=click.IntRange(min=1), default=24,
              show_default=True)
@click.option("--json", "as_json", is_flag=True)
def degrees(max_delta, as_json):
    """Component counts and degrees for admissible discriminants."""
    rows = degree_table(max_delta)
    if as_json:
        payload = {"schema": SCHEMA, "rows": [
            {"delta": d, "m": m, "a_delta": a, "deg_fstar": f,
             "deg_conjectured": c} for d, m, a, f, c in rows]}
        click.echo(json.dumps(payload, indent=2))
        return
    click.echo("delta   m   a_delta  deg_F*  deg_F (conjectural)")
    for d, m, a, f, c in rows:
        click.echo("%5d %3d %9d %7d  %s" % (d, m, a, f,
                                            "special" if c is None else c))


@main.command()
@click.option("--disc", "delta", type=int, required=True)
@click.option("--prec", "precision", type=int, required=True)
@click.option("--char", "char_bits", type=str, required=True,
              help="four bits abcd, e.g. 1100")
@click.option("--out", type=click.Path(), default=None)
def theta(delta, precision, char_bits, out):
    """Restricted Fourier expansion of a theta constant on H_Delta."""
    disc = humbert_params(delta)
    char = ThetaChar.from_string(char_bits)
    f = restricted_theta(char, disc, precision)
    payload = {"schema": SCHEMA, "delta": delta, "k": disc.k, "ell": disc.ell,
               "char": char_bits, "series": series_to_record(f)}
    _emit(json.dumps(payload, indent=2), out)


@main.command()
@click.option("--disc", "delta", type=int, required=True)
@click.option("--prec", "precision", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
def rosenhain(delta, precision, out):
    """Rosenhain invariant expansions (e1, e2, e3) on H_Delta."""
    disc = humbert_params(delta)
    triple = rosenhain_triple(disc, precision)
    payload = {
        "schema": SCHEMA, "delta": delta, "k": disc.k, "ell": disc.ell,
        "precision": precision,
        "e1": series_to_record(triple.e1),
        "e2": series_to_record(triple.e2),
        "e3": series_to_record(triple.e3),
    }
    _emit(json.dumps(payload, indent=2), out)


@main.command()
@click.option("--disc", "delta", type=int, required=True)
@click.option("--degree", "degree_", type=int, required=True)
@click.option("--prec", "precision", type=int, default=None)
@click.option("--symmetry", default=None, type=click.Choice(
    [name for name in _SYMMETRIES if name is not None]))
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def find(delta, degree_, precision, symmetry, as_json, out):
    """Find the degree-d relation among the Rosenhain expansions."""
    report = find_relation(delta, degree_, precision=precision,
                           symmetry=symmetry)
    if as_json:
        _emit(json.dumps(report.to_record(), indent=2), out)
    else:
        lines = ["delta=%d degree=%d N=%d kernel_dim=%d monomials=%d"
                 % (delta, degree_, report.precision, report.kernel_dim,
                    report.monomial_count),
                 "checks: " + ", ".join("N=%d %s" % (n, "ok" if ok else
                                                     "FAIL")
                                        for n, ok in report.residual_checks),
                 format_poly(report.polynomial)]
        _emit("\n".join(lines), out)


@main.command("orbit")
@click.option("--in", "infile", type=click.Path(exists=True), required=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def orbit_cmd(infile, as_json, out):
    """S6 orbit of a component polynomial (text format)."""
    poly = parse_poly(Path(infile).read_text())
    polys = sorted(orbit(poly), key=lambda f: sorted(f.terms.items()))
    if as_json:
        payload = {"schema": SCHEMA, "size": len(polys),
                   "orbit": [f.to_record() for f in polys]}
        _emit(json.dumps(payload, indent=2), out)
    else:
        _emit("\n".join(["orbit size %d" % len(polys)] +
                        [format_poly(f) for f in polys]), out)


@main.command()
@click.option("--in", "infile", type=click.Path(exists=True), required=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def fixgroup(infile, as_json, out):
    """Fixed group of a component polynomial, in cycle notation."""
    poly = parse_poly(Path(infile).read_text())
    group = fixed_group(poly)
    strs = sorted(str(s) for s in group)
    if as_json:
        payload = {"schema": SCHEMA, "order": len(group), "elements": strs}
        _emit(json.dumps(payload, indent=2), out)
    else:
        _emit("\n".join(["order %d" % len(group)] + strs), out)


@main.command()
@click.option("--in", "infile", type=click.Path(exists=True), required=True)
@click.option("--disc", "delta", type=int, required=True)
@click.option("--trials", type=click.IntRange(min=1), default=20,
              show_default=True)
@click.option("--tol", type=click.FloatRange(min=0, min_open=True),
              default=1e-6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def verify(infile, delta, trials, tol, seed, as_json, out):
    """Numeric verification of a component polynomial on H_Delta."""
    poly = parse_poly(Path(infile).read_text())
    passed, max_res, residuals = verify_component(poly, delta, trials=trials,
                                                  tol=tol, seed=seed)
    if as_json:
        payload = {"schema": SCHEMA, "delta": delta, "passed": passed,
                   "max_residual": max_res, "residuals": residuals}
        _emit(json.dumps(payload, indent=2), out)
    else:
        _emit("%s  max residual %.3e (tol %.1e, %d trials)"
              % ("PASS" if passed else "FAIL", max_res, tol, trials), out)
    if not passed:
        sys.exit(EXIT_VERIFY_FAIL)


def _wrap_errors(fn):
    def run():
        try:
            fn(standalone_mode=False)
        except click.UsageError as exc:
            click.echo("usage error: %s" % exc.format_message(), err=True)
            sys.exit(EXIT_USAGE)
        except click.exceptions.Abort:
            sys.exit(EXIT_USAGE)
        except NoRelation as exc:
            click.echo("no relation: %s" % exc, err=True)
            sys.exit(EXIT_NO_RELATION)
        except ImprimitiveKernel as exc:
            click.echo("imprimitive kernel: dimension %d at degree %d is the "
                       "multiples of %s; rerun with --degree %d"
                       % (exc.kernel_dim, exc.degree, format_poly(exc.factor),
                          exc.factor_degree), err=True)
            sys.exit(EXIT_AMBIGUOUS)
        except AmbiguousKernel as exc:
            click.echo("ambiguous kernel: %s" % exc, err=True)
            sys.exit(EXIT_AMBIGUOUS)
        except ParseError as exc:
            click.echo("parse error: %s" % exc, err=True)
            sys.exit(EXIT_PARSE)
        except (InputError, OSError) as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(EXIT_USAGE)
        except (IntegralityViolation, NotAUnit, NotDivisible,
                NonIntegralDegree, NonConvergent, NearVanishingDenominator,
                SamplingExhausted) as exc:
            click.echo("internal consistency failure: %s" % exc, err=True)
            sys.exit(EXIT_INTERNAL)
    return run


cli_entry = _wrap_errors(main)

if __name__ == "__main__":
    cli_entry()
