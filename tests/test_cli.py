"""Tests for the command-line interface."""

import contextlib
import io
import json
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from humbert import cli, relations
from humbert.degrees import NonIntegralDegree, SpecialCase
from humbert.oracle import (NearVanishingDenominator, NonConvergent,
                            SamplingExhausted)
from humbert.poly import ZeroPolynomial
from humbert.series import InputError, NotAUnit, NotDivisible
from humbert.theta import NotAdmissible


def run_cli(args, env_extra=None, cwd=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "humbert.cli"] + args,
                          capture_output=True, text=True, env=env, cwd=cwd)


def test_degrees_table(tmp_path):
    res = run_cli(["degrees", "--max", "24"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 13  # header + 12 rows
    assert lines[1].split()[:4] == ["1", "10", "10", "1"]
    assert lines[-1].split()[:4] == ["24", "15", "720", "48"]


def test_degrees_json_schema():
    res = run_cli(["degrees", "--max", "8", "--json"])
    payload = json.loads(res.stdout)
    assert payload["schema"] == "humbert/1"
    assert [r["delta"] for r in payload["rows"]] == [1, 4, 5, 8]


def test_theta_command(tmp_path):
    out = tmp_path / "theta.json"
    res = run_cli(["theta", "--disc", "12", "--prec", "10",
                   "--char", "1100", "--out", str(out)])
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["k"] == 3 and payload["ell"] == 0
    assert [4, 2, "2/1"] in payload["series"]["terms"]


def test_find_relation_and_exit_codes(tmp_path):
    res = run_cli(["find", "--disc", "4", "--degree", "2", "--json"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["kernel_dim"] == 1

    res = run_cli(["find", "--disc", "12", "--degree", "3"])
    assert res.returncode == 2

    res = run_cli(["find", "--disc", "4", "--degree", "4",
                   "--prec", "48"])
    assert res.returncode == 3
    assert "e_1e_2 - e_3" in res.stderr
    assert "--degree 2" in res.stderr


def test_usage_error_exit_code():
    res = run_cli(["find", "--disc", "7", "--degree", "2"])
    assert res.returncode == 1
    res = run_cli(["rosenhain", "--disc", "4", "--prec", "2"])
    assert res.returncode == 1


def test_too_small_precision_is_a_usage_error():
    # N <= k + 1 used to end in a ZeroDivisionError traceback
    res = run_cli(["rosenhain", "--disc", "24", "--prec", "7"])
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert "delta=24; the smallest valid N is 8" in res.stderr
    # delta=100 has k=25
    res = run_cli(["find", "--disc", "100", "--degree", "1", "--prec", "16"])
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert "delta=100; the smallest valid N is 27" in res.stderr


def test_too_large_precision_is_a_usage_error(monkeypatch, capsys):
    # delta=5 at N=361 is past the supported precision cap of 360; the cap
    # is checked before any theta series is expanded
    def no_triple(disc, precision):
        raise AssertionError("rosenhain_triple called at N=%d" % precision)

    monkeypatch.setattr(relations, "rosenhain_triple", no_triple)
    monkeypatch.setattr(sys, "argv", ["humbert", "find", "--disc", "5",
                                      "--degree", "2", "--prec", "361"])
    with pytest.raises(SystemExit) as info:
        cli.cli_entry()
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: precision N=361 is too large")
    assert "the largest valid N is 360" in err


def test_find_stops_escalating_at_the_precision_cap():
    # delta=289 is ambiguous at its first N=293, and the next attempt
    # (N=366) is past the cap: the ambiguity stands (exit 3), not a usage
    # error
    res = run_cli(["find", "--disc", "289", "--degree", "2"])
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert "kernel dimension 3 at degree 2 for delta=289 at N=293" in (
        res.stderr)


def test_find_refuses_more_top_degree_monomials_than_points():
    # degree 1000 at N=100 would list C(1003, 3) unknowns for 625 lattice
    # points; it is refused before the list, as an AmbiguousKernel (exit 3)
    res = run_cli(["find", "--disc", "5", "--prec", "100", "--degree",
                   "1000"])
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("ambiguous kernel: degree 1000 for delta=5 "
                                 "at N=100 has 501501 top-degree monomials")


def test_find_refuses_more_unknowns_than_the_float64_bound():
    # degree 35 at N=360 passes the top-degree guard with 8,436 unknowns,
    # past the 8,191 of the float64 elimination: a usage error (exit 1)
    res = run_cli(["find", "--disc", "5", "--prec", "360", "--degree",
                   "35"])
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: degree 35 for delta=5 has 8436 "
                                 "unknowns, more than the 8191")


def test_find_starts_at_the_smallest_valid_precision():
    # degree 1 alone would start at N=16, below delta=60's smallest N=17;
    # the search starts at 4(k + l) + 1 = 61, where e1 - 1 no longer
    # vanishes, and ends in NoRelation there
    res = run_cli(["find", "--disc", "60", "--degree", "1"])
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "at N=61" in res.stderr


def test_find_for_a_large_discriminant_at_low_degree():
    # for delta=100 (k=25), e1 - 1 vanishes mod (p^N, q^N) up to N=100, so
    # a search below N=101 finds only that degenerate candidate (exit 3)
    res = run_cli(["find", "--disc", "100", "--degree", "1"])
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "at N=101" in res.stderr


def test_find_at_a_precision_where_t8_reaches_past_n():
    # at N=17 the quotient of t8 and t10 by p^2 used to be wrong in its top
    # terms, and the N + 8 recheck died on an AssertionError
    res = run_cli(["find", "--disc", "4", "--degree", "2", "--prec", "17"])
    assert res.returncode == 0
    assert "Traceback" not in res.stderr
    assert "e_1e_2 - e_3" in res.stdout


def test_degenerate_candidate_exit_codes():
    # e1 - 1 vanishes to N=16 for Delta=24 but lies on the degenerate loci
    res = run_cli(["find", "--disc", "24", "--degree", "1", "--prec", "16"])
    assert res.returncode == 3
    assert "degenerate loci" in res.stderr
    res = run_cli(["find", "--disc", "24", "--degree", "1"])
    assert res.returncode == 2
    assert "e_1 - 1" not in res.stdout


@pytest.mark.parametrize("error", [NotAUnit, NotDivisible, NonIntegralDegree,
                                   NonConvergent, NearVanishingDenominator,
                                   SamplingExhausted])
def test_library_failures_exit_6(monkeypatch, capsys, error):
    def failing(max_delta):
        raise error("injected failure")

    monkeypatch.setattr(cli, "degree_table", failing)
    monkeypatch.setattr(sys, "argv", ["humbert", "degrees"])
    with pytest.raises(SystemExit) as info:
        cli.cli_entry()
    assert info.value.code == 6
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "internal consistency failure: injected failure" in err


@pytest.mark.parametrize("error", [InputError, NotAdmissible, SpecialCase,
                                   ZeroPolynomial])
def test_input_errors_exit_1(monkeypatch, capsys, error):
    def failing(max_delta):
        raise error("injected input")

    monkeypatch.setattr(cli, "degree_table", failing)
    monkeypatch.setattr(sys, "argv", ["humbert", "degrees"])
    with pytest.raises(SystemExit) as info:
        cli.cli_entry()
    assert info.value.code == 1
    assert capsys.readouterr().err == "error: injected input\n"


def test_a_bare_value_error_is_not_a_usage_error(monkeypatch, capsys):
    # exit 1 is for the library's documented input checks (InputError); a
    # ValueError from anywhere else is a defect and propagates
    def failing(max_delta):
        raise ValueError("injected defect")

    monkeypatch.setattr(cli, "degree_table", failing)
    monkeypatch.setattr(sys, "argv", ["humbert", "degrees"])
    with pytest.raises(ValueError, match="injected defect"):
        cli.cli_entry()
    assert "error: " not in capsys.readouterr().err


def test_degrees_rejects_a_nonpositive_max():
    res = run_cli(["degrees", "--max", "-3"])
    assert res.returncode == 1
    assert res.stdout == "" and "'--max'" in res.stderr


def test_verify_rejects_zero_trials(tmp_path):
    poly = tmp_path / "h4.txt"
    poly.write_text("e_1e_2 - e_3")
    res = run_cli(["verify", "--in", str(poly), "--disc", "4",
                   "--trials", "0"])
    assert res.returncode == 1
    assert "'--trials'" in res.stderr


def test_verify_rejects_a_nonpositive_tolerance(tmp_path):
    poly = tmp_path / "h4.txt"
    poly.write_text("e_1e_2 - e_3")
    for tol in ("-1", "0"):
        res = run_cli(["verify", "--in", str(poly), "--disc", "4",
                       "--tol", tol])
        assert res.returncode == 1
        assert res.stdout == "" and "'--tol'" in res.stderr
    # click's range check lets nan and inf through; verify_component
    # rejects them before it samples
    for tol in ("nan", "inf"):
        res = run_cli(["verify", "--in", str(poly), "--disc", "4",
                       "--tol", tol])
        assert res.returncode == 1
        assert res.stdout == "" and "0 < tol < inf" in res.stderr
        assert "Traceback" not in res.stderr


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("e_1 + @@@")
    res = run_cli(["verify", "--in", str(bad), "--disc", "4"])
    assert res.returncode == 5


def test_input_that_cancels_to_zero_is_a_parse_error(tmp_path):
    zero = tmp_path / "zero.txt"
    zero.write_text("e_1 - e_1")
    res = run_cli(["orbit", "--in", str(zero)])
    assert res.returncode == 5
    assert "parse error: input cancels to zero" in res.stderr


def test_verify_accepts_explicit_star(tmp_path):
    poly = tmp_path / "h4.txt"
    poly.write_text("e_1*e_2 - e_3")
    res = run_cli(["verify", "--in", str(poly), "--disc", "4",
                   "--trials", "5"])
    assert res.returncode == 0, res.stderr
    poly.write_text("e_1**e_2 - e_3")
    res = run_cli(["verify", "--in", str(poly), "--disc", "4"])
    assert res.returncode == 5


def test_verify_pass_and_fail(tmp_path):
    poly = tmp_path / "h4.txt"
    poly.write_text("e_1e_2 - e_3")
    res = run_cli(["verify", "--in", str(poly), "--disc", "4",
                   "--trials", "5"])
    assert res.returncode == 0, res.stderr
    assert "PASS" in res.stdout

    res = run_cli(["verify", "--in", str(poly), "--disc", "5",
                   "--trials", "5", "--tol", "1e-12"])
    assert res.returncode == 4
    assert "FAIL" in res.stdout


def test_verify_samples_a_large_discriminant(tmp_path):
    # every draw used to near-vanish on H_60 (exit 6); the Delta = 4
    # component is not a relation there, so verification fails
    poly = tmp_path / "h4.txt"
    poly.write_text("e_1e_2 - e_3")
    res = run_cli(["verify", "--in", str(poly), "--disc", "60",
                   "--trials", "5", "--tol", "1e-12"])
    assert res.returncode == 4, res.stderr
    assert "FAIL" in res.stdout


def test_verify_explains_sampling_exhausted(tmp_path):
    # every draw of the first trial underflows a denominator on H_2001
    poly = tmp_path / "h4.txt"
    poly.write_text("e_1e_2 - e_3")
    res = run_cli(["verify", "--in", str(poly), "--disc", "2001"])
    assert res.returncode == 6
    assert res.stdout == "" and "Traceback" not in res.stderr
    assert ("could not sample away from degenerate loci on H_2001: trial 0 "
            "rejected all 8 points, drawn with seeds 1, 2, 3, 4, 5, 6, 7, 8"
            in res.stderr)


def test_orbit_and_fixgroup(tmp_path):
    poly = tmp_path / "h4.txt"
    poly.write_text("e_1e_2 - e_3")
    res = run_cli(["orbit", "--in", str(poly), "--json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["size"] == 15

    res = run_cli(["fixgroup", "--in", str(poly), "--json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["order"] == 48


def test_rosenhain_output_byte_identity(tmp_path):
    # two runs print the same bytes, those of the library's triple, and
    # write nothing where the retired on-disk cache used to go
    from humbert.rosenhain import rosenhain_triple
    from humbert.series import series_to_record
    from humbert.theta import humbert_params
    env = {"HUMBERT_CACHE_DIR": str(tmp_path / "cache")}
    args = ["rosenhain", "--disc", "5", "--prec", "16"]
    first = run_cli(args, env_extra=env)
    assert first.returncode == 0
    second = run_cli(args, env_extra=env)
    assert second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    triple = rosenhain_triple(humbert_params(5), 16)
    for name in ("e1", "e2", "e3"):
        assert payload[name] == series_to_record(getattr(triple, name))
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("command", ["theta", "orbit"])
def test_unusable_path_is_a_usage_error(tmp_path, command):
    # an --out path in a missing directory, or a directory as --in
    if command == "theta":
        path = tmp_path / "no" / "such" / "dir" / "x.json"
        args = ["theta", "--disc", "5", "--char", "1100", "--prec", "8",
                "--out", str(path)]
    else:
        path = tmp_path
        args = ["orbit", "--in", str(path)]
    res = run_cli(args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and str(path) in res.stderr


# tiny inputs for the in-process property test: two small components, a
# constant, a degenerate-only polynomial, a non-canonical one, input that
# cancels to zero and two parse errors, the second an exponent brace with
# no partner; _POLY adds a path that does not exist
_POLY_FILES = {"h4": "e_1e_2 - e_3", "linear": "e_1 + e_2 - 3",
               "constant": "5", "degenerate": "e_1 - e_2",
               "noncanonical": "e_1^2e_2 - 2e_1e_2", "zero": "e_1 - e_1",
               "bad": "e_1 + @@@", "brace": "e_1^{2"}


@pytest.fixture(scope="module")
def poly_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("polys")
    for name, text in _POLY_FILES.items():
        (root / name).write_text(text)
    return root


# mostly admissible discriminants, with a few that are not (Delta = 1 is
# admissible but special)
_DISC = st.sampled_from([-1, 0, 1, 2, 4, 5, 7, 8, 9, 12, 13, 17, 21, 24])
_PREC = st.integers(-2, 40)
_FLAG = st.booleans()


def _options(**opts):
    """Strategy for one command's arguments: each option's value is drawn
    from its strategy; a flag is passed when it draws True, and an option
    is left out when it draws None or False."""
    def flatten(drawn):
        args = []
        for name, value in drawn.items():
            if value is True:
                args.append(name)
            elif value is not None and value is not False:
                args += [name, str(value)]
        return args
    return st.fixed_dictionaries(opts).map(flatten)


_POLY = st.sampled_from(sorted(_POLY_FILES) + ["missing"])
_COMMANDS = st.one_of(
    st.tuples(st.just(["degrees"]), _options(
        **{"--max": st.none() | st.integers(-3, 40), "--json": _FLAG})),
    st.tuples(st.just(["theta"]), _options(
        **{"--disc": _DISC, "--prec": _PREC,
           "--char": st.sampled_from(["0000", "1100", "0011", "1111",
                                      "0110", "1", "11001", "abcd"])})),
    st.tuples(st.just(["rosenhain"]), _options(
        **{"--disc": _DISC, "--prec": _PREC})),
    st.tuples(st.just(["find"]), _options(
        **{"--disc": _DISC, "--degree": st.integers(-1, 3),
           "--prec": st.none() | _PREC,
           "--symmetry": st.sampled_from([None, "e1e2"]),
           "--json": _FLAG})),
    st.tuples(st.sampled_from([["orbit"], ["fixgroup"]]), _options(
        **{"--json": _FLAG})),
    st.tuples(st.just(["verify"]), _options(
        **{"--disc": _DISC, "--trials": st.none() | st.integers(-1, 2),
           "--tol": st.sampled_from([None, "1e-6", "1e-12", "0.5", "0",
                                     "-1", "nan", "inf"]),
           "--seed": st.none() | st.integers(0, 3), "--json": _FLAG})),
)


@settings(max_examples=100, deadline=None)
@given(command=_COMMANDS, poly=_POLY)
def test_exit_codes_are_documented_and_never_a_traceback(poly_files,
                                                         command, poly):
    # every bounded argument list ends in one of the exit codes 0-6 of the
    # cli module docstring, never in a traceback
    name, args = command
    if name[0] in ("orbit", "fixgroup", "verify"):
        args = ["--in", str(poly_files / poly)] + args
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["humbert"] + name + args), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.cli_entry()
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    assert 0 <= code <= 6, (name + args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if name[0] in ("orbit", "fixgroup") and poly in ("bad", "brace"):
        # no option of these commands is read before the file
        assert code == 5, (name + args, err.getvalue())
