"""Tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from humbert import cli, relations
from humbert.degrees import NonIntegralDegree
from humbert.oracle import (NearVanishingDenominator, NonConvergent,
                            SamplingExhausted)
from humbert.rosenhain import RosenhainSeries
from humbert.series import NotAUnit, NotDivisible, TruncatedSeries
from humbert.theta import humbert_params


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
    # a 91 x 91 lattice is past the float64 row bound; `--prec 361` for
    # delta=5 reaches it too, but only after a long triple expansion
    wide = RosenhainSeries(*[TruncatedSeries({(0, 0): 1, (1, 1): 1}, 91)] * 3,
                           disc=humbert_params(5), precision=91)
    monkeypatch.setattr(relations, "rosenhain_triple", lambda d, n: wide)
    monkeypatch.setattr(sys, "argv", ["humbert", "find", "--disc", "5",
                                      "--degree", "2", "--prec", "361"])
    with pytest.raises(SystemExit) as info:
        cli.cli_entry()
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: precision N=91 is too large")
    assert "the largest valid N is 90" in err


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
