"""CLI: reports, exit codes, determinism, error surfaces."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from envarkit import cli, make_state, save_state
from envarkit.cli import main
from helpers import bell_state, uneven_state


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(bell_state(), path)
    return str(path)


@pytest.fixture
def uneven_file(tmp_path):
    path = tmp_path / "uneven.json"
    save_state(uneven_state(), path)
    return str(path)


@pytest.fixture
def even4_file(tmp_path):
    path = tmp_path / "even4.json"
    save_state(make_state(np.eye(4, dtype=complex) / 2), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, module: str, name: str) -> list:
    """Wrap ``module.name`` wherever an envarkit module holds it; returns the list of calls."""
    real = getattr(sys.modules[module], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "envarkit" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestSchmidtCommand:
    def test_bell_report(self, capsys, bell_file):
        code, out, _ = run(capsys, "schmidt", bell_file)
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == 2
        assert report["even"] is True
        np.testing.assert_allclose(report["lambda"], [2**-0.5] * 2, atol=1e-12)

    def test_product_state_rank_one(self, capsys, tmp_path):
        path = tmp_path / "prod.json"
        save_state(make_state([[1, 0], [0, 0]]), path)
        code, out, _ = run(capsys, "schmidt", str(path))
        assert code == 0 and json.loads(out)["rank"] == 1

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "schmidt", str(path))
        assert code == 2
        assert "ParseError" in err

    def test_unnormalized_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad_norm.json"
        path.write_text('{"dim_s": 1, "dim_e": 2, "amps": [[[1, 0], [1, 0]]]}')
        code, _, err = run(capsys, "schmidt", str(path))
        assert code == 2
        assert "NotNormalized" in err

    def test_text_format(self, capsys, bell_file):
        code, out, _ = run(capsys, "--format", "text", "schmidt", bell_file)
        assert code == 0
        assert out.startswith("lambda:")


class TestEnvarianceCommand:
    def test_bell_swap(self, capsys, bell_file):
        code, out, _ = run(capsys, "envariance", bell_file, "swap:1,2")
        report = json.loads(out)
        assert code == 0
        assert report["envariant"] is True
        assert report["counter"] is not None
        assert report["oracle_residual"] <= 1e-9

    def test_uneven_swap_negative_verdict(self, capsys, uneven_file):
        code, out, _ = run(capsys, "envariance", uneven_file, "swap:1,2")
        report = json.loads(out)
        assert code == 1
        assert report["envariant"] is False
        assert report["counter"] is None
        assert report["residual"] > 0.3

    def test_negative_verdict_runs_the_oracle_once(self, capsys, monkeypatch, uneven_file):
        calls = count_calls(monkeypatch, "envarkit.envariance", "oracle_best_counter")
        code, out, _ = run(capsys, "envariance", uneven_file, "swap:1,2")
        report = json.loads(out)
        assert code == 1 and report["oracle_residual"] == report["residual"] > 0.3
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", ["swap:1,2", "phase:0.7,-0.3"])
    def test_runs_one_schmidt(self, capsys, monkeypatch, bell_file, spec):
        # the oracle, run on a positive verdict, computes its own SVD and no Schmidt form
        calls = count_calls(monkeypatch, "envarkit.schmidt", "schmidt")
        assert run(capsys, "envariance", bell_file, spec)[0] == 0
        assert len(calls) == 1

    def test_negative_verdict_runs_one_schmidt(self, capsys, monkeypatch, uneven_file):
        calls = count_calls(monkeypatch, "envarkit.schmidt", "schmidt")
        assert run(capsys, "envariance", uneven_file, "swap:1,2")[0] == 1
        assert len(calls) == 1

    def test_bell_phase(self, capsys, bell_file):
        code, out, _ = run(capsys, "envariance", bell_file, "phase:0.7,-0.3")
        assert code == 0
        assert json.loads(out)["envariant"] is True

    def test_bad_spec_exit_2(self, capsys, bell_file):
        code, _, err = run(capsys, "envariance", bell_file, "twirl:1")
        assert code == 2 and "ParseError" in err


class TestDeriveCommand:
    def test_bell_full_rules(self, capsys, bell_file):
        code, out, _ = run(capsys, "derive", bell_file)
        report = json.loads(out)
        assert code == 0
        assert report["probabilities"] == ["1/2", "1/2"]
        rules_used = {entry["rule"] for entry in report["trace"]}
        assert rules_used == {"PAIRING", "ENV_LOCALITY", "SYS_LOCALITY", "STATE_FUNCTION"}

    def test_disable_pairing_incomplete(self, capsys, bell_file):
        code, out, _ = run(capsys, "derive", bell_file, "--disable", "pairing")
        report = json.loads(out)
        assert code == 1
        assert report["probabilities"] is None
        assert "incomplete" in report

    def test_even4_quarters(self, capsys, even4_file):
        code, out, _ = run(capsys, "derive", even4_file)
        assert code == 0
        assert json.loads(out)["probabilities"] == ["1/4"] * 4

    def test_ablate_flag(self, capsys, bell_file):
        code, out, _ = run(capsys, "derive", bell_file, "--ablate")
        report = json.loads(out)
        assert code == 0
        assert len(report["ablations"]) == 4
        assert all(entry["s1_equals_s2"] is False for entry in report["ablations"])

    def test_ablate_runs_one_schmidt(self, capsys, monkeypatch, even4_file):
        calls = count_calls(monkeypatch, "envarkit.schmidt", "schmidt")
        code, out, _ = run(capsys, "derive", even4_file, "--ablate")
        assert code == 0 and json.loads(out)["probabilities"] == ["1/4"] * 4
        assert len(calls) == 1

    def test_uneven_state_exit_2(self, capsys, uneven_file):
        code, _, err = run(capsys, "derive", uneven_file, "--swaps", "1,2")
        assert code == 2 and "UnevenCoefficients" in err


class TestFinegrainCommand:
    def test_thirds(self, capsys):
        code, out, _ = run(capsys, "finegrain", "1/3,2/3")
        report = json.loads(out)
        assert code == 0
        assert report["probabilities"] == ["1/3", "2/3"]
        assert report["schmidt_check"]["max_abs_error"] <= 1e-9
        assert report["trace_length"] > 0

    def test_halves(self, capsys):
        code, out, _ = run(capsys, "finegrain", "1/2,1/2")
        assert code == 0
        assert json.loads(out)["probabilities"] == ["1/2", "1/2"]

    def test_bad_sum_exit_2(self, capsys):
        code, _, err = run(capsys, "finegrain", "1/3,1/3")
        assert code == 2 and "WeightMismatch" in err

    def test_common_denominator_above_the_bound_is_refused_before_fine_graining(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("finegrain allocated a grain")

        monkeypatch.setattr(cli, "fine_grain", refuse)
        # every denominator is within MAX_GRAIN, but their common one is 1020
        code, _, err = run(capsys, "finegrain", "1/20,1/20,1/51,449/510")
        assert code == 2 and err == "NoRationalFit: grain 1020 exceeds bound 1000\n"


class TestGleasonCommand:
    def test_quadratic_consistent(self, capsys):
        code, out, _ = run(capsys, "gleason", "quadratic", "--dim", "3", "--trials", "300")
        report = json.loads(out)
        assert code == 0 and report["verdict"] == "CONSISTENT"

    def test_power_four_violation(self, capsys):
        code, out, _ = run(capsys, "gleason", "power:4", "--dim", "3", "--trials", "300")
        report = json.loads(out)
        assert code == 1
        assert report["max_dev"] >= 0.1

    def test_dim_two_rejected(self, capsys):
        code, _, err = run(capsys, "gleason", "quadratic", "--dim", "2")
        assert code == 2
        assert "greater than two" in err

    def test_bad_env_seed_exit_2(self, capsys, monkeypatch, bell_file):
        monkeypatch.setenv("ENVARKIT_SEED", "abc")
        code, out, err = run(capsys, "schmidt", bell_file)
        assert code == 2 and out == ""
        assert err.startswith("ParseError: ") and "ENVARKIT_SEED" in err
        assert len(err.splitlines()) == 1

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ENVARKIT_SEED", "99")
        code, out, _ = run(capsys, "gleason", "quadratic", "--trials", "5")
        assert code == 0 and json.loads(out)["seed"] == 99
        # explicit flag wins over the environment default
        code, out, _ = run(capsys, "--seed", "7", "gleason", "quadratic", "--trials", "5")
        assert code == 0 and json.loads(out)["seed"] == 7

    def test_negative_seed_exit_2(self, capsys, monkeypatch, bell_file):
        code, out, err = run(capsys, "--seed", "-1", "gleason", "quadratic", "--trials", "5")
        assert code == 2 and out == "" and err.startswith("ParseError: ")
        monkeypatch.setenv("ENVARKIT_SEED", "-1")
        code, out, err = run(capsys, "gleason", "quadratic", "--trials", "5")
        assert code == 2 and out == "" and err.startswith("ParseError: ")
        # a command that draws nothing ignores the seed
        code, _, _ = run(capsys, "schmidt", bell_file)
        assert code == 0


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see another's state."""

    def test_env_seed_change_between_calls(self, capsys, monkeypatch):
        seeds = []
        for value in ("3", "11"):
            monkeypatch.setenv("ENVARKIT_SEED", value)
            code, out, _ = run(capsys, "gleason", "quadratic", "--trials", "5")
            assert code == 0
            seeds.append(json.loads(out)["seed"])
        assert seeds == [3, 11]

    def test_bad_env_seed_with_flag_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ENVARKIT_SEED", "abc")
        code, out, err = run(capsys, "--seed", "7", "gleason", "quadratic", "--trials", "5")
        assert code == 2 and out == ""
        assert err.startswith("ParseError: ") and "ENVARKIT_SEED" in err

    def test_disable_list_not_shared(self, capsys, bell_file):
        code, out, _ = run(capsys, "derive", bell_file, "--disable", "PAIRING")
        assert code == 1 and json.loads(out)["probabilities"] is None
        code, out, _ = run(capsys, "derive", bell_file)
        assert code == 0 and json.loads(out)["probabilities"] == ["1/2", "1/2"]

    def test_parser_built_once(self, capsys, monkeypatch, bell_file):
        real = cli.build_parser
        built = []

        def counting():
            built.append(None)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(5):
                assert run(capsys, "schmidt", bell_file)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys, bell_file):
        _, first, _ = run(capsys, "derive", bell_file, "--ablate")
        _, second, _ = run(capsys, "derive", bell_file, "--ablate")
        assert first == second
        _, g1, _ = run(capsys, "--seed", "5", "gleason", "power:4", "--trials", "50")
        _, g2, _ = run(capsys, "--seed", "5", "gleason", "power:4", "--trials", "50")
        assert g1 == g2

    def test_out_flag_writes_file(self, capsys, bell_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "--out", str(out_path), "schmidt", bell_file)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["rank"] == 2

    @pytest.mark.parametrize(
        "target, error", [("missing-dir/report.json", "FileNotFoundError"), (".", "IsADirectoryError")]
    )
    def test_failed_out_write_exit_2(self, capsys, bell_file, tmp_path, target, error):
        code, out, err = run(capsys, "--out", str(tmp_path / target), "schmidt", bell_file)
        assert code == 2 and out == ""
        assert err.startswith(f"{error}: ") and len(err.splitlines()) == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [["gleason", "quadratic", "--dim", "x"], ["bogus"], ["schmidt"], ["--bogus"], ["--seed", "q"], []],
    )
    def test_usage_error_returns_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("ParseError: ") and len(err.splitlines()) == 1

    def test_help_still_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0 and "usage: envarkit" in capsys.readouterr().out
