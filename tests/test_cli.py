import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsdc3 import cli


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_RUN = {
    "message_length": 16,
    "trials": 6,
    "p_ab_check": 0.4,
    "p_bob_cm": 0.2,
    "p_charlie_cm": 0.3,
    "attack": {"kind": "disturbance", "segments": ["a_to_b"], "pauli": "X"},
    "abort_policy": "record_and_continue",
    "seed": 11,
}

BASE_SWEEP = {
    "grid": [0.0, 0.5, 1.0],
    "message_length": 12,
    "trials": 6,
    "seed": 2,
}


class TestRun:
    def test_exit_zero_and_json_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_RUN)
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["seed"] == 11
        assert "ab_check" in report["detection"]
        assert report["detection"]["ab_check"]["paper_claim"] == 0.5

    def test_no_attack_reports_perfect_fidelity(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"message_length": 16, "trials": 4, "seed": 1})
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["fidelity"] == {"alice": 1.0, "bob": 1.0, "charlie": 1.0}

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        cfg = write_config(tmp_path, BASE_RUN)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli.main(["run", "--config", cfg, "--out", out1]) == cli.EXIT_OK
        assert cli.main(["run", "--config", cfg, "--out", out2]) == cli.EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_override_wins(self, tmp_path):
        cfg = write_config(tmp_path, BASE_RUN)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cli.main(["run", "--config", cfg, "--out", out1, "--seed", "11"])
        cli.main(["run", "--config", cfg, "--out", out2, "--seed", "12"])
        first = json.loads((tmp_path / "a.json").read_text())
        second = json.loads((tmp_path / "b.json").read_text())
        assert first["config"]["seed"] == 11
        assert second["config"]["seed"] == 12
        assert first["detection"] != second["detection"]

    def test_json_report_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, BASE_RUN)
        out = str(tmp_path / "report.json")
        cli.main(["run", "--config", cfg, "--out", out])
        text = (tmp_path / "report.json").read_text()
        assert cli.render_json(cli.parse_json(text)) == text

    def test_csv_report_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, BASE_RUN)
        out = str(tmp_path / "report.csv")
        cli.main(["run", "--config", cfg, "--out", out, "--format", "csv"])
        text = (tmp_path / "report.csv").read_text()
        parsed = cli.parse_report_csv(text)
        assert parsed["rows"]
        # Re-rendering the parsed rows reproduces the file byte for byte.
        rerendered = "\n".join(
            [",".join(parsed["columns"])]
            + [",".join(row[c] for c in parsed["columns"]) for row in parsed["rows"]]
        ) + "\n"
        assert rerendered == text

    def test_strict_abort_exit_code(self, tmp_path, capsys):
        payload = dict(BASE_RUN, abort_policy="strict")
        cfg = write_config(tmp_path, payload)
        out = str(tmp_path / "partial.json")
        code = cli.main(["run", "--config", cfg, "--out", out])
        assert code == cli.EXIT_ABORTED
        err = capsys.readouterr().err
        assert "round" in err
        partial = json.loads((tmp_path / "partial.json").read_text())
        assert partial["aborted"] is not None


class TestConfigErrors:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_RUN, typo_key=1))
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
        assert "typo_key" in capsys.readouterr().err

    def test_unknown_attack_key(self, tmp_path, capsys):
        payload = dict(BASE_RUN, attack={"kind": "disturbance", "segments": ["a_to_b"], "sigma": 1})
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
        assert "sigma" in capsys.readouterr().err

    def test_malformed_attack_kind(self, tmp_path, capsys):
        payload = dict(BASE_RUN, attack={"kind": "quantum_zeno", "segments": ["a_to_b"]})
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
        assert "attack.kind" in capsys.readouterr().err

    def test_bad_segment_name(self, tmp_path, capsys):
        payload = dict(BASE_RUN, attack={"kind": "intercept_resend", "segments": ["a_to_z"]})
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
        assert "segments" in capsys.readouterr().err

    def test_missing_beta_sq(self, tmp_path, capsys):
        payload = dict(BASE_RUN, attack={"kind": "entangle_measure", "segments": ["c_to_a"]})
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
        assert "beta_sq" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["run", "--config", "/nonexistent/nope.json"]) == cli.EXIT_CONFIG

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_bad_abort_policy(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_RUN, abort_policy="shrug"))
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
        assert "abort_policy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, extra, field",
        [
            ("run", {"p_ab_check": 1.0}, [], "schedule"),
            ("run", {"p_charlie_cm": 1}, [], "schedule"),
            ("run", {"p_ab_check": 0.9999}, [], "schedule"),
            ("run", {"seed": -1}, [], "seed"),
            ("run", {}, ["--seed", "-1"], "seed"),
            ("run", {"trials": True}, [], "trials"),
            ("run", {"message_length": 2.7}, [], "message_length"),
            ("run", {"p_ab_check": "0.5"}, [], "p_ab_check"),
            (
                "run",
                {"attack": {"kind": "entangle_measure", "segments": ["a_to_b"], "beta_sq": True}},
                [],
                "beta_sq",
            ),
            (
                "run",
                {"attack": {"kind": "intercept_resend", "segments": {"a_to_b": 1}}},
                [],
                "segments",
            ),
            ("sweep", {"grid": [0.5], "check_kinds": "ab_check"}, [], "check_kinds"),
            ("sweep", {"grid": [True]}, [], "grid"),
            ("sweep", {"grid": [0.5], "p_bob_cm": 1.0}, [], "schedule"),
        ],
        ids=[
            "p_ab_check_one",
            "p_charlie_cm_one",
            "round_budget_exhausted",
            "negative_seed",
            "negative_seed_flag",
            "bool_trials",
            "fractional_message_length",
            "string_probability",
            "bool_beta_sq",
            "segments_object",
            "sweep_check_kinds_string",
            "sweep_bool_grid_value",
            "sweep_p_bob_cm_one",
        ],
    )
    def test_bad_config_exits_2_without_traceback(self, tmp_path, command, payload, extra, field):
        path = write_config(tmp_path, dict({"message_length": 2, "trials": 1}, **payload))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "qsdc3", command, "--config", path, *extra],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == cli.EXIT_CONFIG, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("config error") and field in done.stderr, done.stderr


class TestOracle:
    def test_prints_eight_rows_and_passes(self, capsys):
        assert cli.main(["oracle"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count("pass") >= 8
        assert "all 8 triples decode correctly" in out

    def test_optional_json_output(self, tmp_path):
        out = str(tmp_path / "oracle.json")
        assert cli.main(["oracle", "--out", out]) == cli.EXIT_OK
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["passed"] is True
        assert len(payload["rows"]) == 8


class TestSweep:
    def test_csv_curve(self, tmp_path):
        cfg = write_config(tmp_path, BASE_SWEEP, "sweep.json")
        out = str(tmp_path / "curve.csv")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == cli.EXIT_OK
        text = (tmp_path / "curve.csv").read_text()
        parsed = cli.parse_curve_csv(text)
        params = {row["parameter"] for row in parsed["rows"] if row["check_kind"] == "ab_check"}
        assert params == {"0.000000", "0.500000", "1.000000"}

    def test_single_point_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_SWEEP, grid=[0.25]), "sweep.json")
        assert cli.main(["sweep", "--config", cfg]) == cli.EXIT_OK
        out = capsys.readouterr().out
        rows = cli.parse_curve_csv(out)["rows"]
        assert {row["parameter"] for row in rows} == {"0.250000"}

    def test_grid_value_out_of_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_SWEEP, grid=[0.5, 2.0]), "sweep.json")
        assert cli.main(["sweep", "--config", cfg]) == cli.EXIT_CONFIG
        assert "grid" in capsys.readouterr().err

    def test_empty_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_SWEEP, grid=[]), "sweep.json")
        assert cli.main(["sweep", "--config", cfg]) == cli.EXIT_CONFIG

    def test_deterministic_curve_bytes(self, tmp_path):
        cfg = write_config(tmp_path, BASE_SWEEP, "sweep.json")
        out1, out2 = str(tmp_path / "c1.csv"), str(tmp_path / "c2.csv")
        cli.main(["sweep", "--config", cfg, "--out", out1])
        cli.main(["sweep", "--config", cfg, "--out", out2])
        assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()

    def test_json_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_SWEEP, grid=[0.5]), "sweep.json")
        assert cli.main(["sweep", "--config", cfg, "--format", "json"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["curve"]


class TestDemo:
    def test_trace_shows_the_xor_identity(self, capsys):
        assert cli.main(["demo", "-n", "3", "--seed", "5"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "x^y=" in out
        assert "recover the others' bits -> ok" in out

    def test_single_round_demo(self, capsys):
        assert cli.main(["demo", "-n", "1", "--seed", "0"]) == cli.EXIT_OK
        assert "message n=0" in capsys.readouterr().out

    def test_rejects_zero_rounds(self, capsys):
        assert cli.main(["demo", "-n", "0"]) == cli.EXIT_CONFIG

    def test_rejects_oversized_demo(self, capsys):
        assert cli.main(["demo", "-n", "17"]) == cli.EXIT_CONFIG

    def test_rejects_negative_seed(self, capsys):
        assert cli.main(["demo", "--seed", "-1"]) == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
