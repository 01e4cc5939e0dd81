import copy
import csv
import dataclasses
import io
import json
import logging
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qsdc3 import cli, harness
from qsdc3.adversary import AttackModel, ChannelSegment
from qsdc3.harness import CURVE_SCHEDULE, ExperimentConfig, entangle_measure_curve, run_experiment
from qsdc3.protocol import SchedulePolicy, leaf_weights
from qsdc3.states import TransitionTable


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _parse_csv(text, columns):
    """A CSV table's header and its rows as dicts; the header must be ``columns``."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != columns:
        raise ValueError("unexpected CSV header: %r" % (header,))
    return {"columns": header, "rows": [dict(zip(header, row)) for row in reader]}


def parse_report_csv(text):
    return _parse_csv(text, cli._REPORT_CSV_COLUMNS)


def parse_curve_csv(text):
    return _parse_csv(text, cli._CURVE_CSV_COLUMNS)


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
        assert cli.render_json(json.loads(text)) == text

    def test_csv_report_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, BASE_RUN)
        out = str(tmp_path / "report.csv")
        cli.main(["run", "--config", cfg, "--out", out, "--format", "csv"])
        text = (tmp_path / "report.csv").read_text()
        parsed = parse_report_csv(text)
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


# A report config per attack kind, flip and coupling; TestReportConfigReruns
# runs each, then runs the report's config section again.
RERUN_ATTACKS = {
    "none": {"kind": "none"},
    "intercept_resend": {"kind": "intercept_resend", "segments": ["a_to_b"]},
    "disturbance_x": {"kind": "disturbance", "segments": ["b_to_c"], "pauli": "X"},
    "disturbance_z": {"kind": "disturbance", "segments": ["c_to_a"], "pauli": "Z"},
    "gated_intercept": {
        "kind": "intercept_resend",
        "segments": ["a_to_b", "b_to_c", "c_to_a"],
        "attack_probability": 0.4,
    },
    **{
        "entangle_measure_%s" % beta_sq: {"kind": "entangle_measure", "segments": ["a_to_b", "c_to_a"], "beta_sq": beta_sq}
        for beta_sq in (0.3, 0.5, 0.75)
    },
}


class TestReportConfigReruns:
    """A report's ``config`` section is a run config that reruns its own
    experiment: the format ``cli.parse_run_config`` reads and
    ``ExperimentConfig.to_dict`` writes is one format."""

    @pytest.mark.parametrize("attack", list(RERUN_ATTACKS.values()), ids=list(RERUN_ATTACKS))
    def test_the_reports_config_gives_the_same_bytes(self, tmp_path, attack):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        config = write_config(tmp_path, dict(BASE_RUN, attack=attack))
        assert cli.main(["run", "--config", config, "--out", str(first)]) == cli.EXIT_OK
        rerun = write_config(tmp_path, json.loads(first.read_text())["config"], "rerun.json")
        assert cli.main(["run", "--config", rerun, "--out", str(second)]) == cli.EXIT_OK
        assert second.read_bytes() == first.read_bytes()


# Small sizes for the sweep configs below: one point, few bits and trials.
SMALL_SWEEP = {"grid": [0.5], "message_length": 8, "trials": 4}


class TestLibraryDefaults:
    """A key a config leaves out takes the default of the library type
    that owns it, so a CLI run and a library run of one config agree."""

    def test_an_empty_run_config_runs_the_default_experiment(self, tmp_path, capsys):
        assert cli.main(["run", "--config", write_config(tmp_path, {})]) == cli.EXIT_OK
        assert capsys.readouterr().out == cli.render_json(run_experiment(ExperimentConfig()).to_dict())

    def test_a_sweep_giving_only_grid_and_sizes_runs_the_curves_defaults(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SWEEP, "sweep.json")
        assert cli.main(["sweep", "--config", cfg, "--format", "json"]) == cli.EXIT_OK
        points = entangle_measure_curve([0.5], message_length=8, trials=4)
        assert capsys.readouterr().out == cli.render_json({"curve": [p.to_dict() for p in points]})

    def test_a_sweep_giving_one_schedule_key_keeps_the_curves_other_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL_SWEEP, p_bob_cm=0.2), "sweep.json")
        assert cli.main(["sweep", "--config", cfg, "--format", "json"]) == cli.EXIT_OK
        schedule = dataclasses.replace(CURVE_SCHEDULE, p_bob_cm=0.2)
        points = entangle_measure_curve([0.5], message_length=8, trials=4, schedule=schedule)
        assert capsys.readouterr().out == cli.render_json({"curve": [p.to_dict() for p in points]})

    def test_the_run_keys_are_the_keys_of_a_reports_config(self):
        assert cli._RUN_KEYS == set(run_experiment(ExperimentConfig(trials=1)).to_dict()["config"])


class TestTinyCoupling:
    """A coupling whose flip weight is at or below the kernels' probability
    floor gives a readout outcome that cannot happen: the run and the
    sweep report it, exit 0 and raise nothing."""

    @pytest.mark.parametrize("beta_sq", [5e-324, 1e-310, 1e-300])
    def test_run_reports(self, tmp_path, capsys, beta_sq):
        attack = {"kind": "entangle_measure", "segments": ["a_to_b", "b_to_c", "c_to_a"], "beta_sq": beta_sq}
        cfg = write_config(tmp_path, {"message_length": 8, "trials": 2, "attack": attack})
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        for stats in report["detection"].values():
            assert 0.0 <= stats["analytic_probability"] <= 1e-300

    @pytest.mark.parametrize("beta_sq", [5e-324, 1e-310, 1e-300])
    def test_sweep_reports(self, tmp_path, capsys, beta_sq):
        cfg = write_config(tmp_path, dict(SMALL_SWEEP, grid=[beta_sq]), "sweep.json")
        assert cli.main(["sweep", "--config", cfg]) == cli.EXIT_OK
        rows = parse_curve_csv(capsys.readouterr().out)["rows"]
        assert rows and all(float(row["analytic"]) <= 1e-300 for row in rows)


# The config-error cases that run in a fresh interpreter: a run and a
# sweep, and the two message lengths numpy cannot size, which a real
# process must refuse before it asks numpy for the arrays.
SPAWNED_CONFIG_ERRORS = {
    "p_ab_check_one",
    "sweep_check_kinds_string",
    "message_length_past_numpy_dimensions",
    "message_length_past_numpy_bytes",
}


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
            (
                "run",
                {"attack": {"kind": "disturbance", "segments": ["a_to_b"], "pauli": "X", "beta_sq": 0.5}},
                [],
                "beta_sq",
            ),
            ("run", {"attack": {"kind": "none", "segments": ["a_to_b"]}}, [], "segments"),
            ("run", {"attack": {"kind": "intercept_resend", "segments": ["a_to_b"], "pauli": "X"}}, [], "pauli"),
            ("run", {"attack": {"kind": "none", "pauli": "Z"}}, [], "pauli"),
            ("run", {"attack": {"kind": "none", "beta_sq": 0.5}}, [], "beta_sq"),
            ("run", {"attack": {"kind": "disturbance", "segments": ["a_to_b"], "pauli": None}}, [], "pauli"),
            # The CLI once gave a disturbance without a flip the X flip.
            ("run", {"attack": {"kind": "disturbance", "segments": ["a_to_b"]}}, [], "X or Z flips"),
            ("run", {"attack": {"kind": "intercept_resend", "segments": ["a_to_b"], "beta_sq": None}}, [], "beta_sq"),
            ("run", {"attack": {"kind": "none", "attack_probability": 0.5}}, [], "attack_probability"),
            # Each of these once ran with no attack.
            ("run", {"attack": None}, [], "attack"),
            ("run", {"attack": {}}, [], "attack.kind"),
            ("run", {"attack": {"attack_probability": 1}}, [], "attack.kind"),
            (
                "run",
                {"attack": {"kind": "intercept_resend", "segments": ["a_to_b", "a_to_b"]}},
                [],
                "segments",
            ),
            # numpy cannot size either message array: more than intp-max
            # elements, and more than intp-max bytes.
            ("run", {"message_length": 10**19}, [], "message_length"),
            ("run", {"message_length": 3 * 10**18}, [], "message_length"),
            ("sweep", {"grid": [0.5], "check_kinds": "ab_check"}, [], "check_kinds"),
            ("sweep", {"grid": [0.5], "check_kinds": ["ab_check", "ab_check"]}, [], "check_kinds"),
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
            "beta_sq_on_disturbance",
            "segments_on_null_attack",
            "pauli_on_intercept",
            "pauli_on_none",
            "beta_sq_on_none",
            "null_pauli_on_disturbance",
            "disturbance_without_pauli",
            "null_beta_sq_on_intercept",
            "gated_null_attack",
            "attack_null",
            "attack_without_kind",
            "attack_probability_without_kind",
            "repeated_segment",
            "message_length_past_numpy_dimensions",
            "message_length_past_numpy_bytes",
            "sweep_check_kinds_string",
            "sweep_repeated_check_kind",
            "sweep_bool_grid_value",
            "sweep_p_bob_cm_one",
        ],
    )
    def test_bad_config_exits_2_without_traceback(self, tmp_path, capsys, request, command, payload, extra, field):
        # In-process, an uncaught exception fails the test; the cases in
        # SPAWNED_CONFIG_ERRORS run ``python -m qsdc3`` in a fresh
        # interpreter, so the exit status and stderr are the process's own.
        path = write_config(tmp_path, dict({"message_length": 2, "trials": 1}, **payload))
        if request.node.callspec.id in SPAWNED_CONFIG_ERRORS:
            env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
            done = subprocess.run(
                [sys.executable, "-m", "qsdc3", command, "--config", path, *extra],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            code, err = done.returncode, done.stderr
        else:
            code = cli.main([command, "--config", path, *extra])
            err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, err
        assert "Traceback" not in err
        assert err.startswith("config error") and field in err, err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "contents",
        [b"[" * 100_000 + b"]" * 100_000, b'{"seed": %s}' % (b"9" * 5000), b'{"seed": "\xff"}'],
        ids=["nested_100000_deep", "integer_of_5000_digits", "not_utf8"],
    )
    def test_unreadable_config_file_exits_2_without_traceback(self, tmp_path, capsys, command, contents):
        # Each once escaped as a RecursionError, a ValueError or a
        # UnicodeDecodeError traceback with exit status 1.
        path = tmp_path / "config.json"
        path.write_bytes(contents)
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config file is not valid JSON") and "Traceback" not in err, err

    @pytest.mark.parametrize("command", ["run", "sweep", "oracle"])
    @pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
    def test_unwritable_out_path(self, tmp_path, capsys, command, where):
        out = tmp_path / "missing" / "report" if where == "missing_directory" else tmp_path
        args = [command, "--out", str(out)]
        if command == "run":
            args += ["--config", write_config(tmp_path, {"message_length": 2, "trials": 1})]
        elif command == "sweep":
            args += ["--config", write_config(tmp_path, dict(BASE_SWEEP, grid=[0.5], trials=1))]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert "cannot write report file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"seed": 1, "message_length": 2, "trials": 1, "seed": 2}', "seed"),
            (
                '{"message_length": 2, "trials": 1, "attack": '
                '{"kind": "intercept_resend", "segments": ["a_to_b"], "kind": "none"}}',
                "kind",
            ),
        ],
        ids=["top_level", "nested"],
    )
    def test_repeated_key_is_rejected(self, tmp_path, capsys, text, key):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "'%s'" % key in err and "more than once" in err

    def test_out_of_memory_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        cfg = write_config(tmp_path, BASE_RUN)
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "memory" in err


# A tiny valid run config (4 bits x 2 trials) and the pieces the property
# test below builds broken variants from.
TINY_RUN = {
    "message_length": 4,
    "trials": 2,
    "p_ab_check": 0.25,
    "p_bob_cm": 0.25,
    "p_charlie_cm": 0.25,
    "attack": {"kind": "intercept_resend", "segments": ["a_to_b"]},
    "abort_policy": "record_and_continue",
    "seed": 3,
}
# The same run under the strict policy and a bit flip on every segment,
# which an A-B check in the Z basis always catches: most of its variants
# abort.
STRICT_RUN = dict(
    TINY_RUN,
    abort_policy="strict",
    attack={"kind": "disturbance", "segments": ["a_to_b", "b_to_c", "c_to_a"], "pauli": "X"},
)
# Integers stay at or below 2, so no variant grows past 4 bits x 2 trials.
VALUES = [
    True, False, None, -2, -1, 0, 1, 2, -0.5, 0.0, 0.5, 0.9999, 1.0, 1.5, 2.7,
    float("nan"), float("inf"), float("-inf"), "", "0.5", "X", "Z", "strict",
    "record_and_continue", "a_to_b", [], [0.5], ["a_to_b"], ["c_to_a", "a_to_b"],
    ["a_to_z"], [["a_to_b"]], {}, {"a_to_b": 1},
]
ATTACKS = [
    None,
    {"kind": "none"},
    {"kind": "intercept_resend", "segments": ["a_to_b"], "attack_probability": 0.5},
    {"kind": "disturbance", "segments": ["c_to_a"], "pauli": "Z"},
    {"kind": "entangle_measure", "segments": ["a_to_b", "c_to_a"], "beta_sq": 0.3},
    {"kind": "quantum_zeno", "segments": ["a_to_b"]},
    {"kind": 3},
    {"kind": ["none"]},
]
KEYS = sorted(cli._RUN_KEYS | cli._ATTACK_KEYS | {"typo_key"})


def mutated_config(rng):
    """TINY_RUN or STRICT_RUN with one to three keys dropped, added or
    retyped, top-level or inside the attack spec."""

    def pick(pool):
        return copy.deepcopy(pool[rng.integers(len(pool))])

    config = pick([TINY_RUN, STRICT_RUN])
    for _ in range(rng.integers(1, 4)):
        op = rng.integers(4)
        if op == 3:
            config["attack"] = pick(ATTACKS)
            continue
        target = config
        if isinstance(config.get("attack"), dict) and rng.random() < 0.5:
            target = config["attack"]
        if op == 0 and target:
            del target[pick(sorted(target))]
        elif op == 1:
            target[pick(KEYS)] = pick(VALUES)
        elif target:
            target[pick(sorted(target))] = pick(VALUES)
    return config


class TestExitCodeContract:
    def test_generated_configs_keep_the_exit_code_contract(self, tmp_path, capsys):
        rng = np.random.default_rng(20070111)
        codes = []
        for n in range(200):
            config = mutated_config(rng)
            path = write_config(tmp_path, config, "config%d.json" % n)
            code = cli.main(["run", "--config", path])
            capsys.readouterr()
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_ABORTED, cli.EXIT_INTERNAL), config
            codes.append(code)
        # Valid, invalid and aborting variants were generated.
        assert {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_ABORTED} <= set(codes)


class TestVerboseLogging:
    @pytest.mark.parametrize("command, experiments", [("run", 1), ("sweep", 2)])
    def test_debug_logs_each_experiment_table_and_keeps_report_bytes(
        self, tmp_path, capsys, caplog, command, experiments
    ):
        # A sweep runs one experiment per grid point: here two points of
        # three trials, so a table kept across points, or across runs,
        # would hold more than one point's compiled round.
        if command == "run":
            payload, trials = {"message_length": 2, "trials": 2}, 2
            models = [(SchedulePolicy(), AttackModel.none())]
        else:
            payload, trials = dict(BASE_SWEEP, grid=[0.25, 0.5], trials=3), 3
            models = [
                (
                    SchedulePolicy(0.25, 0.1, 0.4),
                    AttackModel.entangle_measure(beta_sq, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A),
                )
                for beta_sq in payload["grid"]
            ]
        cfg = write_config(tmp_path, payload)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_OK
        quiet = capsys.readouterr().out
        caplog.set_level(logging.DEBUG, logger="qsdc3")
        assert cli.main(["-vv", command, "--config", cfg]) == cli.EXIT_OK
        assert capsys.readouterr().out == quiet
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(lines) == experiments
        # The count is the size of the experiment's table, which holds its
        # compiled round and nothing more: each grid point starts a table
        # of its own.
        sizes = []
        for schedule, model in models:
            table = TransitionTable()
            for j, k in product((0, 1), repeat=2):
                leaf_weights(table, schedule, model, j, k)
            sizes.append(len(table))
        assert lines == ["experiment: %d trials, %d transition table edges" % (trials, size) for size in sizes]


class TestTrialProgress:
    def test_info_logs_one_line_per_trial_and_keeps_report_bytes(self, tmp_path, caplog):
        cfg = write_config(tmp_path, BASE_RUN)
        quiet, verbose = str(tmp_path / "quiet.json"), str(tmp_path / "verbose.json")
        assert cli.main(["run", "--config", cfg, "--out", quiet]) == cli.EXIT_OK
        caplog.set_level(logging.INFO, logger="qsdc3")
        assert cli.main(["-v", "run", "--config", cfg, "--out", verbose]) == cli.EXIT_OK
        assert (tmp_path / "quiet.json").read_bytes() == (tmp_path / "verbose.json").read_bytes()
        report = json.loads((tmp_path / "verbose.json").read_text())
        trials = [r for r in caplog.records if r.name == "qsdc3" and r.getMessage().startswith("trial ")]
        assert [r.levelno for r in trials] == [logging.INFO] * BASE_RUN["trials"]
        assert [r.args[0] for r in trials] == list(range(BASE_RUN["trials"]))
        assert sum(r.args[1] for r in trials) == report["rounds_total"]
        failed = sum(report["detection"][k]["checks_failed"] for k in ("ab_check", "ca_check", "decoy_check"))
        assert failed > 0
        assert sum(r.args[2] for r in trials) == failed

    def test_an_aborted_trial_is_logged(self, tmp_path, caplog, capsys):
        cfg = write_config(tmp_path, dict(BASE_RUN, abort_policy="strict"))
        caplog.set_level(logging.INFO, logger="qsdc3")
        assert cli.main(["-v", "run", "--config", cfg]) == cli.EXIT_ABORTED
        trials = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trial ")]
        assert trials[-1].endswith(", failed checks 1, aborted")
        assert all(not line.endswith("aborted") for line in trials[:-1])


    @pytest.mark.parametrize(
        "policy, code", [("record_and_continue", cli.EXIT_OK), ("strict", cli.EXIT_ABORTED)], ids=["record", "strict"]
    )
    def test_every_log_level_writes_the_same_report(self, tmp_path, caplog, monkeypatch, policy, code):
        # An attacked record-and-continue run and a strict run that aborts
        # write the same bytes at the default level, -v and -vv.  Shown, each
        # trial's line counts its failed checks: its row totals' fail rows,
        # the binomial split of its check rounds under record-and-continue
        # and the check that ended it under the strict policy.
        blocks = []
        draw = harness._TrialLaw.draw

        def recording_draw(law, *args):
            blocks.append(draw(law, *args))
            return blocks[-1]

        monkeypatch.setattr(harness._TrialLaw, "draw", recording_draw)
        cfg = write_config(tmp_path, dict(BASE_RUN, abort_policy=policy))
        reports = []
        for flags, level in (([], logging.WARNING), (["-v"], logging.INFO), (["-vv"], logging.DEBUG)):
            del blocks[:]
            caplog.clear()
            caplog.set_level(level, logger="qsdc3")
            out = tmp_path / ("report%d.json" % len(flags))
            assert cli.main([*flags, "run", "--config", cfg, "--out", str(out)]) == code
            reports.append(out.read_bytes())
            lines = [r for r in caplog.records if r.getMessage().startswith("trial ")]
            if not flags:
                assert lines == []
                continue
            rows = np.concatenate([kept for _, _, kept, _ in blocks])
            assert [r.args[2] for r in lines] == rows[:, 12:].sum(axis=1).tolist()
            report = json.loads(out.read_text())
            failed = sum(report["detection"][k]["checks_failed"] for k in ("ab_check", "ca_check", "decoy_check"))
            assert sum(r.args[2] for r in lines) == failed > 0
            assert [r.args[1] for r in lines] == rows.sum(axis=1).tolist()
            if policy == "strict":
                assert [r.args[2] for r in lines] == [0] * (len(lines) - 1) + [1]
        assert reports[0] == reports[1] == reports[2]


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
        parsed = parse_curve_csv(text)
        params = {row["parameter"] for row in parsed["rows"] if row["check_kind"] == "ab_check"}
        assert params == {"0.000000", "0.500000", "1.000000"}

    def test_single_point_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_SWEEP, grid=[0.25]), "sweep.json")
        assert cli.main(["sweep", "--config", cfg]) == cli.EXIT_OK
        out = capsys.readouterr().out
        rows = parse_curve_csv(out)["rows"]
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


class TestHashSeeds:
    def test_reports_are_the_same_bytes_under_two_string_hash_seeds(self, tmp_path):
        # The order of a set of strings follows PYTHONHASHSEED, so a report
        # that iterated one would change its bytes from one interpreter to
        # the next: under seeds 1 and 3 the set {"ab_check", "decoy_check"}
        # iterates in opposite orders.  Each command runs in two fresh
        # interpreters, one per seed.
        attack = {"kind": "entangle_measure", "segments": ["c_to_a", "a_to_b"], "beta_sq": 0.5}
        run = write_config(tmp_path, dict(BASE_RUN, attack=attack), "run.json")
        sweep = write_config(tmp_path, dict(BASE_SWEEP, check_kinds=["decoy_check", "ab_check"]), "sweep.json")
        src = str(Path(cli.__file__).resolve().parents[1])
        commands = [["run", "--config", run], ["run", "--config", run, "--format", "csv"], ["sweep", "--config", sweep]]
        for command in commands:
            outputs = []
            for hash_seed in ("1", "3"):
                env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
                done = subprocess.run(
                    [sys.executable, "-m", "qsdc3", *command], capture_output=True, env=env, timeout=120
                )
                assert done.returncode == cli.EXIT_OK, done.stderr
                outputs.append(done.stdout)
            assert outputs[0] == outputs[1], command


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


class TestDependencies:
    def test_the_cli_loads_only_the_standard_library_numpy_and_qsdc3(self):
        """numpy is the one declared runtime dependency.  Other packages may be
        installed next to it, so a stray import of one would pass every other
        test; this one runs the import in an isolated interpreter (``-I``) and
        measures against that interpreter's own start-up modules, which
        include whatever its site hooks load."""
        src = str(Path(cli.__file__).resolve().parents[1])
        listing = "import sys; print(' '.join(sorted(sys.modules)))"

        def loaded(code):
            done = subprocess.run(
                [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            return set(done.stdout.split())

        bare = loaded(listing)
        with_cli = loaded("import sys; sys.path.insert(0, %r); import qsdc3.cli; %s" % (src, listing))
        assert "qsdc3.cli" in with_cli and "numpy" in with_cli
        allowed = set(sys.stdlib_module_names) | {"numpy", "qsdc3"}
        strays = sorted(m for m in with_cli - bare if m.split(".")[0] not in allowed)
        assert strays == []
