"""Smoke tests of the benchmark itself, at a size far below acceptance grade.

Run with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import bench
import workloads
from qsdc3 import cli, harness, protocol

END_TO_END = {"us_per_round": "us", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "states.validate_calls": "count",
    "states.validate_s": "s",
    "states.kernel_calls": "count",
    "states.kernel_s": "s",
    "states.kernel_bytes": "B",
    "states.measure_calls": "count",
    "states.measure_s": "s",
    "rng.draws": "count",
    "rng.s": "s",
    "protocol.rounds": "count",
    "protocol.message_round_share": "ratio",
    "protocol.session_ms_p50": "ms",
    "protocol.session_ms_p90": "ms",
    "protocol.session_samples": "count",
    "protocol.self_s": "s",
    "protocol.transcript_events": "count",
    "protocol.transcript_s": "s",
    "protocol.check_calls": "count",
    "protocol.check_s": "s",
    "adversary.actions": "count",
    "adversary.dispatch_calls": "count",
    "adversary.dispatch_s": "s",
    "adversary.enumerate_calls": "count",
    "adversary.enumerate_s": "s",
    "harness.trials": "count",
    "harness.self_s": "s",
    "cli.parse_s": "s",
    "cli.render_s": "s",
    "trace.overhead": "ratio",
}
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced record and two traced records."""
    return {
        name: (
            bench.measure(name, tiny=True),
            bench.measure(name, trace=1, tiny=True),
            bench.measure(name, trace=1, tiny=True),
        )
        for name in workloads.WORKLOADS
    }


def _units(record):
    return {name: m["unit"] for name, m in record["metrics"].items()}


def test_every_repetition_passes_its_gates(runs):
    for name, records in runs.items():
        for record in records:
            assert record["failed"] == 0, (name, record["problems"])
            assert record["meta"]["seed"] == workloads.WORKLOADS[name].default_seed


def test_untraced_run_emits_end_to_end_metrics(runs):
    for untraced, _, _ in runs.values():
        assert _units(untraced) == END_TO_END
        assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_traced_run_emits_every_layer_metric(runs):
    for _, traced, _ in runs.values():
        assert _units(traced) == PER_LAYER


def test_counts_repeat_exactly(runs):
    for _, first, second in runs.values():
        assert {k: first["metrics"][k] for k in COUNTS} == {k: second["metrics"][k] for k in COUNTS}


def test_tracing_leaves_the_report_unchanged(runs):
    for untraced, traced, _ in runs.values():
        assert len(untraced["report_sha256"]) == 1
        assert traced["report_sha256"] == untraced["report_sha256"]


def test_layer_counts_order_the_workloads(runs):
    def value(name, metric):
        return runs[name][1]["metrics"][metric]["value"]

    assert value("honest_message", "adversary.actions") == 0
    per_round = {
        name: value(name, "states.validate_calls") / value(name, "protocol.rounds") for name in runs
    }
    assert per_round["probe_sweep"] > per_round["intercept_checks"] > per_round["honest_message"]


def test_tracing_and_pacing_restore_every_entry_point():
    before = (protocol.measure_qubit, harness.np, harness.run_protocol, cli.render_json)
    bench.measure("honest_message", trace=1, tiny=True)
    assert (protocol.measure_qubit, harness.np, harness.run_protocol, cli.render_json) == before


def test_report_matches_the_command_line(tmp_path):
    (data,) = workloads.WORKLOADS["intercept_checks"].configs(7, True)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    out_path = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out_path)]) == 0
    text, _ = workloads.solve([cli.parse_run_config(data)])
    assert text == out_path.read_text()


def test_probe_points_match_the_criterion_5_curve():
    seed = 11
    data = workloads.WORKLOADS["probe_sweep"].configs(seed, True)
    _, results = workloads.solve([cli.parse_run_config(d) for d in data])
    first = data[0]
    curve = harness.entangle_measure_curve(
        workloads.PROBE_GRID,
        message_length=first["message_length"],
        trials=first["trials"],
        schedule=protocol.SchedulePolicy(first["p_ab_check"], first["p_bob_cm"], first["p_charlie_cm"]),
        seed=seed,
    )
    rows = {(row.check_kind, row.parameter): row for row in curve}
    for beta_sq, result in zip(workloads.PROBE_GRID, results):
        for kind in ("ab_check", "decoy_check"):
            stats = result.detection.kinds[kind]
            row = rows[(kind, beta_sq)]
            assert (stats.checks_run, stats.checks_failed) == (row.checks_run, row.checks_failed)


def test_a_failed_gate_is_counted_and_the_run_goes_on(monkeypatch):
    name = "honest_message"
    failing = dataclasses.replace(workloads.WORKLOADS[name], gate=lambda results, tiny: ["forced"])
    monkeypatch.setitem(workloads.WORKLOADS, name, failing)
    record = bench.measure(name, seconds=0.05, trace=1, tiny=True)
    assert record["attempted"] >= 2
    assert record["failed"] == record["attempted"]
    assert record["error_rate"] == 1.0
    assert record["problems"] == ["forced"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "honest_message", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_what_runs_emit():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
