"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run ``pytest tests/test_acceptance.py
-v -s`` to see them inline).  Sampled detection probabilities are compared
against independently derived closed-form values at four standard errors
over at least 10,000 checks; everything else is exact.
"""

import hashlib
import math
import time

import pytest

from qsdc3.adversary import AttackModel, ChannelSegment
from qsdc3.cli import render_json
from qsdc3.harness import (
    ExperimentConfig,
    entangle_measure_curve,
    exhaustive_oracle,
    run_experiment,
)
from qsdc3.protocol import AbortPolicy, SchedulePolicy
from qsdc3.states import Pauli

AB = ChannelSegment.A_TO_B
CA = ChannelSegment.C_TO_A


def _report(criterion, description, ok, detail):
    line = "%s criterion %s: %s (%s)" % ("PASS" if ok else "FAIL", criterion, description, detail)
    print(line)
    assert ok, line


def _four_se(p, n):
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


def _sha256(text):
    # The report bytes a given seed gives: pinned so that any change to a
    # draw, an event or a report field is caught at acceptance size.
    return hashlib.sha256(text.encode()).hexdigest()


def test_criterion_1_exhaustive_decode_oracle():
    start = time.perf_counter()
    report = exhaustive_oracle()
    elapsed = time.perf_counter() - start
    digest = _sha256(render_json(report.to_dict()))
    ok = (
        report.passed
        and len(report.rows) == 8
        and elapsed < 1.0
        and digest == "d5e94736e7439235ec959bd372b721ca535584c660692e76a5a5a9849b243b90"
    )
    _report(
        1,
        "exhaustive decode oracle",
        ok,
        "8/8 triples exact, sha256 %s, %.2f s" % (digest[:16], elapsed),
    )


def test_criterion_2_announced_xor_identity(sampled_digest):
    start = time.perf_counter()
    config = ExperimentConfig(
        message_length=100,
        trials=100,
        schedule=SchedulePolicy(0.05, 0.05, 0.05),
        attack=AttackModel.none(),
        abort_policy=AbortPolicy.STRICT,
        seed=1002,
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    audited = result.leakage.rounds_audited
    fraction = result.leakage.xor_identity_fraction
    digest = _sha256(render_json(result.to_dict()))
    ok = (
        audited >= 10_000
        and fraction == 1.0
        and digest == "c46a980d6605e33e61dac343effc632c3785294895cc1ab208717886be8672b7"
        and sampled_digest(result.to_dict())
        == "f83d0fc76dcec25eaf79dc1fb9e649aa30b2ca6ce65c9f05c810b76e404a785c"
        and elapsed < 5.0
    )
    _report(
        2,
        "announced XOR equals secret XOR on every message round",
        ok,
        "%d rounds, fraction %.6f, report %s, %.2f s" % (audited, fraction, digest[:16], elapsed),
    )


def test_criterion_3_unattacked_checks_never_fail():
    start = time.perf_counter()
    config = ExperimentConfig(
        message_length=32,
        trials=160,
        schedule=SchedulePolicy(0.35, 0.3, 0.3),
        attack=AttackModel.none(),
        abort_policy=AbortPolicy.STRICT,
        seed=1003,
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    runs = {k: result.detection.kinds[k].checks_run for k in ("ab_check", "ca_check", "decoy_check")}
    fails = sum(result.detection.kinds[k].checks_failed for k in runs)
    total = sum(runs.values())
    ok = total >= 10_000 and all(runs.values()) and fails == 0 and elapsed < 5.0
    _report(
        3,
        "honest checks all pass across the three check kinds",
        ok,
        "%d checks (%s), %d failures, %.2f s"
        % (total, ", ".join("%s=%d" % kv for kv in sorted(runs.items())), fails, elapsed),
    )


@pytest.mark.parametrize("pauli", [Pauli.X, Pauli.Z])
def test_criterion_4_disturbance_detection_is_half(pauli):
    start = time.perf_counter()
    config = ExperimentConfig(
        message_length=64,
        trials=100,
        schedule=SchedulePolicy(0.5, 0.25, 0.25),
        attack=AttackModel.disturbance(pauli, AB),
        abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
        seed=1004 + pauli.value,
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    ab = result.detection.kinds["ab_check"]
    tolerance = _four_se(0.5, ab.checks_run)
    ok = (
        ab.checks_run >= 10_000
        and abs(ab.detection_probability - 0.5) < tolerance
        and elapsed < 10.0
    )
    _report(
        4,
        "disturbance(%s) detection probability 1/2" % pauli.name,
        ok,
        "n=%d, sampled %.4f, |err| < %.4f, %.2f s"
        % (ab.checks_run, ab.detection_probability, tolerance, elapsed),
    )


def test_criterion_5_probe_coupling_curve(sampled_digest):
    start = time.perf_counter()
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = entangle_measure_curve(
        grid,
        check_kinds=("ab_check", "decoy_check"),
        message_length=128,
        trials=140,
        schedule=SchedulePolicy(0.25, 0.1, 0.4),
        seed=1005,
    )
    elapsed = time.perf_counter() - start
    by_key = {(r.check_kind, r.parameter): r for r in rows}
    problems = []
    for beta_sq in grid:
        for kind in ("ab_check", "decoy_check"):
            row = by_key[(kind, beta_sq)]
            expected = beta_sq / 2.0
            if abs(row.analytic - expected) > 1e-12:
                problems.append("%s@%.2f analytic %.6f" % (kind, beta_sq, row.analytic))
            if row.checks_run < 10_000:
                problems.append("%s@%.2f only %d checks" % (kind, beta_sq, row.checks_run))
            if expected in (0.0, 1.0):
                if row.checks_failed != round(expected * row.checks_run):
                    problems.append("%s@%.2f not exact" % (kind, beta_sq))
            elif abs(row.sampled - expected) >= _four_se(expected, row.checks_run):
                problems.append(
                    "%s@%.2f sampled %.4f vs %.4f" % (kind, beta_sq, row.sampled, expected)
                )
        x_row = by_key[("decoy_check_x", beta_sq)]
        if x_row.checks_failed != 0:
            problems.append("X-family decoys detected something at %.2f" % beta_sq)
    curve = {"curve": [row.to_dict() for row in rows]}
    digest = _sha256(render_json(curve))
    if digest != "db1e32b8c2e6ff6cabfe378e2e002e5800d271d251f80095acca02998a2d65eb":
        problems.append("curve rows %s" % digest[:16])
    sampled = sampled_digest(curve)
    if sampled != "ac56e0fa13bbebda223ed76f98d3da1eaa1640bf79bf9af3ccf101230a133492":
        problems.append("sampled curve fields %s" % sampled[:16])
    ok = not problems and elapsed < 60.0
    _report(
        5,
        "probe-coupling detection tracks |beta|^2/2 and X decoys stay blind",
        ok,
        "; ".join(problems) if problems else "5 grid points x 2 check kinds, %.2f s" % elapsed,
    )


def test_criterion_5_at_a_million_checks_per_row():
    # One coupling of criterion 5 at 100x its checks: the experiment draws
    # each trial's leaf counts from their exact law, so its cost grows with
    # trials and leaves, not with rounds.
    start = time.perf_counter()
    config = ExperimentConfig(
        message_length=1000,
        trials=1800,
        schedule=SchedulePolicy(0.25, 0.1, 0.4),
        attack=AttackModel.entangle_measure(0.5, AB, CA),
        abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
        seed=1009,
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    kinds = result.detection.kinds
    problems = []
    for kind in ("ab_check", "decoy_check"):
        row = kinds[kind]
        if row.checks_run < 1_000_000:
            problems.append("%s only %d checks" % (kind, row.checks_run))
        if abs(row.detection_probability - 0.25) >= _four_se(0.25, row.checks_run):
            problems.append("%s sampled %.5f" % (kind, row.detection_probability))
    if kinds["decoy_check_x"].checks_failed != 0:
        problems.append("X-family decoys detected something")
    ok = not problems and elapsed < 30.0
    _report(
        "5 at 10^6",
        "probe at |beta|^2 = 0.5 detected at 1/4 over a million checks per row",
        ok,
        "; ".join(problems)
        or "ab %d checks sampled %.5f, decoy %d checks sampled %.5f, %.2f s"
        % (
            kinds["ab_check"].checks_run,
            kinds["ab_check"].detection_probability,
            kinds["decoy_check"].checks_run,
            kinds["decoy_check"].detection_probability,
            elapsed,
        ),
    )


def test_criterion_6_intercept_resend_quarter_vs_half_claim(sampled_digest):
    start = time.perf_counter()
    config = ExperimentConfig(
        message_length=64,
        trials=100,
        schedule=SchedulePolicy(0.5, 0.25, 0.25),
        attack=AttackModel.intercept_resend(AB),
        abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
        seed=1006,
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    ab = result.detection.kinds["ab_check"]
    tolerance = _four_se(0.25, ab.checks_run)
    report_text = render_json(result.to_dict())
    ok = (
        ab.checks_run >= 10_000
        and abs(ab.detection_probability - 0.25) < tolerance
        and ab.analytic_probability == pytest.approx(0.25, abs=1e-12)
        and ab.paper_claim == 0.5
        and '"analytic_probability": 0.25' in report_text
        and '"paper_claim": 0.5' in report_text
        and _sha256(report_text) == "161f158495969b2205c3bcfaddff5f3beb722d43f4d8c913e563cef8eddc3d02"
        and sampled_digest(result.to_dict())
        == "0292124bcc4bc8164c6c971dc22e3fb2d0bdd71768aa029abc142d94d3aef604"
        and elapsed < 10.0
    )
    _report(
        6,
        "intercept-resend sampled 1/4 with the 1/2 claim shown alongside",
        ok,
        "n=%d, sampled %.4f, enumerated 0.25, claimed 0.50, report %s, %.2f s"
        % (ab.checks_run, ab.detection_probability, _sha256(report_text)[:16], elapsed),
    )


def test_criterion_7_end_to_end_fidelity():
    start = time.perf_counter()
    config = ExperimentConfig(
        message_length=256,
        trials=50,
        schedule=SchedulePolicy(),
        attack=AttackModel.none(),
        abort_policy=AbortPolicy.STRICT,
        seed=1007,
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    fails = sum(stats.checks_failed for stats in result.detection.kinds.values())
    ok = (
        result.trials_completed == 50
        and result.fidelity.alice == 1.0
        and result.fidelity.bob == 1.0
        and result.fidelity.charlie == 1.0
        and fails == 0
        and elapsed < 10.0
    )
    _report(
        7,
        "50 unattacked runs at 256 bits decode perfectly",
        ok,
        "fidelity (%.3f, %.3f, %.3f), %d failed checks, %.2f s"
        % (result.fidelity.alice, result.fidelity.bob, result.fidelity.charlie, fails, elapsed),
    )


def test_criterion_8_determinism():
    start = time.perf_counter()
    config = ExperimentConfig(
        message_length=64,
        trials=60,
        schedule=SchedulePolicy(0.5, 0.25, 0.25),
        attack=AttackModel.disturbance(Pauli.X, AB),
        abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
        seed=1008,
    )
    run_bytes = [render_json(run_experiment(config).to_dict()).encode() for _ in range(2)]
    curve_kwargs = dict(
        check_kinds=("ab_check", "decoy_check"), message_length=32, trials=20, seed=1008
    )
    curve_bytes = [
        render_json({"curve": [p.to_dict() for p in entangle_measure_curve([0.5], **curve_kwargs)]}).encode()
        for _ in range(2)
    ]
    oracle_bytes = [render_json(exhaustive_oracle().to_dict()).encode() for _ in range(2)]
    elapsed = time.perf_counter() - start
    ok = (
        run_bytes[0] == run_bytes[1]
        and curve_bytes[0] == curve_bytes[1]
        and oracle_bytes[0] == oracle_bytes[1]
    )
    _report(
        8,
        "same seed reproduces byte-identical reports",
        ok,
        "experiment/curve/oracle re-rendered equal, %.2f s" % elapsed,
    )
