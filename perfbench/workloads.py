"""The benchmark's workloads: generated configs, the timed solve, and gates.

Each workload is one of the acceptance configs, so every number in its
report has an exact or statistical reference the gates can check.  Configs
are generated from a seed as plain JSON-style dicts; the program only ever
sees them through ``cli.parse_run_config``.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from qsdc3 import cli, harness

# At least this many audited rounds or checks make a report acceptance-grade.
ACCEPTANCE_CHECKS = 10_000
# Statistical gates allow this many standard errors.
GATE_SE = 4.0
PROBE_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    configs: Callable  # (seed, tiny) -> list of config dicts
    gate: Callable  # (results, tiny) -> list of problems, empty when correct


def _sized(tiny, message_length, trials):
    # Smoke size for the benchmark's own tests; far below acceptance grade.
    if tiny:
        return {"message_length": 8, "trials": 4}
    return {"message_length": message_length, "trials": trials}


def _four_se_problem(label, stats, expected, tiny):
    """Problems with a sampled check rate against its exact value."""
    problems = []
    if abs(stats.analytic_probability - expected) > 1e-12:
        problems.append("%s analytic %r, expected %r" % (label, stats.analytic_probability, expected))
    if not tiny and stats.checks_run < ACCEPTANCE_CHECKS:
        problems.append("%s only %d checks" % (label, stats.checks_run))
    if stats.checks_run == 0:
        problems.append("%s ran no checks" % label)
    elif expected == 0.0:
        if stats.checks_failed != 0:
            problems.append("%s failed %d checks, expected none" % (label, stats.checks_failed))
    else:
        tolerance = GATE_SE * math.sqrt(expected * (1.0 - expected) / stats.checks_run)
        if abs(stats.detection_probability - expected) >= tolerance:
            problems.append(
                "%s sampled %.5f, expected %.5f +- %.5f"
                % (label, stats.detection_probability, expected, tolerance)
            )
    return problems


def _honest_configs(seed, tiny):
    config = {
        "p_ab_check": 0.05,
        "p_bob_cm": 0.05,
        "p_charlie_cm": 0.05,
        "abort_policy": "strict",
        "seed": seed,
    }
    config.update(_sized(tiny, 100, 100))
    return [config]


def _honest_gate(results, tiny):
    (result,) = results
    problems = []
    leakage = result.leakage
    if leakage.xor_identity_fraction != 1.0:
        problems.append("xor_identity_fraction %r" % leakage.xor_identity_fraction)
    for party in ("alice", "bob", "charlie"):
        fidelity = getattr(result.fidelity, party)
        if fidelity != 1.0:
            problems.append("%s fidelity %r" % (party, fidelity))
    failed = sum(stats.checks_failed for stats in result.detection.kinds.values())
    if failed:
        problems.append("%d failed checks without an attack" % failed)
    if not tiny and leakage.rounds_audited < ACCEPTANCE_CHECKS:
        problems.append("only %d audited rounds" % leakage.rounds_audited)
    return problems


def _intercept_configs(seed, tiny):
    config = {
        "p_ab_check": 0.5,
        "p_bob_cm": 0.25,
        "p_charlie_cm": 0.25,
        "attack": {"kind": "intercept_resend", "segments": ["a_to_b"]},
        "abort_policy": "record_and_continue",
        "seed": seed,
    }
    config.update(_sized(tiny, 64, 100))
    return [config]


def _intercept_gate(results, tiny):
    (result,) = results
    return _four_se_problem("ab_check", result.detection.kinds["ab_check"], 0.25, tiny)


def _probe_configs(seed, tiny):
    # The per-point seeds harness.entangle_measure_curve(seed=...) derives, so
    # each point's report is the one behind that curve's row.
    point_seeds = np.random.SeedSequence(seed).spawn(len(PROBE_GRID))
    configs = []
    for beta_sq, point_seed in zip(PROBE_GRID, point_seeds):
        config = {
            "p_ab_check": 0.25,
            "p_bob_cm": 0.1,
            "p_charlie_cm": 0.4,
            "attack": {
                "kind": "entangle_measure",
                "segments": ["a_to_b", "c_to_a"],
                "beta_sq": beta_sq,
            },
            "abort_policy": "record_and_continue",
            "seed": int(point_seed.generate_state(1)[0]),
        }
        config.update(_sized(tiny, 128, 140))
        configs.append(config)
    return configs


def _probe_gate(results, tiny):
    problems = []
    for beta_sq, result in zip(PROBE_GRID, results):
        kinds = result.detection.kinds
        for kind in ("ab_check", "decoy_check"):
            label = "%s@%.2f" % (kind, beta_sq)
            problems += _four_se_problem(label, kinds[kind], beta_sq / 2.0, tiny)
        x_family = kinds.get("decoy_check_x")
        if x_family is None:
            if not tiny:
                problems.append("no X-family decoys at %.2f" % beta_sq)
        elif x_family.checks_failed:
            problems.append("%d X-family decoy failures at %.2f" % (x_family.checks_failed, beta_sq))
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "honest_message",
            "criterion 2: unattacked message rounds on 2-qubit registers; the null"
            " adversary bypasses attack code, so attack work should not move it",
            1002,
            _honest_configs,
            _honest_gate,
        ),
        Workload(
            "intercept_checks",
            "criterion 6: intercept-resend on A->B with half the rounds A-B checks;"
            " stresses measurement, collapse and scalar RNG draws",
            1006,
            _intercept_configs,
            _intercept_gate,
        ),
        Workload(
            "probe_sweep",
            "criterion 5: entangle-measure probe at five couplings; 3-qubit"
            " registers, probe attach/discard, decoys and the exact enumerator",
            1005,
            _probe_configs,
            _probe_gate,
        ),
    )
}


def solve(configs):
    """The timed unit: run every config and render its report.

    The report is the concatenation of what ``qsdc3 run`` writes for each
    config, so its sha256 can be checked against the command line.
    Entry points are looked up on their modules at call time, so the tracer's
    wrappers are the ones called.
    """
    results = [harness.run_experiment(config) for config in configs]
    text = "".join(cli.render_json(result.to_dict()) for result in results)
    return text, results
