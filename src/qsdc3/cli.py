"""Command-line front end: configure, run and report experiments.

Subcommands:

* ``run``    - execute one experiment from a JSON config file and write the
               detection/leakage/fidelity report (JSON or CSV);
* ``oracle`` - print the exhaustive 8-row decode truth table;
* ``sweep``  - sweep the entangle-and-measure coupling over a grid and write
               the sampled-versus-analytic detection curve;
* ``demo``   - print a human-readable round-by-round trace of one small
               unattacked run.

Exit codes: 0 success, 2 invalid configuration (including a schedule that
leaves too few message rounds to deliver the bits within the round budget),
3 protocol aborted (an eavesdropper was detected under the strict policy),
4 internal invariant violation.  The same invocation with the same seed
produces byte-identical report files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys

import numpy as np

from .adversary import AttackModel, ChannelSegment
from .harness import (
    ExperimentAborted,
    ExperimentConfig,
    entangle_measure_curve,
    exhaustive_oracle,
    run_experiment,
)
from .protocol import (
    AbortPolicy,
    MessageTriple,
    RoundBudgetExceeded,
    RoundKind,
    SchedulePolicy,
    run_protocol,
)
from .states import Pauli

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORTED = 3
EXIT_INTERNAL = 4

log = logging.getLogger("qsdc3")


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config parsing.  Unknown keys are hard errors: a silent typo in a security
# experiment is worse than a loud one.

_RUN_KEYS = {
    "message_length",
    "trials",
    "p_ab_check",
    "p_bob_cm",
    "p_charlie_cm",
    "attack",
    "abort_policy",
    "seed",
}
# The keys each attack kind reads; a key another kind reads is an error here.
_ATTACK_KIND_KEYS = {
    "none": {"kind"},
    "intercept_resend": {"kind", "segments", "attack_probability"},
    "disturbance": {"kind", "segments", "pauli", "attack_probability"},
    "entangle_measure": {"kind", "segments", "beta_sq", "attack_probability"},
}
_ATTACK_KEYS = set().union(*_ATTACK_KIND_KEYS.values())
_SWEEP_KEYS = {
    "grid",
    "check_kinds",
    "message_length",
    "trials",
    "p_ab_check",
    "p_bob_cm",
    "p_charlie_cm",
    "seed",
}

_SEGMENTS = {s.value: s for s in ChannelSegment}
_PAULIS = {"X": Pauli.X, "Z": Pauli.Z}

# A trial draws its three messages as one numpy int64 array of
# 3 * message_length bits; numpy refuses arrays of more than intp-max bytes.
_MAX_MESSAGE_LENGTH = int(np.iinfo(np.intp).max) // (3 * np.dtype(np.int64).itemsize)


def _reject_unknown(mapping, allowed, context):
    for key in mapping:
        if key not in allowed:
            raise ConfigError("unknown %s key '%s'" % (context, key))


def _integer(value, name, minimum):
    # JSON true/false arrive as bool, a subclass of int: reject them too.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("field '%s' must be an integer, got %r" % (name, value))
    if value < minimum:
        raise ConfigError("field '%s' must be >= %d, got %d" % (name, minimum, value))
    return value


def _message_length(data, default):
    length = _integer(data.get("message_length", default), "message_length", 1)
    if length > _MAX_MESSAGE_LENGTH:
        raise ConfigError(
            "field 'message_length' must be <= %d, got %d" % (_MAX_MESSAGE_LENGTH, length)
        )
    return length


def _number(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("field '%s' must be a number, got %r" % (name, value))
    return value


def _parse_schedule(data, defaults):
    """The schedule fields of a run or sweep config, ``defaults`` in order."""
    names = ("p_ab_check", "p_bob_cm", "p_charlie_cm")
    probs = [_number(data.get(name, d), name) for name, d in zip(names, defaults)]
    try:
        schedule = SchedulePolicy(*probs)
    except ValueError as exc:
        raise ConfigError("invalid schedule: %s" % exc) from None
    p_message = (
        (1.0 - schedule.p_ab_check) * (1.0 - schedule.p_bob_cm) * (1.0 - schedule.p_charlie_cm)
    )
    if p_message == 0.0:
        raise ConfigError("invalid schedule: a probability of 1 leaves no round for a message bit")
    return schedule


def _unique_keys(pairs):
    """``object_pairs_hook`` for ``json.load``: a key repeated in one object
    is an error, not a silent overwrite by its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError("key '%s' appears more than once in one object" % key)
        data[key] = value
    return data


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config file is not valid JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def parse_attack(spec):
    if spec is None:
        return AttackModel.none()
    if not isinstance(spec, dict):
        raise ConfigError("field 'attack' must be an object")
    _reject_unknown(spec, _ATTACK_KEYS, "attack")
    kind = spec.get("kind", "none")
    if not isinstance(kind, str) or kind not in _ATTACK_KIND_KEYS:
        raise ConfigError("field 'attack.kind' has unknown value %r" % (kind,))
    for key in spec:
        if key not in _ATTACK_KIND_KEYS[kind]:
            raise ConfigError("field 'attack.%s' is not used by attack kind '%s'" % (key, kind))
    prob = _number(spec.get("attack_probability", 1.0), "attack.attack_probability")
    names = spec.get("segments", [])
    if not isinstance(names, list):
        raise ConfigError("field 'attack.segments' must be a list")
    try:
        segments = [_SEGMENTS[s] for s in names]
    except (KeyError, TypeError):
        raise ConfigError(
            "field 'attack.segments' entries must be one of %s"
            % sorted(_SEGMENTS)
        ) from None
    if len(set(segments)) != len(segments):
        raise ConfigError("field 'attack.segments' names a segment more than once")
    try:
        if kind == "none":
            return AttackModel.none()
        if kind == "intercept_resend":
            return AttackModel.intercept_resend(*segments, attack_probability=prob)
        if kind == "disturbance":
            pauli = spec.get("pauli", "X")
            if not isinstance(pauli, str) or pauli not in _PAULIS:
                raise ConfigError("field 'attack.pauli' must be 'X' or 'Z'")
            return AttackModel.disturbance(_PAULIS[pauli], *segments, attack_probability=prob)
        if kind == "entangle_measure":
            if "beta_sq" not in spec:
                raise ConfigError("field 'attack.beta_sq' is required for entangle_measure")
            beta_sq = _number(spec["beta_sq"], "attack.beta_sq")
            return AttackModel.entangle_measure(beta_sq, *segments, attack_probability=prob)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid attack: %s" % exc) from None


def parse_run_config(data, seed_override=None):
    _reject_unknown(data, _RUN_KEYS, "config")
    schedule = _parse_schedule(data, (0.25, 0.25, 0.25))
    policy_name = data.get("abort_policy", "record_and_continue")
    try:
        policy = AbortPolicy(policy_name)
    except ValueError:
        raise ConfigError(
            "field 'abort_policy' must be 'strict' or 'record_and_continue'"
        ) from None
    seed = seed_override if seed_override is not None else data.get("seed", 0)
    return ExperimentConfig(
        message_length=_message_length(data, 64),
        trials=_integer(data.get("trials", 10), "trials", 1),
        schedule=schedule,
        attack=parse_attack(data.get("attack")),
        abort_policy=policy,
        seed=_integer(seed, "seed", 0),
    )


# ---------------------------------------------------------------------------
# Report rendering.  JSON keeps full float precision; CSV uses a fixed
# column order with probabilities at six fractional digits, so files diff
# cleanly and parse back to exactly what was written.

_REPORT_CSV_COLUMNS = (
    "section",
    "name",
    "checks_run",
    "checks_failed",
    "value",
    "ci_low",
    "ci_high",
    "analytic",
    "paper_claim",
    "z_score",
)
_CURVE_CSV_COLUMNS = (
    "check_kind",
    "parameter",
    "analytic",
    "sampled",
    "ci_low",
    "ci_high",
    "checks_run",
    "checks_failed",
)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return "%.6f" % value
    return str(value)


def render_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_json(text):
    return json.loads(text)


def render_report_csv(report):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_REPORT_CSV_COLUMNS)
    for name, stats in sorted(report["detection"].items()):
        writer.writerow(
            [
                "detection",
                name,
                stats["checks_run"],
                stats["checks_failed"],
                _fmt(stats["detection_probability"]),
                _fmt(stats["ci_low"]),
                _fmt(stats["ci_high"]),
                _fmt(stats["analytic_probability"]),
                _fmt(stats["paper_claim"]),
                _fmt(stats["z_score"]),
            ]
        )
    for name, value in sorted(report["leakage"].items()):
        writer.writerow(["leakage", name, "", "", _fmt(value), "", "", "", "", ""])
    for name, value in sorted(report["fidelity"].items()):
        writer.writerow(["fidelity", name, "", "", _fmt(value), "", "", "", "", ""])
    return out.getvalue()


def render_curve_csv(points):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CURVE_CSV_COLUMNS)
    for point in points:
        d = point.to_dict()
        writer.writerow(
            [
                d["check_kind"],
                _fmt(d["parameter"]),
                _fmt(d["analytic"]),
                _fmt(d["sampled"]),
                _fmt(d["ci_low"]),
                _fmt(d["ci_high"]),
                d["checks_run"],
                d["checks_failed"],
            ]
        )
    return out.getvalue()


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("cannot write report file: %s" % exc) from None
        log.info("wrote %s", out_path)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_run(args):
    config = parse_run_config(_load_json(args.config), args.seed)
    log.info("running %d trial(s)", config.trials)
    aborted = None
    try:
        result = run_experiment(config)
    except ExperimentAborted as exc:
        result = exc.partial
        aborted = exc
    report = result.to_dict()
    text = render_json(report) if args.format == "json" else render_report_csv(report)
    _emit(text, args.out)
    if aborted is not None:
        print(
            "eavesdropper detected: %s failed in trial %d at round %d"
            % (aborted.check_kind.value, aborted.trial_index, aborted.round_index),
            file=sys.stderr,
        )
        return EXIT_ABORTED
    return EXIT_OK


def cmd_oracle(args):
    report = exhaustive_oracle()
    print(" i j k | flip phase |  x y | alice  bob  charlie | ok")
    print("-" * 56)
    for row in report.rows:
        print(
            " %d %d %d |  %d    %d   |  %d %d | (%d,%d)  (%d,%d)  (%d,%d)  | %s"
            % (
                row.i,
                row.j,
                row.k,
                row.flip,
                row.phase,
                row.x,
                row.y,
                row.alice_decoded[0],
                row.alice_decoded[1],
                row.bob_decoded[0],
                row.bob_decoded[1],
                row.charlie_decoded[0],
                row.charlie_decoded[1],
                "pass" if row.ok else "FAIL",
            )
        )
    if args.out:
        _emit(render_json(report.to_dict()), args.out)
    print("oracle: %s" % ("all 8 triples decode correctly" if report.passed else "FAILED"))
    return EXIT_OK if report.passed else EXIT_INTERNAL


def cmd_sweep(args):
    data = _load_json(args.config)
    _reject_unknown(data, _SWEEP_KEYS, "sweep config")
    grid = data.get("grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("field 'grid' must be a non-empty list of |beta|^2 values")
    for value in grid:
        if not 0.0 <= _number(value, "grid") <= 1.0:
            raise ConfigError("field 'grid' values must lie in [0, 1], got %r" % (value,))
    kinds = data.get("check_kinds", ["ab_check", "decoy_check"])
    if not isinstance(kinds, list) or not kinds or not all(isinstance(k, str) for k in kinds):
        raise ConfigError("field 'check_kinds' must be a non-empty list of strings")
    schedule = _parse_schedule(data, (0.25, 0.1, 0.4))
    message_length = _message_length(data, 128)
    trials = _integer(data.get("trials", 140), "trials", 1)
    seed = _integer(args.seed if args.seed is not None else data.get("seed", 0), "seed", 0)
    try:
        points = entangle_measure_curve(
            grid,
            check_kinds=kinds,
            message_length=message_length,
            trials=trials,
            schedule=schedule,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError("invalid sweep config: %s" % exc) from None
    if args.format == "json":
        text = render_json({"curve": [p.to_dict() for p in points]})
    else:
        text = render_curve_csv(points)
    _emit(text, args.out)
    return EXIT_OK


def _demo_trace(result, messages):
    lines = []
    announcement_rounds = {}
    reveals = result.transcript.decoy_reveals()
    for idx, rec in enumerate(result.records):
        if rec.kind is RoundKind.MESSAGE:
            x, y = rec.announcement
            lines.append(
                "round %2d  message n=%d: bits (i,j,k)=(%d,%d,%d)  "
                "bell=(%d,%d)  announce (x,y)=(%d,%d)  x^y=%d=j^k"
                % (
                    idx,
                    rec.message_index,
                    rec.alice_bit,
                    rec.bob_bit,
                    rec.charlie_bit,
                    rec.bell_outcome.flip,
                    rec.bell_outcome.phase,
                    x,
                    y,
                    x ^ y,
                )
            )
            announcement_rounds[rec.message_index] = (x, y)
        elif rec.kind is RoundKind.CHARLIE_DECOY_CHECK:
            lines.append(
                "round %2d  decoy check: state '%s'  %s"
                % (idx, reveals[idx], "pass" if rec.check_passed else "FAIL")
            )
        else:
            label = "A-B check" if rec.kind is RoundKind.BOB_EAVESDROP_CHECK else "C-A check"
            lines.append(
                "round %2d  %s: %s" % (idx, label, "pass" if rec.check_passed else "FAIL")
            )
    d = result.decoded
    ok = (
        d.alice_view_bob == messages.bob_bits
        and d.alice_view_charlie == messages.charlie_bits
        and d.bob_view_alice == messages.alice_bits
        and d.bob_view_charlie == messages.charlie_bits
        and d.charlie_view_alice == messages.alice_bits
        and d.charlie_view_bob == messages.bob_bits
    )
    lines.append("decoded: all three parties recover the others' bits -> %s" % ("ok" if ok else "MISMATCH"))
    return lines


def cmd_demo(args):
    if not 1 <= args.rounds <= 16:
        raise ConfigError("demo size must be between 1 and 16 message bits")
    rng = np.random.default_rng(_integer(args.seed, "seed", 0))
    messages = MessageTriple.random(args.rounds, rng)
    result = run_protocol(messages, SchedulePolicy(), rng)
    print(
        "one unattacked run, %d message bit(s) per party, seed %d:"
        % (args.rounds, args.seed)
    )
    print("  alice=%s bob=%s charlie=%s" % (messages.alice_bits, messages.bob_bits, messages.charlie_bits))
    for line in _demo_trace(result, messages):
        print(line)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsdc3",
        description="Three-party direct-communication protocol simulator over EPR pairs.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v for progress info, -vv for debug output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="report file (default: stdout)")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="exhaustive decode truth table")
    p_oracle.add_argument("--out", default=None, help="also write the table as JSON")
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="entangle-and-measure detection curve")
    p_sweep.add_argument("--config", required=True, help="JSON sweep config with 'grid'")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sweep.add_argument("--out", default=None, help="curve file (default: stdout)")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo", help="round-by-round trace of a small run")
    p_demo.add_argument("-n", "--rounds", type=int, default=4, help="message bits (1..16)")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except RoundBudgetExceeded as exc:
        print("config error: the schedule leaves too few message rounds: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(
            "config error: not enough memory for this configuration"
            " (is message_length or trials too large?)",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except AssertionError as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
