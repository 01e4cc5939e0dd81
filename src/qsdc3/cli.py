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
from dataclasses import astuple, fields, replace

import numpy as np

from .adversary import AttackKind, AttackModel, ChannelSegment
from .harness import (
    CURVE_SCHEDULE,
    CurvePoint,
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
    decode_errors,
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
# Config parsing.  The CLI checks only the JSON's shape: unknown keys (a
# silent typo in a security experiment is worse than a loud one), lists,
# and the names of enum members.  It passes the library's constructors
# only the keys a config gives, so every default is the one of the type
# that owns it (``ExperimentConfig``, ``SchedulePolicy``, ``AttackModel``,
# ``entangle_measure_curve``); they own the value rules too (``AttackModel``
# decides which fields each attack kind takes), and the CLI reports their
# ``ValueError`` as a config error.

_SCHEDULE_KEYS = {field.name for field in fields(SchedulePolicy)}
# The keys of a report's ``config`` section, so a report reruns its config.
_RUN_KEYS = set(ExperimentConfig().to_dict())
_ATTACK_KEYS = {field.name for field in fields(AttackModel)}
_SWEEP_KEYS = {"grid", "check_kinds", "message_length", "trials", "seed"} | _SCHEDULE_KEYS

_SEGMENTS = {s.value: s for s in ChannelSegment}
_PAULIS = {"X": Pauli.X, "Z": Pauli.Z}


def _reject_unknown(mapping, allowed, context):
    for key in mapping:
        if key not in allowed:
            raise ConfigError("unknown %s key '%s'" % (context, key))


def _given(data, names):
    """The entries of ``data`` named in ``names``, for the keys it has."""
    return {name: data[name] for name in names if name in data}


def _parse_schedule(data, base):
    """``base`` with the schedule fields a run or sweep config gives."""
    try:
        return replace(base, **_given(data, _SCHEDULE_KEYS))
    except ValueError as exc:
        raise ConfigError("invalid schedule: %s" % exc) from None


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
    # ValueError covers bytes that are not UTF-8 and integers past Python's digit limit too.
    except (ValueError, RecursionError) as exc:
        raise ConfigError("config file is not valid JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def parse_attack(spec):
    if not isinstance(spec, dict):
        raise ConfigError("field 'attack' must be an object")
    _reject_unknown(spec, _ATTACK_KEYS, "attack")
    # A null would pass as the field left out.
    for key, value in spec.items():
        if value is None:
            raise ConfigError("field 'attack.%s' must not be null" % key)
    try:
        kind = AttackKind(spec["kind"])
    except KeyError:
        raise ConfigError("field 'attack.kind' is required") from None
    except ValueError:
        raise ConfigError("field 'attack.kind' has unknown value %r" % (spec["kind"],)) from None
    given = _given(spec, ("beta_sq", "attack_probability"))
    pauli = spec.get("pauli")
    if pauli is not None:
        if not isinstance(pauli, str) or pauli not in _PAULIS:
            raise ConfigError("field 'attack.pauli' must be 'X' or 'Z'")
        given["pauli"] = _PAULIS[pauli]
    if "segments" in spec:
        names = spec["segments"]
        if not isinstance(names, list):
            raise ConfigError("field 'attack.segments' must be a list")
        try:
            given["segments"] = [_SEGMENTS[s] for s in names]
        except (KeyError, TypeError):
            raise ConfigError(
                "field 'attack.segments' entries must be one of %s"
                % sorted(_SEGMENTS)
            ) from None
    try:
        return AttackModel(kind, **given)
    except ValueError as exc:
        raise ConfigError("invalid attack: %s" % exc) from None


def parse_run_config(data, seed_override=None):
    _reject_unknown(data, _RUN_KEYS, "config")
    given = _given(data, ("message_length", "trials", "seed"))
    given["schedule"] = _parse_schedule(data, SchedulePolicy())
    if "abort_policy" in data:
        try:
            given["abort_policy"] = AbortPolicy(data["abort_policy"])
        except ValueError:
            raise ConfigError(
                "field 'abort_policy' must be 'strict' or 'record_and_continue'"
            ) from None
    if "attack" in data:
        given["attack"] = parse_attack(data["attack"])
    if seed_override is not None:
        given["seed"] = seed_override
    try:
        return ExperimentConfig(**given)
    except ValueError as exc:
        raise ConfigError("invalid config: %s" % exc) from None


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
_CURVE_CSV_COLUMNS = tuple(field.name for field in fields(CurvePoint))


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
        writer.writerow(map(_fmt, astuple(point)))
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
    if not isinstance(grid, list):
        raise ConfigError("field 'grid' must be a list of |beta|^2 values")
    given = _given(data, ("check_kinds", "message_length", "trials", "seed"))
    given["schedule"] = _parse_schedule(data, CURVE_SCHEDULE)
    if args.seed is not None:
        given["seed"] = args.seed
    try:
        points = entangle_measure_curve(grid, **given)
    except ValueError as exc:
        raise ConfigError("invalid sweep config: %s" % exc) from None
    if args.format == "json":
        text = render_json({"curve": [p.to_dict() for p in points]})
    else:
        text = render_curve_csv(points)
    _emit(text, args.out)
    return EXIT_OK


def _demo_trace(result):
    lines = []
    ok = True
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
            ok = ok and decode_errors(x, y, rec.alice_bit, rec.bob_bit, rec.charlie_bit) == (0, 0, 0)
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
    lines.append("decoded: all three parties recover the others' bits -> %s" % ("ok" if ok else "MISMATCH"))
    return lines


def cmd_demo(args):
    if not 1 <= args.rounds <= 16:
        raise ConfigError("demo size must be between 1 and 16 message bits")
    if args.seed < 0:
        raise ConfigError("field 'seed' must be >= 0, got %d" % args.seed)
    rng = np.random.default_rng(args.seed)
    messages = MessageTriple.random(args.rounds, rng)
    result = run_protocol(messages, SchedulePolicy(), rng)
    print(
        "one unattacked run, %d message bit(s) per party, seed %d:"
        % (args.rounds, args.seed)
    )
    print("  alice=%s bob=%s charlie=%s" % (messages.alice_bits, messages.bob_bits, messages.charlie_bits))
    for line in _demo_trace(result):
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
