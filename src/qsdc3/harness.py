"""Monte Carlo experiment runner and statistics.

Runs many independent protocol executions, estimates per-check detection
probabilities with Wilson intervals, compares them against the exact
enumerated expectations, measures message fidelity, and audits what the
public transcript leaks about the three secrets.

All randomness derives from a single 64-bit seed: per-trial generators are
split off the master seed with ``numpy.random.SeedSequence.spawn``, so
trials are independent, parallelizable in principle, and the whole report
is a deterministic function of the configuration.
"""

from __future__ import annotations

import logging
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .adversary import (
    CHECK_PATHS,
    AttackKind,
    AttackModel,
    ChannelSegment,
    analytic_detection_probability,
    paper_claimed_detection,
)
from .protocol import (
    AbortPolicy,
    MessageTriple,
    ProtocolAborted,
    RoundKind,
    SchedulePolicy,
    run_protocol,
)
from .states import Basis

log = logging.getLogger("qsdc3")

_CHECK_KINDS = tuple(CHECK_PATHS)
_Z_DECOYS = ("0", "1")
_MESSAGE = RoundKind.MESSAGE
_DECOY_CHECK = RoundKind.CHARLIE_DECOY_CHECK


def wilson_interval(failures, n, z=1.96):
    """Wilson score interval for a binomial proportion (95% by default).

    Well behaved near 0 and 1, which this protocol hits on its
    undetectable attack branches.
    """
    if n == 0:
        return 0.0, 1.0
    phat = failures / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def plugin_mutual_information(xs, ys):
    """Plug-in mutual information (bits) over empirical joint frequencies.

    Adequate at the tiny alphabets used here (bits and bit pairs).
    """
    n = len(xs)
    if n == 0 or n != len(ys):
        raise ValueError("need two equal-length non-empty sequences")
    joint = Counter(zip(xs, ys))
    px = Counter(xs)
    py = Counter(ys)
    mi = 0.0
    for (x, y), c in sorted(joint.items()):
        mi += (c / n) * math.log2(c * n / (px[x] * py[y]))
    return mi


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment depends on; the seed fixes all randomness."""

    message_length: int = 64
    trials: int = 10
    schedule: SchedulePolicy = SchedulePolicy()
    attack: AttackModel = AttackModel.none()
    abort_policy: AbortPolicy = AbortPolicy.RECORD_AND_CONTINUE
    seed: int = 0

    def __post_init__(self):
        # Integers of any kind (numpy's included) are stored as ``int``; a
        # bool, a float or any other value raises ``ValueError`` here rather
        # than inside numpy, or in the report as ``true``.
        for name, least in (("message_length", 1), ("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            try:
                index = operator.index(value)
            except TypeError:
                index = None
            if index is None or isinstance(value, bool):
                raise ValueError("%s must be an integer, got %r" % (name, value))
            if index < least:
                raise ValueError("%s must be >= %d" % (name, least))
            object.__setattr__(self, name, index)

    def to_dict(self):
        attack = {
            "kind": self.attack.kind.value,
            "segments": sorted(s.value for s in self.attack.segments),
            "attack_probability": self.attack.attack_probability,
        }
        if self.attack.kind is AttackKind.DISTURBANCE:
            attack["pauli"] = self.attack.pauli.name
        if self.attack.kind is AttackKind.ENTANGLE_MEASURE:
            attack["beta_sq"] = abs(self.attack.beta) ** 2
        return {
            "message_length": self.message_length,
            "trials": self.trials,
            "p_ab_check": self.schedule.p_ab_check,
            "p_bob_cm": self.schedule.p_bob_cm,
            "p_charlie_cm": self.schedule.p_charlie_cm,
            "attack": attack,
            "abort_policy": self.abort_policy.value,
            "seed": self.seed,
        }


@dataclass
class CheckStats:
    """Detection statistics for one check kind."""

    checks_run: int
    checks_failed: int
    detection_probability: float | None
    ci_low: float
    ci_high: float
    analytic_probability: float | None
    paper_claim: float | None
    z_score: float | None

    @classmethod
    def from_counts(cls, run, failed, analytic, claim):
        phat = failed / run if run else None
        lo, hi = wilson_interval(failed, run)
        z = None
        if run and analytic is not None and 0.0 < analytic < 1.0:
            z = (phat - analytic) / math.sqrt(analytic * (1.0 - analytic) / run)
        return cls(run, failed, phat, lo, hi, analytic, claim, z)

    def to_dict(self):
        return asdict(self)


@dataclass
class DetectionReport:
    """Per-check-kind statistics, including the decoy Z/X family split."""

    kinds: dict

    def to_dict(self):
        return {name: stats.to_dict() for name, stats in sorted(self.kinds.items())}


@dataclass
class LeakageReport:
    """What the public transcript reveals about the secrets.

    The masked announcement pair always satisfies x XOR y = (Bob's bit) XOR
    (Charlie's bit) in honest rounds, so that one XOR is public knowledge by
    construction; the individual secrets stay hidden.
    """

    rounds_audited: int
    xor_identity_fraction: float | None
    mi_announcement_vs_alice: float | None
    mi_announcement_vs_bob: float | None
    mi_announcement_vs_charlie: float | None
    mi_xor_announced_vs_xor_secret: float | None

    def to_dict(self):
        return asdict(self)


@dataclass
class FidelityReport:
    """Fraction of correctly decoded bits per party (over completed trials)."""

    alice: float | None
    bob: float | None
    charlie: float | None

    def to_dict(self):
        return asdict(self)


@dataclass
class EveStats:
    """Aggregate view of Eve's own records."""

    actions: int
    probe_measurements: int
    probe_flip_count: int
    probe_flip_frequency: float | None

    def to_dict(self):
        return asdict(self)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    detection: DetectionReport
    leakage: LeakageReport
    fidelity: FidelityReport
    eve: EveStats
    trials_completed: int
    trials_aborted: int
    rounds_total: int
    aborted: dict | None = None

    def to_dict(self):
        return {
            "config": self.config.to_dict(),
            "detection": self.detection.to_dict(),
            "leakage": self.leakage.to_dict(),
            "fidelity": self.fidelity.to_dict(),
            "eve": self.eve.to_dict(),
            "trials_completed": self.trials_completed,
            "trials_aborted": self.trials_aborted,
            "rounds_total": self.rounds_total,
            "aborted": self.aborted,
        }


class ExperimentAborted(Exception):
    """Strict-policy experiment stopped by a detected eavesdropper.

    Carries the partial :class:`ExperimentResult` accumulated up to and
    including the aborting round.
    """

    def __init__(self, partial, trial_index, round_index, check_kind):
        self.partial = partial
        self.trial_index = trial_index
        self.round_index = round_index
        self.check_kind = check_kind
        super().__init__(
            "experiment aborted: %s failed in trial %d at round %d"
            % (check_kind.value, trial_index, round_index)
        )


class _Aggregator:
    """Deterministic fold of per-trial results, in trial order."""

    def __init__(self, config):
        self.config = config
        self.check_counts = {k: [0, 0] for k in _CHECK_KINDS}
        self.decoy_family_counts = {"decoy_check_z": [0, 0], "decoy_check_x": [0, 0]}
        self.xy_symbols = []
        self.secret_bits = {"alice": [], "bob": [], "charlie": []}
        self.xor_announced = []
        self.xor_secret = []
        self.xor_hits = 0
        self.messages_audited = 0
        self.fidelity_sums = {"alice": 0.0, "bob": 0.0, "charlie": 0.0}
        self.trials_completed = 0
        self.trials_aborted = 0
        self.rounds_total = 0
        self.eve_actions = 0
        self.probe_measured = 0
        self.probe_flips = 0

    def add_records(self, records, transcript, eve_records):
        # Record list position == round index: the engine logs one record
        # per round from round 0.
        reveals = transcript.decoy_reveals() if records else {}
        xy_symbols = self.xy_symbols.append
        alice_bits = self.secret_bits["alice"].append
        bob_bits = self.secret_bits["bob"].append
        charlie_bits = self.secret_bits["charlie"].append
        xor_announced = self.xor_announced.append
        xor_secret = self.xor_secret.append
        check_counts = self.check_counts
        decoy_family_counts = self.decoy_family_counts
        xor_hits = 0
        messages = 0
        for idx, rec in enumerate(records):
            kind = rec.kind
            if kind is _MESSAGE:
                x, y = rec.announcement
                xy_symbols(2 * x + y)
                alice_bits(rec.alice_bit)
                bob_bits(rec.bob_bit)
                charlie_bits(rec.charlie_bit)
                xor_announced(x ^ y)
                xor_secret(rec.bob_bit ^ rec.charlie_bit)
                if x ^ y == rec.bob_bit ^ rec.charlie_bit:
                    xor_hits += 1
                messages += 1
            else:
                # ``_value_`` is the kind name without the Python-level
                # ``Enum.value`` property.
                counts = check_counts[kind._value_]
                counts[0] += 1
                failed = not rec.check_passed
                counts[1] += failed
                if kind is _DECOY_CHECK:
                    family = "decoy_check_z" if reveals[idx] in _Z_DECOYS else "decoy_check_x"
                    fam = decoy_family_counts[family]
                    fam[0] += 1
                    fam[1] += failed
        self.xor_hits += xor_hits
        self.messages_audited += messages
        self.rounds_total += len(records)
        for ev in eve_records:
            self.eve_actions += 1
            if ev.ancilla_outcome is not None:
                self.probe_measured += 1
                self.probe_flips += ev.ancilla_outcome

    def add_completed(self, messages, result):
        self.add_records(result.records, result.transcript, result.eve_records)
        n = messages.length
        d = result.decoded
        pairs = (
            ("alice", d.alice_view_bob, messages.bob_bits),
            ("alice", d.alice_view_charlie, messages.charlie_bits),
            ("bob", d.bob_view_alice, messages.alice_bits),
            ("bob", d.bob_view_charlie, messages.charlie_bits),
            ("charlie", d.charlie_view_alice, messages.alice_bits),
            ("charlie", d.charlie_view_bob, messages.bob_bits),
        )
        for party, got, want in pairs:
            hits = sum(1 for g, w in zip(got, want) if g == w)
            self.fidelity_sums[party] += hits / (2 * n)
        self.trials_completed += 1

    def checks_failed(self):
        return sum(failed for _, failed in self.check_counts.values())

    def _analytic(self, kind, decoy_family=None):
        attack = self.config.attack
        if attack.kind is AttackKind.NONE:
            return 0.0
        base = kind if not kind.startswith("decoy_check_") else "decoy_check"
        if attack.segments.isdisjoint(CHECK_PATHS[base]):
            return 0.0
        return analytic_detection_probability(attack, base, decoy_family)

    def build(self, aborted=None):
        claim = paper_claimed_detection(self.config.attack.kind)
        kinds = {}
        for kind in _CHECK_KINDS:
            run, failed = self.check_counts[kind]
            kinds[kind] = CheckStats.from_counts(run, failed, self._analytic(kind), claim)
        for family, basis in (("decoy_check_z", Basis.Z), ("decoy_check_x", Basis.X)):
            run, failed = self.decoy_family_counts[family]
            if run:
                kinds[family] = CheckStats.from_counts(
                    run, failed, self._analytic(family, basis), claim
                )
        detection = DetectionReport(kinds)

        m = self.messages_audited
        leakage = LeakageReport(
            rounds_audited=m,
            xor_identity_fraction=self.xor_hits / m if m else None,
            mi_announcement_vs_alice=(
                plugin_mutual_information(self.xy_symbols, self.secret_bits["alice"]) if m else None
            ),
            mi_announcement_vs_bob=(
                plugin_mutual_information(self.xy_symbols, self.secret_bits["bob"]) if m else None
            ),
            mi_announcement_vs_charlie=(
                plugin_mutual_information(self.xy_symbols, self.secret_bits["charlie"])
                if m
                else None
            ),
            mi_xor_announced_vs_xor_secret=(
                plugin_mutual_information(self.xor_announced, self.xor_secret) if m else None
            ),
        )

        done = self.trials_completed
        fidelity = FidelityReport(
            alice=self.fidelity_sums["alice"] / done if done else None,
            bob=self.fidelity_sums["bob"] / done if done else None,
            charlie=self.fidelity_sums["charlie"] / done if done else None,
        )
        eve = EveStats(
            actions=self.eve_actions,
            probe_measurements=self.probe_measured,
            probe_flip_count=self.probe_flips,
            probe_flip_frequency=(
                self.probe_flips / self.probe_measured if self.probe_measured else None
            ),
        )
        return ExperimentResult(
            config=self.config,
            detection=detection,
            leakage=leakage,
            fidelity=fidelity,
            eve=eve,
            trials_completed=self.trials_completed,
            trials_aborted=self.trials_aborted,
            rounds_total=self.rounds_total,
            aborted=aborted,
        )


def run_experiment(config):
    """Run ``config.trials`` independent protocol executions and report.

    Deterministic given the seed.  Under the strict abort policy the first
    detected eavesdropper stops the experiment: :class:`ExperimentAborted`
    is raised carrying the partial statistics.  Each trial logs one INFO
    line on the ``qsdc3`` logger: its index, rounds used and failed checks.
    """
    agg = _Aggregator(config)
    # One child per trial, spawned when the trial starts: repeated
    # ``spawn(1)`` gives the seeds one ``spawn(trials)`` would, without
    # holding them all.
    master = np.random.SeedSequence(config.seed)
    for trial in range(config.trials):
        rounds_before, failed_before = agg.rounds_total, agg.checks_failed()
        (child,) = master.spawn(1)
        rng = np.random.default_rng(child)
        messages = MessageTriple.random(config.message_length, rng)
        try:
            result = run_protocol(
                messages,
                config.schedule,
                rng,
                attack=config.attack,
                abort_policy=config.abort_policy,
            )
        except ProtocolAborted as abort:
            agg.add_records(abort.records, abort.transcript, abort.eve_records)
            agg.trials_aborted += 1
            log.info(
                "trial %d: rounds %d, failed checks %d, aborted",
                trial,
                agg.rounds_total - rounds_before,
                agg.checks_failed() - failed_before,
            )
            aborted = {
                "trial": trial,
                "round": abort.round_index,
                "check_kind": abort.check_kind.value,
                "segments": sorted(s.value for s in abort.touched_segments),
            }
            partial = agg.build(aborted=aborted)
            raise ExperimentAborted(partial, trial, abort.round_index, abort.check_kind) from None
        agg.add_completed(messages, result)
        log.info(
            "trial %d: rounds %d, failed checks %d",
            trial,
            agg.rounds_total - rounds_before,
            agg.checks_failed() - failed_before,
        )
    return agg.build()


# ---------------------------------------------------------------------------
# Exhaustive decode oracle.


@dataclass
class OracleRow:
    i: int
    j: int
    k: int
    flip: int
    phase: int
    x: int
    y: int
    alice_decoded: tuple
    bob_decoded: tuple
    charlie_decoded: tuple
    ok: bool

    def to_dict(self):
        return {
            "i": self.i,
            "j": self.j,
            "k": self.k,
            "flip": self.flip,
            "phase": self.phase,
            "x": self.x,
            "y": self.y,
            "alice_decoded": list(self.alice_decoded),
            "bob_decoded": list(self.bob_decoded),
            "charlie_decoded": list(self.charlie_decoded),
            "ok": self.ok,
        }


@dataclass
class OracleReport:
    passed: bool
    rows: list
    first_failure: tuple | None

    def to_dict(self):
        return {
            "passed": self.passed,
            "first_failure": list(self.first_failure) if self.first_failure else None,
            "rows": [row.to_dict() for row in self.rows],
        }


def exhaustive_oracle():
    """Brute-force truth table over all 8 secret-bit triples.

    Runs one full unattacked message round per triple through the state
    vector simulation (schedule forced to message mode, so the round is
    deterministic) and asserts that all three decode rules recover the
    counterpart bits exactly.
    """
    schedule = SchedulePolicy(0.0, 0.0, 0.0)
    rows = []
    first_failure = None
    for i, j, k in product((0, 1), repeat=3):
        rng = np.random.default_rng(0)  # unused entropy: the round is deterministic
        messages = MessageTriple((i,), (j,), (k,))
        result = run_protocol(messages, schedule, rng)
        rec = result.records[0]
        x, y = rec.announcement
        d = result.decoded
        ok = (
            d.alice_view_bob == (j,)
            and d.alice_view_charlie == (k,)
            and d.bob_view_alice == (i,)
            and d.bob_view_charlie == (k,)
            and d.charlie_view_alice == (i,)
            and d.charlie_view_bob == (j,)
        )
        rows.append(
            OracleRow(
                i,
                j,
                k,
                rec.bell_outcome.flip,
                rec.bell_outcome.phase,
                x,
                y,
                (d.alice_view_bob[0], d.alice_view_charlie[0]),
                (d.bob_view_alice[0], d.bob_view_charlie[0]),
                (d.charlie_view_alice[0], d.charlie_view_bob[0]),
                ok,
            )
        )
        if not ok and first_failure is None:
            first_failure = (i, j, k)
    return OracleReport(first_failure is None, rows, first_failure)


# ---------------------------------------------------------------------------
# Detection curves (parameter sweeps).


@dataclass
class CurvePoint:
    check_kind: str
    parameter: float
    analytic: float
    sampled: float | None
    ci_low: float
    ci_high: float
    checks_run: int
    checks_failed: int

    def to_dict(self):
        return asdict(self)


def detection_curve(
    make_attack,
    grid,
    check_kinds=("ab_check", "decoy_check"),
    message_length=128,
    trials=140,
    schedule=None,
    seed=0,
):
    """Sampled-versus-analytic detection table across a parameter grid.

    ``make_attack`` maps one grid value to an :class:`AttackModel`.  For each
    grid point one experiment runs (record-and-continue) and every requested
    check kind contributes a row; decoy rows additionally report the Z and X
    family splits.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("parameter grid must not be empty")
    if schedule is None:
        schedule = SchedulePolicy(p_ab_check=0.25, p_bob_cm=0.1, p_charlie_cm=0.4)
    wanted = list(check_kinds)
    for kind in wanted:
        if kind not in _CHECK_KINDS:
            raise ValueError("unknown check kind %r" % (kind,))

    point_seeds = np.random.SeedSequence(seed).spawn(len(grid))
    rows = []
    for idx, value in enumerate(grid):
        attack = make_attack(value)
        config = ExperimentConfig(
            message_length=message_length,
            trials=trials,
            schedule=schedule,
            attack=attack,
            abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
            seed=int(point_seeds[idx].generate_state(1)[0]),
        )
        result = run_experiment(config)
        report_kinds = result.detection.kinds
        for kind in wanted:
            keys = [kind]
            if kind == "decoy_check":
                keys += [k for k in ("decoy_check_z", "decoy_check_x") if k in report_kinds]
            for key in keys:
                stats = report_kinds[key]
                rows.append(
                    CurvePoint(
                        check_kind=key,
                        parameter=value,
                        analytic=stats.analytic_probability,
                        sampled=stats.detection_probability,
                        ci_low=stats.ci_low,
                        ci_high=stats.ci_high,
                        checks_run=stats.checks_run,
                        checks_failed=stats.checks_failed,
                    )
                )
    return rows


def entangle_measure_curve(grid, **kwargs):
    """Sweep the probe coupling's flip weight |beta|^2 over ``grid``.

    The attack covers both the A->B leg (disturbing pair checks) and the
    C->A leg (disturbing decoys), so one experiment per point feeds both
    curve rows.
    """
    for value in grid:
        if not 0.0 <= float(value) <= 1.0:
            raise ValueError("|beta|^2 grid values must lie in [0, 1], got %r" % (value,))

    def make(beta_sq):
        return AttackModel.entangle_measure(
            beta_sq, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A
        )

    return detection_curve(make, grid, **kwargs)
