"""Monte Carlo experiment runner and statistics.

Runs many independent protocol executions, estimates per-check detection
probabilities with Wilson intervals, compares them against the exact
enumerated expectations, measures message fidelity, and audits what the
public transcript leaks about the three secrets.

All randomness derives from a single 64-bit seed: per-trial generators are
split off the master seed with ``numpy.random.SeedSequence.spawn``, so
trials are independent, parallelizable in principle, and the whole report
is a deterministic function of the configuration.

An experiment builds one :class:`~qsdc3.states.TransitionTable`, and every
trial's session draws from it: the table holds the experiment's compiled
round (a tree of the round's chance points, see ``protocol.run_protocol``),
expanded in full by the first session, the states it reaches and each
root's cumulative leaf weights, so each tree node and each state is built,
and validated, once per experiment; a detection curve builds one table
per grid point.  A session draws one uniform per round, which picks the
round's leaf by its exact weight; which table it uses does not change its
draws or its results.  A session returns the sequence of leaves its rounds
reached, and the report is a fold of leaf counts (:class:`_Aggregator`):
an experiment builds no round record, transcript or decoded message.
Its analytic column weighs each check-forced tree once: the five rows
(three check kinds, two decoy families) read three weighings.
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
    AttackKind,
    AttackModel,
    ChannelSegment,
    detection_from_failed,
    failed_weight_by_basis,
    paper_claimed_detection,
)
from .protocol import (
    AbortPolicy,
    MessageTriple,
    ProtocolAborted,
    RoundKind,
    SchedulePolicy,
    decode_alice,
    decode_bob,
    decode_charlie,
    leaf_weights,
    run_protocol,
)
from .states import Basis, TransitionTable

log = logging.getLogger("qsdc3")

_CHECK_KINDS = tuple(kind.value for kind in RoundKind if kind is not RoundKind.MESSAGE)
# A trial draws its three messages as one numpy int64 array of
# 3 * message_length bits; numpy refuses arrays of more than intp-max bytes.
_MAX_MESSAGE_LENGTH = int(np.iinfo(np.intp).max) // (3 * np.dtype(np.int64).itemsize)
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
    return _mutual_information(Counter(zip(xs, ys)))


def _mutual_information(joint):
    """Plug-in mutual information (bits) of a ``(x, y) -> count`` table.

    The terms are summed in sorted ``(x, y)`` order, so a table gives the
    same float however its counts were gathered.
    """
    n = sum(joint.values())
    px = _projected(joint, lambda x, y: x)
    py = _projected(joint, lambda x, y: y)
    mi = 0.0
    for (x, y), c in sorted(joint.items()):
        mi += (c / n) * math.log2(c * n / (px[x] * py[y]))
    return mi


def _projected(joint, key):
    """The counts of ``joint`` gathered under ``key(*symbols)``."""
    counts = Counter()
    for symbols, c in joint.items():
        counts[key(*symbols)] += c
    return counts


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
        # bool, a float, any other value or a message too long for numpy to
        # draw raises ``ValueError`` here rather than inside numpy, or in the
        # report as ``true``.
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
        if self.message_length > _MAX_MESSAGE_LENGTH:
            raise ValueError("message_length must be <= %d" % _MAX_MESSAGE_LENGTH)

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


def _decoded_wrong(x, y, i, j, k):
    """The views that decode their bit wrong in a message round of leakage
    key (x, y, i, j, k), numbered as ``DecodedMessages`` orders them:
    Alice's view of Bob and of Charlie, Bob's of Alice and of Charlie,
    Charlie's of Alice and of Bob."""
    decoded = decode_alice(x, y, i) + decode_bob(x, y, j) + decode_charlie(x, y, k)
    return tuple(view for view, (got, sent) in enumerate(zip(decoded, (j, k, i, k, i, j))) if got != sent)


# Empty for every key of an undisturbed round.
_VIEW_MISSES = {key: _decoded_wrong(*key) for key in product((0, 1), repeat=5)}


def _view_hits(keys):
    """Each view's right bits over message rounds counted by leakage key:
    every counted round, less the rounds whose key that view decodes wrong."""
    hits = [sum(keys.values())] * 6
    for key, c in keys.items():
        for view in _VIEW_MISSES[key]:
            hits[view] -= c
    return hits


def _log_trial(trial, leaves, end=""):
    # Counting the failed checks walks every leaf: only when the line is shown.
    if log.isEnabledFor(logging.INFO):
        failed = operator.countOf(map(operator.attrgetter("passed"), leaves), False)
        log.info("trial %d: rounds %d, failed checks %d%s", trial, len(leaves), failed, end)


class _Aggregator:
    """Deterministic fold of per-trial leaf sequences, in trial order.

    Every report field sums what each round's leaf, and in a message round
    Alice's bit, determine: a trial adds its leaves to a count per leaf (the
    check, decoy family and Eve's counts are tallied from it), and its
    message rounds to a count per leakage key (which gives its fidelity).
    The analytic column weighs each check-forced tree once per aggregator,
    so an experiment's five rows read three weighings."""

    def __init__(self, config):
        self.config = config
        # Failed weights by base check kind (adversary.failed_weight_by_basis).
        self.failed_weights = {}
        self.leaf_counts = Counter()
        # Message rounds counted by (x, y, alice bit, bob bit, charlie bit):
        # at most 32 keys, however many rounds are audited.
        self.leakage_counts = Counter()
        self.fidelity_sums = [0.0, 0.0, 0.0]  # Alice's, Bob's and Charlie's
        self.trials_completed = 0
        self.trials_aborted = 0

    def add_leaves(self, leaves, alice_bits):
        """Count one trial's rounds; returns its message rounds counted by
        leakage key.  The n-th message leaf pairs with Alice's n-th bit."""
        self.leaf_counts.update(leaves)
        message_keys = filter(None, map(operator.attrgetter("leakage_keys"), leaves))
        keys = Counter(map(operator.getitem, message_keys, alice_bits))
        self.leakage_counts.update(keys)
        return keys

    def add_completed(self, messages, leaves):
        keys = self.add_leaves(leaves, messages.alice_bits)
        for view, hits in enumerate(_view_hits(keys)):
            self.fidelity_sums[view // 2] += hits / (2 * messages.length)
        self.trials_completed += 1

    def tally(self):
        """``[run, failed]`` per check kind and per decoy family, and Eve's
        ``(actions, probe readouts, probe flips)``, over the counted leaves."""
        counts = {k: [0, 0] for k in _CHECK_KINDS + ("decoy_check_z", "decoy_check_x")}
        actions = measured = flips = 0
        for leaf, c in self.leaf_counts.items():
            kind = leaf.kind
            if kind is not _MESSAGE:
                rows = [counts[kind.value]]
                if kind is _DECOY_CHECK:
                    (reveal,) = [values[0] for name, *values in leaf.events if name == "decoy_reveal"]
                    rows.append(counts["decoy_check_z" if reveal in _Z_DECOYS else "decoy_check_x"])
                for row in rows:
                    row[0] += c
                    row[1] += 0 if leaf.passed else c
            for *_, ancilla_outcome in leaf.eve:
                actions += c
                if ancilla_outcome is not None:
                    measured += c
                    flips += c * ancilla_outcome
        return counts, (actions, measured, flips)

    def _analytic(self, kind, decoy_family=None):
        attack = self.config.attack
        if attack.kind is AttackKind.NONE:
            return 0.0
        base = kind if not kind.startswith("decoy_check_") else "decoy_check"
        failed = self.failed_weights.get(base)
        if failed is None:
            failed = self.failed_weights[base] = failed_weight_by_basis(attack, base)
        return detection_from_failed(failed, decoy_family)

    def _leakage(self):
        """The leakage audit over the counted message rounds."""
        counts = self.leakage_counts
        m = sum(counts.values())
        if not m:
            return LeakageReport(m, None, None, None, None, None)
        xor_hits = sum(c for (x, y, _, j, k), c in counts.items() if x ^ y == j ^ k)
        return LeakageReport(
            rounds_audited=m,
            xor_identity_fraction=xor_hits / m,
            mi_announcement_vs_alice=_mutual_information(
                _projected(counts, lambda x, y, i, j, k: (2 * x + y, i))
            ),
            mi_announcement_vs_bob=_mutual_information(
                _projected(counts, lambda x, y, i, j, k: (2 * x + y, j))
            ),
            mi_announcement_vs_charlie=_mutual_information(
                _projected(counts, lambda x, y, i, j, k: (2 * x + y, k))
            ),
            mi_xor_announced_vs_xor_secret=_mutual_information(
                _projected(counts, lambda x, y, i, j, k: (x ^ y, j ^ k))
            ),
        )

    def build(self, aborted=None):
        counts, (actions, measured, flips) = self.tally()
        claim = paper_claimed_detection(self.config.attack.kind)
        kinds = {}
        for kind in _CHECK_KINDS:
            run, failed = counts[kind]
            kinds[kind] = CheckStats.from_counts(run, failed, self._analytic(kind), claim)
        for family, basis in (("decoy_check_z", Basis.Z), ("decoy_check_x", Basis.X)):
            run, failed = counts[family]
            if run:
                kinds[family] = CheckStats.from_counts(
                    run, failed, self._analytic(family, basis), claim
                )
        detection = DetectionReport(kinds)

        leakage = self._leakage()
        done = self.trials_completed
        fidelity = FidelityReport(*(s / done if done else None for s in self.fidelity_sums))
        eve = EveStats(
            actions=actions,
            probe_measurements=measured,
            probe_flip_count=flips,
            probe_flip_frequency=flips / measured if measured else None,
        )
        return ExperimentResult(
            config=self.config,
            detection=detection,
            leakage=leakage,
            fidelity=fidelity,
            eve=eve,
            trials_completed=self.trials_completed,
            trials_aborted=self.trials_aborted,
            rounds_total=sum(self.leaf_counts.values()),
            aborted=aborted,
        )


def run_experiment(config):
    """Run ``config.trials`` independent protocol executions and report.

    Deterministic given the seed.  Under the strict abort policy the first
    detected eavesdropper stops the experiment: :class:`ExperimentAborted`
    is raised carrying the partial statistics.  Each trial logs one INFO
    line on the ``qsdc3`` logger: its index, rounds used and failed checks.
    Every trial's session draws from one transition table, built here.
    """
    agg = _Aggregator(config)
    table = TransitionTable()
    # One child per trial, spawned when the trial starts: repeated
    # ``spawn(1)`` gives the seeds one ``spawn(trials)`` would, without
    # holding them all.
    master = np.random.SeedSequence(config.seed)
    for trial in range(config.trials):
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
                table=table,
            )
        except ProtocolAborted as abort:
            agg.add_leaves(abort.leaves, messages.alice_bits)
            agg.trials_aborted += 1
            _log_trial(trial, abort.leaves, ", aborted")
            aborted = {
                "trial": trial,
                "round": abort.round_index,
                "check_kind": abort.check_kind.value,
                "segments": sorted(s.value for s in abort.touched_segments),
            }
            partial = agg.build(aborted=aborted)
            raise ExperimentAborted(partial, trial, abort.round_index, abort.check_kind) from None
        agg.add_completed(messages, result.leaves)
        _log_trial(trial, result.leaves)
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
    """Truth table over all 8 secret-bit triples.

    Reads the compiled round of an unattacked schedule forced to message
    mode, under which the round from each root (j, k) is one leaf of weight
    1.0 (``protocol.leaf_weights``): its Bell label, and its announcement
    for Alice's bit i.  Asserts that all three decode rules recover the
    counterpart bits exactly.
    """
    schedule = SchedulePolicy(0.0, 0.0, 0.0)
    table = TransitionTable()
    model = AttackModel.none()
    rows = []
    first_failure = None
    for i, j, k in product((0, 1), repeat=3):
        ((_, leaf),) = leaf_weights(table, schedule, model, j, k)
        x, y = leaf.leakage_keys[i][:2]
        alice, bob, charlie = decode_alice(x, y, i), decode_bob(x, y, j), decode_charlie(x, y, k)
        ok = alice == (j, k) and bob == (i, k) and charlie == (i, j)
        rows.append(OracleRow(i, j, k, leaf.label.flip, leaf.label.phase, x, y, alice, bob, charlie, ok))
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
