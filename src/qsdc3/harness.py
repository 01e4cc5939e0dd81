"""Monte Carlo experiment runner and statistics.

Runs many independent protocol executions, estimates per-check detection
probabilities with Wilson intervals, compares them against the exact
enumerated expectations, measures message fidelity, and audits what the
public transcript leaks about the three secrets.

All randomness derives from a single 64-bit seed: each trial's generator
is seeded by one ``numpy.random.SeedSequence`` child of the master seed,
spawned when the trial starts, so trials are independent, parallelizable
in principle, and the whole report is a deterministic function of the
configuration.

An experiment builds one :class:`~qsdc3.states.TransitionTable` and weighs
its compiled round there once: each root's leaves with their exact weights
(``protocol.leaf_weights``), and the states they reach, each built and
validated once per experiment; a detection curve builds one table per grid
point.  A trial draws its three messages, then its leaf counts from their
exact law (:class:`_TrialLaw`): one ``geometric`` draw per message bit
gives its rounds, and one ``multinomial`` call the counts of every leaf,
so a trial's cost grows with its bits and the round's leaves, not with its
rounds.  Only a strict experiment whose round has a check that can fail
runs one ``protocol.run_protocol`` session per trial on the table instead,
since the order of its rounds decides which trial and which round abort.
Either way the report is a fold of leaf counts (:class:`_Aggregator`): an
experiment builds no round record, transcript or decoded message.
Its analytic column weighs each check-forced round once: the five rows
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
    RoundBudgetExceeded,
    RoundKind,
    SchedulePolicy,
    decode_alice,
    decode_bob,
    decode_charlie,
    default_budget,
    leaf_weights,
    run_protocol,
)
from .states import Basis, TransitionTable, check_integer, check_probability, check_real

log = logging.getLogger("qsdc3")

_CHECK_KINDS = tuple(kind.value for kind in RoundKind if kind is not RoundKind.MESSAGE)
# A trial draws its three messages as one numpy int64 array of
# 3 * message_length bits; numpy refuses arrays of more than intp-max bytes.
_MAX_MESSAGE_LENGTH = int(np.iinfo(np.intp).max) // (3 * np.dtype(np.int64).itemsize)
_MESSAGE = RoundKind.MESSAGE
_DECOY_CHECK = RoundKind.CHARLIE_DECOY_CHECK

# The report's detection rows, in report order: (name, check kind, decoy
# family).  A row without a family counts every check of its kind; a family
# row counts the decoy checks whose leaf has that family, and is reported
# only when such a check ran.
_ROWS = (
    ("ab_check", RoundKind.BOB_EAVESDROP_CHECK, None),
    ("ca_check", RoundKind.BOB_CONTROL_CHECK, None),
    ("decoy_check", _DECOY_CHECK, None),
    ("decoy_check_z", _DECOY_CHECK, Basis.Z),
    ("decoy_check_x", _DECOY_CHECK, Basis.X),
)


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
    """Everything one experiment depends on; the seed fixes all randomness.

    ``message_length``, ``trials`` and ``seed`` are stored as ``int``.  A
    size below 1, a negative seed, a value that is not an integer (a bool
    included), a message too long for numpy to draw, and a schedule, attack
    or abort policy of the wrong type raise ``ValueError`` naming the field.
    """

    message_length: int = 64
    trials: int = 10
    schedule: SchedulePolicy = SchedulePolicy()
    attack: AttackModel = AttackModel.none()
    abort_policy: AbortPolicy = AbortPolicy.RECORD_AND_CONTINUE
    seed: int = 0

    def __post_init__(self):
        # A bool is rejected here, as AttackModel rejects one for its
        # probability, so no report writes ``true`` for a number.
        for name, least in (("message_length", 1), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), least))
        if self.message_length > _MAX_MESSAGE_LENGTH:
            raise ValueError("message_length must be <= %d" % _MAX_MESSAGE_LENGTH)
        types = {"schedule": SchedulePolicy, "attack": AttackModel, "abort_policy": AbortPolicy}
        for name, kind in types.items():
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError("%s must be of type %s, got %r" % (name, kind.__name__, value))

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


@dataclass(slots=True)
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


@dataclass(slots=True)
class DetectionReport:
    """Per-check-kind statistics, including the decoy Z/X family split."""

    kinds: dict

    def to_dict(self):
        return {name: stats.to_dict() for name, stats in sorted(self.kinds.items())}


@dataclass(slots=True)
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


@dataclass(slots=True)
class FidelityReport:
    """Fraction of correctly decoded bits per party (over completed trials)."""

    alice: float | None
    bob: float | None
    charlie: float | None

    def to_dict(self):
        return asdict(self)


@dataclass(slots=True)
class EveStats:
    """Aggregate view of Eve's own records."""

    actions: int
    probe_measurements: int
    probe_flip_count: int
    probe_flip_frequency: float | None

    def to_dict(self):
        return asdict(self)


@dataclass(slots=True)
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


def _log_trial(trial, rounds, failed, end=""):
    # ``failed()`` counts the trial's failed checks: only when the line is shown.
    if log.isEnabledFor(logging.INFO):
        log.info("trial %d: rounds %d, failed checks %d%s", trial, rounds, failed(), end)


def _failed_in(leaves):
    """A count of the failed checks among ``leaves``, for :func:`_log_trial`."""
    return lambda: operator.countOf(map(operator.attrgetter("passed"), leaves), False)


class _TrialLaw:
    """The exact law of one trial's leaf counts under record-and-continue,
    read from an experiment's compiled round.

    A round's leaf depends only on its root, Bob's and Charlie's bits (j, k)
    of the message bit in flight, and the root changes only at a message
    leaf.  So message bit b of root r takes G_b rounds, geometric with the
    root's message weight m_r as its success probability: G_b - 1 check
    rounds, each leaf of weight w with probability w / (1 - m_r), then one
    message round, each leaf with probability w / m_r.  Summed over a
    trial's bits, the message leaves of root r under Alice's bit i are
    multinomial(N_ri, w / m_r), N_ri being the bits of root r and Alice bit
    i, and its check leaves are multinomial(C_r, w / (1 - m_r)), C_r being
    the sum of G_b - 1 over the root's bits.

    The counts are kept as a (12, width) array: row 3r + i holds root r's
    message leaves under Alice's bit i, row 3r + 2 its check leaves.  A row
    holds its leaves in ``leaf_weights`` order in its last columns, so the
    category numpy's multinomial gives the remainder is always a leaf.
    """

    def __init__(self, roots):
        """``roots``: each root's ``leaf_weights`` list, by 2 * j + k."""
        rows = []
        message_weight = []
        for weighed in roots:
            drawable = [(weight, leaf) for weight, leaf in weighed if weight > 0.0]
            message = [(weight, leaf) for weight, leaf in drawable if leaf.kind is _MESSAGE]
            checks = [(weight, leaf) for weight, leaf in drawable if leaf.kind is not _MESSAGE]
            rows += [message, message, checks]
            message_weight.append(sum(w for w, _ in message) / sum(w for w, _ in drawable))
        width = max(map(len, rows))
        self.pvals = np.zeros((len(rows), width))
        # (row, column, leaf) of every leaf a row can reach.
        self.cells = []
        for index, row in enumerate(rows):
            total = sum(weight for weight, _ in row)
            for column, (weight, leaf) in enumerate(row, width - len(row)):
                self.pvals[index, column] = weight / total
                self.cells.append((index, column, leaf))
        # A root that never sends its bit stalls the trial until the budget
        # runs out; its draws use p = 1 and are then replaced.
        self.stalls = np.array(message_weight) == 0.0
        self.stalled = bool(self.stalls.any())
        self.message_p = np.where(self.stalls, 1.0, message_weight)
        # The flat indices of the message cells, with the views each cell's
        # leakage key decodes wrong (``_VIEW_MISSES``), and of the failed checks.
        flat = [(index * width + column, index, leaf) for index, column, leaf in self.cells]
        messages = [
            (cell, _VIEW_MISSES[leaf.leakage_keys[index % 3]]) for cell, index, leaf in flat if leaf.kind is _MESSAGE
        ]
        self.message_cells = np.array([cell for cell, _ in messages], dtype=np.intp)
        self.misses = np.array([[view in views for _, views in messages] for view in range(6)], dtype=np.int64)
        self.failed = np.array([cell for cell, _, leaf in flat if leaf.passed is False], dtype=np.intp)

    def view_hits(self, counts, length):
        """Each view's right bits in a completed trial of ``length`` bits
        that drew ``counts``, as ``DecodedMessages`` orders the views."""
        return (length - self.misses @ counts.ravel()[self.message_cells]).tolist()

    def failed_checks(self, counts):
        """The failed checks among ``counts``."""
        return int(counts.ravel()[self.failed].sum())

    def draw(self, rng, length, max_rounds):
        """One trial of ``length`` bits from ``rng``: ``(counts, rounds)``.

        The message bits are the ``integers(0, 2, 3 * length)`` draw of
        ``MessageTriple.random``; then one ``geometric`` call gives every
        bit's rounds, and one ``multinomial`` call the leaf counts of every
        row.  A trial whose rounds pass ``max_rounds`` raises
        :class:`~qsdc3.protocol.RoundBudgetExceeded` with the bits whose
        running sum of rounds stays within the budget as delivered.
        """
        alice, bob, charlie = rng.integers(0, 2, size=3 * length).reshape(3, length)
        roots = 2 * bob + charlie
        rounds = rng.geometric(self.message_p[roots])
        if self.stalled:
            rounds[self.stalls[roots]] = max_rounds + 1
        # A message weight near 0 can draw more rounds than an int64 sums.
        np.minimum(rounds, max_rounds + 1, out=rounds)
        total = int(rounds.sum())
        if total > max_rounds:
            delivered = int(np.searchsorted(np.cumsum(rounds), max_rounds, side="right"))
            raise RoundBudgetExceeded(max_rounds, delivered, length)
        n = np.bincount(3 * roots + alice, minlength=12)
        n[2::3] = np.bincount(roots, weights=rounds, minlength=4) - n[0::3] - n[1::3]
        return rng.multinomial(n, self.pvals), total


class _Aggregator:
    """Deterministic fold of per-trial leaf counts, in trial order.

    Every report field sums what each round's leaf, and in a message round
    Alice's bit, determine: a trial's leaves go to a count per leaf (the
    check, decoy family and Eve's counts are tallied from it), and its
    message rounds to a count per leakage key; each completed trial adds
    its own fidelity, from its key counts.  A session's leaves are added
    as a sequence (``add_leaves``); the count path's trials are summed in
    one array, added once (``add_totals``).  The analytic column weighs
    each check-forced round once per aggregator, so an experiment's five
    rows read three weighings."""

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
        """Count one session's rounds; returns its message rounds counted by
        leakage key.  The n-th message leaf pairs with Alice's n-th bit."""
        self.leaf_counts.update(leaves)
        message_keys = filter(None, map(operator.attrgetter("leakage_keys"), leaves))
        keys = Counter(map(operator.getitem, message_keys, alice_bits))
        self.leakage_counts.update(keys)
        return keys

    def add_totals(self, law, totals):
        """Count the rounds of a :class:`_TrialLaw`'s trials, summed into
        one array of ``totals``."""
        for row, column, leaf in law.cells:
            c = int(totals[row, column])
            if c:
                self.leaf_counts[leaf] += c
                if leaf.kind is _MESSAGE:
                    self.leakage_counts[leaf.leakage_keys[row % 3]] += c

    def add_completed(self, hits, length):
        """Count a completed trial of ``length`` bits: ``hits`` holds each
        view's right bits, as ``DecodedMessages`` orders the views."""
        for view, right in enumerate(hits):
            self.fidelity_sums[view // 2] += right / (2 * length)
        self.trials_completed += 1

    def tally(self):
        """``[run, failed]`` per row of ``_ROWS``, by name, and Eve's
        ``(actions, probe readouts, probe flips)``, over the counted leaves."""
        counts = {name: [0, 0] for name, _, _ in _ROWS}
        actions = measured = flips = 0
        for leaf, c in self.leaf_counts.items():
            for name, kind, family in _ROWS:
                if leaf.kind is kind and family in (None, leaf.family):
                    row = counts[name]
                    row[0] += c
                    row[1] += 0 if leaf.passed else c
            for *_, ancilla_outcome in leaf.eve:
                actions += c
                if ancilla_outcome is not None:
                    measured += c
                    flips += c * ancilla_outcome
        return counts, (actions, measured, flips)

    def _analytic(self, kind, decoy_family):
        """The exact detection probability of the row of check ``kind``, a
        :class:`~qsdc3.protocol.RoundKind`, and ``decoy_family``."""
        attack = self.config.attack
        if attack.kind is AttackKind.NONE:
            return 0.0
        failed = self.failed_weights.get(kind)
        if failed is None:
            failed = self.failed_weights[kind] = failed_weight_by_basis(attack, kind.value)
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
        for name, kind, family in _ROWS:
            run, failed = counts[name]
            if run or family is None:
                kinds[name] = CheckStats.from_counts(run, failed, self._analytic(kind, family), claim)
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

    Deterministic given the seed: each trial draws from its own generator,
    seeded by one ``SeedSequence`` child of ``config.seed``, spawned when
    the trial starts.  An experiment builds one transition table and weighs
    its compiled round there once.  Then each trial draws its leaf counts
    from their exact law (:class:`_TrialLaw`), with no round order.  Under
    the strict abort policy, when a leaf's check can fail, each trial is a
    ``run_protocol`` session on the same table instead, since round order
    decides which trial and which round abort: the first detected
    eavesdropper stops the experiment, and :class:`ExperimentAborted` is
    raised carrying the partial statistics.

    Each trial logs one INFO line on the ``qsdc3`` logger: its index,
    rounds used and failed checks; the experiment logs its table's size
    at DEBUG.  A trial whose rounds pass the default budget raises
    :class:`~qsdc3.protocol.RoundBudgetExceeded`.
    """
    agg = _Aggregator(config)
    table = TransitionTable()
    roots = [leaf_weights(table, config.schedule, config.attack, j, k) for j, k in product((0, 1), repeat=2)]
    failable = any(weight > 0.0 and leaf.passed is False for weighed in roots for weight, leaf in weighed)
    try:
        if config.abort_policy is AbortPolicy.STRICT and failable:
            _run_sessions(config, agg, table)
        else:
            _count_trials(config, agg, _TrialLaw(roots))
    finally:
        # Sizing the table sums its dicts: only when the line is shown.
        if log.isEnabledFor(logging.DEBUG):
            trials = agg.trials_completed + agg.trials_aborted
            log.debug("experiment: %d trials, %d transition table edges", trials, len(table))
    return agg.build()


def _trial_generators(config):
    """Each trial's generator, seeded when the trial starts: repeated
    ``spawn(1)`` gives the seeds one ``spawn(trials)`` would, without
    holding them all."""
    master = np.random.SeedSequence(config.seed)
    for _ in range(config.trials):
        (child,) = master.spawn(1)
        yield np.random.default_rng(child)


def _count_trials(config, agg, law):
    """Each trial's leaf counts drawn from ``law``; the experiment's counts
    are summed in one array and folded into ``agg`` at the end, and each
    trial's fidelity as it completes."""
    length = config.message_length
    budget = default_budget(length)
    totals = np.zeros_like(law.pvals, dtype=np.int64)
    for trial, rng in enumerate(_trial_generators(config)):
        counts, rounds = law.draw(rng, length, budget)
        totals += counts
        agg.add_completed(law.view_hits(counts, length), length)
        _log_trial(trial, rounds, lambda: law.failed_checks(counts))
    agg.add_totals(law, totals)


def _run_sessions(config, agg, table):
    """One ``run_protocol`` session per trial, each drawing from ``table``."""
    for trial, rng in enumerate(_trial_generators(config)):
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
            _log_trial(trial, len(abort.leaves), _failed_in(abort.leaves), ", aborted")
            aborted = {
                "trial": trial,
                "round": abort.round_index,
                "check_kind": abort.check_kind.value,
                "segments": sorted(s.value for s in abort.touched_segments),
            }
            partial = agg.build(aborted=aborted)
            raise ExperimentAborted(partial, trial, abort.round_index, abort.check_kind) from None
        keys = agg.add_leaves(result.leaves, messages.alice_bits)
        agg.add_completed(_view_hits(keys), messages.length)
        _log_trial(trial, result.rounds_used, _failed_in(result.leaves))


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


@dataclass
class OracleReport:
    passed: bool
    rows: list
    first_failure: tuple | None

    def to_dict(self):
        return asdict(self)


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
    grid point one experiment runs (record-and-continue) and each requested
    check kind, named once, gives a row; decoy rows also give the Z and X
    family splits.

    An empty grid or a grid value that is not a real number (a bool or a
    string included), a string or empty ``check_kinds``, an unknown or
    repeated check kind and a ``seed`` that is not an integer >= 0 raise
    ``ValueError`` before any experiment runs; the sizes are checked by
    :class:`ExperimentConfig`.
    """
    grid = [float(check_real("grid", value)) for value in grid]
    if not grid:
        raise ValueError("parameter grid must not be empty")
    if schedule is None:
        schedule = SchedulePolicy(p_ab_check=0.25, p_bob_cm=0.1, p_charlie_cm=0.4)
    if isinstance(check_kinds, str):
        raise ValueError("check_kinds must be a sequence of check kinds, got %r" % (check_kinds,))
    wanted = list(check_kinds)
    if not wanted:
        raise ValueError("check_kinds must not be empty")
    for kind in wanted:
        if kind not in _CHECK_KINDS:
            raise ValueError("unknown check kind %r" % (kind,))
    if len(set(wanted)) != len(wanted):
        raise ValueError("check_kinds names a check kind more than once")

    point_seeds = np.random.SeedSequence(check_integer("seed", seed, 0)).spawn(len(grid))
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
        for wanted_kind in wanted:
            keys = [name for name, kind, _ in _ROWS if kind.value == wanted_kind and name in report_kinds]
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
    curve rows.  A ``grid`` value that is not a real number in [0, 1]
    raises ``ValueError`` naming "grid" before any experiment runs.
    """
    grid = [check_probability("grid", value) for value in grid]

    def make(beta_sq):
        return AttackModel.entangle_measure(
            beta_sq, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A
        )

    return detection_curve(make, grid, **kwargs)
