"""Monte Carlo experiment runner and statistics.

Runs many independent protocol executions, estimates per-check detection
probabilities with Wilson intervals, compares them against the exact
enumerated expectations, measures message fidelity, and audits what the
public transcript leaks about the three secrets.

All randomness derives from a single 64-bit seed: an experiment draws from
one generator, ``numpy.random.default_rng(seed)``, seeded by
``SeedSequence(seed)`` and never spawned.  It draws its trials in blocks of
``max(1, _BLOCK_BITS // message_length)`` trials, in trial order, each
block with at most four numpy calls covering all its trials.  So the whole
report is a deterministic function of the configuration and of
``_BLOCK_BITS``: changing the block size changes the random stream.

An experiment builds one :class:`~qsdc3.states.TransitionTable` and weighs
its compiled round there once: each root's leaves with their exact weights
(``protocol.leaf_weights``), and the states they reach, each built and
validated once per experiment; a detection curve builds one table per grid
point.  A block draws its trials' messages, then their leaf counts from
their exact law under the experiment's abort policy (:class:`_TrialLaw`):
one ``geometric`` draw per message bit gives its rounds, under the strict
policy one uniform per bit whether its stopping round is a failed check
that ends the trial, and one ``multinomial`` call the counts of every leaf
of every trial, so a block's cost grows with its bits and the round's
leaves, not with its rounds.  The report is a fold of leaf counts
(:class:`_Aggregator`): an experiment runs no protocol session and builds
no round record, transcript or decoded message.  Its analytic column
weighs each check-forced round once: the five rows (three check kinds, two
decoy families) read three weighings.  Only the decode oracle
(:func:`exhaustive_oracle`) runs ``protocol.run_protocol`` sessions.
"""

from __future__ import annotations

import logging
import math
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
# A block draws its trials' three messages as one numpy int64 array of
# 3 * message_length bits per trial; numpy refuses arrays of more than
# intp-max bytes.
_MAX_MESSAGE_LENGTH = int(np.iinfo(np.intp).max) // (3 * np.dtype(np.int64).itemsize)
# The message bits a block of trials draws at most, unless one trial has
# more: a block holds max(1, _BLOCK_BITS // message_length) trials.  The
# random stream depends on it.
_BLOCK_BITS = 4096
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
    """Detection statistics for one check kind: its counts, its exact and
    claimed probabilities, and the rates computed from them."""

    checks_run: int
    checks_failed: int
    analytic_probability: float | None
    paper_claim: float | None

    @property
    def detection_probability(self):
        return self.checks_failed / self.checks_run if self.checks_run else None

    @property
    def ci_low(self):
        return wilson_interval(self.checks_failed, self.checks_run)[0]

    @property
    def ci_high(self):
        return wilson_interval(self.checks_failed, self.checks_run)[1]

    @property
    def z_score(self):
        run, analytic = self.checks_run, self.analytic_probability
        if not run or analytic is None or not 0.0 < analytic < 1.0:
            return None
        return (self.detection_probability - analytic) / math.sqrt(analytic * (1.0 - analytic) / run)

    def to_dict(self):
        ci_low, ci_high = wilson_interval(self.checks_failed, self.checks_run)
        return {
            "checks_run": self.checks_run,
            "checks_failed": self.checks_failed,
            "detection_probability": self.detection_probability,
            "ci_low": ci_low,
            "ci_high": ci_high,
            "analytic_probability": self.analytic_probability,
            "paper_claim": self.paper_claim,
            "z_score": self.z_score,
        }


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


def _log_trial(trial, rounds, law, counts, end=""):
    # The trial's failed checks are summed only when the line is shown.
    if log.isEnabledFor(logging.INFO):
        log.info("trial %d: rounds %d, failed checks %d%s", trial, rounds, law.failed_checks(counts), end)


class _TrialLaw:
    """The exact law of one trial's leaf counts, read from an experiment's
    compiled round under its abort policy.

    A round's leaf depends only on its root, Bob's and Charlie's bits (j, k)
    of the message bit in flight, and the root changes only at a message
    leaf.  A bit stops at a message leaf, of weight m_r in all from root r,
    or, under the strict policy, at a failed check, of weight f_r (else 0).
    So bit b of root r takes G_b rounds, geometric with p = m_r + f_r; its
    stop is a failed check with probability f_r / (m_r + f_r), and the
    trial ends at its first failing bit.  Summed over the bits a trial
    reaches, root r's message leaves under Alice's bit i are
    multinomial(N_ri, w / m_r), N_ri being its delivered bits of Alice bit
    i, its other check leaves multinomial(C_r, w / (1 - m_r - f_r)), C_r
    being the sum of G_b - 1, and a failing leaf has probability w / f_r.

    A trial's counts are kept as a (16, width) array: row 3r + i holds root
    r's message leaves under Alice's bit i, row 3r + 2 its check leaves that
    let the trial go on, and row 12 + r its failed checks that end it (empty
    under record-and-continue; the aborting root's row counts 1).  A row
    holds its leaves in ``leaf_weights`` order in its last columns, so the
    category numpy's multinomial gives the remainder is always a leaf.  A
    block of trials stacks its trials' arrays in trial order
    (:meth:`_TrialLaw.draw`).
    """

    def __init__(self, roots, strict):
        """``roots``: each root's ``leaf_weights`` list, by 2 * j + k;
        ``strict``: whether a failed check ends the trial."""
        rows, fails = [], []
        stop_weight, fail_share = [], []
        for weighed in roots:
            drawable = [(weight, leaf) for weight, leaf in weighed if weight > 0.0]
            message = [(weight, leaf) for weight, leaf in drawable if leaf.kind is _MESSAGE]
            checks = [(weight, leaf) for weight, leaf in drawable if leaf.kind is not _MESSAGE]
            failed = [(weight, leaf) for weight, leaf in checks if strict and leaf.passed is False]
            go_on = [(weight, leaf) for weight, leaf in checks if not (strict and leaf.passed is False)]
            rows += [message, message, go_on]
            fails.append(failed)
            m, f = sum(w for w, _ in message), sum(w for w, _ in failed)
            stop_weight.append((m + f) / sum(w for w, _ in drawable))
            fail_share.append(f / (m + f) if f else 0.0)
        rows += fails
        width = max(map(len, rows))
        self.pvals = np.zeros((len(rows), width))
        # (row, column, leaf) of every leaf a row can reach.
        self.cells = []
        for index, row in enumerate(rows):
            total = sum(weight for weight, _ in row)
            for column, (weight, leaf) in enumerate(row, width - len(row)):
                self.pvals[index, column] = weight / total
                self.cells.append((index, column, leaf))
        # A root whose bits never stop stalls the trial until the budget
        # runs out; its draws use p = 1 and are then replaced.
        self.stalls = np.array(stop_weight) == 0.0
        self.stalled = bool(self.stalls.any())
        self.stop_p = np.where(self.stalls, 1.0, stop_weight)
        self.fail_share = np.array(fail_share)
        self.failing = bool(self.fail_share.any())
        # The flat indices of the message cells, with the views each cell's
        # leakage key decodes wrong (``_VIEW_MISSES``), and of the failed checks.
        flat = [(index * width + column, index, leaf) for index, column, leaf in self.cells]
        messages = [
            (cell, _VIEW_MISSES[leaf.leakage_keys[index % 3]]) for cell, index, leaf in flat if leaf.kind is _MESSAGE
        ]
        self.message_cells = np.array([cell for cell, _ in messages], dtype=np.intp)
        self.misses = np.array([[view in views for _, views in messages] for view in range(6)], dtype=np.int64)
        self.failed = np.array([cell for cell, _, leaf in flat if leaf.passed is False], dtype=np.intp)
        # The failed check of each cell of the fail rows, by its flat index there.
        self.stops = {cell - 12 * width: leaf for cell, index, leaf in flat if index >= 12}

    def view_hits(self, counts, length):
        """Each view's right bits in each of a block's completed trials of
        ``length`` bits, whose counts ``counts`` stacks: one list per trial,
        its views as ``DecodedMessages`` orders them."""
        cells = counts.reshape(len(counts), self.pvals.size)[:, self.message_cells]
        return (length - cells @ self.misses.T).tolist()

    def failed_checks(self, counts):
        """The failed checks among ``counts``."""
        return int(counts.ravel()[self.failed].sum())

    def stop(self, counts):
        """The failed check that ended a trial which drew ``counts``, or
        None when the trial completed."""
        if self.failing:
            (cells,) = np.nonzero(counts[12:].ravel())
            if cells.size:
                return self.stops[int(cells[0])]
        return None

    def draw(self, rng, trials, length, max_rounds):
        """A block of ``trials`` trials of ``length`` bits from ``rng``:
        ``(counts, rounds, over)``.

        Four numpy calls cover the whole block, in this order: the message
        bits are ``integers(0, 2, (3, trials, length))`` (Alice's, Bob's and
        Charlie's); one ``geometric`` call gives every bit's rounds; one
        ``random((trials, length))`` call, made only when a failed check can
        end a trial, says whether each bit's stopping round fails; and one
        ``multinomial`` call gives the leaf counts of every row of every
        trial the block keeps.  Each trial ends at its first failing bit.

        The block ends at its first trial, in trial order, that a failed
        check ends or whose rounds pass ``max_rounds``; what is drawn for
        the trials after it is discarded.  ``counts``, of shape (n, 16,
        width), and ``rounds``, each trial's rounds, hold the first n
        trials: every trial, or those up to and including the one a failed
        check ended.  ``over`` is the
        :class:`~qsdc3.protocol.RoundBudgetExceeded` of trial n when its
        rounds pass the budget, with the bits whose running sum of rounds
        stays within it as delivered; else None.
        """
        alice, bob, charlie = rng.integers(0, 2, size=(3, trials, length))
        roots = 2 * bob + charlie
        rounds = rng.geometric(self.stop_p[roots])
        if self.stalled:
            rounds[self.stalls[roots]] = max_rounds + 1
        # A stop weight near 0 can draw more rounds than an int64 sums.
        np.minimum(rounds, max_rounds + 1, out=rounds)
        # The row each bit's stopping round is counted in; row 16 gathers
        # the bits after a trial's end, which take no rounds.
        rows = 3 * roots + alice
        aborts = np.zeros(trials, dtype=bool)
        if self.failing:
            failing = rng.random((trials, length)) < self.fail_share[roots]
            aborts = failing.any(axis=1)
            last = np.where(aborts, failing.argmax(axis=1), length)
            after = np.arange(length) > last[:, None]
            rounds[after] = 0
            rows[after] = 16
            (aborting,) = np.nonzero(aborts)
            rows[aborting, last[aborting]] = 12 + roots[aborting, last[aborting]]
        used = rounds.sum(axis=1)
        past = used > max_rounds
        ends = aborts | past
        over = None
        kept = trials
        if ends.any():
            end = int(ends.argmax())
            kept = end + 1
            if past[end]:
                delivered = int(np.searchsorted(np.cumsum(rounds[end]), max_rounds, side="right"))
                over = RoundBudgetExceeded(max_rounds, delivered, length)
                kept = end
            rows, roots, rounds, used = rows[:kept], roots[:kept], rounds[:kept], used[:kept]
        offsets = np.arange(kept)[:, None]
        n = np.bincount((rows + 17 * offsets).ravel(), minlength=17 * kept).reshape(kept, 17)[:, :16]
        stops = np.bincount((roots + 4 * offsets).ravel(), weights=rounds.ravel(), minlength=4 * kept)
        n[:, 2:12:3] = stops.reshape(kept, 4) - n[:, 0:12:3] - n[:, 1:12:3] - n[:, 12:]
        return rng.multinomial(n, self.pvals), used, over


class _Aggregator:
    """Deterministic fold of per-trial leaf counts, in trial order.

    Every report field sums what each round's leaf, and in a message round
    Alice's bit, determine: the experiment's leaf counts go to a count per
    leaf (the check, decoy family and Eve's counts are tallied from it), and
    its message rounds to a count per leakage key; each completed trial adds
    its own fidelity.  The trials' counts are summed in one array, added
    once (``add_totals``).  The analytic column weighs each check-forced
    round once per aggregator, so an experiment's five rows read three
    weighings."""

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
                kinds[name] = CheckStats(run, failed, self._analytic(kind, family), claim)
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

    Deterministic given the seed: the experiment draws from one generator,
    ``numpy.random.default_rng(config.seed)``, in blocks of trials, in
    trial order (:meth:`_TrialLaw.draw`; the stream depends on
    ``_BLOCK_BITS``).  An experiment builds one transition table and weighs
    its compiled round there once.  Then each block draws its trials' leaf
    counts from their exact law under the config's abort policy
    (:class:`_TrialLaw`), with no round order.  Under the strict policy the
    first failed check stops the experiment: :class:`ExperimentAborted` is
    raised carrying the partial statistics, the failing round included.

    Each trial logs one INFO line on the ``qsdc3`` logger: its index,
    rounds used and failed checks; the experiment logs its table's size
    at DEBUG.  A trial whose rounds pass the default budget raises
    :class:`~qsdc3.protocol.RoundBudgetExceeded`, after the trials before
    it are logged.
    """
    agg = _Aggregator(config)
    table = TransitionTable()
    roots = [leaf_weights(table, config.schedule, config.attack, j, k) for j, k in product((0, 1), repeat=2)]
    try:
        _count_trials(config, agg, _TrialLaw(roots, config.abort_policy is AbortPolicy.STRICT))
    finally:
        # Sizing the table sums its dicts: only when the line is shown.
        if log.isEnabledFor(logging.DEBUG):
            trials = agg.trials_completed + agg.trials_aborted
            log.debug("experiment: %d trials, %d transition table edges", trials, len(table))
    return agg.build()


def _count_trials(config, agg, law):
    """The trials' leaf counts drawn from ``law`` in blocks, all from one
    generator; the experiment's counts are summed in one array and folded
    into ``agg`` at the end, and each completed trial's fidelity in trial
    order.  A trial that a failed check ends raises
    :class:`ExperimentAborted` with the counts so far: the failing round is
    the trial's last."""
    length = config.message_length
    budget = default_budget(length)
    block = max(1, _BLOCK_BITS // length)
    rng = np.random.default_rng(config.seed)
    totals = np.zeros_like(law.pvals, dtype=np.int64)
    for first in range(0, config.trials, block):
        counts, rounds, over = law.draw(rng, min(block, config.trials - first), length, budget)
        totals += counts.sum(axis=0)
        leaf = law.stop(counts[-1]) if len(counts) else None
        completed = len(counts) - (leaf is not None)
        rounds = rounds.tolist()
        for index, hits in enumerate(law.view_hits(counts[:completed], length)):
            agg.add_completed(hits, length)
            _log_trial(first + index, rounds[index], law, counts[index])
        if leaf is not None:
            trial, used = first + completed, rounds[-1]
            agg.trials_aborted += 1
            _log_trial(trial, used, law, counts[-1], ", aborted")
            agg.add_totals(law, totals)
            aborted = {
                "trial": trial,
                "round": used - 1,
                "check_kind": leaf.kind.value,
                "segments": sorted(s.value for s in leaf.touched),
            }
            raise ExperimentAborted(agg.build(aborted=aborted), trial, used - 1, leaf.kind)
        if over is not None:
            raise over
    agg.add_totals(law, totals)


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

    Runs one ``run_protocol`` session per triple (i, j, k) of one-bit
    messages, on one table, under an unattacked schedule forced to message
    mode: each session is one message round.  Reads that round's record,
    its Bell label and announcement, and the session's decoded messages,
    and asserts that all three decode rules recover the counterpart bits
    exactly.
    """
    schedule = SchedulePolicy(0.0, 0.0, 0.0)
    table = TransitionTable()
    # A forced schedule has one leaf per root, so no draw decides a round.
    rng = np.random.default_rng(0)
    rows = []
    first_failure = None
    for i, j, k in product((0, 1), repeat=3):
        result = run_protocol(MessageTriple((i,), (j,), (k,)), schedule, rng, table=table)
        record = result.records[0]
        x, y = record.announcement
        decoded = result.decoded
        alice = decoded.alice_view_bob + decoded.alice_view_charlie
        bob = decoded.bob_view_alice + decoded.bob_view_charlie
        charlie = decoded.charlie_view_alice + decoded.charlie_view_bob
        ok = alice == (j, k) and bob == (i, k) and charlie == (i, j)
        label = record.bell_outcome
        rows.append(OracleRow(i, j, k, label.flip, label.phase, x, y, alice, bob, charlie, ok))
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
