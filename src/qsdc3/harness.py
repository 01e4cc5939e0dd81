"""Monte Carlo experiment runner and statistics.

Runs many independent protocol executions, estimates per-check detection
probabilities with Wilson intervals, compares them against the exact
enumerated expectations, measures message fidelity, and audits what the
public transcript leaks about the three secrets.

All randomness derives from a single 64-bit seed: an experiment draws from
one generator, ``numpy.random.default_rng(seed)``, seeded by
``SeedSequence(seed)`` and never spawned.  It draws its trials in blocks,
in trial order, each block with four numpy calls covering all its trials
(three when no check can fail, and one more for a trial that a failed
check ends).  A block holds ``max(1, _BLOCK_BITS // message_length)``
trials, or, when a failed check can end a trial, at most the trials
expected up to the first abort, ``ceil(1 / (1 - (1 - q)^message_length))``
with q the chance that a bit's stop fails (:meth:`_TrialLaw.block_trials`).
So the whole report is a deterministic function of the configuration and
of ``_BLOCK_BITS``: changing the block size changes the random stream.

An experiment builds one :class:`~qsdc3.states.TransitionTable` and weighs
its compiled round there in one walk: every root's leaves with their exact
weights (``protocol.leaf_weights``), and the states they reach, each built
and validated once per experiment; a detection curve builds one table per
grid point.  A block draws its trials' messages, then their leaf counts from
their exact law under the experiment's abort policy (:class:`_TrialLaw`):
one ``geometric`` draw per message bit gives its rounds; under the strict
policy one uniform per bit says whether its stopping round is a failed
check that ends the trial, and under record-and-continue one ``binomial``
per trial and root splits its check rounds into passed and failed; then
one ``multinomial`` call over the block's summed row totals gives the
counts of every leaf, so a block's cost grows with its bits, not with its
rounds, and its leaves are drawn once, not once per trial.  The blocks'
counts are summed in one array, and the whole report is one pass over it
(:class:`_Aggregator`), fidelity included: the bits each party decodes
wrong are a sum over its message cells.  Below INFO, no per-trial work
runs.  An experiment runs no protocol session and builds no round record,
transcript or decoded message.  Its analytic column weighs each
check-forced round once, all three on one table of the enumerator's own
(``protocol.failed_weights``), so a state they share is built and
validated once: the five rows (three check kinds, two decoy families) read
three weighings.  Only the decode oracle (:func:`exhaustive_oracle`) runs
``protocol.run_protocol`` sessions.
"""

from __future__ import annotations

import logging
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .adversary import AttackKind, AttackModel, ChannelSegment, paper_claimed_detection
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
    detection_from_failed,
    failed_weights,
    leaf_weights,
    run_protocol,
)
from .states import Basis, TransitionTable, check_integer, check_probability

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
        if self.attack.pauli is not None:
            attack["pauli"] = self.attack.pauli.name
        if self.attack.beta_sq is not None:
            attack["beta_sq"] = self.attack.beta_sq
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
    """Fraction of correctly decoded bits per party: the exact mean over
    completed trials, rounded once (None when no trial completed)."""

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
    including the aborting round, and reads the trial, round and check
    kind of the abort from its ``aborted`` section.
    """

    def __init__(self, partial):
        self.partial = partial
        self.trial_index = partial.aborted["trial"]
        self.round_index = partial.aborted["round"]
        self.check_kind = RoundKind(partial.aborted["check_kind"])
        super().__init__(
            "experiment aborted: %s failed in trial %d at round %d"
            % (self.check_kind.value, self.trial_index, self.round_index)
        )


def _decoded_wrong(x, y, i, j, k):
    """The bits each party decodes wrong, of the two it receives, in a
    message round of leakage key (x, y, i, j, k): Alice's, Bob's and
    Charlie's."""
    decoded = (decode_alice(x, y, i), decode_bob(x, y, j), decode_charlie(x, y, k))
    return tuple(sum(map(operator.ne, got, sent)) for got, sent in zip(decoded, ((j, k), (i, k), (i, j))))


# (0, 0, 0) for every key of an undisturbed round.
_WRONG_BITS = {key: _decoded_wrong(*key) for key in product((0, 1), repeat=5)}


def _log_trials(first, rows, aborted=False):
    """One INFO line per trial of a block whose first trial is ``first``:
    its index, its rounds and its failed checks, read from its row totals
    ``rows`` (each round is counted in one row, a failed check in rows 12
    to 15), with ", aborted" on the last line when ``aborted``.  Nothing
    runs unless the lines are shown."""
    if log.isEnabledFor(logging.INFO):
        last = len(rows) - 1
        for index, (used, failed) in enumerate(zip(rows.sum(axis=1).tolist(), rows[:, 12:].sum(axis=1).tolist())):
            end = ", aborted" if aborted and index == last else ""
            log.info("trial %d: rounds %d, failed checks %d%s", first + index, used, failed, end)


class _TrialLaw:
    """The exact law of one trial's leaf counts, read from an experiment's
    compiled round under its abort policy.

    A round's leaf depends only on its root, Bob's and Charlie's bits (j, k)
    of the message bit in flight, and the root changes only at a message
    leaf.  A bit stops at a message leaf, of weight m_r in all from root r,
    or, under the strict policy, at a failed check, of weight f_r.  So bit
    b of root r takes G_b rounds, geometric with p = m_r under
    record-and-continue and p = m_r + f_r under the strict policy; a strict
    bit's stop is a failed check with probability f_r / (m_r + f_r), and
    the trial ends at its first failing bit.  Summed over the bits a trial
    reaches, root r's message leaves under Alice's bit i are
    multinomial(N_ri, w / m_r), N_ri being its delivered bits of Alice bit
    i.  Its C_r check rounds, the sum of G_b - 1, are all passed under the
    strict policy; under record-and-continue F_r of them fail,
    binomial(C_r, f_r / c_r), c_r being the root's check weight.  The
    passed ones are multinomial(C_r - F_r, w / (c_r - f_r)) over its
    passing checks, the failed ones multinomial(F_r, w / f_r) over its
    failing checks, and a strict trial's failing leaf has probability
    w / f_r.

    Counts are kept as a (16, width) array: row 3r + i holds root r's
    message leaves under Alice's bit i, row 3r + 2 its passed checks, and
    row 12 + r its failed checks (under the strict policy, the one that
    ended the trial).  A row holds its leaves in ``leaf_weights`` order in
    its last columns, so the category numpy's multinomial gives the
    remainder is always a leaf.  A trial's row totals are the multinomials'
    sizes; independent multinomials of one row's pvals sum to the
    multinomial of their summed sizes, so a block draws the leaf counts of
    all its trials in one call (:meth:`_TrialLaw.draw`).
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
            failed = [(weight, leaf) for weight, leaf in checks if leaf.passed is False]
            passed = [(weight, leaf) for weight, leaf in checks if leaf.passed is not False]
            rows += [message, message, passed]
            fails.append(failed)
            m, f = sum(w for w, _ in message), sum(w for w, _ in failed)
            total = sum(w for w, _ in drawable)
            if strict:
                stop_weight.append((m + f) / total)
                fail_share.append(f / (m + f) if f else 0.0)
            else:
                stop_weight.append(m / total)
                fail_share.append(f / sum(w for w, _ in checks) if f else 0.0)
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
        self.strict = strict
        # Per root: under the strict policy the share of its bits' stops
        # that fail, else the share of its check rounds that fail.
        self.fail_share = np.array(fail_share)
        self.failing = bool(self.fail_share.any())
        # The flat indices of the message cells, with the bits each party
        # decodes wrong in each (``_WRONG_BITS``).
        flat = [(index * width + column, index, leaf) for index, column, leaf in self.cells]
        messages = [
            (cell, _WRONG_BITS[leaf.leakage_keys[index % 3]]) for cell, index, leaf in flat if leaf.kind is _MESSAGE
        ]
        self.message_cells = np.array([cell for cell, _ in messages], dtype=np.intp)
        self.misses = np.array([wrong for _, wrong in messages], dtype=np.int64).reshape(-1, 3).T
        # The failed check of each cell of the fail rows, by its flat index there.
        self.stops = {cell - 12 * width: leaf for cell, index, leaf in flat if index >= 12}

    def stop(self, counts):
        """The failed check that ended a strict trial which drew ``counts``:
        the one cell its fail rows count."""
        (cell,) = np.flatnonzero(counts[12:])
        return self.stops[int(cell)]

    def block_trials(self, length):
        """The trials a block of ``length``-bit trials holds:
        ``max(1, _BLOCK_BITS // length)``, or fewer when a failed check can
        end a trial, at most the trials expected up to the first abort,
        ceil(1 / (1 - (1 - q)^length)) with q = 1/4 sum_r f_r / (m_r + f_r),
        so that little of a block is drawn to be discarded."""
        block = max(1, _BLOCK_BITS // length)
        if self.strict and self.failing:
            aborts = 1.0 - (1.0 - float(self.fail_share.mean())) ** length
            if aborts * block > 1.0:
                block = math.ceil(1.0 / aborts)
        return block

    def draw(self, rng, trials, length, max_rounds):
        """A block of ``trials`` trials of ``length`` bits from ``rng``:
        ``(counts, last, rows, over)``.

        These numpy calls cover the whole block, in this order: the message
        bits are ``integers(0, 2, (3, trials, length))`` (Alice's, Bob's and
        Charlie's); one ``geometric`` call gives every bit's rounds; when a
        check can fail, one more call, under the strict policy
        ``random((trials, length))`` saying whether each bit's stopping
        round fails, and under record-and-continue ``binomial`` splitting
        each trial's check rounds of each root into passed and failed; and
        one ``multinomial`` call gives the leaf counts of every row, summed
        over the trials the block keeps, with a second call for a trial
        that a failed check ended, drawn on its own.  Each trial ends at its
        first failing bit.

        The block ends at its first trial, in trial order, that a failed
        check ends or whose rounds pass ``max_rounds``; what is drawn for
        the trials after it is discarded.  ``rows``, of shape (n, 16),
        holds the row totals of the first n trials: every trial, or those up
        to and including the one a failed check ended; a trial's rounds and
        failed checks are its sums over every row and over rows 12 to 15.
        ``counts``, of shape (16, width), sums their leaf counts, and
        ``last`` is the aborting trial's own counts, or None.  ``over`` is
        the :class:`~qsdc3.protocol.RoundBudgetExceeded` of trial n when its
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
        if self.strict and self.failing:
            failing = rng.random((trials, length)) < self.fail_share[roots]
            aborts = failing.any(axis=1)
            final = np.where(aborts, failing.argmax(axis=1), length)
            after = np.arange(length) > final[:, None]
            rounds[after] = 0
            rows[after] = 16
            (aborting,) = np.nonzero(aborts)
            rows[aborting, final[aborting]] = 12 + roots[aborting, final[aborting]]
        past = rounds.sum(axis=1) > max_rounds
        ends = aborts | past
        over = None
        kept = trials
        aborted = False
        if ends.any():
            end = int(ends.argmax())
            if past[end]:
                delivered = int(np.searchsorted(np.cumsum(rounds[end]), max_rounds, side="right"))
                over = RoundBudgetExceeded(max_rounds, delivered, length)
                kept = end
            else:
                kept, aborted = end + 1, True
            rows, roots, rounds = rows[:kept], roots[:kept], rounds[:kept]
        offsets = np.arange(kept)[:, None]
        n = np.bincount((rows + 17 * offsets).ravel(), minlength=17 * kept).reshape(kept, 17)[:, :16]
        stops = np.bincount((roots + 4 * offsets).ravel(), weights=rounds.ravel(), minlength=4 * kept)
        # Each root's rounds that stopped no bit: its passed checks, and
        # under record-and-continue its failed ones.
        checks = stops.reshape(kept, 4).astype(np.int64) - n[:, 0:12:3] - n[:, 1:12:3] - n[:, 12:]
        if self.failing and not self.strict:
            n[:, 12:] = rng.binomial(checks, self.fail_share)
            checks -= n[:, 12:]
        n[:, 2:12:3] = checks
        if not aborted:
            return rng.multinomial(n.sum(axis=0), self.pvals), None, n, over
        counts = rng.multinomial(n[:-1].sum(axis=0), self.pvals)
        last = rng.multinomial(n[-1], self.pvals)
        return counts + last, last, n, over


class _Aggregator:
    """Deterministic fold of an experiment's summed leaf counts.

    Every report field sums what each round's leaf, and in a message round
    Alice's bit, determine.  :meth:`_Aggregator.build` folds the trials'
    summed counts in one pass over the law's cells: the detection rows,
    Eve's counts, the count per leakage key and the rounds; and each
    party's wrong bits in one product over the message cells of the
    completed trials.  The trial counts follow from the config and the
    abort.  The analytic column weighs the three check-forced rounds once
    per aggregator, on one table (``protocol.failed_weights``), when its
    first row is read, so an experiment's five rows read three weighings."""

    def __init__(self, config):
        self.config = config
        # Failed weights by check kind (protocol.failed_weights),
        # weighed on the first row's read.
        self.failed_weights = None

    def _analytic(self, kind, decoy_family):
        """The exact detection probability of the row of check ``kind``, a
        :class:`~qsdc3.protocol.RoundKind`, and ``decoy_family``."""
        attack = self.config.attack
        if attack.kind is AttackKind.NONE:
            return 0.0
        if self.failed_weights is None:
            self.failed_weights = failed_weights(attack)
        return detection_from_failed(self.failed_weights[kind], decoy_family)

    def _leakage(self, counts):
        """The leakage audit over the message rounds ``counts`` holds, by
        leakage key (x, y, alice bit, bob bit, charlie bit)."""
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

    def build(self, law, totals, abort=None):
        """The report of the trials whose leaf counts, in the layout of
        ``law``, a :class:`_TrialLaw`, sum to ``totals``: every trial of the
        config, or, when ``abort`` is given as :func:`_count_trials` returns
        it, the trials up to and including the one a failed check ended.

        Each party's fidelity is the exact mean over the completed trials,
        rounded once: its two views' right bits over 2 * L bits per trial.
        """
        counts = {name: [0, 0] for name, _, _ in _ROWS}
        # Message rounds counted by leakage key: at most 32 keys, however
        # many rounds are audited.
        leakage = Counter()
        actions = measured = flips = rounds = 0
        for row, column, leaf in law.cells:
            c = int(totals[row, column])
            if not c:
                continue
            rounds += c
            if leaf.kind is _MESSAGE:
                leakage[leaf.leakage_keys[row % 3]] += c
            for name, kind, family in _ROWS:
                if leaf.kind is kind and family in (None, leaf.family):
                    counted = counts[name]
                    counted[0] += c
                    counted[1] += 0 if leaf.passed else c
            for *_, ancilla_outcome in leaf.eve:
                actions += c
                if ancilla_outcome is not None:
                    measured += c
                    flips += c * ancilla_outcome
        claim = paper_claimed_detection(self.config.attack.kind)
        kinds = {}
        for name, kind, family in _ROWS:
            run, failed = counts[name]
            if run or family is None:
                kinds[name] = CheckStats(run, failed, self._analytic(kind, family), claim)
        detection = DetectionReport(kinds)

        leakage = self._leakage(leakage)
        done, completed, aborted = self.config.trials, totals, None
        if abort is not None:
            done, used, leaf, last = abort
            completed = totals - last
            aborted = {
                "trial": done,
                "round": used - 1,
                "check_kind": leaf.kind.value,
                "segments": sorted(s.value for s in leaf.touched),
            }
        bits = 2 * self.config.message_length * done
        wrong = (law.misses @ completed.ravel()[law.message_cells]).tolist()
        fidelity = FidelityReport(*((bits - w) / bits if done else None for w in wrong))
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
            trials_completed=done,
            trials_aborted=int(abort is not None),
            rounds_total=rounds,
            aborted=aborted,
        )


def run_experiment(config):
    """Run ``config.trials`` independent protocol executions and report.

    Deterministic given the seed: the experiment draws from one generator,
    ``numpy.random.default_rng(config.seed)``, in blocks of trials, in
    trial order (:meth:`_TrialLaw.block_trials` sizes them; the stream
    depends on ``_BLOCK_BITS``).  An experiment builds one transition table
    and weighs its compiled round there once.  Then each block draws its
    trials' rounds and row totals from their exact law under the config's
    abort policy (:class:`_TrialLaw`), with no round order, and its leaf
    counts in one multinomial over the summed rows (:meth:`_TrialLaw.draw`:
    rows 3r + i hold root r's message leaves under Alice's bit i, 3r + 2 its
    passed checks and 12 + r its failed ones).  The report folds their sum
    (:class:`_Aggregator`); its fidelity is the exact mean over the
    completed trials, rounded once.  Under the strict policy the first
    failed check stops the experiment: :class:`ExperimentAborted` is raised
    carrying the partial statistics, the failing round included.

    Each trial logs one INFO line on the ``qsdc3`` logger: its index,
    rounds used and failed checks, read from its row totals, so the lines
    draw nothing and a report's bytes do not depend on them.  An experiment
    that reaches a report, full or partial, logs its trials and its table's
    size at DEBUG.  A trial whose rounds pass the default budget raises
    :class:`~qsdc3.protocol.RoundBudgetExceeded`, after the trials before
    it are logged.
    """
    table = TransitionTable()
    roots = [leaf_weights(table, config.schedule, config.attack, j, k) for j, k in product((0, 1), repeat=2)]
    law = _TrialLaw(roots, config.abort_policy is AbortPolicy.STRICT)
    totals, abort = _count_trials(config, law)
    # Sizing the table sums its dicts: only when the line is shown.
    if log.isEnabledFor(logging.DEBUG):
        trials = config.trials if abort is None else abort[0] + 1
        log.debug("experiment: %d trials, %d transition table edges", trials, len(table))
    result = _Aggregator(config).build(law, totals, abort)
    if abort is not None:
        raise ExperimentAborted(result)
    return result


def _count_trials(config, law):
    """The trials' leaf counts drawn from ``law`` in blocks of
    ``law.block_trials(message_length)`` trials, all from one generator,
    summed in one array: ``(totals, abort)``.

    ``abort`` is None when every trial completed.  Else a failed check
    ended trial ``trial``, the last one drawn and summed, and ``abort`` is
    ``(trial, rounds, leaf, counts)``: its index, its rounds up to the
    failing one, that failed check's leaf and the trial's own counts.  A
    trial whose rounds pass the budget raises
    :class:`~qsdc3.protocol.RoundBudgetExceeded`.  Each block's trials log
    their INFO lines (:func:`_log_trials`) before the next block is drawn."""
    length = config.message_length
    budget = default_budget(length)
    block = law.block_trials(length)
    rng = np.random.default_rng(config.seed)
    totals = np.zeros_like(law.pvals, dtype=np.int64)
    for first in range(0, config.trials, block):
        counts, last, rows, over = law.draw(rng, min(block, config.trials - first), length, budget)
        totals += counts
        _log_trials(first, rows, last is not None)
        if last is not None:
            return totals, (first + len(rows) - 1, int(rows[-1].sum()), law.stop(last), last)
        if over is not None:
            raise over
    return totals, None


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


# A detection curve's default schedule, which ``qsdc3 sweep`` keeps for the
# schedule keys its config leaves out.
CURVE_SCHEDULE = SchedulePolicy(p_ab_check=0.25, p_bob_cm=0.1, p_charlie_cm=0.4)


def entangle_measure_curve(
    grid,
    check_kinds=("ab_check", "decoy_check"),
    message_length=128,
    trials=140,
    schedule=CURVE_SCHEDULE,
    seed=0,
):
    """Sampled-versus-analytic detection table over the probe coupling's
    flip weight |beta|^2, one experiment per ``grid`` value.

    The attack covers both the A->B leg (disturbing pair checks) and the
    C->A leg (disturbing decoys), so one experiment per point feeds both
    curve rows.  Each point runs record-and-continue, and each requested
    check kind, named once, gives a row; decoy rows also give the Z and X
    family splits.  Every point runs under ``schedule``, by default
    :data:`CURVE_SCHEDULE`.

    An empty grid or a grid value that is not a real number in [0, 1] (a
    bool or a string included), a string or empty ``check_kinds``, an
    unknown or repeated check kind and a ``seed`` that is not an integer
    >= 0 raise ``ValueError`` naming the field before any experiment runs;
    the sizes and the schedule (None included) are checked by
    :class:`ExperimentConfig`.
    """
    grid = [float(check_probability("grid", value)) for value in grid]
    if not grid:
        raise ValueError("parameter grid must not be empty")
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
    for value, point_seed in zip(grid, point_seeds):
        config = ExperimentConfig(
            message_length=message_length,
            trials=trials,
            schedule=schedule,
            attack=AttackModel.entangle_measure(value, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A),
            abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
            seed=int(point_seed.generate_state(1)[0]),
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
