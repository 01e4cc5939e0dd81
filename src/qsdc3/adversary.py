"""Eavesdropper strategies for the three channel segments.

Three attacks are modeled:

* intercept-and-resend: Eve measures the flying qubit in a uniformly random
  basis and forwards a fresh eigenstate of her outcome (for entangled pairs
  this is exactly the post-measurement collapse, so it is implemented as a
  projective measurement);
* disturbance: Eve applies a fixed bit flip or phase flip without measuring;
* entangle-and-measure: Eve unitarily couples a private two-level probe to
  the flying qubit and reads the probe in its {|chi0>, |chi1>} basis at the
  end of the round.

Eve commits her action while the qubit is in flight, before any mode
announcement, and may read the full public transcript.  Strategies hold no
state between rounds beyond the per-round log.

Eve's action on one hop is written once, as chance-point steps over a
:class:`~qsdc3.states.TransitionTable`: :func:`attack_points` (the gate
point below attack probability 1, then the model's attack) and
:func:`resolve_points` (the probe readout).  The protocol's compiled round
runs these steps inside its round body, walked once for all four roots.

:func:`analytic_detection_probability` computes exact per-check detection
probabilities from the same steps: it weighs the protocol's compiled round
(``protocol.leaf_weights``), the leaves its sessions sample, with every
answer's exact probability in place of a draw, and sums the weight of the
leaves whose check failed.  There is no sampling and no second copy of the
hops or the checks; it is the oracle the Monte Carlo estimates are tested
against.  One query weighs one check-forced round on a fresh table; an
experiment's analytic column weighs all three on one table
(:func:`failed_weights`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import protocol as _protocol
from .states import (
    BERNOULLI,
    FAIR_COIN,
    Basis,
    Pauli,
    Subsystem,
    TransitionTable,
    check_probability,
    drive,
)


class ChannelSegment(Enum):
    A_TO_B = "a_to_b"
    B_TO_C = "b_to_c"
    C_TO_A = "c_to_a"


class AttackKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    DISTURBANCE = "disturbance"
    ENTANGLE_MEASURE = "entangle_measure"


@dataclass(frozen=True)
class AttackModel:
    """Which attack, on which segment(s), with which parameters.

    ``attack_probability`` is the chance Eve acts on a qubit crossing one of
    her segments; the default 1.0 matches the per-attack framing in which
    every crossing is attacked.  It is stored as given, so an integer stays
    an integer in a report.  ``beta_sq``, entangle-measure's one parameter,
    is the probe's flip weight |beta|^2 (see ``TransitionTable.attach``); it
    is stored as a ``float``, as ``SchedulePolicy`` stores its
    probabilities.

    Raises ``ValueError`` naming the field for a ``kind`` or a segment that
    is not an enum member (its value included), a segment named more than
    once, segments on the null attack or none on an active one, a
    disturbance without the X or Z flip, a ``pauli`` other than None
    outside a disturbance, a ``beta_sq`` that is not a real number in
    [0, 1] on entangle-measure or not None on any other kind, an
    ``attack_probability`` that is not a real number in [0, 1]
    (``states.check_probability``), and one other than 1 on the null
    attack.
    """

    kind: AttackKind
    segments: frozenset = frozenset()
    pauli: Pauli | None = None
    beta_sq: float | None = None
    attack_probability: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, AttackKind):
            raise ValueError("kind must be an AttackKind member, got %r" % (self.kind,))
        segments = tuple(self.segments)
        for segment in segments:
            if not isinstance(segment, ChannelSegment):
                raise ValueError("segments must be ChannelSegment members, got %r" % (segment,))
        if len(set(segments)) != len(segments):
            raise ValueError("segments names a segment more than once")
        object.__setattr__(self, "segments", frozenset(segments))
        # The same segments in the order a round crosses them.  A round
        # reads its coverage here: ``segment in model.covered`` compares
        # members by identity, where a frozenset would hash each one through
        # the Python-level ``Enum.__hash__``.
        object.__setattr__(self, "covered", tuple(s for s in ChannelSegment if s in self.segments))
        if self.kind is AttackKind.NONE:
            if self.segments:
                raise ValueError("a null attack covers no segments")
        elif not self.segments:
            raise ValueError("an active attack needs at least one segment")
        if self.kind is AttackKind.DISTURBANCE:
            if self.pauli not in (Pauli.X, Pauli.Z):
                raise ValueError("disturbance carries exactly one of the X or Z flips")
        elif self.pauli is not None:
            raise ValueError("pauli is set only for a disturbance, got %r" % (self.pauli,))
        if self.kind is AttackKind.ENTANGLE_MEASURE:
            object.__setattr__(self, "beta_sq", float(check_probability("beta_sq", self.beta_sq)))
        elif self.beta_sq is not None:
            raise ValueError("beta_sq is set only for entangle-measure, got %r" % (self.beta_sq,))
        check_probability("attack_probability", self.attack_probability)
        if self.kind is AttackKind.NONE and self.attack_probability != 1:
            raise ValueError("a null attack has attack_probability 1, got %r" % (self.attack_probability,))

    @classmethod
    def none(cls):
        return cls(AttackKind.NONE)

    @classmethod
    def intercept_resend(cls, *segments, attack_probability=1.0):
        return cls(AttackKind.INTERCEPT_RESEND, segments, attack_probability=attack_probability)

    @classmethod
    def disturbance(cls, pauli, *segments, attack_probability=1.0):
        return cls(AttackKind.DISTURBANCE, segments, pauli=pauli, attack_probability=attack_probability)

    @classmethod
    def entangle_measure(cls, beta_sq, *segments, attack_probability=1.0):
        """Probe coupling of flip weight ``beta_sq`` = |beta|^2, a real
        number in [0, 1]; any other ``beta_sq`` raises ``ValueError``."""
        return cls(AttackKind.ENTANGLE_MEASURE, segments, beta_sq=beta_sq, attack_probability=attack_probability)


@dataclass(slots=True)
class EveRecord:
    """What Eve did and saw on one flying qubit."""

    round_index: int
    segment: ChannelSegment
    kind: AttackKind
    basis: Basis | None = None
    outcome: int | None = None
    ancilla_outcome: int | None = None


# Members read by the steps below, which run on every path of answers
# each time a compiled round is weighed (see the note in states.py).
_Z, _X = Basis.Z, Basis.X
_TRANSIT = Subsystem.TRANSIT
_DISTURBANCE = AttackKind.DISTURBANCE
_INTERCEPT_RESEND = AttackKind.INTERCEPT_RESEND
_ENTANGLE_MEASURE = AttackKind.ENTANGLE_MEASURE


def attack_points(table, model, segment, state):
    """Eve's action on a qubit crossing ``segment``, as chance points on ``table``.

    Returns ``(state, record)``, with ``record`` None when the model does
    not cover the segment or Eve does not act; a record's ``round_index``
    is -1.  Below attack probability 1, one Bernoulli point first decides
    whether Eve acts at all.
    """
    if segment not in model.covered:
        return state, None
    p_fire = model.attack_probability
    if p_fire < 1.0 and not (yield (BERNOULLI, p_fire)):
        return state, None
    kind = model.kind
    if kind is _DISTURBANCE:
        return table.pauli(state, _TRANSIT, model.pauli), EveRecord(-1, segment, kind)
    if kind is _INTERCEPT_RESEND:
        basis = _Z if (yield FAIR_COIN) else _X
        # Measuring and forwarding a fresh eigenstate of the outcome is the
        # same pure state as the post-measurement collapse.
        outcome, state = yield from table.measure_points(state, _TRANSIT, basis)
        return state, EveRecord(-1, segment, kind, basis, outcome)
    # Entangle-and-measure: one probe per flying qubit; if this qubit is
    # already probed (it crossed another attacked segment) Eve rides along.
    if state.has_ancilla:
        return state, None
    # AttackModel checked beta_sq.
    return table.attach(state, model.beta_sq), EveRecord(-1, segment, kind)


def resolve_points(table, state, records):
    """Eve reads out the probe attached to ``state``, if any, as chance points.

    The outcome goes to the latest entangle-and-measure record in
    ``records`` that has none yet.  Returns the state without the probe.
    """
    if not state.has_ancilla:
        return state
    outcome, state = yield from table.readout_points(state)
    for record in reversed(records):
        if record.kind is _ENTANGLE_MEASURE and record.ancilla_outcome is None:
            record.ancilla_outcome = outcome
            break
    return state


class Eavesdropper:
    """Eve over one table, one hop or probe readout at a time.

    Applies the model to each flying qubit and logs one record per action;
    each call answers the chance points of :func:`attack_points` or
    :func:`resolve_points` with draws from ``rng``.  The package does not
    call it: its compiled round runs the same steps (see
    ``protocol.run_protocol``).  The traced benchmark (perfbench/layers.py)
    looks the class up.
    """

    def __init__(self, model, table):
        self.model = model
        self.table = table
        self.records = []

    def intercept_transit(self, segment, state, rng, round_index, touched):
        state, record = drive(attack_points(self.table, self.model, segment, state), rng)
        if record is not None:
            record.round_index = round_index
            self.records.append(record)
            touched.append(segment)
        return state

    def resolve_probe(self, state, rng):
        """Measure out Eve's probe (if one is attached) and log the outcome."""
        return drive(resolve_points(self.table, state, self.records), rng)


# ---------------------------------------------------------------------------
# Exact detection probabilities by enumeration.

# The schedule (p_ab_check, p_bob_cm, p_charlie_cm) that makes every round a
# check of one kind.  Its points weigh exactly 1.0 and 0.0, and the 0.0
# branches are dropped, so it scales no branch of the round.
_FORCING_SCHEDULES = {
    "ab_check": (1.0, 0.0, 0.0),
    "ca_check": (0.0, 1.0, 0.0),
    "decoy_check": (0.0, 0.0, 1.0),
}


def analytic_detection_probability(model, check_kind, decoy_family=None):
    """Exact per-check detection probability for an attack model.

    Weighs the protocol's compiled round (``protocol.leaf_weights``, the
    leaves its sessions sample) under a schedule that makes every round a
    check of ``check_kind``: every answer to every chance point - the
    checkers' bases, the decoy label, Eve's gate and basis, each
    measurement outcome - with its exact probability, no sampling.  The
    round is walked on a fresh table and read from the root of the bits
    (0, 0).  The result is the summed weight of the leaves whose check failed.

    ``decoy_family`` restricts decoy checks to the Z family ({|0>, |1>})
    or the X family ({|+>, |->}): only the rounds that reveal a decoy of
    the family count, and their weight is divided by the family's 1/2.  By
    default all four decoy states count.  Each family's failed weight is
    summed on its own and the decoy check's is their sum, so a decoy
    check's value is exactly the mean of its two families' values.

    The value is one weighing (:func:`failed_weight_by_basis`) read by the
    row formula (:func:`detection_from_failed`).  A decoy check's three
    rows read one weighing, so an experiment's report (``harness``) takes
    its five rows from three weighings, made on one table
    (:func:`failed_weights`).

    Raises ``ValueError`` for the null attack, for a non-check round kind,
    for a ``decoy_family`` other than None, ``Basis.Z`` and ``Basis.X``,
    and for a family given with a check other than the decoy check.
    """
    if model.kind is AttackKind.NONE:
        raise ValueError("detection probability is defined for active attacks only")
    kind_value = check_kind.value if isinstance(check_kind, _protocol.RoundKind) else check_kind
    if kind_value not in _FORCING_SCHEDULES:
        raise ValueError("%r is not a check round kind" % (check_kind,))
    if decoy_family is not None:
        if decoy_family not in (Basis.Z, Basis.X):
            raise ValueError("decoy_family must be None, Basis.Z or Basis.X, got %r" % (decoy_family,))
        if kind_value != "decoy_check":
            raise ValueError("a decoy family applies to the decoy check only, not %r" % (check_kind,))
    return detection_from_failed(failed_weight_by_basis(model, kind_value), decoy_family)


def failed_weight_by_basis(model, check_kind):
    """The failed weight of the compiled round forced to ``check_kind``, a
    check kind's value, weighed on a fresh table (see
    :func:`analytic_detection_probability`): a dict by the leaf's decoy
    family, the basis of its decoy, with None for a pair check."""
    return _failed_on(TransitionTable(), model, check_kind)


def failed_weights(model):
    """:func:`failed_weight_by_basis` of every check kind, by its value,
    all three forced rounds weighed on one fresh table: a state they share
    is built and validated once.  The weights are those of a fresh table
    per kind, since a table's weights depend only on the kernels' floats."""
    table = TransitionTable()
    return {check_kind: _failed_on(table, model, check_kind) for check_kind in _FORCING_SCHEDULES}


def _failed_on(table, model, check_kind):
    schedule = _protocol.SchedulePolicy(*_FORCING_SCHEDULES[check_kind])
    failed = {None: 0.0, Basis.Z: 0.0, Basis.X: 0.0}
    for weight, leaf in _protocol.leaf_weights(table, schedule, model, 0, 0):
        if leaf.passed is False:
            failed[leaf.family] += weight
    return failed


def detection_from_failed(failed, decoy_family=None):
    """The detection probability of one row from the failed weights of
    :func:`failed_weight_by_basis`: their sum, or a decoy family's weight
    divided by the family's 1/2."""
    if decoy_family is not None:
        total = failed[decoy_family] / 0.5
    else:
        total = failed[None] + failed[Basis.Z] + failed[Basis.X]
    # Weights are never negative, but rounding may carry a sum past 1.
    return min(total, 1.0)


def paper_claimed_detection(kind):
    """Blanket per-check detection figure claimed for an attack family, when
    one exists: 1/2 for both intercept-and-resend and disturbance.  The
    enumerated value for intercept-and-resend is 1/4 per check; reports show
    the two side by side rather than silently adopting either number.
    """
    if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.DISTURBANCE):
        return 0.5
    return None
