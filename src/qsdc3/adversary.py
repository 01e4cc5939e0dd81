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
:func:`resolve_points` (the probe read in ``Basis.Z`` by the table's one
measurement edge, ``measure_points``); each keeps Eve's records
itself.  The protocol's compiled round runs them on the segments her
model covers, inside its round body, walked once for all four roots;
``protocol.analytic_detection_probability`` weighs the same round for the
exact detection probabilities.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

from .states import (
    BERNOULLI,
    FAIR_COIN,
    Basis,
    Pauli,
    Subsystem,
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
    every crossing is attacked.  It is stored as a plain ``int`` when it is
    an integer (numpy's included), so an integer stays an integer in a
    report, and as a plain ``float`` otherwise.  ``beta_sq``,
    entangle-measure's one parameter, is the probe's flip weight |beta|^2
    (see ``TransitionTable.attach``); it is stored as a ``float``, as
    ``SchedulePolicy`` stores its probabilities.

    Raises ``ValueError`` naming the field for a ``kind`` or a segment that
    is not an enum member (its value included), ``segments`` that are not
    iterable, a segment named more than once, segments on the null attack
    or none on an active one, a disturbance without the X or Z flip, a
    ``pauli`` other than None outside a disturbance, a ``beta_sq`` that is
    not a real number in [0, 1] on entangle-measure or not None on any
    other kind, an ``attack_probability`` that is not a real number in
    [0, 1] (``states.check_probability``), and one other than 1 on the
    null attack.
    """

    kind: AttackKind
    segments: frozenset = frozenset()
    pauli: Pauli | None = None
    beta_sq: float | None = None
    attack_probability: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, AttackKind):
            raise ValueError("kind must be an AttackKind member, got %r" % (self.kind,))
        try:
            segments = tuple(self.segments)
        except TypeError:
            raise ValueError("segments must be iterable, got %r" % (self.segments,)) from None
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
        p_fire = check_probability("attack_probability", self.attack_probability)
        p_fire = int(p_fire) if isinstance(p_fire, numbers.Integral) else float(p_fire)
        object.__setattr__(self, "attack_probability", p_fire)
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
_TRANSIT, _ANCILLA = Subsystem.TRANSIT, Subsystem.ANCILLA
_DISTURBANCE = AttackKind.DISTURBANCE
_INTERCEPT_RESEND = AttackKind.INTERCEPT_RESEND


def attack_points(table, model, segment, state, records):
    """Eve's action on a qubit crossing ``segment``, a segment ``model``
    covers, as chance points on ``table``: returns the forwarded state, and
    appends Eve's record, round index -1, to ``records`` when she acts.
    Below attack probability 1, one Bernoulli point first decides whether
    she acts at all.
    """
    p_fire = model.attack_probability
    if p_fire < 1.0 and not (yield (BERNOULLI, p_fire)):
        return state
    kind = model.kind
    basis = outcome = None
    if kind is _DISTURBANCE:
        state = table.pauli(state, _TRANSIT, model.pauli)
    elif kind is _INTERCEPT_RESEND:
        basis = _Z if (yield FAIR_COIN) else _X
        # Measuring and forwarding a fresh eigenstate of the outcome is the
        # same pure state as the post-measurement collapse.
        outcome, state = yield from table.measure_points(state, _TRANSIT, basis)
    elif state.has_ancilla:
        # Entangle-and-measure, one probe per flying qubit: on a qubit already
        # probed (it crossed another attacked segment) Eve rides along.
        return state
    else:
        # AttackModel checked beta_sq.
        state = table.attach(state, model.beta_sq)
    records.append(EveRecord(-1, segment, kind, basis, outcome))
    return state


def resolve_points(table, state, records):
    """Eve reads out the probe attached to ``state``, if any, as chance points.

    The outcome goes to ``records[-1]``, the probe's record: Eve attaches a
    probe only to an unprobed qubit, and a round reads each probe before it
    attaches the next.  Returns the state without the probe.
    """
    if not state.has_ancilla:
        return state
    outcome, state = yield from table.measure_points(state, _ANCILLA, _Z)
    records[-1].ancilla_outcome = outcome
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
        before = len(self.records)
        if segment in self.model.covered:
            state = drive(attack_points(self.table, self.model, segment, state, self.records), rng)
        for record in self.records[before:]:
            record.round_index = round_index
            touched.append(segment)
        return state

    def resolve_probe(self, state, rng):
        """Measure out Eve's probe (if one is attached) and log the outcome."""
        return drive(resolve_points(self.table, state, self.records), rng)


def paper_claimed_detection(kind):
    """Blanket per-check detection figure claimed for an attack family, when
    one exists: 1/2 for both intercept-and-resend and disturbance.  The
    enumerated value for intercept-and-resend is 1/4 per check; reports show
    the two side by side rather than silently adopting either number.
    """
    if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.DISTURBANCE):
        return 0.5
    return None
