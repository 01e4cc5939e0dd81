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
draw below attack probability 1, then the model's attack) and
:func:`resolve_points` (the probe readout).  The protocol's compiled round
runs these steps inside its round body; :func:`attack_transit` and an
:class:`Eavesdropper` answer them with draws, one hop at a time.

:func:`analytic_detection_probability` computes exact per-check detection
probabilities by enumerating Eve's and the checkers' discrete choices with
their exact branch weights - no sampling - and serves as the oracle the
Monte Carlo estimates are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import protocol as _protocol
from .states import (
    BERNOULLI,
    FAIR_COIN,
    Basis,
    DecoyState,
    Pauli,
    Subsystem,
    TransitionTable,
    apply_pauli_on_transit,
    bell_state,
    check_coupling,
    collapse_outcome,
    decoy_basis_and_bit,
    drive,
    outcome_probabilities,
    prepare_decoy,
)

# Branches lighter than this carry no probability worth following.
_WEIGHT_FLOOR = 1e-15


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
    every crossing is attacked.
    """

    kind: AttackKind
    segments: frozenset = frozenset()
    pauli: Pauli | None = None
    alpha: complex = 1.0 + 0j
    beta: complex = 0j
    attack_probability: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "segments", frozenset(self.segments))
        if self.kind is AttackKind.NONE:
            if self.segments:
                raise ValueError("a null attack covers no segments")
        elif not self.segments:
            raise ValueError("an active attack needs at least one segment")
        if self.kind is AttackKind.DISTURBANCE:
            if self.pauli not in (Pauli.X, Pauli.Z):
                raise ValueError("disturbance carries exactly one of the X or Z flips")
        if self.kind is AttackKind.ENTANGLE_MEASURE:
            alpha, beta = check_coupling(self.alpha, self.beta)
            object.__setattr__(self, "alpha", alpha)
            object.__setattr__(self, "beta", beta)
        if not 0.0 <= self.attack_probability <= 1.0:
            raise ValueError("attack_probability must lie in [0, 1]")

    @classmethod
    def none(cls):
        return cls(AttackKind.NONE)

    @classmethod
    def intercept_resend(cls, *segments, attack_probability=1.0):
        return cls(
            AttackKind.INTERCEPT_RESEND,
            frozenset(segments),
            attack_probability=attack_probability,
        )

    @classmethod
    def disturbance(cls, pauli, *segments, attack_probability=1.0):
        return cls(
            AttackKind.DISTURBANCE,
            frozenset(segments),
            pauli=pauli,
            attack_probability=attack_probability,
        )

    @classmethod
    def entangle_measure(cls, beta_sq, *segments, attack_probability=1.0):
        """Probe coupling parametrized by the flip weight |beta|^2 in [0, 1]."""
        if not 0.0 <= beta_sq <= 1.0:
            raise ValueError("beta_sq must lie in [0, 1], got %r" % (beta_sq,))
        return cls(
            AttackKind.ENTANGLE_MEASURE,
            frozenset(segments),
            alpha=complex(math.sqrt(1.0 - beta_sq)),
            beta=complex(math.sqrt(beta_sq)),
            attack_probability=attack_probability,
        )


@dataclass(slots=True)
class EveRecord:
    """What Eve did and saw on one flying qubit."""

    round_index: int
    segment: ChannelSegment
    kind: AttackKind
    basis: Basis | None = None
    outcome: int | None = None
    ancilla_outcome: int | None = None


# Members read on the per-round path (see the note in states.py).
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
    if segment not in model.segments:
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
    # AttackModel ran check_coupling on the coefficients.
    return table.attach(state, model.alpha, model.beta), EveRecord(-1, segment, kind)


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


def attack_transit(model, segment, state, rng):
    """Eve's action on a flying qubit crossing a segment.

    The qubit is an entangled pair's transit qubit, or a lone decoy on the
    C->A segment.  Identity when the segment is not covered by the model;
    otherwise applies the model's strategy.  Returns ``(state, record)``,
    with ``record`` None when Eve did not act; a record's ``round_index``
    is -1.
    """
    return drive(attack_points(TransitionTable(), model, segment, state), rng)


class Eavesdropper:
    """Eve over one table, one hop or probe readout at a time.

    Applies the model to each flying qubit and logs one record per action;
    each call answers the chance points of :func:`attack_points` or
    :func:`resolve_points` with draws from ``rng``.  The round engine does
    not call it: its compiled round runs the same steps (see
    ``protocol.run_protocol``).
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

# The segments each check's quantum path crosses, in order.
CHECK_PATHS = {
    "ab_check": (ChannelSegment.A_TO_B,),
    "ca_check": (ChannelSegment.A_TO_B, ChannelSegment.B_TO_C),
    "decoy_check": (ChannelSegment.C_TO_A,),
}


def _attack_branches(model, segment, state):
    """All (weight, state) branches of Eve's action on one hop."""
    if model.kind is AttackKind.NONE or segment not in model.segments:
        return [(1.0, state)]
    branches = []
    p_fire = model.attack_probability
    if p_fire < 1.0:
        branches.append((1.0 - p_fire, state))
    if model.kind is AttackKind.DISTURBANCE:
        branches.append((p_fire, apply_pauli_on_transit(state, model.pauli)))
    elif model.kind is AttackKind.ENTANGLE_MEASURE:
        if state.has_ancilla:
            branches.append((p_fire, state))
        else:
            branches.append((p_fire, TransitionTable().attach(state, model.alpha, model.beta)))
    else:  # intercept-and-resend: basis choice x outcome, each branch exact
        for basis in (Basis.Z, Basis.X):
            p0, p1 = outcome_probabilities(state, Subsystem.TRANSIT, basis)
            for outcome, p in ((0, p0), (1, p1)):
                if p > _WEIGHT_FLOOR:
                    branches.append(
                        (
                            p_fire * 0.5 * p,
                            collapse_outcome(state, Subsystem.TRANSIT, basis, outcome),
                        )
                    )
    return branches


def _propagate(model, path, state):
    """Branch the state across every hop of a check's quantum path."""
    dist = [(1.0, state)]
    for segment in path:
        nxt = []
        for weight, st in dist:
            for w, out in _attack_branches(model, segment, st):
                nxt.append((weight * w, out))
        dist = nxt
    return dist


def _correlation_fail_probability(state, basis):
    """Exact failure probability of the pair correlation test in one basis."""
    p_t0, p_t1 = outcome_probabilities(state, Subsystem.TRANSIT, basis)
    fail = 0.0
    for t_out, p_t in ((0, p_t0), (1, p_t1)):
        if p_t <= _WEIGHT_FLOOR:
            continue
        collapsed = collapse_outcome(state, Subsystem.TRANSIT, basis, t_out)
        p_h0, p_h1 = outcome_probabilities(collapsed, Subsystem.HOME, basis)
        if basis is Basis.Z:
            fail += p_t * (p_h0 if t_out == 0 else p_h1)  # equal bits fail in Z
        else:
            fail += p_t * (p_h1 if t_out == 0 else p_h0)  # unequal signs fail in X
    return fail


def _decoy_fail_probability(state, label):
    basis, expected = decoy_basis_and_bit(label)
    p0, p1 = outcome_probabilities(state, Subsystem.TRANSIT, basis)
    return p1 if expected == 0 else p0


def analytic_detection_probability(model, check_kind, decoy_family=None):
    """Exact per-check detection probability for an attack model.

    Enumerates the checkers' uniform basis (or decoy) choice and every
    discrete choice Eve makes, weighting each branch by its exact
    probability.  ``decoy_family`` restricts decoy checks to the Z family
    ({|0>, |1>}) or the X family ({|+>, |->}); by default all four decoy
    states are equally likely.

    Raises ``ValueError`` for the null attack or for a non-check round kind.
    """
    if model.kind is AttackKind.NONE:
        raise ValueError("detection probability is defined for active attacks only")
    kind_value = check_kind.value if isinstance(check_kind, _protocol.RoundKind) else check_kind
    if kind_value not in CHECK_PATHS:
        raise ValueError("%r is not a check round kind" % (check_kind,))
    path = CHECK_PATHS[kind_value]

    if kind_value == "decoy_check":
        if decoy_family is Basis.Z:
            labels = (DecoyState.ZERO, DecoyState.ONE)
        elif decoy_family is Basis.X:
            labels = (DecoyState.PLUS, DecoyState.MINUS)
        else:
            labels = tuple(DecoyState)
        total = 0.0
        for label in labels:
            for weight, state in _propagate(model, path, prepare_decoy(label)):
                if weight > _WEIGHT_FLOOR:
                    total += weight * _decoy_fail_probability(state, label)
        return _clamp01(total / len(labels))

    total = 0.0
    for weight, state in _propagate(model, path, bell_state((0, 0))):
        if weight <= _WEIGHT_FLOOR:
            continue
        for basis in (Basis.Z, Basis.X):
            total += weight * 0.5 * _correlation_fail_probability(state, basis)
    return _clamp01(total)


def _clamp01(p):
    # Absorb rounding like -2e-16 from cancelling overlaps.
    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p


def paper_claimed_detection(kind):
    """Blanket per-check detection figure claimed for an attack family, when
    one exists: 1/2 for both intercept-and-resend and disturbance.  The
    enumerated value for intercept-and-resend is 1/4 per check; reports show
    the two side by side rather than silently adopting either number.
    """
    if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.DISTURBANCE):
        return 0.5
    return None
