"""Exact state vectors for one protocol round.

A round's quantum system holds at most three two-level subsystems: the
home qubit Alice keeps, the transit qubit in flight, and (only while an
entangle-and-measure eavesdropper is active) a probe qubit held by Eve.
Decoy rounds use a degenerate register with the transit slot alone, so a
nonexistent home qubit can never be measured by accident.

Conventions
-----------
* Basis order is lexicographic with the leftmost subsystem as the most
  significant bit and |0> before |1>.
* The four maximally entangled two-qubit states are indexed by a bit-flip
  bit and a phase-flip bit:

      (0,0): (|01> + |10>)/sqrt2      (1,0): (|00> + |11>)/sqrt2
      (0,1): (|10> - |01>)/sqrt2      (1,1): (|00> - |11>)/sqrt2

  Labels are rays: a global phase does not change the label.
* A sampled operation is a chance point with its exact probabilities.  A
  protocol session draws one uniform per round from an injected
  ``numpy.random.Generator`` and picks the round's leaf of the compiled
  round by its exact weight (see ``protocol.run_protocol``); there is no
  global randomness.

Construction
------------
Every :class:`JointState` is built by ``JointState(amps, subsystems)`` and
validated: register, amplitude count and norm.  That holds for the states
derived by an operation here (a Pauli, a collapse, a probe attach or
discard) too, because a faulty kernel must not hand an invalid state to
the round engine.

The sampled operations are written once, as chance-point steps on a
:class:`TransitionTable` (``measure_points``, which reads Eve's probe too,
and ``bell_points``): each yields its chance point, with the probabilities
the kernels gave, and is sent the answer.  The protocol's compiled round
runs them while ``protocol.leaf_weights`` weighs its leaves, answering each
point with every answer of positive probability: that is how
``protocol.analytic_detection_probability`` enumerates a round, and the
weights its sessions draw leaves by.  An experiment's sampled round
lives on one table (``harness.run_experiment`` builds it and weighs the
round there once, and every trial draws from those weights), and its
analytic column on one more (``protocol.failed_weights`` weighs the
three check-forced rounds there); a session run on its own gets a fresh
one.  So a derived state is built and validated once per distinct value
in each table, not once per round.

The probe coupling has one parameter, its flip weight beta^2, checked
where it enters: by ``AttackModel``.  Eve's attach goes through
``TransitionTable.attach``, which trusts the beta^2 of her already checked
model and computes the coupling's two real coefficients once per edge.

Registers are constants: the transit qubit sits after the home qubit when
there is one, and the probe is always last, so positions come from
``has_home`` and attach and discard pick a prebuilt register.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum

from . import backend as _k

NORM_ATOL = 1e-12

_SQRT_HALF = math.sqrt(0.5)


class Pauli(Enum):
    """Single-qubit operators used for encoding and for channel disturbance."""

    I = 0
    X = 1
    Z = 2


class Basis(Enum):
    """Measurement basis: Z eigenstates {|0>, |1>}, X eigenstates {|+>, |->}."""

    Z = 0
    X = 1


class Subsystem(Enum):
    HOME = "home"
    TRANSIT = "transit"
    ANCILLA = "ancilla"


# Members read by the chance-point steps.  Weighing a compiled round
# (``protocol.leaf_weights``, once per table) runs the steps along
# every path of answers, so they are read once per path and point.
# ``EnumType`` defines a Python-level ``__getattr__``, which makes every
# ``Basis.Z`` a slow class lookup (about 0.2 us on CPython 3.11); a module
# global costs a tenth of that.
_Z, _X = Basis.Z, Basis.X
_PAULI_I, _PAULI_X, _PAULI_Z = Pauli.I, Pauli.X, Pauli.Z
_HOME, _TRANSIT, _ANCILLA = Subsystem.HOME, Subsystem.TRANSIT, Subsystem.ANCILLA

# The legal registers: the transit qubit, optionally preceded by the home
# qubit and followed by the probe, in (home, transit, ancilla) order.
# Derived states reuse these tuples, so the register check below matches
# them by identity.
_PAIR = (_HOME, _TRANSIT)
_PROBED_PAIR = (_HOME, _TRANSIT, _ANCILLA)
_LONE = (_TRANSIT,)
_PROBED_LONE = (_TRANSIT, _ANCILLA)
_REGISTERS = (_PAIR, _PROBED_PAIR, _LONE, _PROBED_LONE)


class DecoyState(Enum):
    """The four single-qubit decoy preparations."""

    ZERO = "0"
    ONE = "1"
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class BellLabel:
    """Label (flip, phase) of an entangled-basis state; doubles as a
    Bell-measurement outcome."""

    flip: int
    phase: int

    def __post_init__(self):
        if self.flip not in (0, 1) or self.phase not in (0, 1):
            raise ValueError("label bits must be 0 or 1, got (%r, %r)" % (self.flip, self.phase))

    def __iter__(self):
        return iter((self.flip, self.phase))


@dataclass(frozen=True, slots=True, init=False)
class JointState:
    """Normalized complex amplitude vector over an ordered qubit register.

    Immutable: every operation returns a new value, so states are safe to
    share across threads.  Equality and hashing use ``amps`` and
    ``subsystems``.

    ``JointState(amps, subsystems)`` converts ``subsystems`` to a tuple and
    every amplitude to ``complex``; then ``__post_init__`` checks, in this
    order, that the register contains the transit qubit; that it is one of
    the four legal registers (transit; home, transit; transit, ancilla;
    home, transit, ancilla); that there are ``2 ** len(subsystems)``
    amplitudes; and that the squared norm is within ``NORM_ATOL`` of 1 (a
    NaN or infinite amplitude fails this check).  Each check raises
    ``ValueError``.  The work is constant-time: the register is matched
    against a fixed tuple and the squared norm is one ``norm_sq`` kernel
    call over at most eight amplitudes.  ``has_home`` and ``has_ancilla``
    are set there too, and ``subsystems`` becomes the legal register's
    prebuilt tuple, so that every state's register is one of four objects.

    This is the only constructor: the states the operations of this module
    derive are built by it as well.  A kernel's output is already a tuple
    of ``complex`` and a derived register is one of the prebuilt tuples,
    which ``tuple()`` returns as it is.
    """

    amps: tuple
    subsystems: tuple
    has_home: bool = field(init=False, compare=False, repr=False)
    has_ancilla: bool = field(init=False, compare=False, repr=False)

    def __init__(self, amps, subsystems):
        object.__setattr__(self, "amps", tuple(map(complex, amps)))
        object.__setattr__(self, "subsystems", tuple(subsystems))
        self.__post_init__()

    def __post_init__(self):
        subsystems = self.subsystems
        amps = self.amps
        if subsystems not in _REGISTERS:
            if Subsystem.TRANSIT not in subsystems:
                raise ValueError("a round state always contains the transit qubit")
            raise ValueError("subsystems must be unique and in (home, transit, ancilla) order")
        if len(amps) != 1 << len(subsystems):
            raise ValueError(
                "amplitude count %d does not match %d qubit(s)" % (len(amps), len(subsystems))
            )
        err = abs(_k.norm_sq(amps) - 1.0)
        if not err <= NORM_ATOL:
            raise ValueError("state is not normalized (|norm^2 - 1| = %.3g)" % err)
        # The prebuilt tuple of the register, so that a state's register is
        # one of four objects (``TransitionTable`` keys by its id).
        object.__setattr__(self, "subsystems", _REGISTERS[_REGISTERS.index(subsystems)])
        object.__setattr__(self, "has_home", subsystems[0] is _HOME)
        object.__setattr__(self, "has_ancilla", subsystems[-1] is _ANCILLA)

    def position(self, which):
        """Index of a subsystem in the register; ``ValueError`` if absent."""
        if which is _TRANSIT:
            return 1 if self.has_home else 0
        if which is _HOME and self.has_home:
            return 0
        if which is _ANCILLA and self.has_ancilla:
            return 2 if self.has_home else 1
        raise ValueError("state has no %s qubit" % which.value)


_BELL_STATES = {
    (0, 0): JointState((0.0, _SQRT_HALF, _SQRT_HALF, 0.0), _PAIR),
    (1, 0): JointState((_SQRT_HALF, 0.0, 0.0, _SQRT_HALF), _PAIR),
    (0, 1): JointState((0.0, -_SQRT_HALF, _SQRT_HALF, 0.0), _PAIR),
    (1, 1): JointState((_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF), _PAIR),
}

_DECOY_STATES = {
    DecoyState.ZERO: JointState((1.0, 0.0), _LONE),
    DecoyState.ONE: JointState((0.0, 1.0), _LONE),
    DecoyState.PLUS: JointState((_SQRT_HALF, _SQRT_HALF), _LONE),
    DecoyState.MINUS: JointState((_SQRT_HALF, -_SQRT_HALF), _LONE),
}

# Bell-measurement outcomes, indexed like the probabilities of ``bell_probs``.
_BELL_OUTCOMES = tuple(
    (BellLabel(flip, phase), _BELL_STATES[(flip, phase)]) for flip in (0, 1) for phase in (0, 1)
)

_DECOY_BASIS_BIT = {
    DecoyState.ZERO: (Basis.Z, 0),
    DecoyState.ONE: (Basis.Z, 1),
    DecoyState.PLUS: (Basis.X, 0),
    DecoyState.MINUS: (Basis.X, 1),
}


def bell_state(label):
    """The entangled pair state named by ``label`` over (home, transit).

    ``label`` is a :class:`BellLabel` or a (flip, phase) pair of bits;
    anything else raises ``ValueError``.
    """
    try:
        if isinstance(label, BellLabel):
            return _BELL_STATES[(label.flip, label.phase)]
        return _BELL_STATES[tuple(label)]
    except (KeyError, TypeError):
        raise ValueError(
            "unknown Bell label %r; expected a BellLabel or one of "
            "(0, 0), (0, 1), (1, 0), (1, 1)" % (label,)
        ) from None


def _unknown_decoy(label):
    return ValueError(
        "unknown decoy label %r; expected a DecoyState: %s"
        % (label, ", ".join(member.name for member in DecoyState))
    )


def prepare_decoy(label):
    """A lone transit qubit in one of the four decoy preparations."""
    try:
        return _DECOY_STATES[label]
    except (KeyError, TypeError):
        raise _unknown_decoy(label) from None


def decoy_basis_and_bit(label):
    """The basis containing the decoy state and the outcome bit naming it."""
    try:
        return _DECOY_BASIS_BIT[label]
    except (KeyError, TypeError):
        raise _unknown_decoy(label) from None


def _basis_code(basis):
    """The kernels' code for a measurement basis: 0 for Z, 1 for X."""
    if basis is _Z:
        return 0
    if basis is _X:
        return 1
    raise ValueError("not a measurement basis: %r" % (basis,))


# Chance points.  A random step is written as a generator that yields one
# ``(kind, data)`` point per random choice and is sent the answer:
#
# * ``(BERNOULLI, p)``: True with probability ``p``, else False;
# * ``(CHOICE, answers)``: the index of one ``(index, probability)`` pair,
#   with its probability, every one positive: the Bell label, or the decoy
#   label at 1/4 each;
# * ``(BIT, party)``: a message bit of Bob's or Charlie's, 0 or 1, each at
#   weight 1.0.  The bits are the round's root, not chance: no draw ever
#   answers this point.
#
# ``protocol.leaf_weights`` answers each point of the protocol's round with
# every answer and its probability, along every path of answers: the exact
# distribution of the round's leaves from each root, from which its
# sessions draw one leaf per round (``protocol.run_protocol``).
BERNOULLI, CHOICE, BIT = "b", "choice", "bit"
FAIR_COIN = (BERNOULLI, 0.5)


def drive(steps, rng):
    """Run ``steps`` of Bernoulli points to its end, answering each ``u < p``
    for a uniform ``u`` from ``rng``.  Only ``protocol.measure_qubit`` and
    ``adversary.Eavesdropper``, kept for the traced benchmark, draw this way."""
    answer = None
    try:
        while True:
            _, p = steps.send(answer)
            answer = rng.random() < p
    except StopIteration as stop:
        return stop.value


def _outcome_point(amps, pos, basis):
    """The Bernoulli point of measuring qubit ``pos`` of ``amps`` in the
    kernels' ``basis``: outcome 0 when ``u < p0``.

    Each outcome's probability is one pass of its kernel over ``amps``:
    ``prob_zero`` for outcome 0, ``prob_one`` for outcome 1.  An outcome of
    probability at or below ``backend.PROBABILITY_FLOOR``, onto which
    ``backend.collapse`` refuses to project, gets an empty interval: p0 is
    then exactly 1.0 or 0.0, so no draw answers it, however close to 1 the
    other outcome's sum rounds.  Otherwise p0 is capped at 1 to absorb
    floating-point rounding.
    """
    p_zero = _k.prob_zero(amps, pos, basis)
    if _k.prob_one(amps, pos, basis) <= _k.PROBABILITY_FLOOR:
        return (BERNOULLI, 1.0)
    if p_zero <= _k.PROBABILITY_FLOOR:
        return (BERNOULLI, 0.0)
    return (BERNOULLI, min(p_zero, 1.0))


class TransitionTable:
    """The state edges of the protocol's compiled rounds, each built once.

    An edge is a source state plus an operation: a Pauli, a measurement in
    a basis (of the probe too, which drops it), a probe attach or the Bell
    measurement.  On its first visit an edge is built from the kernels, and
    a child state of a value the table has not built yet through
    ``JointState(...)``, so every state the table holds is validated once.
    Later visits reuse it: a Pauli or an attach gives its child; a
    measurement gives its chance point (the probability of outcome 0) and
    the children built so far.  A measurement child is built only for an
    outcome that is answered, because collapsing onto a zero-probability
    outcome raises.

    The sampled operations are chance-point steps (``measure_points``,
    ``bell_points``), whose points carry the floats the kernels gave on the
    first visit.

    Edges are keyed by the identity of the source state (and of the
    operands, which are enum singletons, so no ``Enum.__hash__`` runs), and
    each value holds the source state, so an id is not reused while the
    table lives.  Children are interned by value: a kernel output equal to
    a state the table already built, amplitudes and register, is that
    state, so a state reached along two paths is one node.  (Equal
    amplitudes may differ in the sign of a zero, which no probability or
    outcome depends on.)  A table thus grows with the distinct states a
    round can reach (a bounded number), not with its paths or the number
    of rounds or sessions.

    An experiment samples from one table: every trial draws from it.
    ``compiled`` holds the protocol's compiled rounds over it, by schedule
    and attack model: the four roots' ``protocol.leaf_weights`` lists, by
    2 * j + k for Bob's and Charlie's bits (j, k), which one walk of the
    round builds.  The first reader walks it, and the weights depend only
    on the kernels' floats, so a session gives the same results on a table
    other sessions used as on a fresh one.  A table is not kept across
    experiments, so two runs of one experiment build, and validate, the
    same states.
    """

    __slots__ = ("_paulis", "_measures", "_attaches", "_bells", "_nodes", "compiled")

    def __init__(self):
        self._paulis = {}  # (id(state), id(which), id(pauli)) -> (state, child)
        self._measures = {}  # (id(state), id(which), id(basis)) -> [state, point, child0, child1]
        self._attaches = {}  # (id(state), beta_sq) -> (state, child)
        self._bells = {}  # id(state) -> (state, point)
        self._nodes = {}  # (amps, id(subsystems)) -> the child state of that value
        self.compiled = {}

    def _child(self, amps, subsystems):
        """The table's state over a kernel output: built and validated on
        its value's first sight, the same state after that.

        ``subsystems`` is one of the four prebuilt registers, which every
        state holds (:class:`JointState`), so its id names it: the key
        hashes no enum member."""
        key = (amps, id(subsystems))
        state = self._nodes.get(key)
        if state is None:
            state = self._nodes[key] = JointState(amps, subsystems)
        return state

    def __len__(self):
        """The number of edges built."""
        return len(self._paulis) + len(self._measures) + len(self._attaches) + len(self._bells)

    def pauli(self, state, which, pauli):
        """``pauli`` on the named subsystem of ``state``.

        ``Pauli.I`` returns ``state`` itself, and builds no edge.
        """
        if pauli is _PAULI_I:
            return state
        key = (id(state), id(which), id(pauli))
        edge = self._paulis.get(key)
        if edge is None:
            # Kernel op codes: 1 bit flip, 2 phase flip.
            if pauli is _PAULI_X:
                op = 1
            elif pauli is _PAULI_Z:
                op = 2
            else:
                raise ValueError("not a Pauli operator: %r" % (pauli,))
            pos = state.position(which)
            child = self._child(_k.apply_1q(state.amps, pos, op), state.subsystems)
            edge = self._paulis[key] = (state, child)
        return edge[1]

    def measure_points(self, state, which, basis):
        """A projective measurement as one Bernoulli point: ``(outcome,
        state after it)``, outcome 0 naming |0> or |+>.

        The state after it is the collapsed state, except when the measured
        qubit is Eve's probe: it is read in its {|chi0>, |chi1>} basis,
        ``Basis.Z`` (any other basis raises ``ValueError``), and dropped, so
        the child is the unprobed register, built in the same edge.
        """
        key = (id(state), id(which), id(basis))
        edge = self._measures.get(key)
        if edge is None:
            if which is _ANCILLA and basis is not _Z:
                raise ValueError("Eve's probe is read in Basis.Z, got %r" % (basis,))
            point = _outcome_point(state.amps, state.position(which), _basis_code(basis))
            edge = self._measures[key] = [state, point, None, None]
        outcome = 0 if (yield edge[1]) else 1
        child = edge[2 + outcome]
        if child is None:
            pos = state.position(which)
            amps = _k.collapse(state.amps, pos, _basis_code(basis), outcome)
            if which is _ANCILLA:
                child = self._child(_k.discard_qubit(amps, pos, outcome), _PAIR if state.has_home else _LONE)
            else:
                child = self._child(amps, state.subsystems)
            edge[2 + outcome] = child
        return outcome, child

    def attach(self, state, beta_sq):
        """A fresh two-level probe coupled to the transit qubit of ``state``.

        With alpha = sqrt(1 - beta_sq) and beta = sqrt(beta_sq), the
        coupling sends |0> to alpha |0>|chi0> + beta |1>|chi1> and |1> to
        alpha |1>|chi0> + beta |0>|chi1>, with {|chi0>, |chi1>} the probe's
        orthonormal states.  The extension is unitary, so the norm is
        preserved; a state that already carries a probe raises
        ``ValueError``.  ``beta_sq`` is not checked here: the callers pass
        an ``AttackModel``'s, which lies in [0, 1].  A phase on alpha or
        beta would change no probability, since the probe is read in
        {|chi0>, |chi1>}.
        """
        key = (id(state), beta_sq)
        edge = self._attaches.get(key)
        if edge is None:
            if state.has_ancilla:
                raise ValueError("state already carries a probe qubit")
            alpha, beta = math.sqrt(1.0 - beta_sq), math.sqrt(beta_sq)
            if state.has_home:
                child = self._child(_k.attach_ancilla(state.amps, 1, alpha, beta), _PROBED_PAIR)
            else:
                child = self._child(_k.attach_ancilla(state.amps, 0, alpha, beta), _PROBED_LONE)
            edge = self._attaches[key] = (state, child)
        return edge[1]

    def bell_points(self, state):
        """Alice's measurement of (home, transit) in the entangled basis, as
        one choice point: ``(label, eigenstate)``.  The point lists the
        labels of positive probability only, so a zero-probability label is
        never an answer.
        """
        edge = self._bells.get(id(state))
        if edge is None:
            if state.has_ancilla:
                raise ValueError("cannot Bell-measure while an eavesdropper probe is attached")
            if state.subsystems != _PAIR:
                raise ValueError("Bell measurement needs the full (home, transit) pair")
            answers = tuple((index, p) for index, p in enumerate(_k.bell_probs(state.amps)) if p > 0.0)
            edge = self._bells[id(state)] = (state, (CHOICE, answers))
        return _BELL_OUTCOMES[(yield edge[1])]


def check_real(name, value):
    """``value``, unchanged, when it is a real number.

    Raises ``ValueError`` naming the field ``name`` for a bool, a string or
    any other value that is not a real number.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be a real number, got %r" % (name, value))
    return value


def check_probability(name, value):
    """``value``, unchanged, when it is a real number in [0, 1].

    Raises ``ValueError`` naming the field ``name`` for a value that
    :func:`check_real` rejects and for one outside [0, 1] (NaN included).
    """
    if not 0.0 <= check_real(name, value) <= 1.0:
        raise ValueError("%s must lie in [0, 1], got %r" % (name, value))
    return value


def check_integer(name, value, least):
    """``value`` as an ``int`` when it is an integer (numpy's included) of at
    least ``least``.

    Raises ``ValueError`` naming the field ``name`` for a bool, a float or
    any other value that is not an integer, and for one below ``least``.
    """
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if index < least:
        raise ValueError("%s must be >= %d, got %d" % (name, least, index))
    return index
