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
* All measurement sampling draws from an injected ``numpy.random.Generator``
  (one uniform ``random()`` draw per measurement); there is no global
  randomness.  A protocol session may serve these draws from bulk blocks
  of a ``PCG64`` generator (see ``protocol.run_protocol``): the values are
  the same, in the same order, and the generator ends in the same state.

Construction
------------
Every :class:`JointState` is validated: register, amplitude count and norm.
States built from outside (``JointState(...)``, and through it the Bell
pairs and decoys) first convert their amplitudes to ``complex``.  States
derived by an operation here (a Pauli, a collapse, a probe attach or
discard) are built by ``_from_kernel``: a kernel's output is already a
tuple of ``complex`` over the input state's register, so only that
conversion is skipped.  The checks still run on these states, because a
faulty kernel must not hand an invalid state to the round engine, and
because each validation is a counted benchmark layer.

The round engine walks a :class:`TransitionTable`, one per session, so a
derived state is built and validated once per distinct value in the
session, not once per round.  The public operations (``measure_qubit``,
``bell_measure``, ...) run the same code on a fresh table per call: they
are not memoised, and each result is validated once.

The probe coupling's coefficients are checked where they enter: by
``check_coupling``, which the public ``attach_ancilla_and_entangle`` and
``AttackModel`` run.  Eve's attach goes through ``TransitionTable.attach``,
which trusts the coefficients of her already checked model.

Registers are constants: the transit qubit sits after the home qubit when
there is one, and the probe is always last, so positions come from
``has_home`` and attach and discard pick a prebuilt register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import backend as _k

NORM_ATOL = 1e-12
AMP_ATOL = 1e-9
COEFF_NORM_ATOL = 1e-9

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


# Members read on the per-round path.  ``EnumType`` defines a Python-level
# ``__getattr__``, which makes every ``Basis.Z`` a slow class lookup (about
# 0.2 us on CPython 3.11); a module global costs a tenth of that.
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
    are set there too.

    States derived by the operations of this module skip only the
    conversion (see ``_from_kernel``); ``__post_init__`` runs on every state.
    """

    amps: tuple
    subsystems: tuple
    has_home: bool = field(init=False, compare=False, repr=False)
    has_ancilla: bool = field(init=False, compare=False, repr=False)

    def __init__(self, amps, subsystems):
        _set_amps(self, tuple(map(complex, amps)))
        _set_subsystems(self, tuple(subsystems))
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
        _set_has_home(self, subsystems[0] is _HOME)
        _set_has_ancilla(self, subsystems[-1] is _ANCILLA)

    @property
    def n_qubits(self):
        return len(self.subsystems)

    def position(self, which):
        """Index of a subsystem in the register; ``ValueError`` if absent."""
        if which is _TRANSIT:
            return 1 if self.has_home else 0
        if which is _HOME and self.has_home:
            return 0
        if which is _ANCILLA and self.has_ancilla:
            return 2 if self.has_home else 1
        raise ValueError("state has no %s qubit" % which.value)


# The slot setters write past the frozen ``__setattr__``, as the
# ``object.__setattr__`` calls of a generated frozen ``__init__`` would.
_set_amps = JointState.amps.__set__
_set_subsystems = JointState.subsystems.__set__
_set_has_home = JointState.has_home.__set__
_set_has_ancilla = JointState.has_ancilla.__set__


def _from_kernel(amps, subsystems):
    """A state over a kernel's output, on a register derived from a valid state.

    Skips only the ``complex`` conversion of ``JointState(...)``.  Validation
    runs as for every state, through ``__post_init__`` looked up on the
    class.
    """
    state = object.__new__(JointState)
    _set_amps(state, amps)
    _set_subsystems(state, subsystems)
    state.__post_init__()
    return state


def allclose_up_to_global_phase(a, b, atol=AMP_ATOL):
    """True when two states differ only by a global phase (states are rays)."""
    if a.subsystems != b.subsystems:
        return False
    # Phase-align on the largest component of `a`.
    pivot = max(range(len(a.amps)), key=lambda i: abs(a.amps[i]))
    if abs(b.amps[pivot]) < atol < abs(a.amps[pivot]):
        return False
    phase = 1.0 + 0j
    if abs(a.amps[pivot]) > atol:
        phase = (a.amps[pivot] / abs(a.amps[pivot])) / (b.amps[pivot] / abs(b.amps[pivot]))
    return all(abs(x - phase * y) <= atol for x, y in zip(a.amps, b.amps))


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


def apply_pauli(state, which, pauli):
    """Apply a single-qubit operator to the named subsystem.

    ``Pauli.I`` returns ``state`` itself.
    """
    return TransitionTable().pauli(state, which, pauli)


def apply_pauli_on_transit(state, pauli):
    return apply_pauli(state, _TRANSIT, pauli)


def _basis_code(basis):
    """The kernels' code for a measurement basis: 0 for Z, 1 for X."""
    if basis is _Z:
        return 0
    if basis is _X:
        return 1
    raise ValueError("not a measurement basis: %r" % (basis,))


def outcome_probabilities(state, which, basis):
    """Exact (p0, p1) for a projective measurement; no sampling involved."""
    pos = state.position(which)
    p0 = _k.prob_zero(state.amps, pos, _basis_code(basis))
    return p0, 1.0 - p0


def collapse_outcome(state, which, basis, outcome):
    """Deterministic projection onto the given outcome, renormalized."""
    pos = state.position(which)
    return _from_kernel(_k.collapse(state.amps, pos, _basis_code(basis), outcome), state.subsystems)


def _sample_bit(rng, p_zero):
    # Clamp to [0, 1] to absorb floating-point rounding before sampling.
    p = p_zero
    if p < 0.0:
        p = 0.0
    elif p > 1.0:
        p = 1.0
    return 0 if rng.random() < p else 1


class TransitionTable:
    """The state edges of one protocol session, each built once.

    An edge is a source state plus an operation: a Pauli, a measurement in
    a basis, a probe attach, a probe readout or the Bell measurement.  On
    its first visit an edge is built from the kernels, and a child state of
    a value the table has not built yet through ``_from_kernel``, so every
    state the table holds is validated once.  Later visits reuse it: a
    Pauli or an attach gives its child; a measurement or a readout gives
    its stored probability of outcome 0 and the children sampled so far.
    A measurement child is built only for an outcome that is drawn,
    because collapsing onto a zero-probability outcome raises.

    Sampling is the same on either visit: one ``rng.random()`` per chance
    point, through ``_sample_bit`` or the Bell cumulative loop, over the
    floats the kernels gave.  So a walk makes the draws and the outcomes
    that calling the kernels every time would.

    Edges are keyed by the identity of the source state (and of the
    operands, which are enum singletons, so no ``Enum.__hash__`` runs), and
    each value holds the source state, so an id is not reused while the
    table lives.  Children are interned by value: a kernel output equal to
    a state the table already built, amplitudes and register, is that
    state, so a state reached along two paths is one node.  (Equal
    amplitudes may differ in the sign of a zero, which no probability or
    outcome depends on.)  A table thus grows with the distinct states a
    round can reach (a bounded number), not with its paths or the number
    of rounds; one table lives for one session.
    """

    __slots__ = ("_paulis", "_measures", "_attaches", "_readouts", "_bells", "_nodes")

    def __init__(self):
        self._paulis = {}  # (id(state), id(which), id(pauli)) -> (state, child)
        self._measures = {}  # (id(state), id(which), id(basis)) -> [state, p0, child0, child1]
        self._attaches = {}  # (id(state), alpha, beta) -> (state, child)
        self._readouts = {}  # id(state) -> [state, p0, child0, child1]
        self._bells = {}  # id(state) -> (state, probabilities)
        self._nodes = {}  # (amps, subsystems) -> the child state of that value

    def _child(self, amps, subsystems):
        """The table's state over a kernel output: built and validated on
        its value's first sight, the same state after that."""
        key = (amps, subsystems)
        state = self._nodes.get(key)
        if state is None:
            state = self._nodes[key] = _from_kernel(amps, subsystems)
        return state

    def __len__(self):
        """The number of edges built."""
        return (
            len(self._paulis)
            + len(self._measures)
            + len(self._attaches)
            + len(self._readouts)
            + len(self._bells)
        )

    def pauli(self, state, which, pauli):
        """:func:`apply_pauli`: ``pauli`` on the named subsystem of ``state``."""
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

    def measure(self, state, which, basis, rng):
        """:func:`measure_qubit`: ``(outcome, collapsed state)``, one draw."""
        key = (id(state), id(which), id(basis))
        edge = self._measures.get(key)
        if edge is None:
            p0 = _k.prob_zero(state.amps, state.position(which), _basis_code(basis))
            edge = self._measures[key] = [state, p0, None, None]
        outcome = _sample_bit(rng, edge[1])
        child = edge[2 + outcome]
        if child is None:
            amps = _k.collapse(state.amps, state.position(which), _basis_code(basis), outcome)
            child = edge[2 + outcome] = self._child(amps, state.subsystems)
        return outcome, child

    def attach(self, state, alpha, beta):
        """:func:`attach_ancilla_and_entangle` for checked coefficients.

        The caller has run ``check_coupling`` on ``alpha`` and ``beta``: the
        public function does, and so does ``AttackModel`` for Eve's model.
        """
        key = (id(state), alpha, beta)
        edge = self._attaches.get(key)
        if edge is None:
            if state.has_ancilla:
                raise ValueError("state already carries a probe qubit")
            if state.has_home:
                child = self._child(_k.attach_ancilla(state.amps, 1, alpha, beta), _PROBED_PAIR)
            else:
                child = self._child(_k.attach_ancilla(state.amps, 0, alpha, beta), _PROBED_LONE)
            edge = self._attaches[key] = (state, child)
        return edge[1]

    def readout(self, state, rng):
        """:func:`measure_ancilla_and_discard`: ``(outcome, state without the probe)``."""
        edge = self._readouts.get(id(state))
        if edge is None:
            if not state.has_ancilla:
                raise ValueError("state has no ancilla qubit")
            # The probe is the last qubit.
            p0 = _k.prob_zero(state.amps, 2 if state.has_home else 1, 0)
            edge = self._readouts[id(state)] = [state, p0, None, None]
        outcome = _sample_bit(rng, edge[1])
        child = edge[2 + outcome]
        if child is None:
            if state.has_home:
                pos, register = 2, _PAIR
            else:
                pos, register = 1, _LONE
            collapsed = _k.collapse(state.amps, pos, 0, outcome)
            child = edge[2 + outcome] = self._child(_k.discard_qubit(collapsed, pos, outcome), register)
        return outcome, child

    def bell(self, state, rng):
        """:func:`bell_measure`: ``(label, eigenstate)``, one draw."""
        edge = self._bells.get(id(state))
        if edge is None:
            if state.has_ancilla:
                raise ValueError("cannot Bell-measure while an eavesdropper probe is attached")
            if state.subsystems != _PAIR:
                raise ValueError("Bell measurement needs the full (home, transit) pair")
            edge = self._bells[id(state)] = (state, _k.bell_probs(state.amps))
        u = rng.random()
        acc = 0.0
        # When rounding leaves u above the total, the last label with positive
        # probability is drawn, never a zero-probability one.
        index = 3
        for i, p in enumerate(edge[1]):
            if p > 0.0:
                acc += p
                index = i
                if u < acc:
                    break
        return _BELL_OUTCOMES[index]


def measure_qubit(state, which, basis, rng):
    """Projectively measure one subsystem.

    Returns ``(outcome, collapsed_state)`` where outcome 0 names the first
    eigenstate of the basis (|0> or |+>).
    """
    return TransitionTable().measure(state, which, basis, rng)


def bell_measure(state, rng):
    """Joint measurement of (home, transit) in the entangled basis.

    Samples a label with its squared-overlap probability and returns the
    label plus the post-measurement eigenstate.  Any probe qubit must have
    been measured out beforehand.
    """
    return TransitionTable().bell(state, rng)


def check_coupling(alpha, beta):
    """The probe coupling's coefficients as complex numbers.

    Raises ``ValueError`` unless |alpha|^2 + |beta|^2 = 1, which is what
    makes the coupling unitary (a NaN coefficient fails this check).
    """
    alpha = complex(alpha)
    beta = complex(beta)
    coeff_norm = alpha.real**2 + alpha.imag**2 + beta.real**2 + beta.imag**2
    if not abs(coeff_norm - 1.0) <= COEFF_NORM_ATOL:
        raise ValueError("|alpha|^2 + |beta|^2 must be 1, got %.12g" % coeff_norm)
    return alpha, beta


def attach_ancilla_and_entangle(state, alpha, beta):
    """Couple a fresh two-level probe to the transit qubit.

    The coupling sends |0> to alpha |0>|chi0> + beta |1>|chi1> and |1> to
    alpha |1>|chi0> + beta |0>|chi1>, with {|chi0>, |chi1>} the probe's
    orthonormal states.  The extension is unitary, so the norm is preserved.
    The coefficients are checked here (``check_coupling``); a state that
    already carries a probe raises ``ValueError``.
    """
    alpha, beta = check_coupling(alpha, beta)
    return TransitionTable().attach(state, alpha, beta)


def measure_ancilla_and_discard(state, rng):
    """Measure the probe in its {|chi0>, |chi1>} basis and drop it.

    This is how an entangle-and-measure eavesdropper reads her probe at the
    end of a round; the remaining register no longer contains the probe.
    A state without a probe raises ``ValueError``.
    """
    return TransitionTable().readout(state, rng)
