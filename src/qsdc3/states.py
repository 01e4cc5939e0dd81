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
  (one uniform draw per measurement); there is no global randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


# The legal registers: the transit qubit, optionally preceded by the home
# qubit and followed by the probe, in (home, transit, ancilla) order.
_REGISTERS = (
    (Subsystem.HOME, Subsystem.TRANSIT),
    (Subsystem.HOME, Subsystem.TRANSIT, Subsystem.ANCILLA),
    (Subsystem.TRANSIT,),
    (Subsystem.TRANSIT, Subsystem.ANCILLA),
)


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


@dataclass(frozen=True)
class JointState:
    """Normalized complex amplitude vector over an ordered qubit register.

    Immutable: every operation returns a new value, so states are safe to
    share across threads.

    Construction converts ``subsystems`` to a tuple and every amplitude to
    ``complex``, then checks, in this order, that the register contains the
    transit qubit; that it is one of the four legal registers (transit;
    home, transit; transit, ancilla; home, transit, ancilla); that there are
    ``2 ** len(subsystems)`` amplitudes; and that the squared norm is within
    ``NORM_ATOL`` of 1 (a NaN or infinite amplitude fails this check).
    Each check raises ``ValueError``.  The work is constant-time: the
    register is matched against a fixed tuple and the squared norm comes
    from the memoised ``norm_sq`` kernel.
    """

    amps: tuple
    subsystems: tuple

    def __post_init__(self):
        subsystems = tuple(self.subsystems)
        amps = tuple(map(complex, self.amps))
        object.__setattr__(self, "subsystems", subsystems)
        object.__setattr__(self, "amps", amps)
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

    @property
    def n_qubits(self):
        return len(self.subsystems)

    @property
    def has_ancilla(self):
        return Subsystem.ANCILLA in self.subsystems

    @property
    def has_home(self):
        return Subsystem.HOME in self.subsystems

    def position(self, which):
        try:
            return self.subsystems.index(which)
        except ValueError:
            raise ValueError("state has no %s qubit" % which.value) from None


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


_PAIR = (Subsystem.HOME, Subsystem.TRANSIT)

_BELL_STATES = {
    (0, 0): JointState((0.0, _SQRT_HALF, _SQRT_HALF, 0.0), _PAIR),
    (1, 0): JointState((_SQRT_HALF, 0.0, 0.0, _SQRT_HALF), _PAIR),
    (0, 1): JointState((0.0, -_SQRT_HALF, _SQRT_HALF, 0.0), _PAIR),
    (1, 1): JointState((_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF), _PAIR),
}

_DECOY_STATES = {
    DecoyState.ZERO: JointState((1.0, 0.0), (Subsystem.TRANSIT,)),
    DecoyState.ONE: JointState((0.0, 1.0), (Subsystem.TRANSIT,)),
    DecoyState.PLUS: JointState((_SQRT_HALF, _SQRT_HALF), (Subsystem.TRANSIT,)),
    DecoyState.MINUS: JointState((_SQRT_HALF, -_SQRT_HALF), (Subsystem.TRANSIT,)),
}

_DECOY_BASIS_BIT = {
    DecoyState.ZERO: (Basis.Z, 0),
    DecoyState.ONE: (Basis.Z, 1),
    DecoyState.PLUS: (Basis.X, 0),
    DecoyState.MINUS: (Basis.X, 1),
}


def bell_state(label):
    """The entangled pair state named by ``label`` over (home, transit)."""
    if isinstance(label, BellLabel):
        key = (label.flip, label.phase)
    else:
        key = tuple(label)
    return _BELL_STATES[key]


def prepare_decoy(label):
    """A lone transit qubit in one of the four decoy preparations."""
    return _DECOY_STATES[label]


def decoy_basis_and_bit(label):
    """The basis containing the decoy state and the outcome bit naming it."""
    return _DECOY_BASIS_BIT[label]


def apply_pauli(state, which, pauli):
    """Apply a single-qubit operator to the named subsystem."""
    if pauli is Pauli.I:
        return state
    pos = state.position(which)
    return JointState(_k.apply_1q(state.amps, pos, pauli.value), state.subsystems)


def apply_pauli_on_transit(state, pauli):
    return apply_pauli(state, Subsystem.TRANSIT, pauli)


def outcome_probabilities(state, which, basis):
    """Exact (p0, p1) for a projective measurement; no sampling involved."""
    pos = state.position(which)
    p0 = _k.prob_zero(state.amps, pos, basis.value)
    return p0, 1.0 - p0


def collapse_outcome(state, which, basis, outcome):
    """Deterministic projection onto the given outcome, renormalized."""
    pos = state.position(which)
    return JointState(_k.collapse(state.amps, pos, basis.value, outcome), state.subsystems)


def _sample_bit(rng, p_zero):
    # Clamp to [0, 1] to absorb floating-point rounding before sampling.
    p = p_zero
    if p < 0.0:
        p = 0.0
    elif p > 1.0:
        p = 1.0
    return 0 if rng.random() < p else 1


def measure_qubit(state, which, basis, rng):
    """Projectively measure one subsystem.

    Returns ``(outcome, collapsed_state)`` where outcome 0 names the first
    eigenstate of the basis (|0> or |+>).
    """
    pos = state.position(which)
    p0 = _k.prob_zero(state.amps, pos, basis.value)
    outcome = _sample_bit(rng, p0)
    collapsed = JointState(_k.collapse(state.amps, pos, basis.value, outcome), state.subsystems)
    return outcome, collapsed


def bell_measure(state, rng):
    """Joint measurement of (home, transit) in the entangled basis.

    Samples a label with its squared-overlap probability and returns the
    label plus the post-measurement eigenstate.  Any probe qubit must have
    been measured out beforehand.
    """
    if state.has_ancilla:
        raise ValueError("cannot Bell-measure while an eavesdropper probe is attached")
    if state.subsystems != _PAIR:
        raise ValueError("Bell measurement needs the full (home, transit) pair")
    probs = _k.bell_probs(state.amps)
    u = rng.random()
    acc = 0.0
    # When rounding leaves u above the total, the last label with positive
    # probability is drawn, never a zero-probability one.
    index = 3
    for i, p in enumerate(probs):
        if p > 0.0:
            acc += p
            index = i
            if u < acc:
                break
    label = BellLabel(index >> 1, index & 1)
    return label, _BELL_STATES[(label.flip, label.phase)]


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
    """
    if state.has_ancilla:
        raise ValueError("state already carries a probe qubit")
    alpha, beta = check_coupling(alpha, beta)
    pos = state.position(Subsystem.TRANSIT)
    amps = _k.attach_ancilla(state.amps, pos, alpha, beta)
    return JointState(amps, state.subsystems + (Subsystem.ANCILLA,))


def measure_ancilla_and_discard(state, rng):
    """Measure the probe in its {|chi0>, |chi1>} basis and drop it.

    This is how an entangle-and-measure eavesdropper reads her probe at the
    end of a round; the remaining register no longer contains the probe.
    """
    pos = state.position(Subsystem.ANCILLA)
    p0 = _k.prob_zero(state.amps, pos, Basis.Z.value)
    outcome = _sample_bit(rng, p0)
    collapsed = _k.collapse(state.amps, pos, Basis.Z.value, outcome)
    remaining = _k.discard_qubit(collapsed, pos, outcome)
    return outcome, JointState(remaining, state.subsystems[:pos] + state.subsystems[pos + 1 :])
