"""State-vector kernels: the hot inner-loop operations on one round's register.

A round holds at most three qubits (home, transit and Eve's probe), so these
plain-Python loops over at most eight amplitudes are the one implementation.
:mod:`qsdc3.states` calls them through this module (``backend.collapse``,
...) rather than importing the names, so a wrapper set on this module (as
the traced benchmark run does) sees every call.

Amplitude vectors travel as plain tuples of complex numbers of length 2, 4
or 8.  The kernels that return one (``apply_1q``, ``collapse``,
``attach_ancilla``, ``discard_qubit``) build it of ``complex`` whatever
numbers they are given; the others (``norm_sq``, ``prob_zero``,
``prob_one``, ``bell_probs``) return probabilities as floats.  Index 0 is
the all-|0> basis state; the leftmost qubit owns the most significant bit,
so a qubit at position ``pos`` (0 = leftmost) toggles the bit of weight
``len(amps) >> (pos + 1)``.

The kernels are plain functions with no cache: the round engine reuses
their results through the session's ``states.TransitionTable``.
"""

import math

# The squared norm at or below which an outcome cannot happen: ``collapse``
# refuses to project onto it, and ``states`` gives it no interval to draw.
PROBABILITY_FLOOR = 1e-300


def active_backend():
    """Name of the kernel implementation, as recorded in run metadata."""
    return "python"


def norm_sq(amps):
    total = 0.0
    for a in amps:
        total += a.real * a.real + a.imag * a.imag
    return total


def apply_1q(amps, pos, op):
    """Apply a bit flip (op=1) or a phase flip (op=2) at pos."""
    out = list(map(complex, amps))
    n_amps = len(amps)
    stride = n_amps >> (pos + 1)
    if op == 1:
        for i in range(n_amps):
            if not i & stride:
                out[i], out[i | stride] = out[i | stride], out[i]
    elif op == 2:
        for i in range(n_amps):
            if i & stride:
                out[i] = -out[i]
    else:
        raise ValueError("unknown single-qubit op code %r" % (op,))
    return tuple(out)


def prob_zero(amps, pos, basis):
    """Probability of outcome 0 when measuring qubit pos (basis 0=Z, 1=X).

    Outcome 0 names the first eigenstate: |0> in Z, |+> in X.
    """
    n_amps = len(amps)
    stride = n_amps >> (pos + 1)
    total = 0.0
    if basis == 0:
        for i in range(n_amps):
            if not i & stride:
                a = amps[i]
                total += a.real * a.real + a.imag * a.imag
    else:
        for i in range(n_amps):
            if not i & stride:
                c = amps[i] + amps[i | stride]
                total += 0.5 * (c.real * c.real + c.imag * c.imag)
    return total


def prob_one(amps, pos, basis):
    """Probability of outcome 1 when measuring qubit pos (basis 0=Z, 1=X).

    Outcome 1 names the second eigenstate: |1> in Z, |-> in X.  The terms
    and their order are those of ``prob_zero`` after the flip that swaps
    the basis's eigenstates (``apply_1q`` op ``1 + basis``), so the float
    is the same.
    """
    n_amps = len(amps)
    stride = n_amps >> (pos + 1)
    total = 0.0
    if basis == 0:
        for i in range(n_amps):
            if not i & stride:
                a = amps[i | stride]
                total += a.real * a.real + a.imag * a.imag
    else:
        for i in range(n_amps):
            if not i & stride:
                c = amps[i] - amps[i | stride]
                total += 0.5 * (c.real * c.real + c.imag * c.imag)
    return total


def collapse(amps, pos, basis, outcome):
    """Project qubit pos onto the given outcome and renormalize."""
    n_amps = len(amps)
    stride = n_amps >> (pos + 1)
    out = [0j] * n_amps
    if basis == 0:
        want = stride if outcome else 0
        for i in range(n_amps):
            if (i & stride) == want:
                out[i] = amps[i]
    else:
        sign = -1.0 if outcome else 1.0
        for i in range(n_amps):
            if not i & stride:
                c = 0.5 * (amps[i] + sign * amps[i | stride])
                out[i] = c
                out[i | stride] = sign * c
    p = 0.0
    for a in out:
        p += a.real * a.real + a.imag * a.imag
    if p <= PROBABILITY_FLOOR:
        raise ValueError("cannot collapse onto a zero-probability outcome")
    scale = 1.0 / math.sqrt(p)
    return tuple([complex(a * scale) for a in out])


def bell_probs(amps):
    """Squared overlaps of a 4-amplitude state with the four entangled
    basis states, ordered by label (flip, phase): (0,0), (0,1), (1,0), (1,1).
    """
    a0, a1, a2, a3 = amps
    c = a1 + a2
    p00 = 0.5 * (c.real * c.real + c.imag * c.imag)
    c = a2 - a1
    p01 = 0.5 * (c.real * c.real + c.imag * c.imag)
    c = a0 + a3
    p10 = 0.5 * (c.real * c.real + c.imag * c.imag)
    c = a0 - a3
    p11 = 0.5 * (c.real * c.real + c.imag * c.imag)
    return (p00, p01, p10, p11)


def attach_ancilla(amps, transit_pos, alpha, beta):
    """Extend the register with a two-level probe coupled to the transit qubit.

    The coupling maps |0> -> alpha |0>|chi0> + beta |1>|chi1> and
    |1> -> alpha |1>|chi0> + beta |0>|chi1| on the transit qubit; the probe
    becomes the new least significant qubit.
    """
    n_amps = len(amps)
    stride = n_amps >> (transit_pos + 1)
    out = [0j] * (2 * n_amps)
    for i in range(n_amps):
        a = amps[i]
        out[i << 1] = complex(alpha * a)
        out[((i ^ stride) << 1) | 1] = complex(beta * a)
    return tuple(out)


def discard_qubit(amps, pos, bit):
    """Drop a qubit already collapsed to |bit> (its other branch is empty)."""
    n_amps = len(amps)
    stride = n_amps >> (pos + 1)
    want = stride if bit else 0
    out = []
    for i in range(n_amps):
        if (i & stride) == want:
            out.append(complex(amps[i]))
    return tuple(out)
