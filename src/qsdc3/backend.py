"""State-vector kernels: the hot inner-loop operations on one round's register.

A round holds at most three qubits (home, transit and Eve's probe), so these
plain-Python loops over at most eight amplitudes are the one implementation.
:mod:`qsdc3.states` calls them through this module (``backend.collapse``,
...) rather than importing the names, so a wrapper set on this module (as
the traced benchmark run does) sees every call.

Amplitude vectors travel as plain tuples of complex numbers of length 2, 4
or 8.  Index 0 is the all-|0> basis state; the leftmost qubit owns the most
significant bit, so a qubit at position ``pos`` (0 = leftmost) toggles the
bit of weight ``len(amps) >> (pos + 1)``.

Memoisation
-----------
Every kernel is a pure function of hashable arguments, and for a fixed
attack model a round can only reach a handful of amplitude vectors, so each
kernel is wrapped in ``functools.lru_cache(maxsize=CACHE_SIZE)``.  The
largest working set of one kernel on the acceptance workloads is 144
entries (``collapse`` over the five couplings of the probe sweep; 40 under
intercept-resend and 12 without an attack), so a bound of 256 never evicts
there, while a sweep of any length keeps the caches under 2 MB (1.5 MB
with all seven full of 3-qubit states).  Keys compare with ``==``, so
``0j`` and ``-0j`` share an entry; every probability drawn from is a sum
of squares, so no sampled outcome changes.  Exceptions are not cached:
``collapse`` raises on every zero-probability call.

The caches sit beneath the module attributes: a wrapper set on this module
replaces the cached function and still sees (and counts) every call, while
the cached function underneath answers it.  :func:`cache_info` reaches
the caches through their own registry, so it works while such a wrapper is
installed.
"""

import functools
import math

CACHE_SIZE = 256

_CACHED = {}  # kernel name -> its lru_cache wrapper


def _memoised(kernel):
    cached = functools.lru_cache(maxsize=CACHE_SIZE)(kernel)
    _CACHED[kernel.__name__] = cached
    return cached


def cache_info():
    """``functools`` cache statistics of every kernel, keyed by kernel name."""
    return {name: cached.cache_info() for name, cached in _CACHED.items()}


def active_backend():
    """Name of the kernel implementation, as recorded in run metadata."""
    return "python"


@_memoised
def norm_sq(amps):
    total = 0.0
    for a in amps:
        total += a.real * a.real + a.imag * a.imag
    return total


@_memoised
def apply_1q(amps, pos, op):
    """Apply identity (op=0), bit flip (op=1) or phase flip (op=2) at pos."""
    if op == 0:
        return tuple(amps)
    n_amps = len(amps)
    stride = n_amps >> (pos + 1)
    out = list(amps)
    if op == 1:
        for i in range(n_amps):
            if not i & stride:
                out[i] = amps[i | stride]
                out[i | stride] = amps[i]
    elif op == 2:
        for i in range(n_amps):
            if i & stride:
                out[i] = -amps[i]
    else:
        raise ValueError("unknown single-qubit op code %r" % (op,))
    return tuple(out)


@_memoised
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


@_memoised
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
    if p <= 1e-300:
        raise ValueError("cannot collapse onto a zero-probability outcome")
    scale = 1.0 / math.sqrt(p)
    return tuple(a * scale for a in out)


@_memoised
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


@_memoised
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
        out[i << 1] = alpha * a
        out[((i ^ stride) << 1) | 1] = beta * a
    return tuple(out)


@_memoised
def discard_qubit(amps, pos, bit):
    """Drop a qubit already collapsed to |bit> (its other branch is empty)."""
    n_amps = len(amps)
    stride = n_amps >> (pos + 1)
    want = stride if bit else 0
    out = []
    for i in range(n_amps):
        if (i & stride) == want:
            out.append(amps[i])
    return tuple(out)
