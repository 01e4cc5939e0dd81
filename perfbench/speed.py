"""Host-speed reference: timed solves paced by a fixed reference loop.

The shared host this benchmark was built on changes its speed by up to 2x
over seconds to minutes; process CPU time tracks wall time, so it is not
descheduling but other tenants' load, and no statistic taken over one run
removes it.  Every timed solve (and each set-up process, see ``bench.py``)
is therefore paced: after a protocol session
(``harness.run_protocol``, one per trial), once ``PACE_S`` of program time
has passed since the last one, a *reference unit* runs.  A unit is a fixed
piece of Python and small-numpy work that never touches qsdc3, so it slows
down with the host but not with the program.  Its time is taken out of the
solve's wall time, and the solve is rescaled to the host speed at which one
unit takes ``REFERENCE_UNIT_S``:

    reference-speed seconds = wall seconds * REFERENCE_UNIT_S / mean unit time

The units are spread through the solve, so their mean time follows the
host's speed over it.  A change to qsdc3 moves the wall seconds and not the
units; a change of host load moves both.
"""

import contextlib
import statistics
import time

import numpy as np
from qsdc3 import harness

# About the mean time of one reference unit between trials on the host the
# baseline in README.md comes from; it only fixes the unit of the scale.
REFERENCE_UNIT_S = 0.008
# Program time between reference units (about a fifth of it again goes to units).
PACE_S = 0.025
_STATE = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)


def reference_unit(steps=200):
    """Fixed work shaped like a protocol round: small complex arrays,
    scalar draws, ``complex()`` conversions and dict traffic."""
    rng = np.random.default_rng(12345)
    table = {}
    total = 0.0
    for step in range(steps):
        state = _STATE.copy()
        joint = np.kron(state[:2], state[2:])
        norm = float(np.vdot(joint, joint).real)
        if rng.random() < norm:
            total += abs(complex(joint[1]))
        table[step & 63] = [complex(x) for x in state]
        total += sum(abs(z) for z in table[step & 63])
    return total


class Pacer:
    """Reference units run around and inside one timed piece of work."""

    def __init__(self):
        self.units = []
        self.opening = 0
        self.last = time.perf_counter()

    def unit(self):
        start = time.perf_counter()
        reference_unit()
        self.last = time.perf_counter()
        self.units.append(self.last - start)

    def after_session(self):
        if time.perf_counter() - self.last >= PACE_S:
            self.unit()

    def begin(self, count=1):
        """Start a piece of work: forget earlier units, run ``count``."""
        self.units = []
        for _ in range(count):
            self.unit()
        self.opening = count

    def inner_seconds(self):
        """Seconds spent in units since :meth:`begin` returned."""
        return sum(self.units[self.opening :])

    def end(self, count=1):
        """Run ``count`` closing units; reference-speed seconds per wall
        second of the work."""
        for _ in range(count):
            self.unit()
        return REFERENCE_UNIT_S / statistics.fmean(self.units)

    @contextlib.contextmanager
    def installed(self):
        """Pace every protocol session the harness runs."""
        original = vars(harness)["run_protocol"]

        def run_protocol(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                self.after_session()

        harness.run_protocol = run_protocol
        try:
            yield self
        finally:
            harness.run_protocol = original
