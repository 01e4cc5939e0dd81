"""Span tracer for the traced benchmark run, wrapped around qsdc3's layers.

Nothing inside ``src/`` changes: :func:`traced` replaces each layer entry
point with a timing wrapper on the module or class where its caller looks it
up (``protocol.measure_qubit``, ``backend.collapse``, ...), and puts every
original back on exit.  A span has a name, start, end and parent.  Every
span is aggregated (calls and self time = duration minus the part
its child spans cover); spans are kept in memory for every protocol session,
every span outside sessions, and every span inside the first session of each
experiment, and written out when the run ends.
"""

import contextlib
import itertools
import statistics
import sys
import time

from qsdc3 import adversary, backend, cli, harness, protocol, states

# Kernels whose result is an amplitude vector (the rest return probabilities).
_AMPLITUDE_KERNELS = {"apply_1q", "collapse", "attach_ancilla", "discard_qubit"}
_KERNELS = ("norm_sq", "apply_1q", "prob_zero", "collapse", "bell_probs", "attach_ancilla", "discard_qubit")
_BYTES_PER_AMPLITUDE = 16  # one complex128


class Tracer:
    """Collects spans from the wrappers it hands out."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.own = []
        self.spans = []  # kept spans: (name slot, start, end, id, parent id)
        self.kernel_bytes = 0
        self.keep = True
        self.first_session = True
        self._ids = itertools.count()
        self._stack = [[0.0, 0.0, -1]]  # [start, time covered by children, id]

    def slot(self, name):
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.own.append(0.0)
        return self.names.index(name)

    def wrap(self, name, fn, always_keep=False, after=None):
        """A traced stand-in for ``fn``; ``after(args, result)`` runs untimed."""
        slot = self.slot(name)
        stack, clock, ids, close = self._stack, time.perf_counter, self._ids, self._close

        def traced(*args, **kwargs):
            frame = [clock(), 0.0, next(ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(slot, frame, always_keep)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _close(self, slot, frame, always_keep):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.calls[slot] += 1
        self.own[slot] += duration - frame[1]
        parent = self._stack[-1]
        parent[1] += duration
        if always_keep or self.keep:
            self.spans.append((slot, frame[0], end, frame[2], parent[2]))

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        slot = self.slot(name)
        frame = [time.perf_counter(), 0.0, next(self._ids)]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._close(slot, frame, True)

    def stats(self, name):
        """(calls, self seconds) of one span name."""
        if name not in self.names:
            return 0, 0.0
        i = self.names.index(name)
        return self.calls[i], self.own[i]

    def durations(self, name):
        if name not in self.names:
            return []
        i = self.names.index(name)
        return [end - start for slot, start, end, _, _ in self.spans if slot == i]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for slot, start, end, span_id, parent in self.spans:
                fh.write("%d,%d,%s,%.9f,%.9f\n" % (span_id, parent, self.names[slot], start, end))


class _CountingGenerator:
    """Forwards to a numpy Generator; every method call is one ``rng`` span."""

    def __init__(self, generator, tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        method = self._tracer.wrap("rng", getattr(self._generator, name))
        setattr(self, name, method)
        return method


class _Overlay:
    """Attribute lookups fall through to ``base`` except for the overrides."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _entry_points(tracer):
    """(owner, attribute, replacement factory) for every traced entry point."""

    def plain(name, always_keep=False):
        return lambda fn: tracer.wrap(name, fn, always_keep)

    def experiment(fn):
        traced_fn = tracer.wrap("harness", fn)

        def run_experiment(*args, **kwargs):
            tracer.first_session = True
            return traced_fn(*args, **kwargs)

        return run_experiment

    def session(fn):
        traced_fn = tracer.wrap("protocol.session", fn, always_keep=True)

        def run_protocol(*args, **kwargs):
            tracer.keep, tracer.first_session = tracer.first_session, False
            try:
                return traced_fn(*args, **kwargs)
            finally:
                tracer.keep = True

        return run_protocol

    def kernel(name):
        amplitudes_out = name in _AMPLITUDE_KERNELS

        def count_bytes(args, result):
            moved = len(args[0]) + (len(result) if amplitudes_out else 0)
            tracer.kernel_bytes += _BYTES_PER_AMPLITUDE * moved

        return lambda fn: tracer.wrap("states.kernel", fn, after=count_bytes)

    def counting_numpy(real_np):
        def default_rng(*args, **kwargs):
            return _CountingGenerator(real_np.random.default_rng(*args, **kwargs), tracer)

        return _Overlay(real_np, random=_Overlay(real_np.random, default_rng=default_rng))

    measure = plain("states.measure")
    check = plain("protocol.check")
    dispatch = plain("adversary.dispatch")
    points = [
        (cli, "parse_run_config", plain("cli.parse")),
        (cli, "render_json", plain("cli.render")),
        (harness, "run_experiment", experiment),
        (harness.ExperimentResult, "to_dict", plain("harness")),
        (harness, "run_protocol", session),
        (harness, "np", counting_numpy),
        # The harness's exact-reference lookup; it calls the enumerator
        # (analytic_detection_probability) when the attack can reach a check.
        (harness._Aggregator, "_analytic", plain("adversary.enumerate")),
        (protocol, "run_ab_check", check),
        (protocol, "run_ca_check", check),
        (protocol, "run_decoy_check", check),
        (protocol.PublicTranscript, "add", plain("protocol.transcript")),
        (protocol, "measure_qubit", measure),
        (protocol, "bell_measure", measure),
        (adversary, "measure_qubit", measure),
        (adversary, "measure_ancilla_and_discard", measure),
        (adversary.Eavesdropper, "intercept_transit", dispatch),
        (adversary.Eavesdropper, "intercept_decoy", dispatch),
        (adversary.Eavesdropper, "resolve_probe", dispatch),
        (states.JointState, "__post_init__", plain("states.validate")),
    ]
    points += [(backend, name, kernel(name)) for name in _KERNELS]
    return points


@contextlib.contextmanager
def traced():
    """Install a fresh :class:`Tracer` on every entry point; restore on exit."""
    tracer = Tracer()
    patched = []
    try:
        for owner, attr, make in _entry_points(tracer):
            if attr not in vars(owner):
                print("trace: %s has no %s; not traced" % (owner.__name__, attr), file=sys.stderr)
                continue
            original = vars(owner)[attr]
            patched.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer, results):
    """Per-layer metrics of one traced solve, keyed by name: (value, unit)."""
    metrics = {}

    def add(span, calls_metric, seconds_metric):
        calls, own = tracer.stats(span)
        metrics[calls_metric] = (calls, "count")
        metrics[seconds_metric] = (own, "s")

    add("states.validate", "states.validate_calls", "states.validate_s")
    add("states.kernel", "states.kernel_calls", "states.kernel_s")
    metrics["states.kernel_bytes"] = (tracer.kernel_bytes, "B")
    add("states.measure", "states.measure_calls", "states.measure_s")
    add("rng", "rng.draws", "rng.s")

    rounds = sum(r.rounds_total for r in results)
    message_rounds = sum(r.leakage.rounds_audited for r in results)
    sessions_ms = [1e3 * d for d in tracer.durations("protocol.session")]
    metrics["protocol.rounds"] = (rounds, "count")
    metrics["protocol.message_round_share"] = (message_rounds / rounds, "ratio")
    metrics["protocol.session_ms_p50"] = (_quantile(sessions_ms, 0.5), "ms")
    metrics["protocol.session_ms_p90"] = (_quantile(sessions_ms, 0.9), "ms")
    metrics["protocol.session_samples"] = (len(sessions_ms), "count")
    metrics["protocol.self_s"] = (tracer.stats("protocol.session")[1], "s")
    add("protocol.transcript", "protocol.transcript_events", "protocol.transcript_s")
    add("protocol.check", "protocol.check_calls", "protocol.check_s")

    metrics["adversary.actions"] = (sum(r.eve.actions for r in results), "count")
    add("adversary.dispatch", "adversary.dispatch_calls", "adversary.dispatch_s")
    add("adversary.enumerate", "adversary.enumerate_calls", "adversary.enumerate_s")

    metrics["harness.trials"] = (tracer.stats("protocol.session")[0], "count")
    metrics["harness.self_s"] = (tracer.stats("harness")[1], "s")
    metrics["cli.parse_s"] = (tracer.stats("cli.parse")[1], "s")
    metrics["cli.render_s"] = (tracer.stats("cli.render")[1], "s")
    return metrics
