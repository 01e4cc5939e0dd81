"""Three-party round state machine.

One round moves a single entangled pair through the triangle
Alice -> Bob -> Charlie -> Alice.  Bob may sacrifice the round to check the
A-B leg; otherwise he encodes his bit (or runs control mode and does
nothing), Charlie either encodes his bit, turns the round into a decoy
check of the C-A leg, or (when Bob ran control mode) checks the channel
with Alice.  Completed message rounds end with Alice's Bell measurement and
a masked public announcement; every classical utterance lands in the
:class:`PublicTranscript`, which an eavesdropper may read in full.

Bit conventions: Bob's bit selects identity/bit-flip on the transit qubit,
Charlie's selects identity/phase-flip, so an honest Bell outcome is exactly
(bob_bit, charlie_bit).  Alice masks the outcome with her own bit before
announcing, and each party recovers the other two messages by XOR.

The round is written once, as chance-point steps (``_round_points``):
each random choice is a point the round yields and is answered, Bernoulli
choices against a threshold (the schedule, Eve's gate, the check bases,
every measurement outcome, Eve's probe), choices among answers that carry
their probabilities (the decoy label, the Bell measurement) and Bob's and
Charlie's bits where they encode (see the chance points in ``states``).  A session does not run this body per round.
The body is compiled into its leaves, kept in the experiment's
:class:`~qsdc3.states.TransitionTable` per schedule and attack model:
:func:`leaf_weights` runs the steps once along every path of answers, and
gives each root, Bob's and Charlie's bits (j, k), the exact probability of
each :class:`Leaf` a path ends at.  :func:`analytic_detection_probability`
sums these weights, and sessions draw from them: a round is one draw, one
bisection of its root's cumulative leaf weights and one append of the leaf
it picks.  A session returns its leaf sequence, and its records,
transcript events and Eve's records are built from the leaves the first
time they are read (:class:`ProtocolResult`).  ``harness.run_experiment``
draws every trial's leaf counts from the same weights without a session.

Randomness: a session draws one double per round from its injected
generator, in round order, served from ``random(256)`` blocks of it; the
double picks the round's leaf by cumulative weight (:func:`run_protocol`).
So a seeded generator fixes every leaf of a session.  The session's
caller chooses its messages: the CLI's demo draws them with one
``integers(0, 2, 3n)`` call (:meth:`MessageTriple.random`), while an
experiment draws every trial's messages in blocks (``harness``) and runs
no session.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, MappingView, Set
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

from .adversary import AttackKind, AttackModel, ChannelSegment, EveRecord, attack_points, resolve_points
from .states import (
    BERNOULLI,
    BIT,
    CHOICE,
    FAIR_COIN,
    Basis,
    BellLabel,
    DecoyState,
    Pauli,
    Subsystem,
    TransitionTable,
    bell_state,
    check_integer,
    check_probability,
    decoy_basis_and_bit,
    drive,
    prepare_decoy,
)

_DECOY_LABELS = (DecoyState.ZERO, DecoyState.ONE, DecoyState.PLUS, DecoyState.MINUS)

# Constants of the round body.  Enum members are read from module globals
# (see the note in states.py), and their names and values through
# ``_name_`` and ``_value_``, which skip the Python-level ``name`` and
# ``value`` properties.  Every round starts from the same pair.
_Z, _X = Basis.Z, Basis.X
_HOME, _TRANSIT = Subsystem.HOME, Subsystem.TRANSIT
_PAULI_I, _PAULI_X, _PAULI_Z = Pauli.I, Pauli.X, Pauli.Z
_A_TO_B = ChannelSegment.A_TO_B
_B_TO_C = ChannelSegment.B_TO_C
_C_TO_A = ChannelSegment.C_TO_A
_START_PAIR = bell_state((0, 0))
_DECOY_LABEL = (CHOICE, ((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)))
_BOB_BIT, _CHARLIE_BIT = (BIT, "bob"), (BIT, "charlie")
# The roots, Bob's and Charlie's bits (j, k), in the order 2 * j + k.
_ROOTS = ((0, 0), (0, 1), (1, 0), (1, 1))
# The indices of the roots whose bits start with a path's bit answers, by
# those answers: none, Bob's, or Bob's and Charlie's.
_ROOTS_OF = {
    bits: tuple(index for index, root in enumerate(_ROOTS) if root[: len(bits)] == bits)
    for bits in ((), (0,), (1,)) + _ROOTS
}

# A decoy round's (revealed label value, prepared state, check basis,
# expected bit), indexed by the answer to its ``_DECOY_LABEL`` point.
_DECOYS = tuple(
    (label._value_, prepare_decoy(label)) + decoy_basis_and_bit(label) for label in _DECOY_LABELS
)


class RoundKind(Enum):
    BOB_EAVESDROP_CHECK = "ab_check"
    BOB_CONTROL_CHECK = "ca_check"
    CHARLIE_DECOY_CHECK = "decoy_check"
    MESSAGE = "message"


_AB_CHECK = RoundKind.BOB_EAVESDROP_CHECK
_CA_CHECK = RoundKind.BOB_CONTROL_CHECK
_DECOY_CHECK = RoundKind.CHARLIE_DECOY_CHECK
_MESSAGE = RoundKind.MESSAGE


class AbortPolicy(Enum):
    STRICT = "strict"
    RECORD_AND_CONTINUE = "record_and_continue"


@dataclass(frozen=True)
class MessageTriple:
    """The three parties' secret bit strings; all must have equal length."""

    alice_bits: tuple
    bob_bits: tuple
    charlie_bits: tuple

    def __post_init__(self):
        for name in ("alice_bits", "bob_bits", "charlie_bits"):
            object.__setattr__(self, name, _bits(name, getattr(self, name)))
        n = len(self.alice_bits)
        if n < 1:
            raise ValueError("messages must contain at least one bit")
        if len(self.bob_bits) != n or len(self.charlie_bits) != n:
            raise ValueError("all three messages must have the same length")

    @property
    def length(self):
        return len(self.alice_bits)

    @classmethod
    def random(cls, n, rng):
        """Three random ``n``-bit messages from one ``integers(0, 2)`` draw:
        Alice's, Bob's and Charlie's bits in that order.  An ``n`` that is
        not an integer (a bool included) or is below 1 raises ``ValueError``
        before anything is drawn."""
        # Any integer passes, so that one below 1 gets the empty-message error.
        n = check_integer("n", n, float("-inf"))
        if n < 1:
            raise ValueError("messages must contain at least one bit")
        bits = rng.integers(0, 2, size=3 * n).tolist()
        return cls(bits[:n], bits[n : 2 * n], bits[2 * n :])


def _bits(name, values):
    """``values`` as a tuple of ints, when each is exactly 0 or 1 (bools and
    numpy integers included); anything else raises ``ValueError`` naming
    ``name`` and the first value that is not, as do ``values`` that are not
    iterable and a set, a mapping or a dict view, whose order (or whose
    deduplicated members) would stand in for the message."""
    if isinstance(values, (Set, Mapping, MappingView)):
        raise ValueError("%s must be an ordered sequence of bits, got %r" % (name, values))
    try:
        values = iter(values)
    except TypeError:
        raise ValueError("%s must be iterable, got %r" % (name, values)) from None
    bits = []
    for value in values:
        try:
            bit = int(value)
        except (TypeError, ValueError, OverflowError):
            bit = None
        if bit not in (0, 1) or bit != value:
            raise ValueError("%s must contain only bits 0 and 1, got %r" % (name, value))
        bits.append(bit)
    return tuple(bits)


@dataclass(frozen=True)
class SchedulePolicy:
    """Per-round Bernoulli choices: Bob's check, Bob's control mode,
    Charlie's control (decoy) mode.

    Each probability is stored as a ``float``.  A bool, a string or any
    other value that is not a real number in [0, 1] raises ``ValueError``
    naming its field (``states.check_probability``).
    """

    p_ab_check: float = 0.25
    p_bob_cm: float = 0.25
    p_charlie_cm: float = 0.25

    def __post_init__(self):
        for name in ("p_ab_check", "p_bob_cm", "p_charlie_cm"):
            object.__setattr__(self, name, float(check_probability(name, getattr(self, name))))


class TranscriptEvent(NamedTuple):
    round_index: int
    kind: str
    payload: dict

    def to_dict(self):
        return {"round": self.round_index, "kind": self.kind, **self.payload}


# The payload field names of each event kind, by kind and number of values.
# A check disclosure names the checker's outcome too, except for a decoy.
_FIELDS = {
    ("bob_mode", 1): ("mode",),
    ("charlie_mode", 1): ("mode",),
    ("decoy_reveal", 1): ("state",),
    ("check_disclosure", 4): ("check", "basis", "checker_outcome", "alice_outcome"),
    ("check_disclosure", 3): ("check", "basis", "alice_outcome"),
    ("check_verdict", 2): ("check", "passed"),
    ("announcement", 2): ("x", "y"),
}


class PublicTranscript:
    """Ordered log of everything sent over the classical channel.

    Contains mode announcements, check basis/outcome disclosures, decoy
    reveals, check verdicts and the masked (x, y) announcements - and
    nothing quantum.  The adversary is allowed to read it in full.

    An event is stored as a positional row ``(round_index, kind, values)``,
    with ``values`` in the field order ``_FIELDS`` gives for the kind; the
    payload dicts of :class:`TranscriptEvent` are built only when read.
    """

    def __init__(self):
        self._rows = []

    def add(self, round_index, kind, *values):
        self._rows.append((round_index, kind, values))

    @property
    def events(self):
        """Every event in order, as :class:`TranscriptEvent` values."""
        return [
            TranscriptEvent(round_index, kind, dict(zip(_FIELDS[kind, len(values)], values)))
            for round_index, kind, values in self._rows
        ]

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self.events)

    def decoy_reveals(self):
        """round_index -> revealed decoy label value."""
        return {
            round_index: values[0]
            for round_index, kind, values in self._rows
            if kind == "decoy_reveal"
        }


@dataclass(slots=True)
class RoundRecord:
    """Everything one protocol round produced."""

    kind: RoundKind
    message_index: int | None = None
    alice_bit: int | None = None
    bob_bit: int | None = None
    charlie_bit: int | None = None
    bell_outcome: BellLabel | None = None
    announcement: tuple | None = None
    check_passed: bool | None = None
    attack_touched: tuple = ()


class _SessionView:
    """The records, transcript and Eve's records of a session, built from
    its ``messages`` and ``leaves`` together the first time one is read."""

    @cached_property
    def _built(self):
        return _materialise(self.messages, self.leaves)

    @property
    def records(self):
        """One :class:`RoundRecord` per round, in round order."""
        return self._built[0]

    @property
    def transcript(self):
        """The session's :class:`PublicTranscript`."""
        return self._built[1]

    @property
    def eve_records(self):
        """Eve's :class:`~qsdc3.adversary.EveRecord` values, in round order."""
        return self._built[2]


class ProtocolAborted(_SessionView, Exception):
    """A check failed under the strict abort policy.

    Carries the session's messages and its leaf sequence up to and
    including the failing round (``leaves``), and reads the failing round's
    index, check kind and attacked segments from the last leaf; its
    records, transcript and Eve's records are built from them the first
    time one is read.
    """

    def __init__(self, messages, leaves):
        self.messages = messages
        self.leaves = leaves
        self.round_index = len(leaves) - 1
        self.check_kind = leaves[-1].kind
        self.touched_segments = tuple(leaves[-1].touched)
        segs = ",".join(s.value for s in self.touched_segments) or "none"
        super().__init__(
            "communication aborted: %s failed at round %d (attacked segments: %s)"
            % (self.check_kind.value, self.round_index, segs)
        )


class RoundBudgetExceeded(Exception):
    """The round budget ran out before all message bits were delivered:
    ``max_rounds`` rounds ran and ``delivered`` of ``length`` bits were
    delivered."""

    def __init__(self, max_rounds, delivered, length):
        self.max_rounds = max_rounds
        self.delivered = delivered
        self.length = length
        super().__init__(
            "budget of %d rounds exhausted with %d of %d bits delivered" % (max_rounds, delivered, length)
        )


def default_budget(length):
    """The rounds a session of ``length`` message bits may use by default."""
    return 1000 + 50 * length


def encode_bob(j):
    """Bob's encoding: 0 -> identity, 1 -> bit flip on the transit qubit."""
    return _PAULI_X if j else _PAULI_I


def encode_charlie(k):
    """Charlie's encoding: 0 -> identity, 1 -> phase flip on the transit qubit."""
    return _PAULI_Z if k else _PAULI_I


def announce(r, s, i):
    """Alice masks the Bell outcome (r, s) with her own bit before announcing."""
    return r ^ i, s ^ i


def decode_alice(x, y, i):
    """Alice recovers (bob_bit, charlie_bit) from the announcement."""
    return x ^ i, y ^ i


def decode_bob(x, y, j):
    """Bob recovers (alice_bit, charlie_bit)."""
    return x ^ j, x ^ y ^ j


def decode_charlie(x, y, k):
    """Charlie recovers (alice_bit, bob_bit)."""
    return y ^ k, x ^ y ^ k


def decode_errors(x, y, i, j, k):
    """How many of the two bits it recovers from the announcement (x, y)
    each party decodes wrong, when Alice, Bob and Charlie hold (i, j, k):
    Alice's, Bob's and Charlie's count.  Alice recovers (j, k), Bob (i, k)
    and Charlie (i, j); an undisturbed round gives (0, 0, 0)."""
    decoded = (decode_alice(x, y, i), decode_bob(x, y, j), decode_charlie(x, y, k))
    return tuple((a != p) + (b != q) for (a, b), (p, q) in zip(decoded, ((j, k), (i, k), (i, j))))


def _correlation_points(table, state, check):
    """Shared core of the A-B and C-A channel checks, as chance points on ``table``.

    The holder of the transit qubit picks a uniformly random basis and
    measures; Alice measures her home qubit in the same basis.  An honest
    pair anti-correlates in Z and correlates in X.  Returns ``(passed,
    state, events)``, the events being the disclosure and the verdict as
    ``(kind, *values)`` rows.
    """
    basis = _Z if (yield FAIR_COIN) else _X
    checker_bit, state = yield from table.measure_points(state, _TRANSIT, basis)
    alice_bit, state = yield from table.measure_points(state, _HOME, basis)
    if basis is _Z:
        passed = checker_bit != alice_bit
    else:
        passed = checker_bit == alice_bit
    events = (
        ("check_disclosure", check, basis._name_, checker_bit, alice_bit),
        ("check_verdict", check, passed),
    )
    return passed, state, events


def _decoy_points(table, basis, expected, received):
    """Alice's check of a decoy on the C->A leg, like :func:`_correlation_points`:
    it passes when her outcome in the revealed decoy's ``basis`` is ``expected``."""
    outcome, state = yield from table.measure_points(received, _TRANSIT, basis)
    passed = outcome == expected
    events = (
        ("check_disclosure", "decoy", basis._name_, outcome),
        ("check_verdict", "decoy", passed),
    )
    return passed, state, events


def measure_qubit(state, which, basis, rng):
    """``(outcome, collapsed state)``: one subsystem measured with one draw
    from ``rng``, kept for the traced benchmark, which looks it up here."""
    return drive(TransitionTable().measure_points(state, which, basis), rng)


@dataclass(frozen=True)
class DecodedMessages:
    """Each party's view of the other two messages, in message order."""

    alice_view_bob: tuple
    alice_view_charlie: tuple
    bob_view_alice: tuple
    bob_view_charlie: tuple
    charlie_view_alice: tuple
    charlie_view_bob: tuple


class ProtocolResult(_SessionView):
    """A completed session: its messages and its leaf sequence.

    ``leaves`` holds the :class:`Leaf` each round reached, in round order;
    every record, transcript event and Eve's record of the session is a
    function of those leaves and the messages.  ``records``, ``transcript``
    and ``eve_records`` are built from them together the first time one is
    read, and ``decoded`` from the records when it is first read, so a
    caller that only counts leaves builds none of them.
    """

    def __init__(self, messages, leaves):
        self.messages = messages
        self.leaves = leaves
        self.rounds_used = len(leaves)

    @cached_property
    def decoded(self):
        """Each party's :class:`DecodedMessages`."""
        return _decode_all(self.records)


# Doubles drawn per ``random(_BLOCK)`` call of a session's generator.  A
# session leaves its generator advanced by whole blocks, so the state it
# leaves depends on this size; the pinned session streams
# (``TestPinnedDrawStreams``) record that state.
_BLOCK = 256


def _uniforms(rng):
    """The doubles of ``rng.random(_BLOCK)`` blocks, in order: a callable that
    returns the next one.  ``chain`` moves to the next block in C, so a
    served draw runs no Python frame."""
    blocks = iter(lambda: rng.random(_BLOCK).tolist(), None)
    return chain.from_iterable(blocks).__next__


def _round_points(table, schedule, model):
    """One round, as chance points, Bob's and Charlie's bits among them.

    The states are walked through ``table``, which Eve shares; she acts
    only on the hops her model covers, and her steps append her records.
    Returns ``(kind, check passed, Bell label, decoy family, events, Eve's
    records)``: the family is the basis of a decoy check's decoy, else
    None; the transcript events are ``(kind, *values)`` rows, without the
    round index and without a message round's announcement, which depends
    on Alice's bit; Eve's records carry round index -1.
    """
    eve = []
    covered = model.covered

    # Alice keeps the home qubit and sends the transit qubit to Bob.
    pair = _START_PAIR
    if _A_TO_B in covered:
        pair = yield from attack_points(table, model, _A_TO_B, pair, eve)

    # Bob either checks the A->B leg or goes on to encode.
    if (yield (BERNOULLI, schedule.p_ab_check)):
        passed, pair, events = yield from _correlation_points(table, pair, "ab")
        yield from resolve_points(table, pair, eve)
        return _AB_CHECK, passed, None, None, events, eve

    bob_cm = yield (BERNOULLI, schedule.p_bob_cm)
    if not bob_cm:
        pair = table.pauli(pair, _TRANSIT, encode_bob((yield _BOB_BIT)))
    if _B_TO_C in covered:
        pair = yield from attack_points(table, model, _B_TO_C, pair, eve)

    # Charlie confirms receipt; only then does Bob announce his mode.
    if bob_cm:
        passed, pair, events = yield from _correlation_points(table, pair, "ca")
        yield from resolve_points(table, pair, eve)
        return _CA_CHECK, passed, None, None, (("bob_mode", "CM"),) + events, eve

    if (yield (BERNOULLI, schedule.p_charlie_cm)):
        # Decoy round: Charlie abandons the encoded qubit (Bob's bit will be
        # retransmitted in a later round) and sends a random decoy instead.
        yield from resolve_points(table, pair, eve)
        reveal, decoy, basis, expected = _DECOYS[(yield _DECOY_LABEL)]
        if _C_TO_A in covered:
            decoy = yield from attack_points(table, model, _C_TO_A, decoy, eve)
        passed, decoy, events = yield from _decoy_points(table, basis, expected, decoy)
        yield from resolve_points(table, decoy, eve)
        events = (("bob_mode", "MM"), ("charlie_mode", "CM"), ("decoy_reveal", reveal)) + events
        return _DECOY_CHECK, passed, None, basis, events, eve

    pair = table.pauli(pair, _TRANSIT, encode_charlie((yield _CHARLIE_BIT)))
    if _C_TO_A in covered:
        pair = yield from attack_points(table, model, _C_TO_A, pair, eve)

    # Alice's Bell measurement closes the round; any probe must be read out
    # (by Eve) before the pair is jointly measured.
    pair = yield from resolve_points(table, pair, eve)
    outcome, _ = yield from table.bell_points(pair)
    return _MESSAGE, None, outcome, None, (("bob_mode", "MM"), ("charlie_mode", "MM")), eve


class Leaf(NamedTuple):
    """Where a path of answers through the round ends: everything a round
    that reaches it shows, apart from its round index and Alice's bit.

    ``path`` is Bob's and Charlie's bits (j, k) followed by every answer
    that leads to the leaf, bits included, ``u < p`` for a Bernoulli point.
    ``family`` is the
    basis of a decoy check's decoy, Z ({|0>, |1>}) or X ({|+>, |->}), and
    None for every other round: the decoy family split of the enumerator
    and of the report reads it.  ``events`` are the round's transcript
    rows, as ``(kind, *values)``, without a message round's announcement;
    ``eve`` holds Eve's records as their field tuples after the round
    index, and ``touched`` their segments in the order she acted on them.
    ``leakage_keys`` holds, for a message round, the key ``(x, y, i, j,
    k)`` for Alice's bit i = 0 and 1: the announcement and the three secret
    bits; it is None for a check.  :func:`run_protocol` reads ``kind`` and
    ``passed`` by index, so they stay first and third.

    A leaf is built once per table and root (:func:`leaf_weights`) and then
    reached by every round that ends there, so it hashes and compares by
    identity, and a session's leaf sequence is counted as it is.
    """

    kind: RoundKind
    path: tuple
    passed: bool | None
    touched: tuple
    label: BellLabel | None
    family: Basis | None
    events: tuple
    eve: tuple
    leakage_keys: tuple | None

    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


def leaf_weights(table, schedule, model, j, k):
    """Every leaf of the compiled round of ``schedule`` and ``model`` on
    ``table`` from the root of Bob's and Charlie's bits (j, k), with its
    exact probability: ``[(weight, leaf), ...]``.

    One depth-first pass over the steps of :func:`_round_points` weighs
    all four roots.  Each chance point is answered with every answer of
    positive probability, which are exactly the answers a draw can give
    (see ``states._outcome_point``): a Bernoulli point's ``p`` and
    ``1 - p``, each choice answer at the probability it carries (1/4 for
    each decoy label), and a bit's 0 and 1 at weight 1.  The first answer
    goes on with the paused steps, and each other answer replays the round
    along its path: the table gives both the same states and points.  A
    Bernoulli point, the commonest, pushes its True and False children
    straight onto the walk's stack.  A path ends at a leaf of each root
    whose bits start with the path's bit answers (Bob's come first; the
    roots are looked up by those answers), and each root gets a
    :class:`Leaf` of its own, its leakage keys the leaf's announcement
    pairs with the root's bits appended.  A root's leaves come in answer
    order; a weight is the product of its path's probabilities, taken from
    the root down.

    The four lists are built on the first call for a table, and kept in
    ``table.compiled`` by 2 * j + k; every later call returns one of them,
    so every reader of a table sees the same leaves.
    """
    roots = table.compiled.get((schedule, model))
    if roots is not None:
        return roots[2 * j + k]
    roots = ([], [], [], [])
    stack = [(1.0, (), (), None)]
    push = stack.append
    while stack:
        weight, path, bits, steps = stack.pop()
        try:
            if steps is None:
                steps = _round_points(table, schedule, model)
                point = steps.send(None)
                for answer in path:
                    point = steps.send(answer)
            else:
                point = steps.send(path[-1])
        except StopIteration as stop:
            kind, passed, label, family, events, eve = stop.value
            touched = tuple(record.segment for record in eve)
            eve = tuple((r.segment, r.kind, r.basis, r.outcome, r.ancilla_outcome) for r in eve)
            # The announcement and Alice's bit, for i = 0 and 1; each root
            # appends its bits.
            masked = None
            if label is not None:
                masked = [announce(label.flip, label.phase, i) + (i,) for i in (0, 1)]
            for index in _ROOTS_OF[bits]:
                root = _ROOTS[index]
                keys = None if masked is None else (masked[0] + root, masked[1] + root)
                leaf = Leaf(kind, root + path, passed, touched, label, family, events, eve, keys)
                roots[index].append((weight, leaf))
            continue
        kind, data = point
        # The first child goes on with the paused steps; its siblings replay.
        if kind is BERNOULLI:
            q = 1.0 - data
            if data > 0.0:
                if q > 0.0:
                    push((weight * q, path + (False,), bits, None))
                push((weight * data, path + (True,), bits, steps))
            else:
                push((weight * q, path + (False,), bits, steps))
            continue
        if kind is BIT:
            children = [(weight, path + (bit,), bits + (bit,)) for bit in (0, 1)]
        else:
            children = [(weight * p, path + (answer,), bits) for answer, p in data]
        stack += [child + (None,) for child in reversed(children[1:])]
        push(children[0] + (steps,))
    table.compiled[schedule, model] = roots
    return roots[2 * j + k]


# ---------------------------------------------------------------------------
# Exact detection probabilities by enumeration.

# The schedule that makes every round a check of one kind.  Its points weigh
# exactly 1.0 and 0.0, and the 0.0 branches are dropped, so it scales no
# branch of the round.
_FORCING_SCHEDULES = {
    _AB_CHECK: SchedulePolicy(1.0, 0.0, 0.0),
    _CA_CHECK: SchedulePolicy(0.0, 1.0, 0.0),
    _DECOY_CHECK: SchedulePolicy(0.0, 0.0, 1.0),
}


def analytic_detection_probability(model, check_kind, decoy_family=None):
    """Exact per-check detection probability for an attack model.

    Weighs the compiled round (:func:`leaf_weights`, the leaves sessions
    sample) under a schedule that makes every round a check of
    ``check_kind``, a check :class:`RoundKind` or its value: every answer
    to every chance point - the checkers' bases, the decoy label, Eve's
    gate and basis, each measurement outcome - with its exact probability,
    no sampling.  The three check-forced rounds are weighed on a fresh
    table (:func:`failed_weights`), each read from the root of the bits
    (0, 0).  The result is the summed weight of the leaves whose check
    failed.

    ``decoy_family`` restricts decoy checks to the Z family ({|0>, |1>})
    or the X family ({|+>, |->}): only the rounds that reveal a decoy of
    the family count, and their weight is divided by the family's 1/2.  By
    default all four decoy states count.  Each family's failed weight is
    summed on its own and the decoy check's is their sum, so a decoy
    check's value is exactly the mean of its two families' values.

    The value is the row formula (:func:`detection_from_failed`) read from
    the kind's entry of :func:`failed_weights`, the one weighing an
    experiment's report (``harness``) reads its five rows from too.

    Raises ``ValueError`` for a ``model`` that is not an
    :class:`~qsdc3.adversary.AttackModel`, for the null attack, for a
    ``check_kind`` that is not a check round kind or its value, for a
    ``decoy_family`` other than None, ``Basis.Z`` and ``Basis.X``, and for a
    family given with a check other than the decoy check.
    """
    if not isinstance(model, AttackModel):
        raise ValueError("model must be of type AttackModel, got %r" % (model,))
    if model.kind is AttackKind.NONE:
        raise ValueError("detection probability is defined for active attacks only")
    kind = RoundKind(check_kind)
    if kind not in _FORCING_SCHEDULES:
        raise ValueError("%r is not a check round kind" % (check_kind,))
    if decoy_family is not None:
        if decoy_family not in (_Z, _X):
            raise ValueError("decoy_family must be None, Basis.Z or Basis.X, got %r" % (decoy_family,))
        if kind is not _DECOY_CHECK:
            raise ValueError("a decoy family applies to the decoy check only, not %r" % (check_kind,))
    return detection_from_failed(failed_weights(model)[kind], decoy_family)


def failed_weights(model):
    """The failed weights of every check kind's forced round, by its
    :class:`RoundKind`, all three weighed on one fresh table: a state they
    share is built and validated once.  The weights are those of a fresh
    table per kind, since a table's weights depend only on the kernels'
    floats.

    A kind's failed weight is a dict by the failed leaf's decoy family, the
    basis of its decoy, with None for a pair check (see
    :func:`analytic_detection_probability`)."""
    table = TransitionTable()
    weights = {}
    for kind, schedule in _FORCING_SCHEDULES.items():
        failed = weights[kind] = {None: 0.0, _Z: 0.0, _X: 0.0}
        for weight, leaf in leaf_weights(table, schedule, model, 0, 0):
            if leaf.passed is False:
                failed[leaf.family] += weight
    return weights


def detection_from_failed(failed, decoy_family=None):
    """The detection probability of one row from the failed weights of one
    forced round (:func:`failed_weights`): their sum, or a decoy family's
    weight divided by the family's 1/2."""
    if decoy_family is not None:
        total = failed[decoy_family] / 0.5
    else:
        total = failed[None] + failed[_Z] + failed[_X]
    # Weights are never negative, but rounding may carry a sum past 1.
    return min(total, 1.0)


def _materialise(messages, leaves):
    """The records, transcript and Eve's records of a session of
    ``messages`` that reached ``leaves``, in round order: the n-th message
    round announces under Alice's n-th bit."""
    records = []
    eve_records = []
    transcript = PublicTranscript()
    add = transcript.add
    alice = messages.alice_bits
    n = 0
    for round_index, leaf in enumerate(leaves):
        kind, _, passed, touched, label, _, events, eve, keys = leaf
        for event in events:
            add(round_index, *event)
        for fields in eve:
            eve_records.append(EveRecord(round_index, *fields))
        if kind is _MESSAGE:
            i = alice[n]
            x, y, _, j, k = keys[i]
            add(round_index, "announcement", x, y)
            records.append(RoundRecord(_MESSAGE, n, i, j, k, label, (x, y), None, touched))
            n += 1
        else:
            records.append(RoundRecord(kind, None, None, None, None, None, None, passed, touched))
    return records, transcript, eve_records


def _decode_all(records):
    """Apply :func:`decode_alice`, :func:`decode_bob` and
    :func:`decode_charlie` to every message round's announcement and its
    decoder's own bit; message records come in message order."""
    views = []
    for rec in records:
        if rec.kind is _MESSAGE:
            x, y = rec.announcement
            views.append(
                decode_alice(x, y, rec.alice_bit) + decode_bob(x, y, rec.bob_bit) + decode_charlie(x, y, rec.charlie_bit)
            )
    return DecodedMessages(*map(tuple, zip(*views)))


def run_protocol(
    messages,
    schedule,
    rng,
    attack=None,
    abort_policy=AbortPolicy.STRICT,
    max_rounds=None,
    table=None,
):
    """Run the full protocol until every message bit is delivered.

    Check rounds never consume a message bit.  Under the strict policy any
    failed check aborts the communication (:class:`ProtocolAborted`); under
    record-and-continue failures are logged and the run completes, which is
    how detection rates are estimated without restarting.

    Round r draws the r-th double ``u`` of ``rng``, served from
    ``rng.random(256)`` blocks (the generator ends the session advanced by
    whole blocks).  Its root is Bob's and Charlie's bits (j, k) of the
    message bit it carries, the n-th when n message rounds came before it,
    and its leaf is the first of that root's leaves of positive weight whose
    running sum exceeds ``u`` (the last one when none does), by bisection.
    The root changes only when a bit is delivered, so the session reads it
    once per message bit: before the first round and after each message
    round that leaves a bit to send.  The compiled round of ``schedule``
    and ``attack`` lives in ``table``, a
    :class:`~qsdc3.states.TransitionTable`, or in a fresh one when
    ``table`` is None; the first reader of a table walks it
    (:func:`leaf_weights`), and every session sums the same leaves' weights.
    Which table a session uses does not change its results.

    An argument of the wrong type, or an ``rng`` without a callable
    ``random``, raises ``ValueError`` naming it before anything is drawn.  The
    session may use ``max_rounds`` rounds, an integer >= 1 (else
    ``ValueError``), by default :func:`default_budget` of the message
    length; when they run out before the last bit is delivered, as under a
    schedule with a probability of 1, it raises :class:`RoundBudgetExceeded`.

    The session returns its leaf sequence: a round costs its draw, one
    bisection and one append.  The :class:`ProtocolResult` builds the
    records, transcript, Eve's records and decoded messages from the leaves
    the first time one is read; a strict abort carries the leaves up to and
    including the failing round, and builds its records likewise.
    """
    model = attack if attack is not None else AttackModel.none()
    types = {"messages": MessageTriple, "schedule": SchedulePolicy, "attack": AttackModel, "abort_policy": AbortPolicy}
    for (name, kind), value in zip(types.items(), (messages, schedule, model, abort_policy)):
        if not isinstance(value, kind):
            raise ValueError("%s must be of type %s, got %r" % (name, kind.__name__, value))
    if table is None:
        table = TransitionTable()
    elif not isinstance(table, TransitionTable):
        raise ValueError("table must be of type TransitionTable, got %r" % (table,))
    if not callable(getattr(rng, "random", None)):
        raise ValueError("rng must be of type Generator, or have a callable random, got %r" % (rng,))
    choices = []
    for j, k in _ROOTS:
        drawable = [(weight, leaf) for weight, leaf in leaf_weights(table, schedule, model, j, k) if weight > 0.0]
        # The total is left out, so a draw at or above the last sum picks the last leaf.
        choices.append((list(accumulate(weight for weight, _ in drawable))[:-1], [leaf for _, leaf in drawable]))
    leaves = []
    reached = leaves.append
    random = _uniforms(rng)
    bob, charlie = messages.bob_bits, messages.charlie_bits
    n_total = messages.length
    max_rounds = default_budget(n_total) if max_rounds is None else check_integer("max_rounds", max_rounds, 1)
    strict = abort_policy is AbortPolicy.STRICT

    n = 0
    bounds, options = choices[2 * bob[0] + charlie[0]]
    for round_index in range(max_rounds):
        leaf = options[bisect_right(bounds, random())]
        reached(leaf)
        # The leaf's kind and check verdict, read by index.
        if leaf[0] is _MESSAGE:
            n += 1
            if n == n_total:
                break
            bounds, options = choices[2 * bob[n] + charlie[n]]
        elif strict and leaf[2] is False:
            raise ProtocolAborted(messages, leaves)
    else:
        raise RoundBudgetExceeded(max_rounds, n, n_total)

    return ProtocolResult(messages, leaves)
