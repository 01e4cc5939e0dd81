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
every measurement outcome), the decoy label and the Bell measurement (see
the chance points in ``states``).  A session does not run this body per
round.  The body is compiled into its leaves, kept in the experiment's
:class:`~qsdc3.states.TransitionTable` per schedule, attack model and root
(Bob's and Charlie's bits): :func:`leaf_weights` runs the steps once along
every path of answers, and gives the exact probability of each
:class:`Leaf` a path ends at.  ``adversary.analytic_detection_probability``
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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .adversary import AttackModel, ChannelSegment, EveRecord, attack_points, resolve_points
from .states import (
    BERNOULLI,
    FAIR_COIN,
    LABEL,
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
_DECOY_LABEL = (LABEL, None)

# A decoy round's (revealed label value, prepared state, check basis,
# expected bit), indexed by the round's ``integers(0, 4)`` draw.
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
            object.__setattr__(self, name, tuple(_bit(name, b) for b in getattr(self, name)))
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
        """Three random ``n``-bit messages from one ``integers(0, 2)`` draw.

        The draw gives ints that are exactly 0 or 1, in three strings of
        equal length, so the triple is built without the per-bit checks of
        ``MessageTriple(...)``.
        """
        if n < 1:
            raise ValueError("messages must contain at least one bit")
        bits = rng.integers(0, 2, size=3 * n).tolist()
        triple = object.__new__(cls)
        object.__setattr__(triple, "alice_bits", tuple(bits[:n]))
        object.__setattr__(triple, "bob_bits", tuple(bits[n : 2 * n]))
        object.__setattr__(triple, "charlie_bits", tuple(bits[2 * n :]))
        return triple


def _bit(name, value):
    """``value`` as an int, when it is exactly 0 or 1 (bools and numpy
    integers included); anything else raises ``ValueError``."""
    try:
        bit = int(value)
    except (TypeError, ValueError, OverflowError):
        bit = None
    if bit not in (0, 1) or bit != value:
        raise ValueError("%s must contain only bits 0 and 1, got %r" % (name, value))
    return bit


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
    including the failing round (``leaves``); its records, transcript and
    Eve's records are built from them the first time one is read.
    """

    def __init__(self, round_index, check_kind, touched_segments, messages, leaves):
        self.round_index = round_index
        self.check_kind = check_kind
        self.touched_segments = tuple(touched_segments)
        self.messages = messages
        self.leaves = leaves
        segs = ",".join(s.value for s in self.touched_segments) or "none"
        super().__init__(
            "communication aborted: %s failed at round %d (attacked segments: %s)"
            % (check_kind.value, round_index, segs)
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
# session of the acceptance workloads draws one to two thousand, so a block
# this size keeps both the per-block call and the unused tail of the last
# block small.
_BLOCK = 256


def _uniforms(rng):
    """The doubles of ``rng.random(_BLOCK)`` blocks, in order: a callable that
    returns the next one.  ``chain`` moves to the next block in C, so a
    served draw runs no Python frame."""
    blocks = iter(lambda: rng.random(_BLOCK).tolist(), None)
    return chain.from_iterable(blocks).__next__


def _round_points(table, schedule, model, j, k):
    """One round for Bob's bit ``j`` and Charlie's bit ``k``, as chance points.

    The states are walked through ``table``, which Eve shares.  Returns
    ``(kind, check passed, touched segments, Bell label, decoy family,
    events, Eve's records)``: the family is the basis of a decoy check's
    decoy, else None; the transcript events are ``(kind, *values)`` rows,
    without the round index and without a message round's announcement,
    which depends on Alice's bit; Eve's records carry round index -1.
    """
    touched = []
    eve = []

    def hop(segment, state):
        state, record = yield from attack_points(table, model, segment, state)
        if record is not None:
            eve.append(record)
            touched.append(segment)
        return state

    # Alice keeps the home qubit and sends the transit qubit to Bob.
    pair = yield from hop(_A_TO_B, _START_PAIR)

    # Bob either checks the A->B leg or goes on to encode.
    if (yield (BERNOULLI, schedule.p_ab_check)):
        passed, pair, events = yield from _correlation_points(table, pair, "ab")
        yield from resolve_points(table, pair, eve)
        return _AB_CHECK, passed, touched, None, None, events, eve

    bob_cm = yield (BERNOULLI, schedule.p_bob_cm)
    if not bob_cm:
        pair = table.pauli(pair, _TRANSIT, encode_bob(j))
    pair = yield from hop(_B_TO_C, pair)

    # Charlie confirms receipt; only then does Bob announce his mode.
    if bob_cm:
        passed, pair, events = yield from _correlation_points(table, pair, "ca")
        yield from resolve_points(table, pair, eve)
        return _CA_CHECK, passed, touched, None, None, (("bob_mode", "CM"),) + events, eve

    if (yield (BERNOULLI, schedule.p_charlie_cm)):
        # Decoy round: Charlie abandons the encoded qubit (Bob's bit will be
        # retransmitted in a later round) and sends a random decoy instead.
        yield from resolve_points(table, pair, eve)
        reveal, decoy, basis, expected = _DECOYS[(yield _DECOY_LABEL)]
        decoy = yield from hop(_C_TO_A, decoy)
        passed, decoy, events = yield from _decoy_points(table, basis, expected, decoy)
        yield from resolve_points(table, decoy, eve)
        events = (("bob_mode", "MM"), ("charlie_mode", "CM"), ("decoy_reveal", reveal)) + events
        return _DECOY_CHECK, passed, touched, None, basis, events, eve

    pair = table.pauli(pair, _TRANSIT, encode_charlie(k))
    pair = yield from hop(_C_TO_A, pair)

    # Alice's Bell measurement closes the round; any probe must be read out
    # (by Eve) before the pair is jointly measured.
    pair = yield from resolve_points(table, pair, eve)
    outcome, _ = yield from table.bell_points(pair)
    return _MESSAGE, None, touched, outcome, None, (("bob_mode", "MM"), ("charlie_mode", "MM")), eve


class Leaf(NamedTuple):
    """Where a path of answers through the round ends: everything a round
    that reaches it shows, apart from its round index and Alice's bit.

    ``path`` is Bob's and Charlie's bits (j, k) followed by the answers that
    lead to the leaf, ``u < p`` for a Bernoulli point.  ``family`` is the
    basis of a decoy check's decoy, Z ({|0>, |1>}) or X ({|+>, |->}), and
    None for every other round: the decoy family split of the enumerator
    and of the report reads it.  ``events`` are the round's transcript
    rows, as ``(kind, *values)``, without a message round's announcement;
    ``eve`` holds Eve's records as their field tuples after the round
    index.  ``leakage_keys`` holds, for a message round, the key ``(x, y,
    i, j, k)`` for Alice's bit i = 0 and 1: the announcement and the three
    secret bits; it is None for a check.  :func:`run_protocol` reads
    ``kind`` and ``passed`` by index, so they stay first and third.

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

    One depth-first pass over the steps of :func:`_round_points`.  Each
    chance point is answered with every answer of positive probability,
    which are exactly the answers a draw can give (see
    ``states._outcome_point``): a Bernoulli point's ``p`` and ``1 - p``,
    1/4 for each decoy label, and each Bell threshold less the one before.
    The first answer goes on with the paused steps, and each other answer
    replays the round along its path: the table gives both the same states
    and points.  The leaves come in answer order; a weight is the product
    of its path's probabilities, taken from the root down.

    The list is built on the first call for a table and root, and kept in
    ``table.compiled`` with the cumulative weights sessions draw from
    (:func:`_choices`); every later call returns it, so every reader of a
    table sees the same leaves.
    """
    roots = table.compiled.get((schedule, model))
    if roots is None:
        roots = table.compiled[schedule, model] = [None] * 4
    root = roots[2 * j + k]
    if root is not None:
        return root[2]
    weighed = []
    stack = [(1.0, (j, k), None)]
    while stack:
        weight, path, steps = stack.pop()
        try:
            if steps is None:
                steps = _round_points(table, schedule, model, j, k)
                point = steps.send(None)
                for answer in path[2:]:
                    point = steps.send(answer)
            else:
                point = steps.send(path[-1])
        except StopIteration as stop:
            kind, passed, touched, label, family, events, eve = stop.value
            eve = tuple((r.segment, r.kind, r.basis, r.outcome, r.ancilla_outcome) for r in eve)
            keys = None
            if label is not None:
                keys = tuple(announce(label.flip, label.phase, i) + (i, j, k) for i in (0, 1))
            weighed.append((weight, Leaf(kind, path, passed, tuple(touched), label, family, events, eve, keys)))
            continue
        kind, data = point
        if kind is BERNOULLI:
            answers = ((True, data), (False, 1.0 - data))
        elif kind is LABEL:
            answers = ((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25))
        else:
            answers = []
            below = 0.0
            for cumulative, index in data:
                answers.append((index, cumulative - below))
                below = cumulative
        children = [(weight * p, path + (answer,)) for answer, p in answers if p > 0.0]
        # The first child goes on with the paused steps; its siblings replay.
        stack += [child + (None,) for child in reversed(children[1:])]
        stack.append(children[0] + (steps,))
    bounds, leaves = [], []
    total = 0.0
    for weight, leaf in weighed:
        if weight > 0.0:
            total += weight
            bounds.append(total)
            leaves.append(leaf)
    del bounds[-1]
    roots[2 * j + k] = (bounds, leaves, weighed)
    return weighed


def _choices(table, schedule, model):
    """What a session draws a round's leaf from, per root of the compiled
    round of ``schedule`` and ``model`` on ``table``, by 2 * j + k.

    A root's entry is ``(bounds, leaves, weighed)``: ``weighed`` is its
    :func:`leaf_weights` list, ``leaves`` its leaves of positive weight in
    that order, and ``bounds`` the running sums of their weights, the total
    left out.  A draw ``u`` picks ``leaves[bisect_right(bounds, u)]``, the
    first leaf whose running sum exceeds ``u``; a draw at or above the last
    bound, however the total rounds, picks the last leaf, so no draw
    reaches a leaf of zero weight.  The first call weighs all four roots.
    """
    roots = table.compiled.get((schedule, model))
    if roots is None or None in roots:
        for root in range(4):
            leaf_weights(table, schedule, model, root >> 1, root & 1)
        roots = table.compiled[schedule, model]
    return roots


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
    and its leaf is the first of that root's leaves whose cumulative weight
    exceeds ``u`` (:func:`_choices`).  The root changes only when a bit is
    delivered, so the session reads it once per message bit: before the
    first round and after each message round that leaves a bit to send.
    The compiled round of ``schedule`` and ``attack`` lives in ``table``, a
    :class:`~qsdc3.states.TransitionTable`, or in a fresh one when
    ``table`` is None; the first reader of a table weighs its four roots
    (:func:`leaf_weights`), and later sessions draw from the same leaves
    (``harness.exhaustive_oracle`` passes one table to its eight sessions).
    Which table a session uses does not change its results.

    The session may use ``max_rounds`` rounds, an integer >= 1 (else
    ``ValueError``), by default :func:`default_budget` of the message
    length; when they run out before the last bit is delivered it raises
    :class:`RoundBudgetExceeded`.

    The session returns its leaf sequence: a round costs its draw, one
    bisection and one append.  The :class:`ProtocolResult` builds the
    records, transcript, Eve's records and decoded messages from the leaves
    the first time one is read; a strict abort carries the leaves up to and
    including the failing round, and builds its records likewise.
    """
    if not isinstance(abort_policy, AbortPolicy):
        raise ValueError("abort_policy must be an AbortPolicy, got %r" % (abort_policy,))
    model = attack if attack is not None else AttackModel.none()
    if table is None:
        table = TransitionTable()
    choices = _choices(table, schedule, model)
    leaves = []
    reached = leaves.append
    random = _uniforms(rng)
    bob, charlie = messages.bob_bits, messages.charlie_bits
    n_total = messages.length
    max_rounds = default_budget(n_total) if max_rounds is None else check_integer("max_rounds", max_rounds, 1)
    strict = abort_policy is AbortPolicy.STRICT

    n = 0
    bounds, options, _ = choices[2 * bob[0] + charlie[0]]
    for round_index in range(max_rounds):
        leaf = options[bisect_right(bounds, random())]
        reached(leaf)
        # The leaf's kind and check verdict, read by index.
        if leaf[0] is _MESSAGE:
            n += 1
            if n == n_total:
                break
            bounds, options, _ = choices[2 * bob[n] + charlie[n]]
        elif strict and leaf[2] is False:
            raise ProtocolAborted(round_index, leaf.kind, leaf.touched, messages, leaves)
    else:
        raise RoundBudgetExceeded(max_rounds, n, n_total)

    return ProtocolResult(messages, leaves)
