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
each draw is a point the round yields and is answered, Bernoulli choices
against a threshold (the schedule, Eve's gate, the check bases, every
measurement outcome), the decoy label and the Bell measurement (see
``states.drive``).  A session does not run this body per round.  It walks a
tree compiled from it, one per schedule and attack model, kept in the
experiment's :class:`~qsdc3.states.TransitionTable`: each node is a chance
point, and its child for an answer is built, by replaying the steps along
the node's answers, the first time that answer is drawn.  A round thus
costs one draw and one comparison per chance point, and one append of the
:class:`Leaf` it reaches: a session returns its leaf sequence, and its
records, transcript events and Eve's records are built from the leaves the
first time they are read (:class:`ProtocolResult`).  The same tree, fully
expanded, gives the exact probability of each leaf (:func:`leaf_weights`),
which ``adversary.analytic_detection_probability`` sums: one compiled tree,
sampled by sessions and weighed by ``leaf_weights``.  The single-step
functions (``run_ab_check``, ...) answer the same steps with draws.

Randomness: each round consumes draws from its injected generator in a
fixed order (check choice, mode choices, then measurement draws), which is
what makes seeded runs reproducible.  For a numpy ``Generator`` over
``PCG64`` (exactly those types) a session serves these draws from bulk
blocks of the same generator (:class:`_BlockUniforms`): the values are the
same, in the same order, and the generator ends the session in the state
the scalar calls would have left it in.  Any other generator is called one
draw at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import length_hint, xor
from typing import NamedTuple

import numpy as np

from .adversary import AttackModel, ChannelSegment, EveRecord, attack_points, resolve_points

# ``measure_qubit`` is not called here: the engine and the checks walk a
# TransitionTable.  It stays a name of this module because the traced
# benchmark (perfbench/layers.py and its tests) looks it up here.
from .states import (
    BELL,
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
    decoy_basis_and_bit,
    drive,
    measure_qubit,
    prepare_decoy,
)

log = logging.getLogger("qsdc3")

_DECOY_LABELS = (DecoyState.ZERO, DecoyState.ONE, DecoyState.PLUS, DecoyState.MINUS)

# Constants of the round body.  Enum members are read from module globals
# (see the note in states.py), and their names and values through
# ``_name_`` and ``_value_``, which skip the Python-level ``name`` and
# ``value`` properties.  Every round starts from the same pair.
_Z, _X = Basis.Z, Basis.X
_HOME, _TRANSIT = Subsystem.HOME, Subsystem.TRANSIT
_PAULI_X, _PAULI_Z = Pauli.X, Pauli.Z
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
    Charlie's control (decoy) mode."""

    p_ab_check: float = 0.25
    p_bob_cm: float = 0.25
    p_charlie_cm: float = 0.25

    def __post_init__(self):
        for name in ("p_ab_check", "p_bob_cm", "p_charlie_cm"):
            p = float(getattr(self, name))
            if not 0.0 <= p <= 1.0:
                raise ValueError("%s must lie in [0, 1], got %r" % (name, p))
            object.__setattr__(self, name, p)


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


class ProtocolAborted(Exception):
    """A check failed under the strict abort policy.

    Carries the session's leaf sequence up to and including the failing
    round (``leaves``), and the records, transcript and Eve's records built
    from it when the abort was raised.
    """

    def __init__(self, round_index, check_kind, touched_segments, records, transcript, eve_records, leaves):
        self.round_index = round_index
        self.check_kind = check_kind
        self.touched_segments = tuple(touched_segments)
        self.records = records
        self.transcript = transcript
        self.eve_records = eve_records
        self.leaves = leaves
        segs = ",".join(s.value for s in self.touched_segments) or "none"
        super().__init__(
            "communication aborted: %s failed at round %d (attacked segments: %s)"
            % (check_kind.value, round_index, segs)
        )


class RoundBudgetExceeded(Exception):
    """The round budget ran out before all message bits were delivered."""


def encode_bob(j):
    """Bob's encoding: 0 -> identity, 1 -> bit flip on the transit qubit."""
    return Pauli.X if j else Pauli.I


def encode_charlie(k):
    """Charlie's encoding: 0 -> identity, 1 -> phase flip on the transit qubit."""
    return Pauli.Z if k else Pauli.I


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
    """Core of :func:`run_decoy_check`, as chance points on ``table``."""
    outcome, state = yield from table.measure_points(received, _TRANSIT, basis)
    passed = outcome == expected
    events = (
        ("check_disclosure", "decoy", basis._name_, outcome),
        ("check_verdict", "decoy", passed),
    )
    return passed, state, events


def _checked(steps, rng, transcript, round_index):
    """Drive a check's steps; disclose its events on ``transcript`` if given."""
    passed, state, events = drive(steps, rng)
    if transcript is not None:
        for event in events:
            transcript.add(round_index, *event)
    return passed, state


def run_ab_check(state, rng, transcript=None, round_index=0):
    """Bob's eavesdropping check of the A->B leg.

    Returns (passed, post-measurement state); discloses basis and outcomes
    on the transcript when one is given.
    """
    return _checked(_correlation_points(TransitionTable(), state, "ab"), rng, transcript, round_index)


def run_ca_check(state, rng, transcript=None, round_index=0):
    """Charlie and Alice check the channel after Bob's control mode.

    Identical correlation test to :func:`run_ab_check`, run between
    Charlie (transit) and Alice (home).
    """
    return _checked(_correlation_points(TransitionTable(), state, "ca"), rng, transcript, round_index)


def run_decoy_check(decoy, received, rng, transcript=None, round_index=0):
    """Alice verifies a revealed decoy qubit on the C->A leg.

    Alice measures in the basis containing the revealed state; the check
    passes when her outcome names that state.
    """
    basis, expected = decoy_basis_and_bit(decoy)
    return _checked(_decoy_points(TransitionTable(), basis, expected, received), rng, transcript, round_index)


@dataclass(frozen=True)
class DecodedMessages:
    """Each party's view of the other two messages, in message order."""

    alice_view_bob: tuple
    alice_view_charlie: tuple
    bob_view_alice: tuple
    bob_view_charlie: tuple
    charlie_view_alice: tuple
    charlie_view_bob: tuple


class ProtocolResult:
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

    @cached_property
    def decoded(self):
        """Each party's :class:`DecodedMessages`."""
        return _decode_all(self.messages, self.records)


# Uniforms drawn per block by :class:`_BlockUniforms`.  A session of the
# acceptance workloads makes one to two thousand draws, so a block this size
# keeps both the per-block call and the unused tail of the last block small.
_BLOCK = 256
_TWO_53 = 2.0**53


class _BlockUniforms:
    """A session's draws from a ``Generator(PCG64)``, served from bulk blocks.

    ``random()`` serves the doubles of ``rng.random(_BLOCK)`` blocks in
    order; these are the values that scalar ``rng.random()`` calls give,
    one 64-bit PCG64 word each (the word shifted right by 11, times 2**-53).

    ``integers(0, 4)`` rebuilds numpy's bounded draw from the same words.
    For a range of 4 that draw (Lemire's multiply-and-shift) takes the next
    32-bit half, ``h``, and returns ``h * 4 >> 32 = h >> 30``; its
    rejection threshold, ``(2**32 - 4) % 4``, is 0, so it never draws
    again.  A fresh word gives its low half and leaves its high half
    pending in the generator; the next call takes the pending half without
    a new word.  The served double ``d`` holds bits 11-63 of its word as
    ``u = int(d * 2**53)``, so the low half's top bits are
    ``(u >> 19) & 3`` and the high half is ``u >> 21``.  A half the
    generator holds when the session starts is taken first.

    :meth:`close` puts the generator into the state the scalar calls would
    have left: the starting state advanced by the words served, with the
    pending half, and numpy's stale copy of the last half, as they would be.
    Nothing else may draw from the generator between construction and
    :meth:`close`: the blocks run ahead of the served draws, and ``close``
    overwrites the state.
    """

    __slots__ = ("random", "_bit_generator", "_start", "_blocks", "_block", "_pending", "_uinteger")

    def __init__(self, rng):
        self._bit_generator = rng.bit_generator
        self._start = start = self._bit_generator.state
        self._uinteger = start["uinteger"]
        self._pending = self._uinteger if start["has_uint32"] else None
        self._blocks = 0
        self._block = iter(())
        # ``chain`` moves to the next block in C, so a served draw runs no
        # Python frame.
        self.random = chain.from_iterable(self._fill(rng.random)).__next__

    def _fill(self, random):
        while True:
            self._block = iter(random(_BLOCK).tolist())
            self._blocks += 1
            yield self._block

    def integers(self, low, high):
        """``Generator.integers(0, 4)``, the only range the engine draws."""
        if low != 0 or high != 4:
            raise ValueError("block draws serve integers(0, 4) only, got (%r, %r)" % (low, high))
        pending = self._pending
        if pending is not None:
            self._pending = None
            return pending >> 30
        word = int(self.random() * _TWO_53)
        self._pending = self._uinteger = word >> 21
        return (word >> 19) & 3

    def close(self):
        """Leave the generator as the scalar calls would have, and stop serving."""
        served = self._blocks * _BLOCK - length_hint(self._block)
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        bit_generator.advance(served)  # also clears the pending half
        state = bit_generator.state
        state["has_uint32"] = int(self._pending is not None)
        state["uinteger"] = self._uinteger
        bit_generator.state = state
        self.random = None  # drops the block chain, which refers back to self


def _round_points(table, schedule, model, j, k):
    """One round for Bob's bit ``j`` and Charlie's bit ``k``, as chance points.

    The states are walked through ``table``, which Eve shares.  Returns
    ``(kind, check passed, touched segments, Bell label, events, Eve's
    records)``: the transcript events as ``(kind, *values)`` rows, without
    the round index and without a message round's announcement, which
    depends on Alice's bit; Eve's records carry round index -1.
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
        return _AB_CHECK, passed, touched, None, events, eve

    bob_cm = yield (BERNOULLI, schedule.p_bob_cm)
    if not bob_cm and j:  # encode_bob: X for 1, the identity for 0
        pair = table.pauli(pair, _TRANSIT, _PAULI_X)
    pair = yield from hop(_B_TO_C, pair)

    # Charlie confirms receipt; only then does Bob announce his mode.
    if bob_cm:
        passed, pair, events = yield from _correlation_points(table, pair, "ca")
        yield from resolve_points(table, pair, eve)
        return _CA_CHECK, passed, touched, None, (("bob_mode", "CM"),) + events, eve

    if (yield (BERNOULLI, schedule.p_charlie_cm)):
        # Decoy round: Charlie abandons the encoded qubit (Bob's bit will be
        # retransmitted in a later round) and sends a random decoy instead.
        yield from resolve_points(table, pair, eve)
        reveal, decoy, basis, expected = _DECOYS[(yield _DECOY_LABEL)]
        decoy = yield from hop(_C_TO_A, decoy)
        passed, decoy, events = yield from _decoy_points(table, basis, expected, decoy)
        yield from resolve_points(table, decoy, eve)
        events = (("bob_mode", "MM"), ("charlie_mode", "CM"), ("decoy_reveal", reveal)) + events
        return _DECOY_CHECK, passed, touched, None, events, eve

    if k:  # encode_charlie: Z for 1, the identity for 0
        pair = table.pauli(pair, _TRANSIT, _PAULI_Z)
    pair = yield from hop(_C_TO_A, pair)

    # Alice's Bell measurement closes the round; any probe must be read out
    # (by Eve) before the pair is jointly measured.
    pair = yield from resolve_points(table, pair, eve)
    outcome, _ = yield from table.bell_points(pair)
    return _MESSAGE, None, touched, outcome, (("bob_mode", "MM"), ("charlie_mode", "MM")), eve


# A compiled round is a tree of the chance points of ``_round_points``,
# with one root per message bit pair (j, k), at index 2 * j + k.  A node is
# a list ``[kind, data, path, child, ...]``: ``path`` is (j, k) followed by
# the answers that lead to the node, and the children are indexed from 3
# by the answer (``u < p`` first for a Bernoulli point); a Bell point's
# thresholds name their child's index.  A child is None until its answer
# is first drawn.  A leaf is a :class:`Leaf`, whose first field is _LEAF.
_LEAF = "leaf"


class Leaf(NamedTuple):
    """Where a path through a compiled round ends: everything a round that
    reaches it shows, apart from its round index and Alice's bit.

    ``events`` are the round's transcript rows, as ``(kind, *values)``,
    without a message round's announcement; ``eve`` holds Eve's records as
    their field tuples after the round index.  ``leakage_keys`` holds, for a
    message round, the key ``(x, y, i, j, k)`` for Alice's bit i = 0 and 1:
    the announcement and the three secret bits; it is None for a check.

    A leaf is built once in its tree and then reached by every round that
    ends there, so it hashes and compares by identity, and a session's leaf
    sequence is counted as it is.
    """

    marker: str  # _LEAF, where an inner node holds its chance point's kind
    kind: RoundKind
    path: tuple
    passed: bool | None
    touched: tuple
    label: BellLabel | None
    events: tuple
    eve: tuple
    leakage_keys: tuple | None

    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


def _roots(table, schedule, model):
    """The roots of the compiled round of ``schedule`` and ``model`` on
    ``table``, by 2 * j + k; a root is None until first walked."""
    roots = table.trees.get((schedule, model))
    if roots is None:
        roots = table.trees[schedule, model] = [None] * 4
    return roots


def _grow(table, schedule, model, path):
    """The node at ``path``: the round replayed along the path's answers,
    up to its next chance point or its end."""
    steps = _round_points(table, schedule, model, path[0], path[1])
    try:
        point = steps.send(None)
        for answer in path[2:]:
            point = steps.send(answer)
    except StopIteration as stop:
        kind, passed, touched, label, events, eve = stop.value
        eve = tuple((r.segment, r.kind, r.basis, r.outcome, r.ancilla_outcome) for r in eve)
        keys = None
        if label is not None:
            keys = tuple(announce(label.flip, label.phase, i) + (i,) + path[:2] for i in (0, 1))
        return Leaf(_LEAF, kind, path, passed, tuple(touched), label, events, eve, keys)
    kind, data = point
    if kind is BERNOULLI:
        return [kind, data, path, None, None]
    if kind is BELL:
        data = tuple((cumulative, 3 + index) for cumulative, index in data)
    return [kind, data, path, None, None, None, None]


def _expand(table, schedule, model, node, branch):
    """Build ``node``'s child at ``branch``, drawn for the first time."""
    answer = branch == 3 if node[0] is BERNOULLI else int(branch) - 3
    child = node[branch] = _grow(table, schedule, model, node[2] + (answer,))
    return child


def leaf_weights(table, schedule, model, j, k):
    """Every leaf of the compiled round of ``schedule`` and ``model`` on
    ``table`` from the root of Bob's and Charlie's bits (j, k), with its
    exact probability: ``[(weight, leaf), ...]``.

    Expands the tree fully, building each node not built yet.  A node is
    answered with every answer of positive probability, which are exactly
    the answers a draw can give (see ``states._outcome_point``): a
    Bernoulli point's ``p`` and ``1 - p``, 1/4 for each decoy label, and
    each Bell threshold less the one before.  The leaves come depth first,
    in answer order; a weight is the product of its path's probabilities,
    taken from the root down.
    """
    roots = _roots(table, schedule, model)
    root = roots[2 * j + k]
    if root is None:
        root = roots[2 * j + k] = _grow(table, schedule, model, (j, k))
    weighed = []
    stack = [(1.0, root)]
    while stack:
        weight, node = stack.pop()
        kind = node[0]
        if kind is _LEAF:
            weighed.append((weight, node))
            continue
        if kind is BERNOULLI:
            answers = ((3, node[1]), (4, 1.0 - node[1]))
        elif kind is LABEL:
            answers = ((3, 0.25), (4, 0.25), (5, 0.25), (6, 0.25))
        else:
            answers = []
            below = 0.0
            for cumulative, branch in node[1]:
                answers.append((branch, cumulative - below))
                below = cumulative
        for branch, p in reversed(answers):
            if p > 0.0:
                child = node[branch]
                if child is None:
                    child = _expand(table, schedule, model, node, branch)
                stack.append((weight * p, child))
    return weighed


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
        _, kind, _, passed, touched, label, events, eve, keys = leaf
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


def _decode_all(messages, records):
    """Apply the three decoding rules to every completed message round.

    Message records come in message order, so the announcement columns
    line up with the bit strings: column by column, these are
    :func:`decode_alice`, :func:`decode_bob` and :func:`decode_charlie`.
    """
    announced = [rec.announcement for rec in records if rec.kind is _MESSAGE]
    xs = [x for x, _ in announced]
    ys = [y for _, y in announced]
    parities = list(map(xor, xs, ys))
    i, j, k = messages.alice_bits, messages.bob_bits, messages.charlie_bits
    return DecodedMessages(
        tuple(map(xor, xs, i)),
        tuple(map(xor, ys, i)),
        tuple(map(xor, xs, j)),
        tuple(map(xor, parities, j)),
        tuple(map(xor, ys, k)),
        tuple(map(xor, parities, k)),
    )


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

    The session walks the compiled round of ``schedule`` and ``attack`` in
    ``table``, a :class:`~qsdc3.states.TransitionTable`, or in a fresh one
    when ``table`` is None: each round goes from the root of its message
    bits (j, k) through one draw per chance point to a leaf, building a
    node the first time its answer is drawn.  A table other sessions have
    walked gives the same results: it only saves building their nodes and
    states again (``harness.run_experiment`` passes one table to all its
    trials).  The session logs the table's size (the state edges built so
    far) at DEBUG when it ends.

    The session returns its leaf sequence: the walk appends each round's
    :class:`Leaf`, and nothing else, so a round costs its draws and one
    append.  The :class:`ProtocolResult` builds the records, transcript,
    Eve's records and decoded messages from the leaves the first time one
    is read; a strict abort builds them when it is raised, and carries the
    leaves up to and including the failing round.

    ``rng`` gives every draw of the session, in a fixed order.  When it is
    exactly a ``numpy.random.Generator`` over ``PCG64``, the draws are
    served from bulk blocks of it (:class:`_BlockUniforms`): the values are
    the same, in the same order, and on every exit (completion, an abort,
    an exhausted budget or any error) ``rng`` is left in the state that
    drawing them one at a time would have left.
    """
    model = attack if attack is not None else AttackModel.none()
    if table is None:
        table = TransitionTable()
    roots = _roots(table, schedule, model)
    leaves = []
    reached = leaves.append
    bob, charlie = messages.bob_bits, messages.charlie_bits
    n_total = messages.length
    if max_rounds is None:
        max_rounds = 1000 + 50 * n_total
    strict = abort_policy is AbortPolicy.STRICT

    n = 0
    round_index = 0
    # Exact types only: the blocks reproduce PCG64's words and numpy's own
    # draws from them, which a subclass or another bit generator may not.
    blocks = None
    if type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64:
        blocks = _BlockUniforms(rng)
    draws = rng if blocks is None else blocks
    random, integers = draws.random, draws.integers
    try:
        while n < n_total:
            if round_index >= max_rounds:
                raise RoundBudgetExceeded(
                    "budget of %d rounds exhausted with %d of %d bits delivered"
                    % (max_rounds, n, n_total)
                )
            j = bob[n]
            k = charlie[n]
            node = roots[2 * j + k]
            if node is None:
                node = roots[2 * j + k] = _grow(table, schedule, model, (j, k))
            # The walk: one draw and one comparison per chance point (the
            # answering rules of ``states.drive``).
            while True:
                kind = node[0]
                if kind is BERNOULLI:
                    branch = 3 if random() < node[1] else 4
                elif kind is _LEAF:
                    break
                elif kind is LABEL:
                    branch = 3 + integers(0, 4)
                else:
                    u = random()
                    for cumulative, branch in node[1]:
                        if u < cumulative:
                            break
                child = node[branch]
                if child is None:
                    child = _expand(table, schedule, model, node, branch)
                node = child

            reached(node)
            round_index += 1
            # The leaf's kind and check verdict, read by index like every node.
            if node[1] is _MESSAGE:
                n += 1
            elif node[3] is False and strict:
                records, transcript, eve_records = _materialise(messages, leaves)
                raise ProtocolAborted(
                    round_index - 1, node.kind, node.touched, records, transcript, eve_records, leaves
                )
    finally:
        if blocks is not None:
            blocks.close()
        log.debug("session: %d rounds, %d transition table edges", round_index, len(table))

    return ProtocolResult(messages, leaves)
