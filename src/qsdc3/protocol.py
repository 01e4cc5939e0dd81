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
from itertools import chain
from operator import length_hint
from typing import NamedTuple

import numpy as np

from . import adversary

# ``measure_qubit`` is not called here: the engine and the checks walk a
# TransitionTable.  It stays a name of this module because the traced
# benchmark (perfbench/layers.py and its tests) looks it up here.
from .states import (
    Basis,
    BellLabel,
    DecoyState,
    Pauli,
    Subsystem,
    TransitionTable,
    bell_state,
    decoy_basis_and_bit,
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
_A_TO_B = adversary.ChannelSegment.A_TO_B
_B_TO_C = adversary.ChannelSegment.B_TO_C
_C_TO_A = adversary.ChannelSegment.C_TO_A
_START_PAIR = bell_state((0, 0))

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
        bits = rng.integers(0, 2, size=3 * n).tolist()
        return cls(tuple(bits[:n]), tuple(bits[n : 2 * n]), tuple(bits[2 * n :]))


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
    """A check failed under the strict abort policy."""

    def __init__(self, round_index, check_kind, touched_segments, records, transcript, eve_records):
        self.round_index = round_index
        self.check_kind = check_kind
        self.touched_segments = tuple(touched_segments)
        self.records = records
        self.transcript = transcript
        self.eve_records = eve_records
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


def _correlation_check(table, state, rng, transcript, round_index, check):
    """Shared core of the A-B and C-A channel checks, walking ``table``.

    The holder of the transit qubit picks a uniformly random basis and
    measures; Alice measures her home qubit in the same basis.  An honest
    pair anti-correlates in Z and correlates in X.
    """
    basis = _Z if rng.random() < 0.5 else _X
    checker_bit, state = table.measure(state, _TRANSIT, basis, rng)
    alice_bit, state = table.measure(state, _HOME, basis, rng)
    if basis is _Z:
        passed = checker_bit != alice_bit
    else:
        passed = checker_bit == alice_bit
    if transcript is not None:
        transcript.add(round_index, "check_disclosure", check, basis._name_, checker_bit, alice_bit)
        transcript.add(round_index, "check_verdict", check, passed)
    return passed, state


def run_ab_check(state, rng, transcript=None, round_index=0):
    """Bob's eavesdropping check of the A->B leg.

    Returns (passed, post-measurement state); discloses basis and outcomes
    on the transcript when one is given.
    """
    return _correlation_check(TransitionTable(), state, rng, transcript, round_index, "ab")


def run_ca_check(state, rng, transcript=None, round_index=0):
    """Charlie and Alice check the channel after Bob's control mode.

    Identical correlation test to :func:`run_ab_check`, run between
    Charlie (transit) and Alice (home).
    """
    return _correlation_check(TransitionTable(), state, rng, transcript, round_index, "ca")


def run_decoy_check(decoy, received, rng, transcript=None, round_index=0):
    """Alice verifies a revealed decoy qubit on the C->A leg.

    Alice measures in the basis containing the revealed state; the check
    passes when her outcome names that state.
    """
    basis, expected = decoy_basis_and_bit(decoy)
    return _decoy_check(TransitionTable(), basis, expected, received, rng, transcript, round_index)


def _decoy_check(table, basis, expected, received, rng, transcript, round_index):
    """Core of :func:`run_decoy_check`, walking ``table``."""
    outcome, state = table.measure(received, _TRANSIT, basis, rng)
    passed = outcome == expected
    if transcript is not None:
        transcript.add(round_index, "check_disclosure", "decoy", basis._name_, outcome)
        transcript.add(round_index, "check_verdict", "decoy", passed)
    return passed, state


@dataclass(frozen=True)
class DecodedMessages:
    """Each party's view of the other two messages, in message order."""

    alice_view_bob: tuple
    alice_view_charlie: tuple
    bob_view_alice: tuple
    bob_view_charlie: tuple
    charlie_view_alice: tuple
    charlie_view_bob: tuple


@dataclass
class ProtocolResult:
    records: list
    transcript: PublicTranscript
    decoded: DecodedMessages
    eve_records: list
    rounds_used: int


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


def _run_round(round_index, n, messages, schedule, eve, rng, transcript, table):
    """One pass through the round state machine; returns a RoundRecord.

    The states are walked through ``table``, the session's transition
    table, which Eve shares.  The records take their fields positionally,
    in declaration order: a keyword call costs more on every round.
    """
    touched = []

    # Alice keeps the home qubit and sends the transit qubit to Bob.
    pair = eve.intercept_transit(_A_TO_B, _START_PAIR, rng, round_index, touched)

    # Bob either checks the A->B leg or goes on to encode.
    if rng.random() < schedule.p_ab_check:
        passed, pair = _correlation_check(table, pair, rng, transcript, round_index, "ab")
        eve.resolve_probe(pair, rng)
        return RoundRecord(_AB_CHECK, None, None, None, None, None, None, passed, tuple(touched))

    bob_cm = rng.random() < schedule.p_bob_cm
    j = None
    if not bob_cm:
        j = messages.bob_bits[n]
        if j:  # encode_bob: X for 1, the identity for 0
            pair = table.pauli(pair, _TRANSIT, _PAULI_X)
    pair = eve.intercept_transit(_B_TO_C, pair, rng, round_index, touched)

    # Charlie confirms receipt; only then does Bob announce his mode.
    transcript.add(round_index, "bob_mode", "CM" if bob_cm else "MM")
    if bob_cm:
        passed, pair = _correlation_check(table, pair, rng, transcript, round_index, "ca")
        eve.resolve_probe(pair, rng)
        return RoundRecord(_CA_CHECK, None, None, None, None, None, None, passed, tuple(touched))

    if rng.random() < schedule.p_charlie_cm:
        # Decoy round: Charlie abandons the encoded qubit (Bob's bit will be
        # retransmitted in a later round) and sends a random decoy instead.
        eve.resolve_probe(pair, rng)
        reveal, decoy, basis, expected = _DECOYS[rng.integers(0, 4)]
        decoy = eve.intercept_transit(_C_TO_A, decoy, rng, round_index, touched)
        transcript.add(round_index, "charlie_mode", "CM")
        transcript.add(round_index, "decoy_reveal", reveal)
        passed, decoy = _decoy_check(table, basis, expected, decoy, rng, transcript, round_index)
        eve.resolve_probe(decoy, rng)
        return RoundRecord(_DECOY_CHECK, None, None, None, None, None, None, passed, tuple(touched))

    k = messages.charlie_bits[n]
    if k:  # encode_charlie: Z for 1, the identity for 0
        pair = table.pauli(pair, _TRANSIT, _PAULI_Z)
    pair = eve.intercept_transit(_C_TO_A, pair, rng, round_index, touched)
    transcript.add(round_index, "charlie_mode", "MM")

    # Alice's Bell measurement closes the round; any probe must be read out
    # (by Eve) before the pair is jointly measured.
    pair = eve.resolve_probe(pair, rng)
    outcome, _ = table.bell(pair, rng)
    i = messages.alice_bits[n]
    x, y = announce(outcome.flip, outcome.phase, i)
    transcript.add(round_index, "announcement", x, y)
    return RoundRecord(_MESSAGE, n, i, j, k, outcome, (x, y), None, tuple(touched))


def _decode_all(messages, records):
    """Apply the three decoding rules to every completed message round."""
    a_j, a_k, b_i, b_k, c_i, c_j = [], [], [], [], [], []
    for rec in records:
        if rec.kind is not _MESSAGE:
            continue
        x, y = rec.announcement
        m = rec.message_index
        j, k = decode_alice(x, y, messages.alice_bits[m])
        a_j.append(j)
        a_k.append(k)
        i, k = decode_bob(x, y, messages.bob_bits[m])
        b_i.append(i)
        b_k.append(k)
        i, j = decode_charlie(x, y, messages.charlie_bits[m])
        c_i.append(i)
        c_j.append(j)
    return DecodedMessages(
        tuple(a_j), tuple(a_k), tuple(b_i), tuple(b_k), tuple(c_i), tuple(c_j)
    )


def run_protocol(
    messages,
    schedule,
    rng,
    attack=None,
    abort_policy=AbortPolicy.STRICT,
    max_rounds=None,
):
    """Run the full protocol until every message bit is delivered.

    Check rounds never consume a message bit.  Under the strict policy any
    failed check aborts the communication (:class:`ProtocolAborted`); under
    record-and-continue failures are logged and the run completes, which is
    how detection rates are estimated without restarting.

    The session walks one :class:`~qsdc3.states.TransitionTable`, shared
    with Eve, and logs its size (the edges it built) at DEBUG when it ends.

    ``rng`` gives every draw of the session, in a fixed order.  When it is
    exactly a ``numpy.random.Generator`` over ``PCG64``, the draws are
    served from bulk blocks of it (:class:`_BlockUniforms`): the values are
    the same, in the same order, and on every exit (completion, an abort,
    an exhausted budget or any error) ``rng`` is left in the state that
    drawing them one at a time would have left.
    """
    model = attack if attack is not None else adversary.AttackModel.none()
    table = TransitionTable()
    eve = adversary.Eavesdropper(model, table)
    records = []
    transcript = PublicTranscript()
    n_total = messages.length
    if max_rounds is None:
        max_rounds = 1000 + 50 * n_total

    n = 0
    round_index = 0
    # Exact types only: the blocks reproduce PCG64's words and numpy's own
    # draws from them, which a subclass or another bit generator may not.
    blocks = None
    if type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64:
        blocks = _BlockUniforms(rng)
    draws = rng if blocks is None else blocks
    try:
        while n < n_total:
            if round_index >= max_rounds:
                raise RoundBudgetExceeded(
                    "budget of %d rounds exhausted with %d of %d bits delivered"
                    % (max_rounds, n, n_total)
                )
            record = _run_round(round_index, n, messages, schedule, eve, draws, transcript, table)
            records.append(record)
            round_index += 1
            if record.kind is _MESSAGE:
                n += 1
            elif record.check_passed is False and abort_policy is AbortPolicy.STRICT:
                raise ProtocolAborted(
                    round_index - 1,
                    record.kind,
                    record.attack_touched,
                    records,
                    transcript,
                    eve.records,
                )
    finally:
        if blocks is not None:
            blocks.close()
        log.debug("session: %d rounds, %d transition table edges", round_index, len(table))

    decoded = _decode_all(messages, records)
    return ProtocolResult(records, transcript, decoded, eve.records, round_index)
