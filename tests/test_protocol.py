import dataclasses
import hashlib
import math
from collections import Counter
from itertools import product
from statistics import NormalDist

import numpy as np
import pytest

from conftest import _replay
from qsdc3 import protocol
from qsdc3.adversary import AttackModel, ChannelSegment
from qsdc3.protocol import (
    AbortPolicy,
    MessageTriple,
    ProtocolAborted,
    PublicTranscript,
    RoundBudgetExceeded,
    RoundKind,
    RoundRecord,
    SchedulePolicy,
    TranscriptEvent,
    analytic_detection_probability,
    announce,
    decode_alice,
    decode_bob,
    decode_charlie,
    encode_bob,
    encode_charlie,
    run_protocol,
)
from qsdc3.states import (
    Basis,
    BellLabel,
    DecoyState,
    Pauli,
    Subsystem,
    TransitionTable,
    bell_state,
    decoy_basis_and_bit,
    prepare_decoy,
)


class TestEncoders:
    def test_bob_maps_bit_to_bit_flip(self):
        assert encode_bob(0) is Pauli.I
        assert encode_bob(1) is Pauli.X

    def test_charlie_maps_bit_to_phase_flip(self):
        assert encode_charlie(0) is Pauli.I
        assert encode_charlie(1) is Pauli.Z

    @pytest.mark.parametrize("j, k", list(product((0, 1), repeat=2)))
    def test_joint_encoding_reaches_label_jk(self, j, k, weigh):
        table = TransitionTable()
        state = table.pauli(bell_state((0, 0)), Subsystem.TRANSIT, encode_bob(j))
        state = table.pauli(state, Subsystem.TRANSIT, encode_charlie(k))
        ((weight, (label, _)),) = weigh(lambda: table.bell_points(state))
        assert weight == pytest.approx(1.0, abs=1e-15)
        assert label == BellLabel(j, k)


class TestAnnounceAndDecode:
    def test_announce_examples(self):
        assert announce(1, 0, 1) == (0, 1)
        assert announce(0, 0, 0) == (0, 0)

    @pytest.mark.parametrize("r, s, i", list(product((0, 1), repeat=3)))
    def test_announced_xor_equals_outcome_xor(self, r, s, i):
        x, y = announce(r, s, i)
        assert x ^ y == r ^ s  # the mask cancels in the XOR

    def test_decode_examples(self):
        assert decode_alice(0, 1, 1) == (1, 0)
        assert decode_alice(0, 0, 0) == (0, 0)
        assert decode_bob(1, 0, 1) == (0, 0)
        assert decode_bob(0, 0, 0) == (0, 0)
        assert decode_charlie(1, 1, 1) == (0, 1)
        assert decode_charlie(0, 0, 0) == (0, 0)

    @pytest.mark.parametrize("i, j, k", list(product((0, 1), repeat=3)))
    def test_all_decodes_invert_announce(self, i, j, k):
        # Honest rounds have outcome (j, k); every party's rule must invert
        # the masking exactly, and Bob's and Charlie's views of Alice agree.
        x, y = announce(j, k, i)
        assert decode_alice(x, y, i) == (j, k)
        assert decode_bob(x, y, j) == (i, k)
        assert decode_charlie(x, y, k) == (i, j)
        assert decode_bob(x, y, j)[0] == decode_charlie(x, y, k)[0]


def correlation_check(weigh, state, check="ab"):
    """The A-B (or C-A) check of ``state`` weighed exactly: ``[(weight,
    basis, passed), ...]``, one per end."""
    table = TransitionTable()
    ends = weigh(lambda: protocol._correlation_points(table, state, check))
    return [(weight, events[0][2], passed) for weight, (passed, _, events) in ends]


def decoy_check(weigh, label, received):
    """Alice's check of ``received`` as the decoy ``label``, weighed
    exactly: ``[(weight, passed), ...]``, one per end."""
    table = TransitionTable()
    basis, expected = decoy_basis_and_bit(label)
    ends = weigh(lambda: protocol._decoy_points(table, basis, expected, received))
    return [(weight, passed) for weight, (passed, _, _) in ends]


def failed_weight(ends):
    return sum(end[0] for end in ends if end[-1] is False)


class TestChecks:
    @pytest.mark.parametrize("check", ["ab", "ca"])
    def test_honest_pair_always_passes(self, weigh, check):
        ends = correlation_check(weigh, bell_state((0, 0)), check)
        assert {basis for _, basis, _ in ends} == {"Z", "X"}
        assert all(passed for _, _, passed in ends)
        assert sum(weight for weight, _, _ in ends) == pytest.approx(1.0, abs=1e-15)

    def test_the_check_discloses_both_outcomes_and_its_verdict(self, weigh):
        table = TransitionTable()
        for _, (passed, state, events) in weigh(
            lambda: protocol._correlation_points(table, bell_state((0, 0)), "ca")
        ):
            (kind, check, basis, checker, alice), verdict = events
            assert (kind, check, verdict) == ("check_disclosure", "ca", ("check_verdict", "ca", passed))
            assert (checker != alice) == (basis == "Z")
            assert not state.has_ancilla

    def test_bit_flipped_pair_fails_exactly_in_z(self, weigh):
        # After a bit-flip disturbance the pair is label (1,0): Z outcomes
        # become equal (fail) while X stays correlated (pass).
        disturbed = TransitionTable().pauli(bell_state((0, 0)), Subsystem.TRANSIT, Pauli.X)
        ends = correlation_check(weigh, disturbed)
        assert all(passed == (basis == "X") for _, basis, passed in ends)
        assert failed_weight(ends) == pytest.approx(0.5, abs=1e-15)

    def test_phase_flipped_pair_fails_exactly_in_x(self, weigh):
        disturbed = TransitionTable().pauli(bell_state((0, 0)), Subsystem.TRANSIT, Pauli.Z)
        ends = correlation_check(weigh, disturbed, "ca")
        assert all(passed == (basis == "Z") for _, basis, passed in ends)
        assert failed_weight(ends) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("label", list(DecoyState))
    def test_unattacked_decoys_always_pass(self, weigh, label):
        assert decoy_check(weigh, label, prepare_decoy(label)) == [(1.0, True)]

    def test_probe_coupled_zero_decoy_fails_half_the_time(self, weigh):
        received = TransitionTable().attach(prepare_decoy(DecoyState.ZERO), 0.5)
        ends = decoy_check(weigh, DecoyState.ZERO, received)
        assert [passed for _, passed in ends] == [True, False]
        assert failed_weight(ends) == pytest.approx(0.5, abs=1e-15)

    def test_probe_coupled_plus_decoy_never_fails(self, weigh):
        received = TransitionTable().attach(prepare_decoy(DecoyState.PLUS), 0.64)
        ends = decoy_check(weigh, DecoyState.PLUS, received)
        assert [passed for _, passed in ends] == [True]
        assert ends[0][0] == pytest.approx(1.0, abs=1e-15)


class TestMessageTriple:
    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            MessageTriple((0, 1), (0,), (1, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            MessageTriple((), (), ())

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="bits"):
            MessageTriple((0, 2), (0, 1), (1, 1))

    def test_random_is_deterministic(self):
        a = MessageTriple.random(16, np.random.default_rng(7))
        b = MessageTriple.random(16, np.random.default_rng(7))
        assert a == b

    def test_random_stores_python_ints(self):
        messages = MessageTriple.random(16, np.random.default_rng(7))
        for bits in (messages.alice_bits, messages.bob_bits, messages.charlie_bits):
            assert all(type(b) is int for b in bits)

    @pytest.mark.parametrize(
        "triple, field",
        [
            (((1.7,), (0,), (0,)), "alice_bits"),
            (((0,), (0.5,), (0,)), "bob_bits"),
            (((0,), (0,), ("1",)), "charlie_bits"),
            (((None,), (0,), (0,)), "alice_bits"),
            ((("a",), (0,), (0,)), "alice_bits"),
            (((float("nan"),), (0,), (0,)), "alice_bits"),
            (((float("inf"),), (0,), (0,)), "alice_bits"),
            (((0,), (b"1",), (0,)), "bob_bits"),
            (((0,), (0,), (2,)), "charlie_bits"),
            (((-1,), (0,), (0,)), "alice_bits"),
            ((5, 5, 5), "alice_bits"),
            (((0,), None, (0,)), "bob_bits"),
            (((0,), (0,), 1), "charlie_bits"),
        ],
        ids=["fraction", "half", "digit_string", "none", "letter", "nan", "inf", "bytes", "two", "minus_one",
             "integer_field", "none_field", "bit_field"],
    )
    def test_rejects_values_that_are_not_exactly_bits(self, triple, field):
        with pytest.raises(ValueError, match=field):
            MessageTriple(*triple)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: {0, 1},
            lambda: frozenset((0, 1)),
            lambda: {1: 0, 0: 1},
            lambda: dict.fromkeys((1, 0)).keys(),
            lambda: {"a": 1, "b": 0}.values(),
        ],
        ids=["set", "frozenset", "dict", "dict_keys", "dict_values"],
    )
    def test_rejects_a_set_a_mapping_or_a_dict_view(self, make):
        # A set's order follows hashing and drops repeated bits, and a
        # mapping stands for its keys: none of them is a message.
        with pytest.raises(ValueError, match="^charlie_bits must be an ordered sequence of bits"):
            MessageTriple((0, 1), (1, 0), make())

    def test_accepts_ordered_iterables(self):
        expected = MessageTriple((0, 1), (1, 0), (0, 1))
        assert MessageTriple([0, 1], range(1, -1, -1), (bit for bit in (0, 1))) == expected
        assert MessageTriple(np.array([0, 1]), np.array([1, 0]), (0, 1)) == expected

    def test_accepts_bools_and_numpy_integers(self):
        messages = MessageTriple((True, False), np.array([1, 0]), (np.int8(0), np.uint64(1)))
        assert messages == MessageTriple((1, 0), (1, 0), (0, 1))
        assert all(type(b) is int for b in messages.charlie_bits)

    @pytest.mark.parametrize(
        "value, bit",
        [(1.0, 1), (-0.0, 0), (np.bool_(True), 1), (np.bool_(False), 0)],
        ids=["one_float", "minus_zero", "numpy_true", "numpy_false"],
    )
    def test_accepts_a_value_equal_to_a_bit_as_that_int(self, value, bit):
        messages = MessageTriple((value,), (value,), (value,))
        assert messages == MessageTriple((bit,), (bit,), (bit,))
        assert all(type(b) is int for b in messages.alice_bits + messages.bob_bits + messages.charlie_bits)

    def test_a_long_message_names_its_first_bad_value(self):
        bits = [0, 1] * 10_000
        bits[12_345], bits[17_000] = 7, 9
        with pytest.raises(ValueError, match="^bob_bits must contain only bits 0 and 1, got 7$"):
            MessageTriple([0] * 20_000, bits, [1] * 20_000)

    @pytest.mark.parametrize("n", [1, 63, 64])
    def test_random_equals_the_checked_constructor_on_the_same_bits(self, n):
        trusted_rng, checked_rng = np.random.default_rng(21), np.random.default_rng(21)
        messages = MessageTriple.random(n, trusted_rng)
        bits = checked_rng.integers(0, 2, size=3 * n).tolist()
        assert messages == MessageTriple(bits[:n], bits[n : 2 * n], bits[2 * n :])
        assert messages.length == n
        for strings in (messages.alice_bits, messages.bob_bits, messages.charlie_bits):
            assert type(strings) is tuple and all(type(b) is int for b in strings)
        assert trusted_rng.bit_generator.state == checked_rng.bit_generator.state

    # A bool once gave 1-bit messages, and a float or a string raised
    # TypeError from numpy or from the comparison.
    @pytest.mark.parametrize(
        "n, match",
        [(0, "at least one"), (-1, "at least one"), (True, "^n must be"), (2.5, "^n must be"), ("3", "^n must be")],
        ids=["0", "-1", "bool", "fraction", "string"],
    )
    def test_random_rejects_an_empty_message_before_drawing(self, n, match):
        generator = np.random.default_rng(21)
        before = generator.bit_generator.state
        with pytest.raises(ValueError, match=match):
            MessageTriple.random(n, generator)
        assert generator.bit_generator.state == before


class TestTranscriptEvent:
    def test_to_dict(self):
        event = TranscriptEvent(3, "announcement", {"x": 1, "y": 0})
        assert list(event.to_dict().items()) == [("round", 3), ("kind", "announcement"), ("x", 1), ("y", 0)]


def announcements(transcript):
    """(round_index, x, y) for every masked message announcement."""
    return [(e.round_index, e.payload["x"], e.payload["y"]) for e in transcript if e.kind == "announcement"]


class TestPublicTranscript:
    """Events are stored as positional rows and read as named payloads."""

    ROWS = [
        (0, "bob_mode", ("MM",), {"mode": "MM"}),
        (0, "charlie_mode", ("MM",), {"mode": "MM"}),
        (0, "announcement", (1, 0), {"x": 1, "y": 0}),
        (
            1,
            "check_disclosure",
            ("ab", "X", 1, 1),
            {"check": "ab", "basis": "X", "checker_outcome": 1, "alice_outcome": 1},
        ),
        (1, "check_verdict", ("ab", True), {"check": "ab", "passed": True}),
        (2, "charlie_mode", ("CM",), {"mode": "CM"}),
        (2, "decoy_reveal", ("+",), {"state": "+"}),
        (2, "check_disclosure", ("decoy", "X", 0), {"check": "decoy", "basis": "X", "alice_outcome": 0}),
        (2, "check_verdict", ("decoy", False), {"check": "decoy", "passed": False}),
    ]

    def transcript(self):
        transcript = PublicTranscript()
        for round_index, kind, values, _ in self.ROWS:
            transcript.add(round_index, kind, *values)
        return transcript

    def test_payloads_are_named_in_field_order(self):
        transcript = self.transcript()
        assert len(transcript) == len(self.ROWS)
        expected = [TranscriptEvent(r, kind, payload) for r, kind, _, payload in self.ROWS]
        for events in (transcript.events, list(transcript)):
            assert events == expected
            for event, (_, _, _, payload) in zip(events, self.ROWS):
                assert list(event.payload) == list(payload)
        assert [e.to_dict() for e in transcript][3] == {
            "round": 1,
            "kind": "check_disclosure",
            "check": "ab",
            "basis": "X",
            "checker_outcome": 1,
            "alice_outcome": 1,
        }

    def test_decoy_reveals(self):
        assert self.transcript().decoy_reveals() == {2: "+"}

    def test_the_engine_writes_every_kind_in_both_shapes(self, rng):
        messages = MessageTriple.random(24, rng)
        result = run_protocol(messages, SchedulePolicy(0.3, 0.3, 0.3), rng)
        shapes = {(e.kind, tuple(e.payload)) for e in result.transcript}
        assert shapes == {(kind, tuple(payload)) for _, kind, _, payload in self.ROWS}


class TestSchedulePolicy:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="p_ab_check"):
            SchedulePolicy(p_ab_check=1.5)

    def test_defaults(self):
        policy = SchedulePolicy()
        assert (policy.p_ab_check, policy.p_bob_cm, policy.p_charlie_cm) == (0.25, 0.25, 0.25)

    # True once ran as a schedule of p 1.0 and "0.5" as one of 0.5.
    @pytest.mark.parametrize(
        "field, value",
        [("p_ab_check", True), ("p_bob_cm", False), ("p_charlie_cm", "0.5"), ("p_ab_check", None)],
    )
    def test_rejects_a_value_that_is_not_a_real_number(self, field, value):
        with pytest.raises(ValueError, match=field):
            SchedulePolicy(**{field: value})

    def test_stores_each_probability_as_a_float(self):
        policy = SchedulePolicy(1, 0, np.float32(0.5))
        assert [type(p) for p in (policy.p_ab_check, policy.p_bob_cm, policy.p_charlie_cm)] == [float] * 3


class TestRunProtocol:
    @pytest.mark.parametrize(
        "field, value",
        [
            # The string "strict" once ran record-and-continue, unaborted.
            ("abort_policy", "strict"),
            ("abort_policy", "record_and_continue"),
            ("abort_policy", None),
            # These once raised AttributeError from deep in the session.
            ("messages", ((0,), (0,), (0,))),
            ("schedule", None),
            ("attack", "intercept"),
            ("rng", None),
            ("table", "x"),
        ],
        ids=[
            "strict",
            "record_and_continue",
            "None",
            "messages_tuple",
            "schedule_none",
            "attack_string",
            "rng_none",
            "table_string",
        ],
    )
    def test_an_argument_of_the_wrong_type_is_rejected(self, rng, field, value):
        arguments = {"messages": MessageTriple.random(4, rng), "schedule": SchedulePolicy(), "rng": rng}
        arguments[field] = value
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="^%s must be of type " % field):
            run_protocol(**arguments)
        assert rng.bit_generator.state == before

    def test_all_zero_messages_decode_exactly(self, rng):
        messages = MessageTriple((0,) * 8, (0,) * 8, (0,) * 8)
        result = run_protocol(messages, SchedulePolicy(), rng)
        assert result.decoded.alice_view_bob == (0,) * 8
        assert result.decoded.charlie_view_alice == (0,) * 8
        checks = [r for r in result.records if r.kind is not RoundKind.MESSAGE]
        assert all(r.check_passed for r in checks)

    def test_random_messages_decode_exactly(self, rng):
        messages = MessageTriple.random(64, rng)
        result = run_protocol(messages, SchedulePolicy(), rng)
        d = result.decoded
        assert d.alice_view_bob == messages.bob_bits
        assert d.alice_view_charlie == messages.charlie_bits
        assert d.bob_view_alice == messages.alice_bits
        assert d.bob_view_charlie == messages.charlie_bits
        assert d.charlie_view_alice == messages.alice_bits
        assert d.charlie_view_bob == messages.bob_bits

    def test_decoding_applies_each_rule_to_each_message_round(self, rng):
        # Under attack the decoded bits differ from the messages, so this
        # checks the columns against the per-round decode rules.
        attack = AttackModel.intercept_resend(*ChannelSegment)
        messages = MessageTriple.random(40, rng)
        result = run_protocol(messages, SchedulePolicy(), rng, attack, AbortPolicy.RECORD_AND_CONTINUE)
        rows = [
            (rec.announcement, rec.alice_bit, rec.bob_bit, rec.charlie_bit)
            for rec in result.records
            if rec.kind is RoundKind.MESSAGE
        ]
        alice = [decode_alice(x, y, i) for (x, y), i, _, _ in rows]
        bob = [decode_bob(x, y, j) for (x, y), _, j, _ in rows]
        charlie = [decode_charlie(x, y, k) for (x, y), _, _, k in rows]
        d = result.decoded
        assert (d.alice_view_bob, d.alice_view_charlie) == tuple(zip(*alice))
        assert (d.bob_view_alice, d.bob_view_charlie) == tuple(zip(*bob))
        assert (d.charlie_view_alice, d.charlie_view_bob) == tuple(zip(*charlie))
        assert d.alice_view_bob != messages.bob_bits

    def test_a_changed_decode_rule_changes_the_decoded_views(self, rng, monkeypatch):
        # The views are decoded by the rules themselves: Bob's rule with its
        # two results swapped gives him Charlie's bits as Alice's and Alice's
        # as Charlie's, and leaves the other views as they were.
        messages = MessageTriple.random(32, rng)
        result = run_protocol(messages, SchedulePolicy(), rng)
        honest = result.decoded
        assert messages.alice_bits != messages.charlie_bits
        monkeypatch.setattr(protocol, "decode_bob", lambda x, y, j: (x ^ y ^ j, x ^ j))
        swapped = protocol.ProtocolResult(messages, result.leaves).decoded
        assert (swapped.bob_view_alice, swapped.bob_view_charlie) == (messages.charlie_bits, messages.alice_bits)
        assert swapped != honest
        unchanged = ("alice_view_bob", "alice_view_charlie", "charlie_view_alice", "charlie_view_bob")
        assert all(getattr(swapped, view) == getattr(honest, view) for view in unchanged)

    def test_announced_xor_identity_on_every_message_round(self, rng):
        messages = MessageTriple.random(48, rng)
        result = run_protocol(messages, SchedulePolicy(), rng)
        for rec in result.records:
            if rec.kind is RoundKind.MESSAGE:
                x, y = rec.announcement
                assert x ^ y == rec.bob_bit ^ rec.charlie_bit
                assert (rec.bell_outcome.flip, rec.bell_outcome.phase) == (
                    rec.bob_bit,
                    rec.charlie_bit,
                )

    def test_message_index_conservation(self, rng):
        # Exactly one message record per bit, indices in order, and check
        # rounds never consume an index.
        messages = MessageTriple.random(32, rng)
        result = run_protocol(messages, SchedulePolicy(0.4, 0.3, 0.3), rng)
        message_records = [r for r in result.records if r.kind is RoundKind.MESSAGE]
        assert [r.message_index for r in message_records] == list(range(32))
        for rec in result.records:
            if rec.kind is not RoundKind.MESSAGE:
                assert rec.message_index is None
                assert rec.check_passed is not None
                assert rec.announcement is None
            else:
                assert rec.check_passed is None
                assert rec.announcement is not None

    def test_transcript_structure(self, rng):
        messages = MessageTriple.random(24, rng)
        result = run_protocol(messages, SchedulePolicy(), rng)
        transcript = result.transcript
        assert len(announcements(transcript)) == 24
        kinds = {e.kind for e in transcript}
        assert "bob_mode" in kinds and "announcement" in kinds
        # Decoy reveals and decoy verdicts come in pairs.
        reveals = transcript.decoy_reveals()
        decoy_checks = [r for r in result.records if r.kind is RoundKind.CHARLIE_DECOY_CHECK]
        assert len(reveals) == len(decoy_checks)

    def test_unattacked_checks_never_fail_in_bulk(self, rng):
        messages = MessageTriple.random(16, rng)
        for _ in range(20):
            result = run_protocol(messages, SchedulePolicy(0.45, 0.4, 0.4), rng)
            for rec in result.records:
                if rec.kind is not RoundKind.MESSAGE:
                    assert rec.check_passed

    def test_strict_abort_on_disturbance(self):
        rng = np.random.default_rng(99)
        messages = MessageTriple.random(100, rng)
        attack = AttackModel.disturbance(Pauli.X, ChannelSegment.A_TO_B)
        with pytest.raises(ProtocolAborted) as info:
            run_protocol(messages, SchedulePolicy(0.5, 0.25, 0.25), rng, attack=attack)
        abort = info.value
        assert abort.check_kind in (
            RoundKind.BOB_EAVESDROP_CHECK,
            RoundKind.BOB_CONTROL_CHECK,
        )
        assert ChannelSegment.A_TO_B in abort.touched_segments
        assert abort.records[abort.round_index].check_passed is False

    def test_strict_abort_probability_grows_with_checks(self):
        # Detection per A-B check is 1/2 for a bit-flip disturbance, so with
        # dozens of checks per run surviving to completion is hopeless.
        aborted = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            messages = MessageTriple.random(100, rng)
            attack = AttackModel.disturbance(Pauli.X, ChannelSegment.A_TO_B)
            try:
                run_protocol(messages, SchedulePolicy(0.5, 0.25, 0.25), rng, attack=attack)
            except ProtocolAborted:
                aborted += 1
        assert aborted == 50

    def test_record_and_continue_completes_under_attack(self, rng):
        messages = MessageTriple.random(32, rng)
        attack = AttackModel.disturbance(Pauli.X, ChannelSegment.A_TO_B)
        result = run_protocol(
            messages,
            SchedulePolicy(0.5, 0.25, 0.25),
            rng,
            attack=attack,
            abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
        )
        failures = [r for r in result.records if r.check_passed is False]
        assert failures  # plenty of failed checks were logged
        assert len([r for r in result.records if r.kind is RoundKind.MESSAGE]) == 32

    def test_round_budget_exceeded(self, rng):
        messages = MessageTriple.random(4, rng)
        with pytest.raises(RoundBudgetExceeded, match="budget of 64 rounds exhausted with 0 of 4 bits delivered"):
            run_protocol(messages, SchedulePolicy(p_ab_check=1.0), rng, max_rounds=64)

    # 2.5 once raised TypeError from range(), naming no field.
    @pytest.mark.parametrize("max_rounds", [2.5, True, 0], ids=repr)
    def test_a_budget_that_is_not_an_integer_of_at_least_one_is_rejected(self, rng, max_rounds):
        messages = MessageTriple.random(4, rng)
        with pytest.raises(ValueError, match="max_rounds"):
            run_protocol(messages, SchedulePolicy(), rng, max_rounds=max_rounds)

    def test_attack_touched_segments_recorded(self, rng):
        messages = MessageTriple.random(16, rng)
        attack = AttackModel.disturbance(Pauli.Z, ChannelSegment.B_TO_C)
        result = run_protocol(
            messages,
            SchedulePolicy(),
            rng,
            attack=attack,
            abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
        )
        touched = [r for r in result.records if r.attack_touched]
        assert touched
        assert all(r.attack_touched == (ChannelSegment.B_TO_C,) for r in touched)
        # A-B check rounds end before the B->C hop, so they are untouched.
        for rec in result.records:
            if rec.kind is RoundKind.BOB_EAVESDROP_CHECK:
                assert rec.attack_touched == ()


class TestSessionTable:
    """Each session walks one transition table, shared with Eve."""

    @pytest.fixture
    def tables(self, monkeypatch):
        tables = []

        def recording_table():
            tables.append(TransitionTable())
            return tables[-1]

        monkeypatch.setattr(protocol, "TransitionTable", recording_table)
        return tables

    def test_one_table_per_session(self, tables, rng):
        attack = AttackModel.intercept_resend(ChannelSegment.A_TO_B)
        messages = MessageTriple.random(16, rng)
        for _ in range(2):
            run_protocol(messages, SchedulePolicy(), rng, attack=attack, abort_policy=AbortPolicy.RECORD_AND_CONTINUE)
        assert len(tables) == 2 and tables[0] is not tables[1]
        assert all(len(table) > 0 for table in tables)

    def test_the_table_is_bounded_by_the_round_not_the_round_count(self, tables):
        # Every edge leaves a round's start state or a state the table
        # built, and the table builds one state per value, so its size is
        # bounded by the few dozen distinct states a round can reach: 184
        # edges, the full expansion's, at 2,000 and at 20,000 bits (a lazily
        # built tree without interning had 452 and 543, and still growing).
        starts = [protocol._START_PAIR] + [decoy for _, decoy, _, _ in protocol._DECOYS]
        attack = AttackModel.intercept_resend(*ChannelSegment, attack_probability=0.4)
        for length in (2000, 20000):
            rng = np.random.default_rng(2000)
            result = run_protocol(
                MessageTriple.random(length, rng),
                SchedulePolicy(),
                rng,
                attack=attack,
                abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
            )
            assert result.rounds_used > 2 * length
            table = tables[-1]
            nodes = {id(state) for state in starts + list(table._nodes.values())}
            edges = [table._paulis, table._measures, table._attaches, table._bells]
            assert all(id(edge[0]) in nodes for kind in edges for edge in kind.values())
            assert len(table._nodes) < 64
            assert len(table) < 192
            # The compiled round is its 3,492 leaves from four roots
            # (TestCompiledRound), whatever the round count.
            (roots,) = table.compiled.values()
            assert sum(map(len, roots)) == 3492


RECORD = AbortPolicy.RECORD_AND_CONTINUE
BITS = list(product((0, 1), repeat=2))
SHARED_TABLE_CASES = [
    pytest.param(None, RECORD, id="none"),
    pytest.param(AttackModel.intercept_resend(*ChannelSegment, attack_probability=0.4), RECORD, id="intercept-all-p0.4"),
    pytest.param(AttackModel.entangle_measure(0.5, *ChannelSegment), RECORD, id="entangle-0.5"),
    pytest.param(AttackModel.disturbance(Pauli.X, ChannelSegment.A_TO_B), RECORD, id="disturb-x"),
    pytest.param(AttackModel.disturbance(Pauli.X, ChannelSegment.A_TO_B), AbortPolicy.STRICT, id="strict-abort"),
]


class TestSharedTable:
    """A session on a table that other sessions walked runs as on a fresh one."""

    @staticmethod
    def session(seed, attack, policy, table, schedule=SchedulePolicy(0.25, 0.25, 0.4)):
        """Everything a session shows, and its generator's end state."""
        rng = np.random.default_rng(seed)
        messages = MessageTriple.random(48, rng)
        try:
            result = run_protocol(messages, schedule, rng, attack, policy, table=table)
            shown = ("completed", result.rounds_used, result.records, result.transcript.events, result.eve_records)
        except ProtocolAborted as abort:
            shown = ("aborted", abort.round_index, abort.records, abort.transcript.events, abort.eve_records)
        return shown, rng.bit_generator.state

    @pytest.fixture(scope="class")
    def walked(self):
        """A table walked by sessions under every case's attack, so it
        holds edges of every kind, built along other draws."""
        table = TransitionTable()
        for seed in (100, 101):
            for case in SHARED_TABLE_CASES:
                self.session(seed, case.values[0], RECORD, table)
        return table

    @pytest.mark.parametrize("attack, policy", SHARED_TABLE_CASES)
    def test_a_walked_table_gives_the_results_of_a_fresh_one(self, walked, attack, policy):
        # The fresh table is used by this case's sessions only: the first
        # builds its compiled round, which the later ones reuse.
        assert len(walked) > 0
        fresh_table = TransitionTable()
        for seed in range(3):
            fresh = self.session(seed, attack, policy, fresh_table)
            assert self.session(seed, attack, policy, walked) == fresh
        if policy is AbortPolicy.STRICT:
            assert fresh[0][0] == "aborted"

    def test_a_table_walked_under_two_schedules_gives_the_results_of_a_fresh_one(self):
        # One compiled round per schedule and attack model, on one table;
        # each fresh table is used by one schedule's and case's sessions.
        schedules = (SchedulePolicy(0.25, 0.25, 0.4), SchedulePolicy(0.5, 0.1, 0.2))
        table = TransitionTable()
        for seed in (100, 101):
            for schedule in schedules:
                for case in SHARED_TABLE_CASES:
                    self.session(seed, case.values[0], RECORD, table, schedule)
        assert len(table.compiled) == 2 * 4  # the two disturbance cases share a model
        for schedule in schedules:
            for case in SHARED_TABLE_CASES:
                attack, policy = case.values
                fresh_table = TransitionTable()
                for seed in range(2):
                    fresh = self.session(seed, attack, policy, fresh_table, schedule)
                    assert self.session(seed, attack, policy, table, schedule) == fresh


# One 48-bit session per attack kind and abort policy (seed 4848), pinned
# on the engine that draws one double per round from ``random(256)``
# blocks: (how it ended, its last round, the generator's end PCG64 state,
# its pending 32-bit half and stored half, and the sha256 of
# ``repr((records, transcript events, Eve records))``).  Each of these
# sessions takes fewer than 256 rounds, so each ends one block past the
# message draw, with the half that draw left stored.
PINNED_STREAMS = {
    ("none", AbortPolicy.STRICT): (
        "completed", 120, 173036817716579131003612717821956557797, 0, 2083775103,
        "aa59f967a72e6652439b87ebfed955643f37ec62dce0ed0b45ed87ef416a2404",
    ),
    ("none", AbortPolicy.RECORD_AND_CONTINUE): (
        "completed", 120, 173036817716579131003612717821956557797, 0, 2083775103,
        "aa59f967a72e6652439b87ebfed955643f37ec62dce0ed0b45ed87ef416a2404",
    ),
    ("intercept", AbortPolicy.STRICT): (
        "aborted", 12, 173036817716579131003612717821956557797, 0, 2083775103,
        "2690e5cbdd0bafc872fc5fe8b6b41922b90b5334c89ed481575acc4951bb2fbd",
    ),
    ("intercept", AbortPolicy.RECORD_AND_CONTINUE): (
        "completed", 125, 173036817716579131003612717821956557797, 0, 2083775103,
        "996743959d9326c10edb689b538905668d3c6b2ee7c0fdfb4a8d7e9ab3fcca54",
    ),
    ("disturbance", AbortPolicy.STRICT): (
        "aborted", 1, 173036817716579131003612717821956557797, 0, 2083775103,
        "f66b841e96b8d53f0587dd9d8e484d456dbf3a91e6e235d740d49098854e950f",
    ),
    ("disturbance", AbortPolicy.RECORD_AND_CONTINUE): (
        "completed", 125, 173036817716579131003612717821956557797, 0, 2083775103,
        "5ab28124ad0fdd31927fe754cd2a627be3e400a671af429cb3c07c3dc75c244b",
    ),
    ("entangle", AbortPolicy.STRICT): (
        "aborted", 71, 173036817716579131003612717821956557797, 0, 2083775103,
        "85e848dbefb1e3f4816fb11238910e6acc0a0a44aedfb6558c3c56c2df079a77",
    ),
    ("entangle", AbortPolicy.RECORD_AND_CONTINUE): (
        "completed", 150, 173036817716579131003612717821956557797, 0, 2083775103,
        "fb231124e0e9e38d84bb6b12fc5bb45f5ac34815ae2f680befe3e83b6d005bac",
    ),
}

PINNED_ATTACKS = {
    "none": None,
    "intercept": AttackModel.intercept_resend(*ChannelSegment, attack_probability=0.1),
    "disturbance": AttackModel.disturbance(
        Pauli.Z, ChannelSegment.B_TO_C, ChannelSegment.C_TO_A, attack_probability=0.15
    ),
    "entangle": AttackModel.entangle_measure(0.05, *ChannelSegment, attack_probability=0.7),
}


@pytest.fixture(scope="module")
def pinned_table():
    """One table for the pinned sessions: a fresh table gives the same
    results (``TestSharedTable``), and this one expands each attack's
    compiled round once instead of once per session."""
    return TransitionTable()


class TestPinnedDrawStreams:
    """Each attack kind's session makes the pinned draws and shows the pinned results."""

    @pytest.mark.parametrize("policy", list(AbortPolicy), ids=lambda p: p.name.lower())
    @pytest.mark.parametrize("name", list(PINNED_ATTACKS))
    def test_the_session_keeps_its_pinned_stream(self, pinned_table, name, policy):
        rng = np.random.default_rng(4848)
        messages = MessageTriple.random(48, rng)
        try:
            schedule = SchedulePolicy(0.25, 0.25, 0.4)
            result = run_protocol(messages, schedule, rng, PINNED_ATTACKS[name], policy, table=pinned_table)
            ended = ("completed", result.rounds_used)
            shown = (result.records, result.transcript.events, result.eve_records)
        except ProtocolAborted as abort:
            ended = ("aborted", abort.round_index)
            shown = (abort.records, abort.transcript.events, abort.eve_records)
        state = rng.bit_generator.state
        got = ended + (
            state["state"]["state"],
            state["has_uint32"],
            state["uinteger"],
            hashlib.sha256(repr(shown).encode()).hexdigest(),
        )
        assert got == PINNED_STREAMS[name, policy]


def block_draws(rng):
    """The doubles of ``rng.random(256)`` blocks, in order: the draws a
    session makes, one per round."""
    while True:
        yield from rng.random(256).tolist()


def scanned_leaf(weighed, u):
    """The leaf a draw ``u`` picks from ``[(weight, leaf), ...]``, by a linear
    scan: the first of positive weight whose running sum exceeds ``u``, or
    the last of positive weight."""
    total = 0.0
    for weight, leaf in weighed:
        if weight > 0.0:
            total += weight
            picked = leaf
            if u < total:
                break
    return picked


def eager_session(messages, schedule, rng, attack, policy, weighed_on):
    """A session run the long way: each round's leaf picked by a linear scan
    of ``leaf_weights`` on the table ``weighed_on`` with the session's draw,
    the round's steps driven along that leaf's path on a table of their
    own, and its record, transcript events and Eve's records built as it
    ends.  Returns how it ended and (records, transcript events, Eve's
    records)."""
    model = attack if attack is not None else AttackModel.none()
    weighed = {(j, k): protocol.leaf_weights(weighed_on, schedule, model, j, k) for j, k in BITS}
    draws = block_draws(rng)
    table = TransitionTable()
    records, eve_records, transcript = [], [], PublicTranscript()
    n = round_index = 0
    while n < messages.length:
        i, j, k = messages.alice_bits[n], messages.bob_bits[n], messages.charlie_bits[n]
        path = scanned_leaf(weighed[j, k], next(draws)).path
        steps = protocol._round_points(table, schedule, model)
        point, (kind, passed, label, _, events, eve) = _replay(steps, path[2:])
        assert point is None
        touched = tuple(record.segment for record in eve)
        for event in events:
            transcript.add(round_index, *event)
        eve_records += [dataclasses.replace(record, round_index=round_index) for record in eve]
        if kind is RoundKind.MESSAGE:
            announcement = announce(label.flip, label.phase, i)
            transcript.add(round_index, "announcement", *announcement)
            records.append(RoundRecord(kind, n, i, j, k, label, announcement, None, touched))
            n += 1
        else:
            records.append(RoundRecord(kind, check_passed=passed, attack_touched=touched))
            if passed is False and policy is AbortPolicy.STRICT:
                return "aborted", (records, transcript.events, eve_records)
        round_index += 1
    return "completed", (records, transcript.events, eve_records)


class TestBuiltOnRead:
    """What a session shows is built from its leaves, as the round's steps build it."""

    @pytest.mark.parametrize("policy", list(AbortPolicy), ids=lambda p: p.name.lower())
    @pytest.mark.parametrize("name", list(PINNED_ATTACKS))
    def test_the_built_records_are_the_eager_ones(self, pinned_table, name, policy):
        schedule, attack = SchedulePolicy(0.25, 0.25, 0.4), PINNED_ATTACKS[name]
        table = pinned_table
        rng = np.random.default_rng(4848)
        messages = MessageTriple.random(48, rng)
        try:
            result = run_protocol(messages, schedule, rng, attack, policy, table=table)
            assert result.records is result.records  # built once, on first read
            built = ("completed", (result.records, result.transcript.events, result.eve_records))
        except ProtocolAborted as abort:
            built = ("aborted", (abort.records, abort.transcript.events, abort.eve_records))
        session_state = rng.bit_generator.state
        rng = np.random.default_rng(4848)
        eager = eager_session(MessageTriple.random(48, rng), schedule, rng, attack, policy, table)
        assert built == eager
        assert rng.bit_generator.state == session_state

    def test_an_abort_builds_its_records_once_when_first_read(self, monkeypatch):
        # harness.run_experiment reads only an abort's leaves and verdict.
        built = []

        def counted(messages, leaves):
            built.append(len(leaves))
            return materialise(messages, leaves)

        materialise = protocol._materialise
        monkeypatch.setattr(protocol, "_materialise", counted)
        rng = np.random.default_rng(99)
        attack = AttackModel.disturbance(Pauli.X, ChannelSegment.A_TO_B)
        with pytest.raises(ProtocolAborted) as info:
            run_protocol(MessageTriple.random(100, rng), SchedulePolicy(0.5, 0.25, 0.25), rng, attack=attack)
        abort = info.value
        assert built == []
        assert abort.records[abort.round_index].check_passed is False
        assert abort.transcript is abort.transcript and abort.eve_records is abort.eve_records
        assert built == [len(abort.leaves)]


def scanned_session(messages, schedule, rng, attack, policy, max_rounds, weighed_on):
    """The leaves a session reaches, each picked by :func:`scanned_leaf` with
    the next double of ``rng.random(256)`` blocks from the root of the
    message bit it carries, and how the session ends: "completed",
    "aborted" at a failed check under the strict policy, or "budget" after
    ``max_rounds`` rounds.  Returns (how it ended, leaves, bits delivered)."""
    model = attack if attack is not None else AttackModel.none()
    weighed = {(j, k): protocol.leaf_weights(weighed_on, schedule, model, j, k) for j, k in BITS}
    draws = block_draws(rng)
    leaves = []
    n = 0
    while len(leaves) < max_rounds:
        leaf = scanned_leaf(weighed[messages.bob_bits[n], messages.charlie_bits[n]], next(draws))
        leaves.append(leaf)
        if leaf.kind is RoundKind.MESSAGE:
            n += 1
            if n == messages.length:
                return "completed", leaves, n
        elif leaf.passed is False and policy is AbortPolicy.STRICT:
            return "aborted", leaves, n
    return "budget", leaves, n


STREAM_ATTACKS = [
    pytest.param(None, id="none"),
    pytest.param(AttackModel.intercept_resend(*ChannelSegment, attack_probability=0.4), id="intercept-all-p0.4"),
    pytest.param(AttackModel.entangle_measure(0.5, *ChannelSegment, attack_probability=0.7), id="entangle-p0.7"),
    pytest.param(AttackModel.disturbance(Pauli.X, ChannelSegment.B_TO_C), id="disturb"),
]


@pytest.fixture(scope="module")
def stream_table():
    """One table for the sessions of ``TestRoundDraws``, so each attack's
    compiled round is expanded once (``TestSharedTable``)."""
    return TransitionTable()


class Recording:
    """Forwards every call to a generator and records it as ``(name, args)``."""

    def __init__(self, generator):
        self.generator = generator
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.generator, name)

        def call(*args):
            self.calls.append((name, args))
            return method(*args)

        return call


class TestRoundDraws:
    """A session draws one double per round from its generator's
    ``random(256)`` blocks, and picks the round's leaf with it."""

    @staticmethod
    def session(seed, length, attack, policy, max_rounds, table):
        """How a seeded session ends, its leaves and bits delivered, then
        its generator's state and next draws."""
        rng = np.random.default_rng(seed)
        messages = MessageTriple.random(length, rng)
        try:
            result = run_protocol(messages, SchedulePolicy(0.25, 0.25, 0.4), rng, attack, policy, max_rounds, table)
            shown = ("completed", result.leaves, length)
        except ProtocolAborted as abort:
            shown = ("aborted", abort.leaves, sum(leaf.kind is RoundKind.MESSAGE for leaf in abort.leaves))
        except RoundBudgetExceeded as exc:
            shown = ("budget", str(exc))
        return shown, rng.bit_generator.state, rng.random(), rng.integers(0, 4)

    @staticmethod
    def scanned(seed, length, attack, policy, max_rounds, table):
        """What :meth:`session` shows, from :func:`scanned_session`."""
        rng = np.random.default_rng(seed)
        messages = MessageTriple.random(length, rng)
        ended, leaves, n = scanned_session(
            messages, SchedulePolicy(0.25, 0.25, 0.4), rng, attack, policy, max_rounds, table
        )
        if ended == "budget":
            shown = (ended, "budget of %d rounds exhausted with %d of %d bits delivered" % (max_rounds, n, length))
        else:
            shown = (ended, leaves, n)
        return shown, rng.bit_generator.state, rng.random(), rng.integers(0, 4)

    # 3n is odd for 127 bits, so the message draw leaves a 32-bit half
    # stored in the generator, and even for 128; a session of either
    # length that completes takes more than 256 rounds, so it draws from
    # a second block.
    @pytest.mark.parametrize("length", [127, 128])
    @pytest.mark.parametrize("policy", list(AbortPolicy), ids=lambda p: p.name.lower())
    @pytest.mark.parametrize("attack", STREAM_ATTACKS)
    def test_each_round_picks_its_leaf_with_the_next_block_draw(self, stream_table, attack, policy, length):
        for seed in range(3):
            got = self.session(seed, length, attack, policy, None, stream_table)
            assert got == self.scanned(seed, length, attack, policy, 10**6, stream_table)
            if got[0][0] == "completed":
                assert len(got[0][1]) > 256

    @pytest.mark.parametrize("length", [7, 8])
    def test_an_exhausted_budget_leaves_the_generator_one_block_on(self, stream_table, length):
        attack = AttackModel.intercept_resend(ChannelSegment.A_TO_B)
        for seed in range(3):
            got = self.session(seed, length, attack, RECORD, length, stream_table)
            assert got[0][0] == "budget"
            assert got == self.scanned(seed, length, attack, RECORD, length, stream_table)

    def test_every_generator_is_served_from_blocks(self, scripted):
        # A generator of any bit generator, a stand-in that only forwards
        # calls, and the scripted stand-in: each is asked for random(256)
        # blocks only, one per 256 rounds begun.
        messages = MessageTriple.random(200, np.random.default_rng(6))
        generators = [
            np.random.default_rng(5),
            np.random.Generator(np.random.MT19937(5)),
            Recording(np.random.default_rng(5)),
        ]
        for generator in generators:
            rng = Recording(generator)
            result = run_protocol(messages, SchedulePolicy(0.25, 0.25, 0.4), rng, abort_policy=RECORD)
            assert len(result.leaves) > 256
            assert rng.calls == [("random", (256,))] * math.ceil(len(result.leaves) / 256)
        rng = Recording(scripted([0.9] * 3))
        result = run_protocol(MessageTriple((1, 0, 1), (0, 0, 1), (1, 1, 0)), SchedulePolicy(0.0, 0.0, 0.0), rng)
        assert [leaf.kind for leaf in result.leaves] == [RoundKind.MESSAGE] * 3
        assert rng.calls == [("random", (256,))]


def reveal(leaf):
    """The decoy label a decoy-check leaf reveals."""
    (label,) = [values[0] for kind, *values in leaf.events if kind == "decoy_reveal"]
    return label


EXACT_MODELS = [
    pytest.param(AttackModel.intercept_resend(*ChannelSegment), id="intercept"),
    pytest.param(AttackModel.disturbance(Pauli.X, *ChannelSegment), id="disturb-x"),
    pytest.param(AttackModel.disturbance(Pauli.Z, *ChannelSegment), id="disturb-z"),
    pytest.param(AttackModel.entangle_measure(0.25, *ChannelSegment), id="entangle-0.25"),
    pytest.param(AttackModel.entangle_measure(0.5, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A), id="entangle-0.5"),
    pytest.param(AttackModel.intercept_resend(*ChannelSegment, attack_probability=0.4), id="intercept-p0.4"),
    pytest.param(AttackModel.entangle_measure(0.5, *ChannelSegment, attack_probability=0.4), id="entangle-p0.4"),
]


class TestCompiledRound:
    """Sessions draw their leaves from the round's leaves, weighed once per table for all four roots."""

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_the_tree_weights_are_the_exact_detection_probabilities(self, model):
        # Each check kind's failure weight, conditional on the kind, is the
        # enumerator's value for every message bit pair.
        table = TransitionTable()
        schedule = SchedulePolicy(0.25, 0.25, 0.4)
        leaves = {(j, k): protocol.leaf_weights(table, schedule, model, j, k) for j, k in BITS}
        families = {
            "ab_check": (RoundKind.BOB_EAVESDROP_CHECK, None),
            "ca_check": (RoundKind.BOB_CONTROL_CHECK, None),
            "decoy_check": (RoundKind.CHARLIE_DECOY_CHECK, None),
            "decoy_check_z": (RoundKind.CHARLIE_DECOY_CHECK, ("0", "1")),
            "decoy_check_x": (RoundKind.CHARLIE_DECOY_CHECK, ("+", "-")),
        }
        for bits, weighted in leaves.items():
            assert sum(weight for weight, _ in weighted) == pytest.approx(1.0, abs=1e-12)
            for name, (kind, labels) in families.items():
                runs = [
                    (weight, leaf.passed)
                    for weight, leaf in weighted
                    if leaf.kind is kind and (labels is None or reveal(leaf) in labels)
                ]
                run = sum(weight for weight, _ in runs)
                failed = sum(weight for weight, passed in runs if passed is False)
                family = {"decoy_check_z": Basis.Z, "decoy_check_x": Basis.X}.get(name)
                exact = analytic_detection_probability(model, kind.value, decoy_family=family)
                assert failed / run == pytest.approx(exact, abs=1e-12), (bits, name)

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_the_leaf_weights_are_the_reference_enumeration(self, model, two_enumerations):
        # Bit for bit and in the same order, from every root, under the
        # criterion-5 schedule.
        for j, k in BITS:
            got, expected = two_enumerations(SchedulePolicy(0.25, 0.1, 0.4), model, j, k)
            assert got == expected, (j, k)

    @pytest.mark.parametrize(
        "schedule, segment",
        [
            pytest.param(SchedulePolicy(0.0, 0.0, 0.0), ChannelSegment.A_TO_B, id="message-a_to_b"),
            pytest.param(SchedulePolicy(0.0, 0.0, 0.0), ChannelSegment.B_TO_C, id="message-b_to_c"),
            pytest.param(SchedulePolicy(0.0, 0.0, 0.0), ChannelSegment.C_TO_A, id="message-c_to_a"),
            pytest.param(SchedulePolicy(0.0, 0.0, 1.0), ChannelSegment.C_TO_A, id="decoy-c_to_a"),
        ],
    )
    def test_the_compiled_round_runs_the_hop_eve_covers(self, schedule, segment):
        # The compiled round itself, not a reference driving its steps:
        # intercept-resend on one segment touches every leaf of a round
        # that crosses it, with one record.  A message round then reads
        # Bob's and Charlie's bits with probability exactly 1/2, and a decoy
        # check fails with 1/4.
        model = AttackModel.intercept_resend(segment)
        table = TransitionTable()
        for j, k in BITS:
            weighed = protocol.leaf_weights(table, schedule, model, j, k)
            assert {(leaf.touched, len(leaf.eve)) for _, leaf in weighed} == {((segment,), 1)}
            if schedule.p_charlie_cm:
                failed = sum(weight for weight, leaf in weighed if leaf.passed is False)
                assert failed == pytest.approx(0.25, abs=1e-15), (j, k)
            else:
                right = sum(weight for weight, leaf in weighed if tuple(leaf.label) == (j, k))
                assert right == pytest.approx(0.5, abs=1e-15), (j, k)

    @pytest.mark.parametrize("p_fire", [1.0, 0.4])
    @pytest.mark.parametrize("beta_sq", [0.25, 0.5])
    def test_every_probe_is_read_and_touched_lists_eves_records(self, beta_sq, p_fire):
        # Entangle-measure on all three segments: every record Eve appends
        # carries the outcome of her probe's readout, and a leaf's touched
        # segments are her records' segments, in the order the round
        # crosses them.  At probability 1 she probes the pair on A->B and
        # rides along after, and probes a decoy on C->A.
        model = AttackModel.entangle_measure(beta_sq, *ChannelSegment, attack_probability=p_fire)
        table = TransitionTable()
        crossed = list(ChannelSegment)
        for j, k in BITS:
            for _, leaf in protocol.leaf_weights(table, SchedulePolicy(), model, j, k):
                assert all(fields[4] in (0, 1) for fields in leaf.eve), leaf.path
                assert leaf.touched == tuple(fields[0] for fields in leaf.eve), leaf.path
                assert list(leaf.touched) == sorted(leaf.touched, key=crossed.index), leaf.path
                if p_fire == 1.0:
                    probed = crossed[::2] if leaf.kind is RoundKind.CHARLIE_DECOY_CHECK else crossed[:1]
                    assert list(leaf.touched) == probed, leaf.path

    def test_a_session_draws_the_weighed_leaves_and_starts_no_round(self, monkeypatch):
        # Under intercept-resend on every segment at p 0.4 the four roots
        # weigh 3,492 leaves over 184 table edges, each root's list built
        # once: a later call on the table returns the same list.  A session
        # on the table starts no round's steps, and every leaf it reaches
        # is one of those leaves, of positive weight.
        attack = AttackModel.intercept_resend(*ChannelSegment, attack_probability=0.4)
        schedule = SchedulePolicy()
        table = TransitionTable()
        weighed = {(j, k): protocol.leaf_weights(table, schedule, attack, j, k) for j, k in BITS}
        assert sum(map(len, weighed.values())) == 3492
        assert len(table) == 184
        assert all(protocol.leaf_weights(table, schedule, attack, j, k) is weighed[j, k] for j, k in BITS)
        started = []
        monkeypatch.setattr(protocol, "_round_points", lambda *args: started.append(args))
        rng = np.random.default_rng(2000)
        result = run_protocol(MessageTriple.random(2000, rng), schedule, rng, attack, RECORD, table=table)
        assert started == []
        drawable = {leaf for pairs in weighed.values() for weight, leaf in pairs if weight > 0.0}
        assert set(result.leaves) <= drawable

    def test_a_draw_picks_the_first_leaf_its_cumulative_weight_exceeds(self, scripted):
        # No attack, and Bob's and Charlie's bits are (1, 0) in all three
        # message rounds.  From that root the leaves are, in answer order,
        # the four A-B checks (Z basis with outcomes (0, 1) and (1, 0), X
        # basis with (0, 0) and (1, 1)) at 1/8 each, then the message round
        # at 1/2.  One draw per round: 0.9 is the message round, 0.1 the
        # first check and 0.3 the third, and 0.5, a draw on a running sum,
        # the leaf after it; the session uses exactly these five draws.
        table = TransitionTable()
        messages = MessageTriple((0, 1, 1), (1, 1, 1), (0, 0, 0))
        rng = scripted([0.9, 0.1, 0.3, 0.9, 0.5])
        result = run_protocol(messages, SchedulePolicy(0.5, 0.0, 0.0), rng, table=table)
        assert rng.values == []
        weighed = protocol.leaf_weights(table, SchedulePolicy(0.5, 0.0, 0.0), AttackModel.none(), 1, 0)
        assert [weight for weight, _ in weighed] == pytest.approx([0.125] * 4 + [0.5])
        leaves = [leaf for _, leaf in weighed]
        assert result.leaves == [leaves[4], leaves[0], leaves[2], leaves[4], leaves[4]]
        # Paths: the bits (j, k), then the answers, Bob's and Charlie's bits
        # where each encodes; the Bell outcome (1, 0) is label index 2.
        assert [leaf.path for leaf in result.leaves[:3]] == [
            (1, 0, False, False, 1, False, 0, 2),
            (1, 0, True, True, True, False),
            (1, 0, True, False, True, True),
        ]
        check, message = RoundKind.BOB_EAVESDROP_CHECK, RoundKind.MESSAGE
        assert [record.kind for record in result.records] == [message, check, check, message, message]


def chi_square_quantile(p, df):
    """The chi-square value that ``df`` degrees of freedom exceed with
    probability ``p``, by the Wilson-Hilferty cube-root approximation."""
    z = NormalDist().inv_cdf(1.0 - p)
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def g_statistic(weighed_roots, counts):
    """The G statistic of the leaves sampled from each root, counted in
    ``counts``, against that root's leaf weights, summed over the roots,
    and its degrees of freedom.

    ``weighed_roots`` maps each root (j, k) to its ``leaf_weights``.  A
    root's expected count of a leaf is the root's sampled rounds times the
    leaf's weight; a leaf without positive weight must never be sampled.
    """
    g = 0.0
    df = 0
    for root, weighed in weighed_roots.items():
        drawable = [(weight, leaf) for weight, leaf in weighed if weight > 0.0]
        sampled = sum(counts[leaf] for _, leaf in drawable)
        assert sampled == sum(c for leaf, c in counts.items() if leaf.path[:2] == root)
        for weight, leaf in drawable:
            observed = counts[leaf]
            if observed:
                g += 2.0 * observed * math.log(observed / (sampled * weight))
        df += len(drawable) - 1
    return g, df


def two_sample_g(first, second):
    """The G statistic of two samples of leaves, counted in ``first`` and
    ``second``, against one law for both (a 2 x K contingency table), and
    its degrees of freedom, K - 1 over the K leaves either sample reached."""
    total_first, total_second = first.total(), second.total()
    share = total_first / (total_first + total_second)
    g = 0.0
    reached = set(first) | set(second)
    for leaf in reached:
        both = first[leaf] + second[leaf]
        for observed, expected in ((first[leaf], both * share), (second[leaf], both * (1.0 - share))):
            if observed:
                g += 2.0 * observed * math.log(observed / expected)
    return g, len(reached) - 1


# The acceptance configurations whose leaf histograms are tested, each with
# its acceptance seed: criterion 2 (no attack), criterion 6 (intercept-resend
# on A->B) and criterion 5 at |beta|^2 = 0.5.
G_TEST_CASES = [
    pytest.param(SchedulePolicy(0.05, 0.05, 0.05), AttackModel.none(), 1002, id="criterion-2"),
    pytest.param(
        SchedulePolicy(0.5, 0.25, 0.25), AttackModel.intercept_resend(ChannelSegment.A_TO_B), 1006, id="criterion-6"
    ),
    pytest.param(
        SchedulePolicy(0.25, 0.1, 0.4),
        AttackModel.entangle_measure(0.5, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A),
        1005,
        id="criterion-5-beta-sq-0.5",
    ),
]


class TestLeafHistogram:
    """Sessions sample each root's leaves with the exact leaf weights.

    A G-test at p = 1e-6 catches a sampler only where it moves enough
    mass.  On criterion 2, whose roots put 86% of their mass on one message
    leaf, a sampler that draws with ``random() * 0.99`` passes it (G = 62.0
    against a threshold of 110.1 at 48 degrees of freedom), though
    criteria 6 and 5 reject it.  The exact gate for such a sampler is
    ``TestRoundDraws``, which compares every session's leaves with those of
    ``scanned_session`` (16 of its 19 cases fail under that sampler).
    ``TestExtremeDraws`` (tests/test_adversary.py) pins the leaves that the
    draws 0.0 and 1 - 2**-53 pick; it catches a sampler that mishandles the
    largest draw, but not that one, whose largest draw, 0.99, still falls
    in each root's last leaf on that test's model grid."""

    def test_the_quantile_matches_known_values(self):
        # Exact upper-tail quantiles: 18.307 for 0.05 at 10 degrees of
        # freedom, 109.659 for 1e-6 at 48 and 296.196 for 1e-6 at 189.
        assert chi_square_quantile(0.05, 10) == pytest.approx(18.307, rel=2e-3)
        assert chi_square_quantile(1e-6, 48) == pytest.approx(109.659, rel=1e-2)
        assert chi_square_quantile(1e-6, 189) == pytest.approx(296.196, rel=1e-2)

    @pytest.mark.parametrize("schedule, model, seed", G_TEST_CASES)
    def test_a_million_rounds_pass_a_g_test_against_the_leaf_weights(self, schedule, model, seed):
        table = TransitionTable()
        rng = np.random.default_rng(seed)
        counts = Counter()
        while counts.total() < 1_000_000:
            result = run_protocol(MessageTriple.random(10_000, rng), schedule, rng, model, RECORD, table=table)
            counts.update(result.leaves)
        weighed_roots = {(j, k): protocol.leaf_weights(table, schedule, model, j, k) for j, k in BITS}
        g, df = g_statistic(weighed_roots, counts)
        assert g < chi_square_quantile(1e-6, df), (g, df)


class TestLeafFamily:
    """A leaf carries its decoy family: the report's and the enumerator's
    decoy family rows read it, not the transcript."""

    @pytest.mark.parametrize(
        "schedule, model", [pytest.param(*case.values[:2], id=case.id) for case in G_TEST_CASES]
    )
    def test_a_decoy_checks_family_is_the_basis_of_the_decoy_it_reveals(self, schedule, model):
        table = TransitionTable()
        leaves = [leaf for j, k in BITS for _, leaf in protocol.leaf_weights(table, schedule, model, j, k)]
        decoys = [leaf for leaf in leaves if leaf.kind is RoundKind.CHARLIE_DECOY_CHECK]
        assert {leaf.family for leaf in decoys} == {Basis.Z, Basis.X}
        for leaf in leaves:
            if leaf.kind is RoundKind.CHARLIE_DECOY_CHECK:
                assert leaf.family is decoy_basis_and_bit(DecoyState(reveal(leaf)))[0]
            else:
                assert leaf.family is None
