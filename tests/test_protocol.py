from itertools import product

import numpy as np
import pytest

from qsdc3 import protocol
from qsdc3.adversary import AttackModel, ChannelSegment
from qsdc3.protocol import (
    AbortPolicy,
    MessageTriple,
    ProtocolAborted,
    PublicTranscript,
    RoundBudgetExceeded,
    RoundKind,
    SchedulePolicy,
    TranscriptEvent,
    announce,
    decode_alice,
    decode_bob,
    decode_charlie,
    encode_bob,
    encode_charlie,
    run_ab_check,
    run_ca_check,
    run_decoy_check,
    run_protocol,
)
from qsdc3.states import (
    Basis,
    DecoyState,
    Pauli,
    TransitionTable,
    apply_pauli_on_transit,
    attach_ancilla_and_entangle,
    bell_state,
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
    def test_joint_encoding_reaches_label_jk(self, j, k, rng):
        state = apply_pauli_on_transit(bell_state((0, 0)), encode_bob(j))
        state = apply_pauli_on_transit(state, encode_charlie(k))
        from qsdc3.states import bell_measure

        label, _ = bell_measure(state, rng)
        assert (label.flip, label.phase) == (j, k)


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


class TestChecks:
    def test_honest_pair_always_passes(self, rng):
        for _ in range(200):
            passed, _ = run_ab_check(bell_state((0, 0)), rng)
            assert passed

    def test_ca_check_mirrors_ab(self, rng):
        for _ in range(200):
            passed, _ = run_ca_check(bell_state((0, 0)), rng)
            assert passed

    def test_bit_flipped_pair_fails_exactly_in_z(self, rng):
        # After a bit-flip disturbance the pair is label (1,0): Z outcomes
        # become equal (fail) while X stays correlated (pass).
        transcript = PublicTranscript()
        disturbed = apply_pauli_on_transit(bell_state((0, 0)), Pauli.X)
        z_seen = x_seen = 0
        for round_index in range(300):
            passed, _ = run_ab_check(disturbed, rng, transcript, round_index)
            basis = transcript.events[-2].payload["basis"]
            if basis == "Z":
                z_seen += 1
                assert not passed
            else:
                x_seen += 1
                assert passed
        assert z_seen and x_seen

    def test_phase_flipped_pair_fails_exactly_in_x(self, rng):
        disturbed = apply_pauli_on_transit(bell_state((0, 0)), Pauli.Z)
        transcript = PublicTranscript()
        for round_index in range(300):
            passed, _ = run_ca_check(disturbed, rng, transcript, round_index)
            basis = transcript.events[-2].payload["basis"]
            assert passed == (basis == "Z")

    def test_unattacked_decoys_always_pass(self, rng):
        for label in DecoyState:
            for _ in range(50):
                passed, _ = run_decoy_check(label, prepare_decoy(label), rng)
                assert passed

    def test_unknown_decoy_label_is_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown decoy label"):
            run_decoy_check("+", prepare_decoy(DecoyState.PLUS), rng)

    def test_probe_coupled_zero_decoy_fails_half_the_time(self, rng):
        fails = 0
        n = 2000
        for _ in range(n):
            received = attach_ancilla_and_entangle(prepare_decoy(DecoyState.ZERO), 0.5**0.5, 0.5**0.5)
            passed, _ = run_decoy_check(DecoyState.ZERO, received, rng)
            fails += not passed
        assert abs(fails / n - 0.5) < 4 * (0.25 / n) ** 0.5

    def test_probe_coupled_plus_decoy_never_fails(self, rng):
        for _ in range(200):
            received = attach_ancilla_and_entangle(prepare_decoy(DecoyState.PLUS), 0.6, 0.8)
            passed, _ = run_decoy_check(DecoyState.PLUS, received, rng)
            assert passed


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
        ],
        ids=["fraction", "half", "digit_string", "none", "letter", "nan", "inf"],
    )
    def test_rejects_values_that_are_not_exactly_bits(self, triple, field):
        with pytest.raises(ValueError, match=field):
            MessageTriple(*triple)

    def test_accepts_bools_and_numpy_integers(self):
        messages = MessageTriple((True, False), np.array([1, 0]), (np.int8(0), np.uint64(1)))
        assert messages == MessageTriple((1, 0), (1, 0), (0, 1))
        assert all(type(b) is int for b in messages.charlie_bits)


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


class TestRunProtocol:
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
        with pytest.raises(RoundBudgetExceeded):
            run_protocol(messages, SchedulePolicy(p_ab_check=1.0), rng, max_rounds=64)

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
        # bounded by the few dozen distinct states a round can reach: 175
        # edges at 2,000 bits and 184 at 20,000 (without interning, 452 and
        # 543, and still growing).
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
            edges = [table._paulis, table._measures, table._attaches, table._readouts, table._bells]
            assert all(id(edge[0]) in nodes for kind in edges for edge in kind.values())
            assert len(table._nodes) < 64
            assert len(table) < 192


class ScalarOnly:
    """Forwards every call to a generator; not a ``Generator`` itself, so a
    session over it draws one value at a time."""

    def __init__(self, generator):
        self.generator = generator

    def __getattr__(self, name):
        return getattr(self.generator, name)


STREAM_ATTACKS = [
    pytest.param(None, id="none"),
    pytest.param(AttackModel.intercept_resend(*ChannelSegment, attack_probability=0.4), id="intercept-all-p0.4"),
    pytest.param(AttackModel.entangle_measure(0.5, *ChannelSegment, attack_probability=0.7), id="entangle-p0.7"),
    pytest.param(AttackModel.disturbance(Pauli.X, ChannelSegment.B_TO_C), id="disturb"),
]


class TestBlockDraws:
    """A ``Generator(PCG64)`` session draws in blocks, with the scalar stream."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        class Recording(protocol._BlockUniforms):
            def __init__(self, rng):
                built.append(rng)
                super().__init__(rng)

        monkeypatch.setattr(protocol, "_BlockUniforms", Recording)
        return built

    @staticmethod
    def session(rng, length, attack, policy, max_rounds=None):
        """Everything a session shows, then the generator's state and next draws."""
        generator = getattr(rng, "generator", rng)
        messages = MessageTriple.random(length, generator)
        try:
            result = run_protocol(messages, SchedulePolicy(0.25, 0.25, 0.4), rng, attack, policy, max_rounds)
            shown = ("completed", result.rounds_used, result.records, result.transcript.events, result.eve_records)
        except ProtocolAborted as abort:
            shown = ("aborted", abort.round_index, abort.records, abort.transcript.events, abort.eve_records)
        except RoundBudgetExceeded as exc:
            shown = ("budget", str(exc))
        state = generator.bit_generator.state
        return shown, state, generator.random(), generator.integers(0, 4), generator.integers(0, 4)

    # 3n is odd for 63 bits, so the session starts with a 32-bit half
    # pending in the generator, and even for 64; either session runs over
    # several blocks under record-and-continue.
    @pytest.mark.parametrize("length", [63, 64])
    @pytest.mark.parametrize("policy", list(AbortPolicy))
    @pytest.mark.parametrize("attack", STREAM_ATTACKS)
    def test_the_block_path_keeps_the_scalar_stream(self, built, attack, policy, length):
        for seed in range(3):
            blocked = self.session(np.random.default_rng(seed), length, attack, policy)
            scalar = self.session(ScalarOnly(np.random.default_rng(seed)), length, attack, policy)
            assert blocked == scalar
        assert len(built) == 3

    @pytest.mark.parametrize("length", [7, 8])
    def test_an_exhausted_budget_leaves_the_scalar_state(self, built, length):
        attack = AttackModel.intercept_resend(ChannelSegment.A_TO_B)
        policy = AbortPolicy.RECORD_AND_CONTINUE
        for seed in range(3):
            blocked = self.session(np.random.default_rng(seed), length, attack, policy, length)
            scalar = self.session(ScalarOnly(np.random.default_rng(seed)), length, attack, policy, length)
            assert blocked[0][0] == "budget"
            assert blocked == scalar
        assert len(built) == 3

    def test_only_an_exact_pcg64_generator_draws_in_blocks(self, built, scripted):
        messages = MessageTriple((1,), (0,), (1,))
        never = SchedulePolicy(0.0, 0.0, 0.0)
        run_protocol(messages, never, scripted([0.5] * 4))
        run_protocol(messages, never, np.random.Generator(np.random.MT19937(5)))
        run_protocol(messages, never, ScalarOnly(np.random.default_rng(5)))
        assert built == []
        pcg64 = np.random.default_rng(5)
        run_protocol(messages, never, pcg64)
        assert built == [pcg64]

    def test_block_draws_serve_only_the_decoy_label(self):
        blocks = protocol._BlockUniforms(np.random.default_rng(5))
        with pytest.raises(ValueError, match="integers"):
            blocks.integers(0, 2)
        blocks.close()
