import dataclasses
import math

import numpy as np
import pytest

from qsdc3.adversary import (
    AttackKind,
    AttackModel,
    ChannelSegment,
    Eavesdropper,
    analytic_detection_probability,
    attack_transit,
    paper_claimed_detection,
)
from qsdc3.harness import ExperimentConfig, run_experiment
from qsdc3.protocol import AbortPolicy, MessageTriple, RoundKind, SchedulePolicy, run_protocol
from qsdc3.states import (
    Basis,
    DecoyState,
    Pauli,
    TransitionTable,
    bell_state,
    prepare_decoy,
)

RH = math.sqrt(0.5)

AB = ChannelSegment.A_TO_B
BC = ChannelSegment.B_TO_C
CA = ChannelSegment.C_TO_A


def amps_close(state, expected, atol=1e-12):
    return all(abs(a - e) <= atol for a, e in zip(state.amps, expected))


class TestAttackModel:
    def test_active_attack_needs_segments(self):
        with pytest.raises(ValueError, match="segment"):
            AttackModel(AttackKind.INTERCEPT_RESEND)

    def test_null_attack_covers_nothing(self):
        with pytest.raises(ValueError, match="no segments"):
            AttackModel(AttackKind.NONE, frozenset({AB}))

    def test_disturbance_needs_a_flip(self):
        with pytest.raises(ValueError, match="flips"):
            AttackModel(AttackKind.DISTURBANCE, frozenset({AB}))
        with pytest.raises(ValueError, match="flips"):
            AttackModel.disturbance(Pauli.I, AB)

    def test_probe_coefficients_must_be_normalized(self):
        with pytest.raises(ValueError, match="alpha"):
            AttackModel(AttackKind.ENTANGLE_MEASURE, frozenset({AB}), alpha=0.9, beta=0.9)

    def test_beta_sq_constructor(self):
        model = AttackModel.entangle_measure(0.25, AB)
        assert abs(model.beta) ** 2 == pytest.approx(0.25, abs=1e-12)
        with pytest.raises(ValueError, match="beta_sq"):
            AttackModel.entangle_measure(1.5, AB)

    def test_attack_probability_range(self):
        with pytest.raises(ValueError, match="attack_probability"):
            AttackModel.intercept_resend(AB, attack_probability=-0.1)


class TestAttackTransit:
    def test_uncovered_segment_is_identity(self, rng):
        model = AttackModel.disturbance(Pauli.X, BC)
        state, record = attack_transit(model, AB, bell_state((0, 0)), rng)
        assert state is bell_state((0, 0))
        assert record is None

    def test_probe_coupling_state(self, rng):
        model = AttackModel.entangle_measure(0.64, AB)
        state, record = attack_transit(model, AB, bell_state((0, 0)), rng)
        a, b = 0.6 * RH, 0.8 * RH
        assert amps_close(state, (0, b, a, 0, a, 0, 0, b))
        assert record.kind is AttackKind.ENTANGLE_MEASURE
        assert record.segment is AB

    def test_probe_attaches_once_per_flying_qubit(self, rng):
        model = AttackModel.entangle_measure(0.5, AB, BC)
        state, first = attack_transit(model, AB, bell_state((0, 0)), rng)
        state2, second = attack_transit(model, BC, state, rng)
        assert second is None
        assert state2 is state

    def test_disturbance_flips_the_pair(self, rng):
        model = AttackModel.disturbance(Pauli.X, AB)
        state, record = attack_transit(model, AB, bell_state((0, 0)), rng)
        assert amps_close(state, bell_state((1, 0)).amps)
        assert record.basis is None

    def test_intercept_resend_z_branch(self, scripted):
        # Scripted draws: 0.4 -> Z basis, 0.2 -> outcome 0.  Eve reads the
        # transit as 0, so the forwarded qubit is |0> and the home qubit has
        # collapsed to |1>.
        model = AttackModel.intercept_resend(AB)
        state, record = attack_transit(model, AB, bell_state((0, 0)), scripted([0.4, 0.2]))
        assert amps_close(state, (0, 0, 1, 0))
        assert record.basis is Basis.Z
        assert record.outcome == 0

    def test_attack_probability_skips(self, scripted):
        model = AttackModel.disturbance(Pauli.X, AB, attack_probability=0.5)
        state, record = attack_transit(model, AB, bell_state((0, 0)), scripted([0.9]))
        assert record is None and state is bell_state((0, 0))
        state, record = attack_transit(model, AB, bell_state((0, 0)), scripted([0.1]))
        assert record is not None and amps_close(state, bell_state((1, 0)).amps)


# (model, hop, state, scripted draws) for every attack kind, each fired at
# probability 1 and, at probability 0.4, skipped by a draw of 0.5 and fired
# by a draw of 0.1.
_STRATEGY_CASES = []
for _name, _make, _draws in (
    ("disturb", lambda p: AttackModel.disturbance(Pauli.X, AB, CA, attack_probability=p), []),
    ("intercept", lambda p: AttackModel.intercept_resend(AB, CA, attack_probability=p), [0.7, 0.2]),
    ("entangle", lambda p: AttackModel.entangle_measure(0.3, AB, CA, attack_probability=p), []),
):
    for _segment, _state in ((AB, bell_state((0, 1))), (CA, prepare_decoy(DecoyState.PLUS))):
        for _p, _case_draws, _label in (
            (1.0, _draws, "always"),
            (0.4, [0.5], "p0.4-skips"),
            (0.4, [0.1] + _draws, "p0.4-fires"),
        ):
            _STRATEGY_CASES.append(
                pytest.param(
                    _make(_p), _segment, _state, _case_draws, id="%s-%s-%s" % (_name, _segment.value, _label)
                )
            )


class TestOneStrategyPerKind:
    """The engine's Eavesdropper and attack_transit run the same strategy."""

    @pytest.mark.parametrize("model, segment, state, draws", _STRATEGY_CASES)
    def test_eavesdropper_matches_attack_transit(self, scripted, model, segment, state, draws):
        direct_rng = scripted(draws)
        direct, record = attack_transit(model, segment, state, direct_rng)
        eve = Eavesdropper(model, TransitionTable())
        engine_rng = scripted(draws)
        touched = []
        engine = eve.intercept_transit(segment, state, engine_rng, 7, touched)
        assert engine == direct
        assert direct_rng.values == engine_rng.values == []
        if record is None:
            assert draws == [0.5]
            assert engine is state and eve.records == [] and touched == []
        else:
            assert record.round_index == -1
            assert eve.records == [dataclasses.replace(record, round_index=7)]
            assert touched == [segment]

    @pytest.mark.parametrize("p_fire", [1.0, 0.4])
    def test_a_probed_qubit_is_not_probed_again(self, scripted, p_fire):
        model = AttackModel.entangle_measure(0.3, AB, BC, attack_probability=p_fire)
        eve = Eavesdropper(model, TransitionTable())
        probed, _ = attack_transit(model, AB, bell_state((0, 0)), scripted([0.1]))
        assert probed.has_ancilla
        touched = []
        draws = [0.1] if p_fire < 1.0 else []
        assert eve.intercept_transit(BC, probed, scripted(draws), 3, touched) is probed
        assert attack_transit(model, BC, probed, scripted(draws)) == (probed, None)
        assert eve.records == [] and touched == []

    def test_records_are_slotted(self):
        record = attack_transit(AttackModel.disturbance(Pauli.Z, AB), AB, bell_state((0, 0)), None)[1]
        assert not hasattr(record, "__dict__")


class TestAttackDecoy:
    def test_probe_on_plus_factorizes(self, rng):
        model = AttackModel.entangle_measure(0.64, CA)
        state, _ = attack_transit(model, CA, prepare_decoy(DecoyState.PLUS), rng)
        assert amps_close(state, (0.6 * RH, 0.8 * RH, 0.6 * RH, 0.8 * RH))

    def test_probe_on_zero_entangles(self, rng):
        model = AttackModel.entangle_measure(0.64, CA)
        state, _ = attack_transit(model, CA, prepare_decoy(DecoyState.ZERO), rng)
        assert amps_close(state, (0.6, 0, 0, 0.8))

    def test_phase_disturbance_is_invisible_on_z_decoys(self, rng):
        model = AttackModel.disturbance(Pauli.Z, CA)
        state, _ = attack_transit(model, CA, prepare_decoy(DecoyState.ZERO), rng)
        assert amps_close(state, (1, 0))
        state, _ = attack_transit(model, CA, prepare_decoy(DecoyState.PLUS), rng)
        assert amps_close(state, (RH, -RH))  # |+> flipped to |->: always caught


class TestAnalyticDetection:
    """Frozen oracle values, each derived by direct enumeration by hand:

    * disturbance (either flip): caught by exactly one of the two check
      bases, chosen with probability 1/2 -> 1/2 per check;
    * intercept-and-resend with a uniform basis: detection only when Eve's
      basis differs from the check basis (prob 1/2) and the re-prepared
      qubit betrays itself (prob 1/2) -> 1/4 per check;
    * probe coupling: flips the pair to the bit-flipped label with weight
      |beta|^2, visible only in the Z-type test -> |beta|^2 / 2 per check,
      with decoy splits |beta|^2 (Z family) and 0 (X family).
    """

    def test_disturbance_is_half_everywhere(self):
        for pauli in (Pauli.X, Pauli.Z):
            model_ab = AttackModel.disturbance(pauli, AB)
            assert analytic_detection_probability(model_ab, "ab_check") == pytest.approx(0.5, abs=1e-12)
            assert analytic_detection_probability(model_ab, "ca_check") == pytest.approx(0.5, abs=1e-12)
            model_ca = AttackModel.disturbance(pauli, CA)
            assert analytic_detection_probability(model_ca, "decoy_check") == pytest.approx(0.5, abs=1e-12)

    def test_intercept_resend_is_one_quarter_per_interception(self):
        model = AttackModel.intercept_resend(AB, BC, CA)
        assert analytic_detection_probability(model, "ab_check") == pytest.approx(0.25, abs=1e-12)
        assert analytic_detection_probability(model, "decoy_check") == pytest.approx(0.25, abs=1e-12)
        # The C-A check's qubit crosses two attacked hops.  Enumerating Eve's
        # two basis choices against the check basis: matching bases reduce to
        # a single interception (1/4), mismatched ones randomize one side of
        # the correlation (1/2), so (1/4)(1/4 + 1/2 + 1/2 + 1/4) = 3/8.
        assert analytic_detection_probability(model, "ca_check") == pytest.approx(0.375, abs=1e-12)
        # One interception anywhere on the two-hop path stays at 1/4.
        single = AttackModel.intercept_resend(BC)
        assert analytic_detection_probability(single, "ca_check") == pytest.approx(0.25, abs=1e-12)

    def test_intercept_resend_disagrees_with_the_blanket_half_claim(self):
        model = AttackModel.intercept_resend(AB)
        enumerated = analytic_detection_probability(model, "ab_check")
        claimed = paper_claimed_detection(AttackKind.INTERCEPT_RESEND)
        assert enumerated == pytest.approx(0.25, abs=1e-12)
        assert claimed == 0.5
        assert enumerated != claimed

    @pytest.mark.parametrize("beta_sq", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_probe_coupling_scales_with_flip_weight(self, beta_sq):
        model = AttackModel.entangle_measure(beta_sq, AB, CA)
        assert analytic_detection_probability(model, "ab_check") == pytest.approx(
            beta_sq / 2, abs=1e-12
        )
        assert analytic_detection_probability(model, "decoy_check") == pytest.approx(
            beta_sq / 2, abs=1e-12
        )
        assert analytic_detection_probability(model, "decoy_check", Basis.Z) == pytest.approx(
            beta_sq, abs=1e-12
        )
        assert analytic_detection_probability(model, "decoy_check", Basis.X) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_uncovered_path_detects_nothing(self):
        model = AttackModel.disturbance(Pauli.X, CA)
        assert analytic_detection_probability(model, "ab_check") == 0.0

    def test_double_disturbance_cancels_on_the_ca_path(self):
        # The C-A check's qubit crosses both attacked hops; two bit flips
        # restore the pair, so that check sees nothing while the A-B check
        # (one hop) still fires at 1/2.
        model = AttackModel.disturbance(Pauli.X, AB, BC)
        assert analytic_detection_probability(model, "ca_check") == pytest.approx(0.0, abs=1e-12)
        assert analytic_detection_probability(model, "ab_check") == pytest.approx(0.5, abs=1e-12)

    def test_attack_probability_scales_linearly(self):
        model = AttackModel.disturbance(Pauli.X, AB, attack_probability=0.4)
        assert analytic_detection_probability(model, "ab_check") == pytest.approx(0.2, abs=1e-12)

    def test_round_kind_enum_accepted(self):
        model = AttackModel.disturbance(Pauli.X, AB)
        assert analytic_detection_probability(model, RoundKind.BOB_EAVESDROP_CHECK) == 0.5

    def test_rejects_null_attack_and_message_rounds(self):
        with pytest.raises(ValueError, match="active"):
            analytic_detection_probability(AttackModel.none(), "ab_check")
        model = AttackModel.disturbance(Pauli.X, AB)
        with pytest.raises(ValueError, match="check"):
            analytic_detection_probability(model, RoundKind.MESSAGE)


class TestEavesdropperBookkeeping:
    def test_identity_probe_is_undetectable_end_to_end(self, rng):
        # A probe with beta = 0 never disturbs anything: no failed checks,
        # perfect decoding (and Eve learns nothing - her probe never flips).
        messages = MessageTriple.random(48, rng)
        attack = AttackModel.entangle_measure(0.0, AB, BC, CA)
        result = run_protocol(messages, SchedulePolicy(0.3, 0.3, 0.3), rng, attack=attack)
        assert all(r.check_passed for r in result.records if r.kind is not RoundKind.MESSAGE)
        assert result.decoded.alice_view_bob == messages.bob_bits
        assert result.decoded.bob_view_charlie == messages.charlie_bits
        outcomes = [e.ancilla_outcome for e in result.eve_records]
        assert outcomes and all(o == 0 for o in outcomes)

    def test_every_probe_is_resolved(self, rng):
        messages = MessageTriple.random(32, rng)
        attack = AttackModel.entangle_measure(0.5, AB, CA)
        result = run_protocol(
            messages,
            SchedulePolicy(),
            rng,
            attack=attack,
            abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
        )
        assert result.eve_records
        assert all(e.ancilla_outcome in (0, 1) for e in result.eve_records)

    def test_probe_flip_statistics_match_flip_weight(self):
        beta_sq = 0.3
        config = ExperimentConfig(
            message_length=48,
            trials=60,
            schedule=SchedulePolicy(0.25, 0.2, 0.3),
            attack=AttackModel.entangle_measure(beta_sq, AB, CA),
            abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
            seed=5,
        )
        result = run_experiment(config)
        n = result.eve.probe_measurements
        freq = result.eve.probe_flip_frequency
        assert n > 3000
        se = math.sqrt(beta_sq * (1 - beta_sq) / n)
        assert abs(freq - beta_sq) < 4 * se

    def test_x_family_decoys_are_transparent_to_the_probe(self):
        config = ExperimentConfig(
            message_length=64,
            trials=60,
            schedule=SchedulePolicy(0.1, 0.1, 0.5),
            attack=AttackModel.entangle_measure(1.0, CA),
            abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
            seed=6,
        )
        result = run_experiment(config)
        x_family = result.detection.kinds["decoy_check_x"]
        z_family = result.detection.kinds["decoy_check_z"]
        assert x_family.checks_run > 500
        assert x_family.checks_failed == 0
        # beta^2 = 1 flips every Z-family decoy.
        assert z_family.checks_failed == z_family.checks_run

    def test_paper_claim_values(self):
        assert paper_claimed_detection(AttackKind.INTERCEPT_RESEND) == 0.5
        assert paper_claimed_detection(AttackKind.DISTURBANCE) == 0.5
        assert paper_claimed_detection(AttackKind.ENTANGLE_MEASURE) is None
        assert paper_claimed_detection(AttackKind.NONE) is None
