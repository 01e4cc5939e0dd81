import copy
import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from qsdc3 import adversary, backend, protocol, states
from qsdc3.adversary import AttackModel, ChannelSegment, Eavesdropper, attack_transit
from qsdc3.cli import render_json
from qsdc3.harness import ExperimentConfig, run_experiment
from qsdc3.protocol import SchedulePolicy
from qsdc3.states import (
    Basis,
    BellLabel,
    DecoyState,
    JointState,
    Pauli,
    Subsystem,
    TransitionTable,
    allclose_up_to_global_phase,
    apply_pauli_on_transit,
    attach_ancilla_and_entangle,
    bell_measure,
    bell_state,
    collapse_outcome,
    decoy_basis_and_bit,
    measure_ancilla_and_discard,
    measure_qubit,
    outcome_probabilities,
    prepare_decoy,
)

RH = math.sqrt(0.5)
PAIR = (Subsystem.HOME, Subsystem.TRANSIT)


def amps_close(state, expected, atol=1e-12):
    return all(abs(a - e) <= atol for a, e in zip(state.amps, expected))


class TestBellStates:
    # Amplitude conventions over (|00>, |01>, |10>, |11>).
    @pytest.mark.parametrize(
        "label, expected",
        [
            ((0, 0), (0, RH, RH, 0)),
            ((1, 0), (RH, 0, 0, RH)),
            ((0, 1), (0, -RH, RH, 0)),
            ((1, 1), (RH, 0, 0, -RH)),
        ],
    )
    def test_amplitudes(self, label, expected):
        assert amps_close(bell_state(label), expected)

    def test_accepts_bell_label(self):
        assert bell_state(BellLabel(1, 1)) is bell_state((1, 1))

    def test_normalized(self):
        for label in ((0, 0), (0, 1), (1, 0), (1, 1)):
            amps = bell_state(label).amps
            assert abs(sum(abs(a) ** 2 for a in amps) - 1.0) < 1e-12

    def test_label_bits_validated(self):
        with pytest.raises(ValueError):
            BellLabel(2, 0)

    @pytest.mark.parametrize("label", [(2, 0), (0,), (0, 0, 0), 3, ([0], 0)])
    def test_unknown_label_names_the_legal_ones(self, label):
        with pytest.raises(ValueError, match=r"\(0, 0\), \(0, 1\), \(1, 0\), \(1, 1\)"):
            bell_state(label)


class TestPauliOnTransit:
    def test_bit_flip_moves_00_to_10(self):
        out = apply_pauli_on_transit(bell_state((0, 0)), Pauli.X)
        assert amps_close(out, bell_state((1, 0)).amps)

    def test_phase_flip_moves_10_to_11(self):
        out = apply_pauli_on_transit(bell_state((1, 0)), Pauli.Z)
        assert amps_close(out, bell_state((1, 1)).amps)

    def test_phase_flip_moves_00_to_01(self):
        # (|01>+|10>)/sqrt2 -> (|10>-|01>)/sqrt2, exactly the listed sign.
        out = apply_pauli_on_transit(bell_state((0, 0)), Pauli.Z)
        assert amps_close(out, bell_state((0, 1)).amps)

    def test_identity_returns_same_state(self, rng):
        for label in ((0, 0), (1, 1)):
            state = bell_state(label)
            assert apply_pauli_on_transit(state, Pauli.I).amps == state.amps

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("k", [0, 1])
    def test_encoding_identity(self, j, k, rng):
        # Bit flip to the j-th power then phase flip to the k-th power on the
        # transit qubit maps the base pair to label (j, k) with certainty.
        state = bell_state((0, 0))
        if j:
            state = apply_pauli_on_transit(state, Pauli.X)
        if k:
            state = apply_pauli_on_transit(state, Pauli.Z)
        label, post = bell_measure(state, rng)
        assert (label.flip, label.phase) == (j, k)
        assert allclose_up_to_global_phase(post, bell_state((j, k)))

    @pytest.mark.parametrize("pauli", ["X", 1, None])
    def test_rejects_a_non_pauli(self, pauli):
        with pytest.raises(ValueError, match="not a Pauli"):
            apply_pauli_on_transit(bell_state((0, 0)), pauli)

    def test_norm_preserved(self, rng):
        state = bell_state((0, 1))
        for pauli in (Pauli.X, Pauli.Z, Pauli.X):
            state = apply_pauli_on_transit(state, pauli)
            assert abs(sum(abs(a) ** 2 for a in state.amps) - 1.0) < 1e-12


class TestBellMeasure:
    @pytest.mark.parametrize("label", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_eigenstates_are_certain(self, label, rng):
        for _ in range(8):
            out, post = bell_measure(bell_state(label), rng)
            assert (out.flip, out.phase) == label
            assert post is bell_state(label)

    def test_rejects_probe_carrying_state(self, rng):
        state = attach_ancilla_and_entangle(bell_state((0, 0)), RH, RH)
        with pytest.raises(ValueError, match="probe"):
            bell_measure(state, rng)

    def test_rejects_lone_qubit(self, rng):
        with pytest.raises(ValueError):
            bell_measure(prepare_decoy(DecoyState.PLUS), rng)

    def test_after_probe_projection_onto_chi0(self, scripted):
        # Probe-coupled pair with alpha = beta = 1/sqrt2: reading chi0 leaves
        # the original pair, so the joint measurement is certain.
        state = attach_ancilla_and_entangle(bell_state((0, 0)), RH, RH)
        outcome, remaining = measure_ancilla_and_discard(state, scripted([0.3]))
        assert outcome == 0
        label, _ = bell_measure(remaining, scripted([0.9]))
        assert (label.flip, label.phase) == (0, 0)

    def test_rounding_overshoot_never_draws_a_zero_probability_label(self, scripted):
        # Label (0,0) carries all of the weight, yet the total falls 5e-13
        # short of 1 (inside NORM_ATOL); a draw above that total must still
        # land on (0,0), not on the zero-probability label (1,1).
        s = math.sqrt((1.0 - 5e-13) / 2.0)
        state = JointState((0.0, s, s, 0.0), PAIR)
        label, post = bell_measure(state, scripted([0.9999999999999]))
        assert (label.flip, label.phase) == (0, 0)
        assert post is bell_state((0, 0))

    def test_outcome_distribution_uniform_on_probe_free_mix(self, rng):
        # The equal superposition of labels (0,0) and (1,0) is (0.5,.5,.5,.5);
        # a joint measurement samples those two labels evenly.
        state = JointState((0.5, 0.5, 0.5, 0.5), PAIR)
        counts = {(0, 0): 0, (1, 0): 0}
        for _ in range(400):
            label, _ = bell_measure(state, rng)
            counts[(label.flip, label.phase)] += 1
        assert counts[(0, 0)] + counts[(1, 0)] == 400
        assert 130 < counts[(0, 0)] < 270


class TestMeasureQubit:
    def test_z_anticorrelation(self, scripted):
        # Transit read as 0 collapses the home qubit to |1>.
        outcome, post = measure_qubit(bell_state((0, 0)), Subsystem.TRANSIT, Basis.Z, scripted([0.2]))
        assert outcome == 0
        assert amps_close(post, (0, 0, 1, 0))
        home, _ = measure_qubit(post, Subsystem.HOME, Basis.Z, scripted([0.99]))
        assert home == 1

    def test_x_correlation(self, scripted):
        # Transit read as + collapses the home qubit to |+>.
        outcome, post = measure_qubit(bell_state((0, 0)), Subsystem.TRANSIT, Basis.X, scripted([0.2]))
        assert outcome == 0
        p_plus, _ = outcome_probabilities(post, Subsystem.HOME, Basis.X)
        assert p_plus == pytest.approx(1.0, abs=1e-12)

    def test_plus_decoy_is_x_eigenstate(self, rng):
        for _ in range(16):
            outcome, post = measure_qubit(prepare_decoy(DecoyState.PLUS), Subsystem.TRANSIT, Basis.X, rng)
            assert outcome == 0
            assert amps_close(post, (RH, RH))

    @pytest.mark.parametrize("basis", ["X", 1, None])
    def test_rejects_a_non_basis(self, basis, rng):
        pair = bell_state((0, 0))
        with pytest.raises(ValueError, match="not a measurement basis"):
            measure_qubit(pair, Subsystem.TRANSIT, basis, rng)
        with pytest.raises(ValueError, match="not a measurement basis"):
            outcome_probabilities(pair, Subsystem.TRANSIT, basis)
        with pytest.raises(ValueError, match="not a measurement basis"):
            collapse_outcome(pair, Subsystem.TRANSIT, basis, 0)

    def test_missing_subsystem_rejected(self, rng):
        with pytest.raises(ValueError, match="ancilla"):
            measure_qubit(bell_state((0, 0)), Subsystem.ANCILLA, Basis.Z, rng)
        with pytest.raises(ValueError, match="home"):
            measure_qubit(prepare_decoy(DecoyState.ZERO), Subsystem.HOME, Basis.Z, rng)

    @pytest.mark.parametrize("label", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_transit_marginal_is_maximally_mixed(self, label, basis, rng):
        # The lone transit qubit of any entangled pair reveals nothing: both
        # outcomes are exactly equally likely, whichever label was encoded.
        p0, p1 = outcome_probabilities(bell_state(label), Subsystem.TRANSIT, basis)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        hits = sum(
            measure_qubit(bell_state(label), Subsystem.TRANSIT, basis, rng)[0] for _ in range(600)
        )
        assert 240 < hits < 360


class TestDecoys:
    @pytest.mark.parametrize(
        "label, expected",
        [
            (DecoyState.ZERO, (1, 0)),
            (DecoyState.ONE, (0, 1)),
            (DecoyState.PLUS, (RH, RH)),
            (DecoyState.MINUS, (RH, -RH)),
        ],
    )
    def test_preparations(self, label, expected):
        state = prepare_decoy(label)
        assert amps_close(state, expected)
        assert state.subsystems == (Subsystem.TRANSIT,)
        assert not state.has_home

    def test_basis_and_bit(self):
        assert decoy_basis_and_bit(DecoyState.ZERO) == (Basis.Z, 0)
        assert decoy_basis_and_bit(DecoyState.MINUS) == (Basis.X, 1)

    @pytest.mark.parametrize("label", ["0", "+", 0, None, [0]])
    def test_unknown_label_names_the_legal_ones(self, label):
        with pytest.raises(ValueError, match="ZERO, ONE, PLUS, MINUS"):
            prepare_decoy(label)
        with pytest.raises(ValueError, match="ZERO, ONE, PLUS, MINUS"):
            decoy_basis_and_bit(label)

    def test_measuring_in_own_basis_reproduces_label(self, rng):
        for label in DecoyState:
            basis, expected = decoy_basis_and_bit(label)
            outcome, _ = measure_qubit(prepare_decoy(label), Subsystem.TRANSIT, basis, rng)
            assert outcome == expected


class TestProbeCoupling:
    def test_pair_becomes_weighted_mix_of_labels(self):
        # alpha |(0,0) pair>|chi0> + beta |(1,0) pair>|chi1>
        alpha, beta = 0.6, 0.8
        state = attach_ancilla_and_entangle(bell_state((0, 0)), alpha, beta)
        a, b = alpha * RH, beta * RH
        assert state.subsystems == (Subsystem.HOME, Subsystem.TRANSIT, Subsystem.ANCILLA)
        assert amps_close(state, (0, b, a, 0, a, 0, 0, b))

    def test_plus_decoy_factorizes(self):
        # |+> (alpha |chi0> + beta |chi1>): the flying qubit stays untouched.
        alpha, beta = 0.6, 0.8
        state = attach_ancilla_and_entangle(prepare_decoy(DecoyState.PLUS), alpha, beta)
        assert amps_close(state, (alpha * RH, beta * RH, alpha * RH, beta * RH))
        p_plus, _ = outcome_probabilities(state, Subsystem.TRANSIT, Basis.X)
        assert p_plus == pytest.approx(1.0, abs=1e-12)

    def test_minus_decoy_keeps_its_sign(self):
        for alpha, beta in ((0.6, 0.8), (RH, RH), (1.0, 0.0)):
            state = attach_ancilla_and_entangle(prepare_decoy(DecoyState.MINUS), alpha, beta)
            _, p_minus = outcome_probabilities(state, Subsystem.TRANSIT, Basis.X)
            assert p_minus == pytest.approx(1.0, abs=1e-12)

    def test_zero_decoy_entangles(self):
        alpha, beta = 0.6, 0.8
        state = attach_ancilla_and_entangle(prepare_decoy(DecoyState.ZERO), alpha, beta)
        assert amps_close(state, (alpha, 0, 0, beta))

    def test_identity_coupling(self):
        state = attach_ancilla_and_entangle(bell_state((0, 1)), 1.0, 0.0)
        assert amps_close(state, (0, 0, -RH, 0, RH, 0, 0, 0))

    def test_rejects_unnormalized_coefficients(self):
        with pytest.raises(ValueError, match="alpha"):
            attach_ancilla_and_entangle(bell_state((0, 0)), 0.9, 0.8)

    def test_rejects_nan_coefficient(self):
        with pytest.raises(ValueError, match="alpha"):
            attach_ancilla_and_entangle(bell_state((0, 0)), float("nan"), 0)

    def test_rejects_second_probe(self):
        state = attach_ancilla_and_entangle(bell_state((0, 0)), RH, RH)
        with pytest.raises(ValueError, match="already"):
            attach_ancilla_and_entangle(state, RH, RH)

    @pytest.mark.parametrize("state", [bell_state((0, 0)), prepare_decoy(DecoyState.ONE)], ids=["pair", "decoy"])
    def test_discarding_a_missing_probe_is_rejected(self, state):
        with pytest.raises(ValueError, match="ancilla"):
            measure_ancilla_and_discard(state, np.random.default_rng(0))

    def test_the_coupling_is_checked_at_the_boundary_only(self, monkeypatch):
        # The public attach checks its coefficients; an AttackModel checks
        # its own once, and Eve's attaches trust them.
        calls = []
        original = states.check_coupling

        def counting(alpha, beta):
            calls.append((alpha, beta))
            return original(alpha, beta)

        monkeypatch.setattr(states, "check_coupling", counting)
        monkeypatch.setattr(adversary, "check_coupling", counting)
        attach_ancilla_and_entangle(bell_state((0, 0)), 0.6, 0.8)
        assert len(calls) == 1
        model = AttackModel.entangle_measure(0.5, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A)
        assert len(calls) == 2
        eve = adversary.Eavesdropper(model, TransitionTable())
        rng = np.random.default_rng(0)
        for segment, state in ((ChannelSegment.A_TO_B, bell_state((0, 0))), (ChannelSegment.C_TO_A, prepare_decoy(DecoyState.ZERO))):
            assert eve.intercept_transit(segment, state, rng, 0, []).has_ancilla
        assert len(calls) == 2

    def test_norm_preserved_for_complex_coefficients(self):
        alpha = complex(0.5, 0.5)
        beta = complex(-0.5, 0.5)
        state = attach_ancilla_and_entangle(bell_state((1, 1)), alpha, beta)
        assert abs(sum(abs(a) ** 2 for a in state.amps) - 1.0) < 1e-12

    def test_probe_statistics(self, rng):
        # Reading the probe yields chi1 with probability |beta|^2 when the
        # flying qubit came from the Z family.
        beta_sq = 0.3
        alpha, beta = math.sqrt(1 - beta_sq), math.sqrt(beta_sq)
        p_chi0, p_chi1 = outcome_probabilities(
            attach_ancilla_and_entangle(bell_state((0, 0)), alpha, beta),
            Subsystem.ANCILLA,
            Basis.Z,
        )
        assert p_chi1 == pytest.approx(beta_sq, abs=1e-12)
        flips = 0
        for _ in range(2000):
            state = attach_ancilla_and_entangle(prepare_decoy(DecoyState.ZERO), alpha, beta)
            outcome, rest = measure_ancilla_and_discard(state, rng)
            flips += outcome
            assert not rest.has_ancilla
        se = math.sqrt(beta_sq * (1 - beta_sq) / 2000)
        assert abs(flips / 2000 - beta_sq) < 4 * se


class TestJointStateInvariants:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            JointState((1.0, 1.0, 0.0, 0.0), PAIR)

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="normalized"):
            JointState((complex("nan"), 0j), (Subsystem.TRANSIT,))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitude count"):
            JointState((1.0, 0.0), PAIR)

    def test_rejects_missing_transit(self):
        with pytest.raises(ValueError, match="transit"):
            JointState((1.0, 0.0), (Subsystem.HOME,))

    def test_rejects_out_of_order_register(self):
        with pytest.raises(ValueError, match="order"):
            JointState((1.0, 0.0, 0.0, 0.0), (Subsystem.TRANSIT, Subsystem.HOME))

    def test_global_phase_equivalence(self):
        state = bell_state((0, 1))
        negated = JointState(tuple(-a for a in state.amps), PAIR)
        assert allclose_up_to_global_phase(state, negated)
        assert not allclose_up_to_global_phase(state, bell_state((1, 1)))

    def test_collapse_outcome_is_deterministic_projection(self):
        # Projecting the transit qubit of the base pair onto |1> leaves |0>
        # on the home side.
        post = collapse_outcome(bell_state((0, 0)), Subsystem.TRANSIT, Basis.Z, 1)
        assert amps_close(post, (0, 1, 0, 0))

    def test_zero_probability_collapse_raises(self):
        with pytest.raises(ValueError, match="zero-probability"):
            collapse_outcome(prepare_decoy(DecoyState.ZERO), Subsystem.TRANSIT, Basis.Z, 1)


REGISTERS = [
    ((Subsystem.TRANSIT,), False, False),
    ((Subsystem.HOME, Subsystem.TRANSIT), True, False),
    ((Subsystem.TRANSIT, Subsystem.ANCILLA), False, True),
    ((Subsystem.HOME, Subsystem.TRANSIT, Subsystem.ANCILLA), True, True),
]


def probed_pair():
    return attach_ancilla_and_entangle(bell_state((0, 0)), 0.6, 0.8)


# Each public operation that builds its result from one kernel's output:
# (kernel, input state, operation on it, length of the kernel's output).
KERNEL_OPERATIONS = [
    ("apply_1q", bell_state((0, 0)), lambda s: apply_pauli_on_transit(s, Pauli.X), 4),
    ("collapse", bell_state((0, 0)), lambda s: collapse_outcome(s, Subsystem.TRANSIT, Basis.Z, 0), 4),
    (
        "collapse",
        bell_state((0, 0)),
        lambda s: measure_qubit(s, Subsystem.TRANSIT, Basis.X, np.random.default_rng(0)),
        4,
    ),
    ("attach_ancilla", bell_state((0, 0)), lambda s: attach_ancilla_and_entangle(s, 0.6, 0.8), 8),
    (
        "discard_qubit",
        probed_pair(),
        lambda s: measure_ancilla_and_discard(s, np.random.default_rng(0)),
        4,
    ),
]


class TestDerivedStates:
    """States built from kernel outputs skip only the complex conversion."""

    @pytest.mark.parametrize(
        "kernel, state, operation, n_out",
        KERNEL_OPERATIONS,
        ids=["apply_pauli", "collapse_outcome", "measure_qubit", "attach", "discard"],
    )
    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda n: (1 + 0j,) * n, "normalized"),  # norm^2 = n
            (lambda n: (1 + 0j,) + (0j,) * n, "amplitude count"),  # one too many
        ],
        ids=["unnormalized", "wrong_length"],
    )
    def test_a_faulty_kernel_output_is_rejected(self, monkeypatch, kernel, state, operation, n_out, bad, message):
        monkeypatch.setattr(backend, kernel, lambda *args: bad(n_out))
        with pytest.raises(ValueError, match=message):
            operation(state)

    def test_every_state_is_validated_once(self, monkeypatch):
        calls = []
        original = JointState.__post_init__

        def counting(state):
            calls.append(state)
            original(state)

        monkeypatch.setattr(JointState, "__post_init__", counting)
        pair = bell_state((0, 0))
        rng = np.random.default_rng(0)
        derived = [
            apply_pauli_on_transit(pair, Pauli.Z),
            collapse_outcome(pair, Subsystem.TRANSIT, Basis.X, 1),
            measure_qubit(pair, Subsystem.HOME, Basis.Z, rng)[1],
            probed_pair(),
        ]
        derived.append(measure_ancilla_and_discard(derived[-1], rng)[1])
        assert calls == derived

    def test_amplitudes_are_exactly_complex(self):
        rng = np.random.default_rng(7)
        probed = probed_pair()
        derived = [
            JointState((1, 0), (Subsystem.TRANSIT,)),
            JointState(np.array([0.0, RH, RH, 0.0]), PAIR),
            apply_pauli_on_transit(bell_state((0, 0)), Pauli.X),
            apply_pauli_on_transit(bell_state((1, 0)), Pauli.Z),
            collapse_outcome(bell_state((0, 0)), Subsystem.TRANSIT, Basis.Z, 1),
            measure_qubit(prepare_decoy(DecoyState.PLUS), Subsystem.TRANSIT, Basis.Z, rng)[1],
            probed,
            attach_ancilla_and_entangle(prepare_decoy(DecoyState.ZERO), 1, 0),
            measure_ancilla_and_discard(probed, rng)[1],
            bell_measure(bell_state((1, 1)), rng)[1],
        ]
        for state in derived:
            assert all(type(a) is complex for a in state.amps), state

    def test_pickle_and_copy_round_trip(self):
        for state in (bell_state((0, 1)), probed_pair(), prepare_decoy(DecoyState.MINUS)):
            for clone in (
                pickle.loads(pickle.dumps(state)),
                copy.copy(state),
                copy.deepcopy(state),
            ):
                assert clone == state
                assert hash(clone) == hash(state)
                assert (clone.has_home, clone.has_ancilla) == (state.has_home, state.has_ancilla)

    def test_frozen(self):
        state = bell_state((0, 0))
        for name in ("amps", "subsystems", "has_home", "has_ancilla"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, name, None)
        assert not hasattr(state, "__dict__")

    @pytest.mark.parametrize("register, has_home, has_ancilla", REGISTERS)
    def test_register_flags(self, register, has_home, has_ancilla):
        state = JointState((1.0,) + (0.0,) * ((1 << len(register)) - 1), register)
        assert state.has_home is has_home
        assert state.has_ancilla is has_ancilla

    def test_flags_are_not_compared_or_shown(self):
        state = bell_state((0, 0))
        assert "has_home" not in repr(state)
        assert state == JointState(state.amps, PAIR)

    @pytest.mark.parametrize("register, has_home, has_ancilla", REGISTERS)
    def test_positions_follow_the_register(self, register, has_home, has_ancilla):
        state = JointState((1.0,) + (0.0,) * ((1 << len(register)) - 1), register)
        for which in Subsystem:
            if which in register:
                assert state.position(which) == register.index(which)
            else:
                with pytest.raises(ValueError, match=which.value):
                    state.position(which)

    def test_derived_registers_are_the_legal_ones(self):
        # Attach and discard pick prebuilt registers instead of building them.
        rng = np.random.default_rng(0)
        for state in (bell_state((0, 0)), prepare_decoy(DecoyState.PLUS)):
            probed = attach_ancilla_and_entangle(state, 0.6, 0.8)
            assert probed.subsystems == state.subsystems + (Subsystem.ANCILLA,)
            assert measure_ancilla_and_discard(probed, rng)[1].subsystems == state.subsystems


# The report digests pinned in tests/test_harness.py::TestPinnedReports.
PINNED_REPORTS = [
    (
        ExperimentConfig(message_length=16, trials=4, seed=1),
        "206461afa1b0ab836a6e9a3548161930f88c1ac25be4a65ca265b0d52c81ab24",
    ),
    (
        ExperimentConfig(
            message_length=16,
            trials=4,
            schedule=SchedulePolicy(0.5, 0.25, 0.25),
            attack=AttackModel.intercept_resend(ChannelSegment.A_TO_B),
            seed=2,
        ),
        "3558889e1eccb1a5c6fae3a28e13d6fc2488714c78e78a1c837723a8d296662f",
    ),
    (
        ExperimentConfig(
            message_length=16,
            trials=4,
            schedule=SchedulePolicy(0.25, 0.1, 0.4),
            attack=AttackModel.entangle_measure(0.5, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A),
            seed=3,
        ),
        "d42343650e4d28e7f3cdb3c761d8af5523783f7dd569e85e9cc87dd55fc11eb3",
    ),
]


class TestKernels:
    def test_outputs_are_complex_after_a_float_input(self):
        outputs = [
            backend.apply_1q((1.0, 0.0), 0, 1),
            backend.apply_1q((1.0, 0.0), 0, 0),
            backend.collapse((0.6, 0.8), 0, 0, 1),
            backend.collapse((0.6, 0.8), 0, 1, 0),
            backend.attach_ancilla((0.6, 0.8), 0, 1.0, 0.0),
            backend.discard_qubit((0.6, 0.0, 0.0, 0.8), 1, 0),
            apply_pauli_on_transit(prepare_decoy(DecoyState.ZERO), Pauli.X).amps,
        ]
        assert outputs[0] == outputs[-1] == (0j, 1 + 0j)
        for amps in outputs:
            assert all(type(a) is complex for a in amps), amps

    def test_zero_probability_collapse_raises(self):
        with pytest.raises(ValueError, match="zero-probability"):
            backend.collapse((1 + 0j, 0j), 0, 0, 1)

    @pytest.mark.parametrize(
        "config, digest", PINNED_REPORTS, ids=["no_attack", "intercept_resend_ab", "entangle_measure_ab_ca"]
    )
    def test_report_digest_is_the_same_on_a_second_run(self, config, digest):
        # Nothing a run builds outlives it: each session walks its own table.
        def report_digest():
            text = render_json(run_experiment(config).to_dict())
            return hashlib.sha256(text.encode()).hexdigest()

        first = report_digest()
        second = report_digest()
        assert first == second == digest


def count_validations(monkeypatch):
    """The states validated from now on, in order."""
    calls = []
    original = JointState.__post_init__

    def counting(state):
        calls.append(state)
        original(state)

    monkeypatch.setattr(JointState, "__post_init__", counting)
    return calls


AB, CA = ChannelSegment.A_TO_B, ChannelSegment.C_TO_A

# (model, hop, state, scripted draws) for every attack kind: the intercepts
# draw both bases and both outcomes, and the gated models fire.
ATTACK_EDGES = [
    pytest.param(AttackModel.disturbance(Pauli.X, AB), AB, bell_state((0, 1)), [], id="disturb"),
    pytest.param(
        AttackModel.disturbance(Pauli.Z, CA, attack_probability=0.4),
        CA,
        prepare_decoy(DecoyState.PLUS),
        [0.1],
        id="disturb-gated",
    ),
    pytest.param(AttackModel.intercept_resend(AB), AB, bell_state((0, 0)), [0.3, 0.2], id="intercept-z0"),
    pytest.param(AttackModel.intercept_resend(AB), AB, bell_state((0, 0)), [0.7, 0.9], id="intercept-x1"),
    pytest.param(
        AttackModel.intercept_resend(CA, attack_probability=0.4),
        CA,
        prepare_decoy(DecoyState.ONE),
        [0.1, 0.7, 0.4],
        id="intercept-gated",
    ),
    pytest.param(AttackModel.entangle_measure(0.3, AB), AB, bell_state((1, 0)), [], id="entangle"),
    pytest.param(
        AttackModel.entangle_measure(0.3, CA, attack_probability=0.4),
        CA,
        prepare_decoy(DecoyState.MINUS),
        [0.1],
        id="entangle-gated",
    ),
]

PLUS_PLUS = collapse_outcome(bell_state((0, 0)), Subsystem.TRANSIT, Basis.X, 0)
PROBED = probed_pair()

# (table operation, the public function it stands for), both on one state.
SAMPLED_EDGES = [
    pytest.param(
        lambda table, rng: table.measure(bell_state((0, 1)), Subsystem.TRANSIT, Basis.X, rng),
        lambda rng: measure_qubit(bell_state((0, 1)), Subsystem.TRANSIT, Basis.X, rng),
        id="measure-transit-x",
    ),
    pytest.param(
        lambda table, rng: table.measure(PLUS_PLUS, Subsystem.HOME, Basis.Z, rng),
        lambda rng: measure_qubit(PLUS_PLUS, Subsystem.HOME, Basis.Z, rng),
        id="measure-home-z",
    ),
    pytest.param(
        lambda table, rng: table.readout(PROBED, rng),
        lambda rng: measure_ancilla_and_discard(PROBED, rng),
        id="readout",
    ),
    pytest.param(
        lambda table, rng: table.bell(PLUS_PLUS, rng),
        lambda rng: bell_measure(PLUS_PLUS, rng),
        id="bell",
    ),
]


def held_states(table):
    """Every child state a table holds."""
    children = [edge[1] for edge in table._paulis.values()]
    children += [edge[1] for edge in table._attaches.values()]
    for edge in list(table._measures.values()) + list(table._readouts.values()):
        children += [child for child in edge[2:] if child is not None]
    return children


class TestTransitionTable:
    """A table edge is the public operation, built once and then reused."""

    @pytest.mark.parametrize("model, segment, state, draws", ATTACK_EDGES)
    def test_an_attack_edge_matches_attack_transit(self, monkeypatch, scripted, model, segment, state, draws):
        table = TransitionTable()
        eve = Eavesdropper(model, table)
        validated = count_validations(monkeypatch)
        walked = []
        for round_index in (0, 1):  # first visit, then a revisit
            public_rng = scripted(draws)
            expected, record = attack_transit(model, segment, state, public_rng)
            before = len(validated)
            engine_rng = scripted(draws)
            touched = []
            got = eve.intercept_transit(segment, state, engine_rng, round_index, touched)
            assert public_rng.values == engine_rng.values == []  # the same draws
            assert got == expected
            assert eve.records[-1].outcome == record.outcome
            assert eve.records[-1].basis is record.basis
            assert touched == [segment]
            walked.append((got, len(validated) - before))
        (first, built), (again, rebuilt) = walked
        assert again is first
        assert (built, rebuilt) == (1, 0)
        assert len(table) == 1

    @pytest.mark.parametrize("operation, public", SAMPLED_EDGES)
    @pytest.mark.parametrize("draw", [0.05, 0.95])
    def test_a_sampled_edge_matches_the_public_function(self, monkeypatch, scripted, operation, public, draw):
        table = TransitionTable()
        validated = count_validations(monkeypatch)
        walked = []
        for _ in range(2):  # first visit, then a revisit
            public_rng = scripted([draw])
            expected_outcome, expected = public(public_rng)
            before = len(validated)
            engine_rng = scripted([draw])
            outcome, got = operation(table, engine_rng)
            assert public_rng.values == engine_rng.values == []
            assert outcome == expected_outcome
            assert got == expected
            walked.append((got, len(validated) - before))
        (first, built), (again, rebuilt) = walked
        assert again is first
        assert built <= 1 and rebuilt == 0
        assert len(table) == 1

    def test_the_two_outcomes_share_one_edge(self, scripted):
        table = TransitionTable()
        zero, one = (table.measure(PLUS_PLUS, Subsystem.HOME, Basis.Z, scripted([u]))[1] for u in (0.1, 0.9))
        assert zero != one
        assert len(table) == 1
        assert table.measure(PLUS_PLUS, Subsystem.HOME, Basis.Z, scripted([0.9]))[1] is one

    def test_only_the_drawn_outcome_is_built(self, scripted):
        # Collapsing |0> onto outcome 1 raises, so it must never be built.
        table = TransitionTable()
        zero = prepare_decoy(DecoyState.ZERO)
        for _ in range(2):
            outcome, state = table.measure(zero, Subsystem.TRANSIT, Basis.Z, scripted([0.999]))
            assert outcome == 0 and state == zero
        assert len(table) == 1

    def test_edges_are_counted_per_state_and_operation(self):
        table = TransitionTable()
        pair = bell_state((0, 0))
        for _ in range(2):
            flipped = table.pauli(pair, Subsystem.TRANSIT, Pauli.X)
            table.pauli(pair, Subsystem.TRANSIT, Pauli.Z)
            table.pauli(flipped, Subsystem.TRANSIT, Pauli.Z)
            assert table.pauli(pair, Subsystem.TRANSIT, Pauli.I) is pair  # no edge
        assert len(table) == 3

    def test_a_child_equal_to_a_built_state_is_that_state(self, monkeypatch):
        table = TransitionTable()
        validated = count_validations(monkeypatch)
        pair = bell_state((0, 0))
        flipped = table.pauli(pair, Subsystem.TRANSIT, Pauli.X)
        back = table.pauli(flipped, Subsystem.TRANSIT, Pauli.X)
        assert back == pair and back is not pair  # the start state is not built here
        assert table.pauli(back, Subsystem.TRANSIT, Pauli.X) is flipped
        assert validated == [flipped, back]
        assert len(table) == 3

    def test_a_rejected_operation_leaves_no_edge(self, scripted):
        table = TransitionTable()
        pair, probed, decoy = bell_state((0, 0)), probed_pair(), prepare_decoy(DecoyState.ZERO)
        rejected = [
            (lambda: table.pauli(pair, Subsystem.TRANSIT, Basis.Z), "Pauli"),
            (lambda: table.pauli(decoy, Subsystem.HOME, Pauli.X), "home"),
            (lambda: table.measure(pair, Subsystem.TRANSIT, Pauli.X, scripted([0.5])), "basis"),
            (lambda: table.measure(decoy, Subsystem.HOME, Basis.Z, scripted([0.5])), "home"),
            (lambda: table.attach(probed, 0.6 + 0j, 0.8 + 0j), "already carries"),
            (lambda: table.readout(pair, scripted([0.5])), "no ancilla"),
            (lambda: table.bell(probed, scripted([0.5])), "probe is attached"),
            (lambda: table.bell(decoy, scripted([0.5])), "full"),
        ]
        for operation, message in rejected:
            with pytest.raises(ValueError, match=message):
                operation()
        assert len(table) == 0

    def test_a_session_validates_each_state_it_holds_once(self, monkeypatch):
        tables = []

        def recording_table():
            tables.append(TransitionTable())
            return tables[-1]

        monkeypatch.setattr(protocol, "TransitionTable", recording_table)
        validated = count_validations(monkeypatch)
        rng = np.random.default_rng(8)
        attack = AttackModel.entangle_measure(0.3, *ChannelSegment, attack_probability=0.7)
        protocol.run_protocol(
            protocol.MessageTriple.random(64, rng),
            SchedulePolicy(0.25, 0.1, 0.4),
            rng,
            attack=attack,
            abort_policy=protocol.AbortPolicy.RECORD_AND_CONTINUE,
        )
        (table,) = tables
        held = {id(state): state for state in held_states(table)}
        # Every state built is validated once, and children are interned by
        # value, so the states built are exactly the distinct states held.
        assert len({id(state) for state in validated}) == len(validated) > 0
        assert {id(state) for state in validated} == set(held)
        assert len({(state.amps, state.subsystems) for state in held.values()}) == len(held)
        assert len(held) < len(held_states(table))  # some state is reached along two paths
