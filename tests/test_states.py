import copy
import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from qsdc3 import backend
from qsdc3.adversary import AttackModel, ChannelSegment
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


KERNELS = ("norm_sq", "apply_1q", "prob_zero", "collapse", "bell_probs", "attach_ancilla", "discard_qubit")


def random_amps(rng, n_qubits):
    raw = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return tuple(complex(a) for a in raw / np.linalg.norm(raw))


def kernel_cases(rng):
    """(kernel name, args) over seeded random 1-, 2- and 3-qubit states."""
    for n_qubits in (1, 2, 3):
        for _ in range(4):
            amps = random_amps(rng, n_qubits)
            yield "norm_sq", (amps,)
            if n_qubits == 2:
                yield "bell_probs", (amps,)
            if n_qubits < 3:
                beta = complex(rng.normal(), rng.normal())
                beta /= abs(beta) * math.sqrt(2.0)
                for pos in range(n_qubits):
                    yield "attach_ancilla", (amps, pos, complex(math.sqrt(0.5)), beta)
            for pos in range(n_qubits):
                for op in (0, 1, 2):
                    yield "apply_1q", (amps, pos, op)
                for basis in (0, 1):
                    yield "prob_zero", (amps, pos, basis)
                    for outcome in (0, 1):
                        yield "collapse", (amps, pos, basis, outcome)
                for bit in (0, 1):
                    yield "discard_qubit", (amps, pos, bit)


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


class TestKernelCaches:
    def test_every_kernel_is_memoised(self):
        assert set(backend.cache_info()) == set(KERNELS)

    def test_cached_kernels_match_the_originals(self):
        cases = list(kernel_cases(np.random.default_rng(2024)))
        assert {name for name, _ in cases} == set(KERNELS)
        for name, args in cases:
            kernel = getattr(backend, name)
            expected = repr(kernel.__wrapped__(*args))
            assert repr(kernel(*args)) == expected, (name, args)  # miss
            assert repr(kernel(*args)) == expected, (name, args)  # hit

    def test_zero_probability_collapse_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="zero-probability"):
                backend.collapse((1 + 0j, 0j), 0, 0, 1)

    def test_caches_are_bounded(self):
        for info in backend.cache_info().values():
            assert info.maxsize == backend.CACHE_SIZE
            assert info.currsize <= info.maxsize

    @pytest.mark.parametrize(
        "config, digest", PINNED_REPORTS, ids=["no_attack", "intercept_resend_ab", "entangle_measure_ab_ca"]
    )
    def test_report_digest_is_the_same_cold_and_warm(self, config, digest):
        def report_digest():
            text = render_json(run_experiment(config).to_dict())
            return hashlib.sha256(text.encode()).hexdigest()

        for name in KERNELS:
            getattr(backend, name).cache_clear()
        assert all(info.currsize == 0 for info in backend.cache_info().values())
        cold = report_digest()
        warm = report_digest()
        assert cold == warm == digest
