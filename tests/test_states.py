import copy
import dataclasses
import math
import pickle
from itertools import product

import numpy as np
import pytest

from conftest import _replay, eve_hop, rooted_round
from qsdc3 import adversary, backend, protocol, states
from qsdc3.adversary import AttackModel, ChannelSegment, EveRecord
from qsdc3.protocol import SchedulePolicy
from qsdc3.states import (
    BERNOULLI,
    CHOICE,
    Basis,
    BellLabel,
    DecoyState,
    JointState,
    Pauli,
    Subsystem,
    TransitionTable,
    bell_state,
    check_integer,
    check_probability,
    check_real,
    decoy_basis_and_bit,
    prepare_decoy,
)

RH = math.sqrt(0.5)
PAIR = (Subsystem.HOME, Subsystem.TRANSIT)
TRANSIT = Subsystem.TRANSIT


AMP_ATOL = 1e-9


def amps_close(state, expected, atol=1e-12):
    return all(abs(a - e) <= atol for a, e in zip(state.amps, expected))


def allclose_up_to_global_phase(a, b, atol=AMP_ATOL):
    """True when two states differ only by a global phase (states are rays)."""
    if a.subsystems != b.subsystems:
        return False
    # Phase-align on the largest component of `a`.
    pivot = max(range(len(a.amps)), key=lambda i: abs(a.amps[i]))
    if abs(b.amps[pivot]) < atol < abs(a.amps[pivot]):
        return False
    phase = 1.0 + 0j
    if abs(a.amps[pivot]) > atol:
        phase = (a.amps[pivot] / abs(a.amps[pivot])) / (b.amps[pivot] / abs(b.amps[pivot]))
    return all(abs(x - phase * y) <= atol for x, y in zip(a.amps, b.amps))


def answered(steps, *answers):
    """What ``steps`` return when their chance points get ``answers``."""
    point, value = _replay(steps, answers)
    assert point is None, point
    return value


def measured(weigh, state, which, basis):
    """The measurement of ``state`` weighed exactly on a fresh table:
    ``[(weight, (outcome, collapsed state)), ...]``."""
    table = TransitionTable()
    return weigh(lambda: table.measure_points(state, which, basis))


def read_probe(table, state):
    """Eve's readout of the probe of ``state``, as chance-point steps on
    ``table``: the probe measured in Z, which drops it."""
    return table.measure_points(state, Subsystem.ANCILLA, Basis.Z)


def bell_measured(weigh, state):
    """Alice's Bell measurement of ``state`` weighed exactly on a fresh
    table: ``{(flip, phase): (weight, eigenstate)}``."""
    table = TransitionTable()
    return {tuple(label): (weight, post) for weight, (label, post) in weigh(lambda: table.bell_points(state))}


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
        out = TransitionTable().pauli(bell_state((0, 0)), TRANSIT, Pauli.X)
        assert amps_close(out, bell_state((1, 0)).amps)

    def test_phase_flip_moves_10_to_11(self):
        out = TransitionTable().pauli(bell_state((1, 0)), TRANSIT, Pauli.Z)
        assert amps_close(out, bell_state((1, 1)).amps)

    def test_phase_flip_moves_00_to_01(self):
        # (|01>+|10>)/sqrt2 -> (|10>-|01>)/sqrt2, exactly the listed sign.
        out = TransitionTable().pauli(bell_state((0, 0)), TRANSIT, Pauli.Z)
        assert amps_close(out, bell_state((0, 1)).amps)

    def test_identity_returns_same_state(self):
        for label in ((0, 0), (1, 1)):
            state = bell_state(label)
            assert TransitionTable().pauli(state, TRANSIT, Pauli.I) is state

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("k", [0, 1])
    def test_encoding_identity(self, j, k, weigh):
        # Bit flip to the j-th power then phase flip to the k-th power on the
        # transit qubit maps the base pair to label (j, k) with certainty.
        table = TransitionTable()
        state = bell_state((0, 0))
        if j:
            state = table.pauli(state, TRANSIT, Pauli.X)
        if k:
            state = table.pauli(state, TRANSIT, Pauli.Z)
        ((label, (weight, post)),) = bell_measured(weigh, state).items()
        assert label == (j, k)
        assert weight == pytest.approx(1.0, abs=1e-15)
        assert allclose_up_to_global_phase(post, bell_state((j, k)))

    @pytest.mark.parametrize("pauli", ["X", 1, None])
    def test_rejects_a_non_pauli(self, pauli):
        with pytest.raises(ValueError, match="not a Pauli"):
            TransitionTable().pauli(bell_state((0, 0)), TRANSIT, pauli)

    def test_norm_preserved(self):
        table = TransitionTable()
        state = bell_state((0, 1))
        for pauli in (Pauli.X, Pauli.Z, Pauli.X):
            state = table.pauli(state, TRANSIT, pauli)
            assert abs(sum(abs(a) ** 2 for a in state.amps) - 1.0) < 1e-12


class TestBellMeasure:
    @pytest.mark.parametrize("label", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_eigenstates_are_certain(self, label, weigh):
        ((got, (weight, post)),) = bell_measured(weigh, bell_state(label)).items()
        assert got == label and weight == pytest.approx(1.0, abs=1e-15)
        assert post is bell_state(label)

    def test_rejects_probe_carrying_state(self):
        state = TransitionTable().attach(bell_state((0, 0)), 0.5)
        with pytest.raises(ValueError, match="probe"):
            next(TransitionTable().bell_points(state))

    def test_rejects_lone_qubit(self):
        with pytest.raises(ValueError):
            next(TransitionTable().bell_points(prepare_decoy(DecoyState.PLUS)))

    def test_after_probe_projection_onto_chi0(self, weigh):
        # Probe-coupled pair with beta^2 = 1/2: reading chi0 leaves the
        # original pair, so the joint measurement is certain.
        table = TransitionTable()
        state = table.attach(bell_state((0, 0)), 0.5)
        (half, (outcome, remaining)), _ = weigh(lambda: read_probe(table, state))
        assert outcome == 0 and half == pytest.approx(0.5, abs=1e-15)
        ((label, (weight, _)),) = bell_measured(weigh, remaining).items()
        assert label == (0, 0) and weight == pytest.approx(1.0, abs=1e-15)

    def test_a_zero_probability_label_is_never_an_answer(self, weigh):
        # Label (0,0) carries all of the weight, yet the total falls 5e-13
        # short of 1 (inside NORM_ATOL); the point lists (0,0) alone, at the
        # kernel's probability, and no zero-probability label.
        s = math.sqrt((1.0 - 5e-13) / 2.0)
        state = JointState((0.0, s, s, 0.0), PAIR)
        p = backend.bell_probs(state.amps)[0]
        assert next(TransitionTable().bell_points(state)) == (CHOICE, ((0, p),))
        assert bell_measured(weigh, state) == {(0, 0): (p, bell_state((0, 0)))}
        # The equal mix of labels (0,0) and (1,0) lists those two only.
        (kind, answers) = next(TransitionTable().bell_points(JointState((0.5, 0.5, 0.5, 0.5), PAIR)))
        assert kind is CHOICE and answers == ((0, 0.5), (2, 0.5))

    def test_outcome_distribution_uniform_on_probe_free_mix(self, weigh):
        # The equal superposition of labels (0,0) and (1,0) is (0.5,.5,.5,.5);
        # a joint measurement gives those two labels with 1/2 each.
        state = JointState((0.5, 0.5, 0.5, 0.5), PAIR)
        labels = bell_measured(weigh, state)
        assert sorted(labels) == [(0, 0), (1, 0)]
        for label, (weight, post) in labels.items():
            assert weight == pytest.approx(0.5, abs=1e-15)
            assert post is bell_state(label)


class TestMeasureQubit:
    def test_z_anticorrelation(self, weigh):
        # Transit read as 0 collapses the home qubit to |1>.
        (p0, (outcome, post)), _ = measured(weigh, bell_state((0, 0)), Subsystem.TRANSIT, Basis.Z)
        assert outcome == 0 and p0 == pytest.approx(0.5, abs=1e-15)
        assert amps_close(post, (0, 0, 1, 0))
        assert [(w, home) for w, (home, _) in measured(weigh, post, Subsystem.HOME, Basis.Z)] == [(1.0, 1)]

    def test_x_correlation(self, weigh):
        # Transit read as + collapses the home qubit to |+>.
        (_, (outcome, post)), _ = measured(weigh, bell_state((0, 0)), Subsystem.TRANSIT, Basis.X)
        assert outcome == 0
        ((p_plus, (home, _)),) = measured(weigh, post, Subsystem.HOME, Basis.X)
        assert home == 0 and p_plus == pytest.approx(1.0, abs=1e-12)

    def test_plus_decoy_is_x_eigenstate(self, weigh):
        ((weight, (outcome, post)),) = measured(weigh, prepare_decoy(DecoyState.PLUS), Subsystem.TRANSIT, Basis.X)
        assert (weight, outcome) == (pytest.approx(1.0, abs=1e-15), 0)
        assert amps_close(post, (RH, RH))

    @pytest.mark.parametrize("basis", ["X", 1, None])
    def test_rejects_a_non_basis(self, basis):
        pair = bell_state((0, 0))
        with pytest.raises(ValueError, match="not a measurement basis"):
            next(TransitionTable().measure_points(pair, Subsystem.TRANSIT, basis))

    def test_missing_subsystem_rejected(self):
        with pytest.raises(ValueError, match="ancilla"):
            next(TransitionTable().measure_points(bell_state((0, 0)), Subsystem.ANCILLA, Basis.Z))
        with pytest.raises(ValueError, match="home"):
            next(TransitionTable().measure_points(prepare_decoy(DecoyState.ZERO), Subsystem.HOME, Basis.Z))

    @pytest.mark.parametrize("label", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_transit_marginal_is_maximally_mixed(self, label, basis, weigh):
        # The lone transit qubit of any entangled pair reveals nothing: both
        # outcomes are exactly equally likely, whichever label was encoded.
        kind, p0 = next(TransitionTable().measure_points(bell_state(label), Subsystem.TRANSIT, basis))
        assert kind is BERNOULLI and p0 == pytest.approx(0.5, abs=1e-12)
        ends = measured(weigh, bell_state(label), Subsystem.TRANSIT, basis)
        assert [outcome for _, (outcome, _) in ends] == [0, 1]
        assert [weight for weight, _ in ends] == [p0, 1.0 - p0]

    def test_protocol_measure_qubit_answers_the_point_with_one_draw(self, scripted):
        # The one-draw measurement the traced benchmark wraps.
        pair = bell_state((0, 0))
        for u, outcome in ((0.2, 0), (0.7, 1)):
            rng = scripted([u, 0.5])
            got = protocol.measure_qubit(pair, Subsystem.TRANSIT, Basis.Z, rng)
            assert got == (outcome, kernel_collapse(pair, Subsystem.TRANSIT, Basis.Z, outcome))
            assert rng.values == [0.5]


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

    @pytest.mark.parametrize("label", list(DecoyState))
    def test_measuring_in_own_basis_reproduces_label(self, label, weigh):
        basis, expected = decoy_basis_and_bit(label)
        ((weight, (outcome, post)),) = measured(weigh, prepare_decoy(label), Subsystem.TRANSIT, basis)
        assert (weight, outcome) == (pytest.approx(1.0, abs=1e-15), expected)
        assert allclose_up_to_global_phase(post, prepare_decoy(label))


@pytest.mark.parametrize("value", [0, 1, 0.0, 0.25, 1.0, np.float32(0.5), np.int64(1)], ids=repr)
def test_check_probability_returns_a_real_number_in_range_unchanged(value):
    assert check_probability("p", value) is value


@pytest.mark.parametrize(
    "value", [True, np.bool_(False), "0.5", None, 0.5j, [0.5], -0.1, 1.5, float("nan"), float("inf")], ids=repr
)
def test_check_probability_names_the_field_of_any_other_value(value):
    with pytest.raises(ValueError, match="p_field"):
        check_probability("p_field", value)


@pytest.mark.parametrize("value", [-2, 0.5, 1.5, float("nan"), np.float32(-0.5), np.int64(7)], ids=repr)
def test_check_real_returns_any_real_number_unchanged(value):
    assert check_real("x", value) is value


@pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, 0.5j, [0.5]], ids=repr)
def test_check_real_names_the_field_of_any_other_value(value):
    with pytest.raises(ValueError, match="x_field"):
        check_real("x_field", value)


@pytest.mark.parametrize("value", [1, 7, np.int32(3), np.uint8(1)], ids=repr)
def test_check_integer_returns_an_int(value):
    assert check_integer("n", value, 1) == value
    assert type(check_integer("n", value, 1)) is int


@pytest.mark.parametrize("value", [2.5, 3.0, True, np.bool_(True), "8", None, 0, -1], ids=repr)
def test_check_integer_names_the_field_of_a_non_integer_or_one_below_the_least(value):
    with pytest.raises(ValueError, match="n_field"):
        check_integer("n_field", value, 1)


class TestProbeCoupling:
    def test_pair_becomes_weighted_mix_of_labels(self):
        # alpha |(0,0) pair>|chi0> + beta |(1,0) pair>|chi1>
        alpha, beta = 0.6, 0.8
        state = TransitionTable().attach(bell_state((0, 0)), 0.64)
        a, b = alpha * RH, beta * RH
        assert state.subsystems == (Subsystem.HOME, Subsystem.TRANSIT, Subsystem.ANCILLA)
        assert amps_close(state, (0, b, a, 0, a, 0, 0, b))

    def test_plus_decoy_factorizes(self, weigh):
        # |+> (alpha |chi0> + beta |chi1>): the flying qubit stays untouched.
        alpha, beta = 0.6, 0.8
        state = TransitionTable().attach(prepare_decoy(DecoyState.PLUS), 0.64)
        assert amps_close(state, (alpha * RH, beta * RH, alpha * RH, beta * RH))
        ((p_plus, (outcome, _)),) = measured(weigh, state, Subsystem.TRANSIT, Basis.X)
        assert outcome == 0 and p_plus == pytest.approx(1.0, abs=1e-12)

    def test_minus_decoy_keeps_its_sign(self, weigh):
        for beta_sq in (0.64, 0.5, 0.0):
            state = TransitionTable().attach(prepare_decoy(DecoyState.MINUS), beta_sq)
            ((p_minus, (outcome, _)),) = measured(weigh, state, Subsystem.TRANSIT, Basis.X)
            assert outcome == 1 and p_minus == pytest.approx(1.0, abs=1e-12)

    def test_zero_decoy_entangles(self):
        alpha, beta = 0.6, 0.8
        state = TransitionTable().attach(prepare_decoy(DecoyState.ZERO), 0.64)
        assert amps_close(state, (alpha, 0, 0, beta))

    def test_identity_coupling(self):
        state = TransitionTable().attach(bell_state((0, 1)), 0.0)
        assert amps_close(state, (0, 0, -RH, 0, RH, 0, 0, 0))

    def test_rejects_a_flip_weight_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="beta_sq"):
            AttackModel.entangle_measure(1.5, ChannelSegment.A_TO_B)

    def test_rejects_a_nan_flip_weight(self):
        with pytest.raises(ValueError, match="beta_sq"):
            AttackModel.entangle_measure(float("nan"), ChannelSegment.A_TO_B)

    def test_rejects_second_probe(self):
        table = TransitionTable()
        state = table.attach(bell_state((0, 0)), 0.5)
        with pytest.raises(ValueError, match="already"):
            table.attach(state, 0.5)

    @pytest.mark.parametrize("state", [bell_state((0, 0)), prepare_decoy(DecoyState.ONE)], ids=["pair", "decoy"])
    def test_discarding_a_missing_probe_is_rejected(self, state):
        with pytest.raises(ValueError, match="ancilla"):
            next(read_probe(TransitionTable(), state))

    def test_the_coupling_is_checked_at_the_boundary_only(self, monkeypatch, weigh):
        # An AttackModel checks its flip weight once, and Eve's attaches
        # trust it.
        calls = []
        original = states.check_probability

        def counting(name, value):
            if name == "beta_sq":
                calls.append(value)
            return original(name, value)

        monkeypatch.setattr(states, "check_probability", counting)
        monkeypatch.setattr(adversary, "check_probability", counting)
        model = AttackModel.entangle_measure(0.5, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A)
        assert len(calls) == 1
        table = TransitionTable()
        for segment, state in ((ChannelSegment.A_TO_B, bell_state((0, 0))), (ChannelSegment.C_TO_A, prepare_decoy(DecoyState.ZERO))):
            ((_, (probed, _)),) = weigh(lambda: eve_hop(table, model, segment, state))
            assert probed.has_ancilla
        assert len(calls) == 1

    @pytest.mark.parametrize("beta_sq", [0.1, 0.5, 0.9])
    def test_a_phase_on_the_coefficients_changes_no_readout(self, weigh, beta_sq):
        # The probe is read in {|chi0>, |chi1>}, so phased coefficients of
        # the same moduli, applied by the kernel, give each outcome the
        # probability, and a post-readout state up to a global phase, of
        # the table's real pair: beta^2 is the whole coupling.
        alpha, beta = math.sqrt(1 - beta_sq), math.sqrt(beta_sq)
        for state in (bell_state((1, 1)), prepare_decoy(DecoyState.PLUS), prepare_decoy(DecoyState.ONE)):
            table = TransitionTable()
            real = table.attach(state, beta_sq)
            phased = JointState(
                backend.attach_ancilla(state.amps, state.position(TRANSIT), alpha * 1j, beta * complex(-RH, RH)),
                real.subsystems,
            )
            assert abs(sum(abs(a) ** 2 for a in phased.amps) - 1.0) < 1e-12
            ends = weigh(lambda: read_probe(table, real))
            phased_ends = weigh(lambda: read_probe(TransitionTable(), phased))
            assert len(ends) == len(phased_ends)
            for (p, (outcome, post)), (q, (phased_outcome, phased_post)) in zip(ends, phased_ends):
                assert outcome == phased_outcome and p == pytest.approx(q, abs=1e-15)
                assert allclose_up_to_global_phase(post, phased_post)

    def test_probe_statistics(self, weigh):
        # Reading the probe yields chi1 with probability |beta|^2 when the
        # flying qubit came from the Z family.
        beta_sq = 0.3
        table = TransitionTable()
        probed = table.attach(bell_state((0, 0)), beta_sq)
        _, (p_chi1, (chi1, _)) = measured(weigh, probed, Subsystem.ANCILLA, Basis.Z)
        assert chi1 == 1 and p_chi1 == pytest.approx(beta_sq, abs=1e-12)
        state = table.attach(prepare_decoy(DecoyState.ZERO), beta_sq)
        (p0, (zero, rest0)), (p1, (one, rest1)) = weigh(lambda: read_probe(table, state))
        assert (zero, one) == (0, 1)
        assert p1 == pytest.approx(beta_sq, abs=1e-15) and p0 + p1 == pytest.approx(1.0, abs=1e-15)
        assert rest0 == prepare_decoy(DecoyState.ZERO) and rest1 == prepare_decoy(DecoyState.ONE)


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
        outcome, post = answered(TransitionTable().measure_points(bell_state((0, 0)), TRANSIT, Basis.Z), False)
        assert outcome == 1 and amps_close(post, (0, 1, 0, 0))

    def test_zero_probability_collapse_raises(self):
        # An answer of probability 0 forced on a measurement has no state
        # to collapse onto.
        with pytest.raises(ValueError, match="zero-probability"):
            answered(TransitionTable().measure_points(prepare_decoy(DecoyState.ZERO), TRANSIT, Basis.Z), False)


REGISTERS = [
    ((Subsystem.TRANSIT,), False, False),
    ((Subsystem.HOME, Subsystem.TRANSIT), True, False),
    ((Subsystem.TRANSIT, Subsystem.ANCILLA), False, True),
    ((Subsystem.HOME, Subsystem.TRANSIT, Subsystem.ANCILLA), True, True),
]


def probed_pair():
    return TransitionTable().attach(bell_state((0, 0)), 0.64)


# Each table operation that builds its result from one kernel's output:
# (kernel, input state, operation on it, length of the kernel's output).
KERNEL_OPERATIONS = [
    ("apply_1q", bell_state((0, 0)), lambda s: TransitionTable().pauli(s, TRANSIT, Pauli.X), 4),
    (
        "collapse",
        bell_state((0, 0)),
        lambda s: answered(TransitionTable().measure_points(s, Subsystem.TRANSIT, Basis.X), True),
        4,
    ),
    ("attach_ancilla", bell_state((0, 0)), lambda s: TransitionTable().attach(s, 0.64), 8),
    (
        "discard_qubit",
        probed_pair(),
        lambda s: answered(read_probe(TransitionTable(), s), True),
        4,
    ),
    # The readout collapses the probe before it discards it.
    ("collapse", probed_pair(), lambda s: answered(read_probe(TransitionTable(), s), True), 8),
]


class TestDerivedStates:
    """States built from kernel outputs skip only the complex conversion."""

    @pytest.mark.parametrize(
        "kernel, state, operation, n_out",
        KERNEL_OPERATIONS,
        ids=["pauli", "measure_points", "attach", "discard", "readout_collapse"],
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
        derived = [
            TransitionTable().pauli(pair, TRANSIT, Pauli.Z),
            answered(TransitionTable().measure_points(pair, TRANSIT, Basis.X), False)[1],
            answered(TransitionTable().measure_points(pair, Subsystem.HOME, Basis.Z), True)[1],
            probed_pair(),
        ]
        derived.append(answered(read_probe(TransitionTable(), derived[-1]), True)[1])
        assert calls == derived

    def test_amplitudes_are_exactly_complex(self):
        probed, decoy = probed_pair(), prepare_decoy(DecoyState.PLUS)
        derived = [
            JointState((1, 0), (Subsystem.TRANSIT,)),
            JointState(np.array([0.0, RH, RH, 0.0]), PAIR),
            TransitionTable().pauli(bell_state((0, 0)), TRANSIT, Pauli.X),
            TransitionTable().pauli(bell_state((1, 0)), TRANSIT, Pauli.Z),
            answered(TransitionTable().measure_points(bell_state((0, 0)), TRANSIT, Basis.Z), False)[1],
            answered(TransitionTable().measure_points(decoy, Subsystem.TRANSIT, Basis.Z), False)[1],
            probed,
            TransitionTable().attach(prepare_decoy(DecoyState.ZERO), 0),
            answered(read_probe(TransitionTable(), probed), False)[1],
            answered(TransitionTable().bell_points(bell_state((1, 1))), 3)[1],
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
        for state in (bell_state((0, 0)), prepare_decoy(DecoyState.PLUS)):
            probed = TransitionTable().attach(state, 0.64)
            assert probed.subsystems == state.subsystems + (Subsystem.ANCILLA,)
            for outcome in (True, False):
                discarded = answered(read_probe(TransitionTable(), probed), outcome)[1]
                assert discarded.subsystems is state.subsystems


# The schedule and attack model of every acceptance criterion's experiments
# (tests/test_acceptance.py).
ACCEPTANCE_ROUNDS = [
    (SchedulePolicy(0.05, 0.05, 0.05), AttackModel.none()),
    (SchedulePolicy(0.35, 0.3, 0.3), AttackModel.none()),
    (SchedulePolicy(0.5, 0.25, 0.25), AttackModel.disturbance(Pauli.X, ChannelSegment.A_TO_B)),
    (SchedulePolicy(0.5, 0.25, 0.25), AttackModel.disturbance(Pauli.Z, ChannelSegment.A_TO_B)),
    (SchedulePolicy(0.5, 0.25, 0.25), AttackModel.intercept_resend(ChannelSegment.A_TO_B)),
    (SchedulePolicy(), AttackModel.none()),
] + [
    (SchedulePolicy(0.25, 0.1, 0.4), AttackModel.entangle_measure(beta_sq, ChannelSegment.A_TO_B, ChannelSegment.C_TO_A))
    for beta_sq in (0.0, 0.25, 0.5, 0.75, 1.0)
]


def acceptance_states():
    """Every state the acceptance configs' tables hold once their sampling
    and check-forced rounds are weighed, and the Bell and decoy constants."""
    found = {}
    for schedule, model in ACCEPTANCE_ROUNDS:
        table = TransitionTable()
        for weighed in [schedule, *protocol._FORCING_SCHEDULES.values()]:
            protocol.leaf_weights(table, weighed, model, 0, 0)
        for state in table._nodes.values():
            found[state.amps, state.subsystems] = state
    constants = [bell_state(label) for label in product((0, 1), repeat=2)]
    constants += [prepare_decoy(label) for label in DecoyState]
    return constants + list(found.values())


class TestKernels:
    def test_prob_one_is_prob_zero_after_the_basis_flip(self):
        # prob_one gives outcome 1's probability in one pass; it must be the
        # float of outcome 0's after the flip that swaps the basis's
        # eigenstates, to the last bit.
        states_seen = acceptance_states()
        assert len(states_seen) > 40
        for state in states_seen:
            for pos in range(len(state.subsystems)):
                for basis in (0, 1):
                    flipped = backend.apply_1q(state.amps, pos, 1 + basis)
                    expected = backend.prob_zero(flipped, pos, basis)
                    got = backend.prob_one(state.amps, pos, basis)
                    assert got.hex() == expected.hex(), (state, pos, basis)

    def test_outputs_are_complex_after_a_float_input(self):
        outputs = [
            backend.apply_1q((1.0, 0.0), 0, 1),
            backend.apply_1q((1.0, 0.0), 0, 2),
            backend.collapse((0.6, 0.8), 0, 0, 1),
            backend.collapse((0.6, 0.8), 0, 1, 0),
            backend.attach_ancilla((0.6, 0.8), 0, 1.0, 0.0),
            backend.discard_qubit((0.6, 0.0, 0.0, 0.8), 1, 0),
        ]
        assert outputs[0] == (0j, 1 + 0j)
        for amps in outputs:
            assert all(type(a) is complex for a in amps), amps

    def test_the_identity_is_no_op_code(self):
        # The table returns a state unchanged for Pauli.I without a kernel
        # call, so op 0 is not a kernel operation.
        with pytest.raises(ValueError, match="unknown single-qubit op code"):
            backend.apply_1q((1.0, 0.0), 0, 0)

    def test_zero_probability_collapse_raises(self):
        with pytest.raises(ValueError, match="zero-probability"):
            backend.collapse((1 + 0j, 0j), 0, 0, 1)


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

# (model, hop, state) for every attack kind, ungated and gated.
ATTACK_EDGES = [
    pytest.param(AttackModel.disturbance(Pauli.X, AB), AB, bell_state((0, 1)), id="disturb"),
    pytest.param(
        AttackModel.disturbance(Pauli.Z, CA, attack_probability=0.4),
        CA,
        prepare_decoy(DecoyState.PLUS),
        id="disturb-gated",
    ),
    pytest.param(AttackModel.intercept_resend(AB), AB, bell_state((0, 0)), id="intercept"),
    pytest.param(
        AttackModel.intercept_resend(CA, attack_probability=0.4),
        CA,
        prepare_decoy(DecoyState.ONE),
        id="intercept-gated",
    ),
    pytest.param(AttackModel.entangle_measure(0.3, AB), AB, bell_state((1, 0)), id="entangle"),
    pytest.param(
        AttackModel.entangle_measure(0.3, CA, attack_probability=0.4),
        CA,
        prepare_decoy(DecoyState.MINUS),
        id="entangle-gated",
    ),
]


# References built on the kernels alone, apart from the table, so that an
# edge the table builds wrongly differs from them.  The kernels' codes of a
# Pauli and of a measurement basis:
PAULI_CODE = {Pauli.X: 1, Pauli.Z: 2}
BASIS_CODE = {Basis.Z: 0, Basis.X: 1}


def kernel_probabilities(state, which, basis):
    """(p0, p1) of measuring ``which`` in ``basis``, from the ``prob_zero`` kernel."""
    p0 = backend.prob_zero(state.amps, state.position(which), BASIS_CODE[basis])
    return p0, 1.0 - p0


def kernel_collapse(state, which, basis, outcome):
    """``state`` projected onto ``outcome``, from the ``collapse`` kernel."""
    amps = backend.collapse(state.amps, state.position(which), BASIS_CODE[basis], outcome)
    return JointState(amps, state.subsystems)


def exact_hop(model, segment, state):
    """Eve's hop from the kernels, in answer order: ``[(weight, (state,
    record)), ...]``."""
    kind = model.kind
    transit = state.position(TRANSIT)
    if kind is adversary.AttackKind.DISTURBANCE:
        flipped = JointState(backend.apply_1q(state.amps, transit, PAULI_CODE[model.pauli]), state.subsystems)
        fired = [(1.0, flipped, None, None)]
    elif kind is adversary.AttackKind.INTERCEPT_RESEND:
        fired = [
            (0.5 * p, kernel_collapse(state, TRANSIT, basis, outcome), basis, outcome)
            for basis in (Basis.Z, Basis.X)
            for outcome, p in enumerate(kernel_probabilities(state, TRANSIT, basis))
            if p > 0.0
        ]
    else:
        alpha, beta = math.sqrt(1.0 - model.beta_sq), math.sqrt(model.beta_sq)
        probed = backend.attach_ancilla(state.amps, transit, alpha, beta)
        fired = [(1.0, JointState(probed, state.subsystems + (Subsystem.ANCILLA,)), None, None)]
    p_fire = model.attack_probability
    ends = [(p_fire * w, (child, EveRecord(-1, segment, kind, basis, outcome))) for w, child, basis, outcome in fired]
    if p_fire < 1.0:
        ends.append((1.0 - p_fire, (state, None)))
    return ends


def exact_measurement(state, which, basis):
    """A measurement's ends from the ``prob_zero`` and ``collapse`` kernels."""
    return [
        (p, (outcome, kernel_collapse(state, which, basis, outcome)))
        for outcome, p in enumerate(kernel_probabilities(state, which, basis))
        if p > 0.0
    ]


def exact_readout(state):
    """A probe readout's ends: the probe collapsed onto each outcome, then
    dropped (it is the last qubit, so its bit is the amplitude index's
    lowest)."""
    ends = []
    for outcome, p in enumerate(kernel_probabilities(state, Subsystem.ANCILLA, Basis.Z)):
        if p > 0.0:
            post = kernel_collapse(state, Subsystem.ANCILLA, Basis.Z, outcome)
            ends.append((p, (outcome, JointState(post.amps[outcome::2], state.subsystems[:-1]))))
    return ends


def exact_bell(state):
    """A Bell measurement's ends from the ``bell_probs`` kernel."""
    return [
        (p, (BellLabel(*label), bell_state(label)))
        for label, p in zip(product((0, 1), repeat=2), backend.bell_probs(state.amps))
        if p > 0.0
    ]


PLUS_PLUS = kernel_collapse(bell_state((0, 0)), TRANSIT, Basis.X, 0)
PROBED = probed_pair()

# (a table's chance-point steps, their ends from the kernels), both on one
# state.
SAMPLED_EDGES = [
    pytest.param(
        lambda table: table.measure_points(bell_state((0, 1)), Subsystem.TRANSIT, Basis.X),
        exact_measurement(bell_state((0, 1)), Subsystem.TRANSIT, Basis.X),
        id="measure-transit-x",
    ),
    pytest.param(
        lambda table: table.measure_points(PLUS_PLUS, Subsystem.HOME, Basis.Z),
        exact_measurement(PLUS_PLUS, Subsystem.HOME, Basis.Z),
        id="measure-home-z",
    ),
    pytest.param(lambda table: read_probe(table, PROBED), exact_readout(PROBED), id="readout"),
    pytest.param(lambda table: table.bell_points(PLUS_PLUS), exact_bell(PLUS_PLUS), id="bell"),
]


def held_states(table):
    """Every child state a table holds."""
    children = [edge[1] for edge in table._paulis.values()]
    children += [edge[1] for edge in table._attaches.values()]
    for edge in table._measures.values():
        children += [child for child in edge[2:] if child is not None]
    return children


def weighed_twice(monkeypatch, weigh, make_steps):
    """``make_steps(table)`` weighed on one table, on the first visit and on
    a revisit: ``(ends, states validated, edges)`` for each visit."""
    table = TransitionTable()
    validated = count_validations(monkeypatch)
    visits = []
    for _ in range(2):
        before = len(validated)
        ends = weigh(lambda: make_steps(table))
        visits.append((ends, len(validated) - before, len(table)))
    return visits


class TestTransitionTable:
    """A table edge is the kernels' operation, built once and then reused."""

    @pytest.mark.parametrize("model, segment, state", ATTACK_EDGES)
    def test_an_attack_edge_matches_the_exact_functions(self, monkeypatch, weigh, model, segment, state):
        expected = exact_hop(model, segment, state)
        (first, built, edges), (again, rebuilt, edges_again) = weighed_twice(
            monkeypatch, weigh, lambda table: eve_hop(table, model, segment, state)
        )
        assert first == [(pytest.approx(w, abs=1e-15), end) for w, end in expected]
        children = {id(child) for _, (child, _) in first if child is not state}
        assert built == len(children) > 0 and rebuilt == 0
        assert all(a is b for (_, (a, _)), (_, (b, _)) in zip(again, first))
        assert edges_again == edges == (2 if model.kind is adversary.AttackKind.INTERCEPT_RESEND else 1)

    # Outcome 1 has no amplitude at all, while outcome 0's probability sums
    # to just below 1: 0.9999999999999999 in Z, 0.9999999999999998 in X.
    @pytest.mark.parametrize(
        "amps, basis",
        [
            ((math.sqrt(0.1), math.sqrt(0.9), 0.0, 0.0), Basis.Z),
            ((math.sqrt(0.2), math.sqrt(0.3), math.sqrt(0.2), math.sqrt(0.3)), Basis.X),
        ],
        ids=["z", "x"],
    )
    def test_an_outcome_of_zero_probability_is_never_drawn(self, weigh, amps, basis):
        state = JointState(tuple(map(complex, amps)), PAIR)
        assert backend.prob_zero(state.amps, 0, BASIS_CODE[basis]) < 1.0
        table = TransitionTable()
        assert next(table.measure_points(state, Subsystem.HOME, basis)) == (BERNOULLI, 1.0)
        ends = weigh(lambda: table.measure_points(state, Subsystem.HOME, basis))
        assert [(weight, outcome) for weight, (outcome, _) in ends] == [(1.0, 0)]

    @pytest.mark.parametrize("make_steps, expected", SAMPLED_EDGES)
    def test_a_sampled_edge_matches_the_exact_functions(self, monkeypatch, weigh, make_steps, expected):
        (first, built, edges), (again, rebuilt, edges_again) = weighed_twice(monkeypatch, weigh, make_steps)
        assert first == [(pytest.approx(p, abs=1e-15), end) for p, end in expected]
        assert all(a is b for (_, (_, a)), (_, (_, b)) in zip(again, first))
        assert built <= 2 and rebuilt == 0
        assert edges == edges_again == 1

    def test_the_two_outcomes_share_one_edge(self):
        table = TransitionTable()
        zero, one = (answered(table.measure_points(PLUS_PLUS, Subsystem.HOME, Basis.Z), u)[1] for u in (True, False))
        assert zero != one
        assert len(table) == 1
        assert answered(table.measure_points(PLUS_PLUS, Subsystem.HOME, Basis.Z), False)[1] is one

    def test_only_the_drawn_outcome_is_built(self):
        # Collapsing |0> onto outcome 1 raises, so it must never be built.
        table = TransitionTable()
        zero = prepare_decoy(DecoyState.ZERO)
        for _ in range(2):
            outcome, state = answered(table.measure_points(zero, Subsystem.TRANSIT, Basis.Z), True)
            assert outcome == 0 and state == zero
        assert table._measures[id(zero), id(Subsystem.TRANSIT), id(Basis.Z)][3] is None
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

    def test_a_rejected_operation_leaves_no_edge(self):
        table = TransitionTable()
        pair, probed, decoy = bell_state((0, 0)), probed_pair(), prepare_decoy(DecoyState.ZERO)
        rejected = [
            (lambda: table.pauli(pair, Subsystem.TRANSIT, Basis.Z), "Pauli"),
            (lambda: table.pauli(decoy, Subsystem.HOME, Pauli.X), "home"),
            (lambda: next(table.measure_points(pair, Subsystem.TRANSIT, Pauli.X)), "basis"),
            (lambda: next(table.measure_points(decoy, Subsystem.HOME, Basis.Z)), "home"),
            (lambda: table.attach(probed, 0.64), "already carries"),
            (lambda: next(read_probe(table, pair)), "no ancilla"),
            (lambda: next(table.measure_points(probed, Subsystem.ANCILLA, Basis.X)), "Basis.Z"),
            (lambda: next(table.bell_points(probed)), "probe is attached"),
            (lambda: next(table.bell_points(decoy)), "full"),
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


# States the chance-point steps are weighed on: the Bell pairs, the decoys,
# a product pair and a probed pair and decoy.
UNPROBED_STATES = [bell_state(label) for label in product((0, 1), repeat=2)]
UNPROBED_STATES += [prepare_decoy(label) for label in DecoyState] + [PLUS_PLUS]
PROBED_STATES = [PROBED, TransitionTable().attach(prepare_decoy(DecoyState.ZERO), 0.64)]

# Every attack kind on every segment, ungated and gated.
WEIGHED_ATTACKS = [
    make(*ChannelSegment, attack_probability=p)
    for p in (1.0, 0.4)
    for make in (
        AttackModel.intercept_resend,
        lambda *segments, **kw: AttackModel.disturbance(Pauli.X, *segments, **kw),
        lambda *segments, **kw: AttackModel.disturbance(Pauli.Z, *segments, **kw),
        lambda *segments, **kw: AttackModel.entangle_measure(0.3, *segments, **kw),
    )
]


def attack_id(model):
    name = model.kind.value + ("-" + model.pauli.name if model.pauli else "")
    return "%s-p%s" % (name, model.attack_probability)


@pytest.fixture
def total_weight(weigh):
    return lambda make_steps: sum(weight for weight, _ in weigh(make_steps))


class TestWeigh:
    """The reference enumerator (``weigh`` in conftest.py), which the
    compiled round's ``protocol.leaf_weights`` is tested against."""

    def test_each_point_is_answered_with_every_answer_and_its_weight(self, weigh):
        def steps():
            flip = yield (BERNOULLI, 0.3)
            label = yield (CHOICE, tuple((index, 0.25) for index in range(4)))
            bell = yield (CHOICE, ((0, 0.5), (2, 0.25), (3, 0.25)))
            return flip, label, bell

        bernoulli = ((True, 0.3), (False, 1.0 - 0.3))
        labels = tuple((label, 0.25) for label in range(4))
        bells = ((0, 0.5), (2, 0.25), (3, 0.25))
        expected = [
            (1.0 * a[1] * b[1] * c[1], (a[0], b[0], c[0])) for a, b, c in product(bernoulli, labels, bells)
        ]
        assert weigh(steps) == expected

    def test_the_weighed_answers_are_the_drawable_ones(self, weigh):
        # A draw u lies in [0, 1 - 2**-53], so the two extreme draws give
        # every answer a Bernoulli point can give: True only when 0 < p,
        # False only when p < 1.
        last = 1.0 - 2.0**-53
        for p in (0.0, 1e-300, 1e-16, 0.5, 1.0 - 2.0**-52, last, 1.0):

            def steps():
                return (yield (BERNOULLI, p))

            drawable = {u < p for u in (0.0, last)}
            assert {answer for _, answer in weigh(steps)} == drawable, p

    def test_measuring_zero_in_z_has_one_branch(self, weigh):
        # The outcome 1 has probability 0, onto which no state collapses.
        zero = prepare_decoy(DecoyState.ZERO)
        table = TransitionTable()
        assert weigh(lambda: table.measure_points(zero, Subsystem.TRANSIT, Basis.Z)) == [(1.0, (0, zero))]

    def test_measurement_weights_sum_to_one(self, total_weight):
        # Each point's p is a probability, even where the kernel's sum
        # rounds past 1: |+> in X has p0 = 1.0 exactly.
        for state in UNPROBED_STATES + PROBED_STATES:
            for which, basis in product(state.subsystems, Basis):
                if which is Subsystem.ANCILLA:
                    continue  # read in Z only: test_readout_weights_sum_to_one
                table = TransitionTable()
                kind, p = next(table.measure_points(state, which, basis))
                assert kind is BERNOULLI and 0.0 <= p <= 1.0, (state, which, basis)
                weight = total_weight(lambda: table.measure_points(state, which, basis))
                assert weight == pytest.approx(1.0, abs=1e-12), (state, which, basis)
        plus = next(TransitionTable().measure_points(prepare_decoy(DecoyState.PLUS), TRANSIT, Basis.X))
        assert plus == (BERNOULLI, 1.0)

    def test_readout_weights_sum_to_one(self, total_weight):
        for state in PROBED_STATES:
            table = TransitionTable()
            kind, p = next(read_probe(table, state))
            assert kind is BERNOULLI and 0.0 <= p <= 1.0, state
            assert total_weight(lambda: read_probe(table, state)) == pytest.approx(1.0, abs=1e-12)

    def test_bell_weights_sum_to_one(self, total_weight):
        for state in UNPROBED_STATES:
            if state.has_home:
                table = TransitionTable()
                assert total_weight(lambda: table.bell_points(state)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", WEIGHED_ATTACKS, ids=attack_id)
    def test_attack_weights_sum_to_one(self, model, total_weight):
        for state in UNPROBED_STATES + PROBED_STATES:
            table = TransitionTable()
            weight = total_weight(lambda: eve_hop(table, model, AB, state))
            assert weight == pytest.approx(1.0, abs=1e-12), state

    @pytest.mark.parametrize("model", [AttackModel.none()] + WEIGHED_ATTACKS, ids=attack_id)
    def test_round_weights_sum_to_one(self, model, total_weight):
        schedule = SchedulePolicy()
        for j, k in product((0, 1), repeat=2):
            table = TransitionTable()
            weight = total_weight(lambda: rooted_round(table, schedule, model, j, k))
            assert weight == pytest.approx(1.0, abs=1e-12), (j, k)
