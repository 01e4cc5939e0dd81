import dataclasses
import json
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from conftest import eve_hop
from qsdc3 import protocol
from qsdc3.adversary import (
    AttackKind,
    AttackModel,
    ChannelSegment,
    Eavesdropper,
    EveRecord,
    paper_claimed_detection,
)
from qsdc3.cli import render_json
from qsdc3.harness import ExperimentConfig, run_experiment
from qsdc3.protocol import (
    AbortPolicy,
    MessageTriple,
    RoundKind,
    SchedulePolicy,
    analytic_detection_probability,
    run_protocol,
)
from qsdc3.states import (
    Basis,
    DecoyState,
    Pauli,
    Subsystem,
    TransitionTable,
    bell_state,
    prepare_decoy,
)
from test_states import kernel_collapse

RH = math.sqrt(0.5)

AB = ChannelSegment.A_TO_B
BC = ChannelSegment.B_TO_C
CA = ChannelSegment.C_TO_A
TRANSIT = Subsystem.TRANSIT


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

    def test_probe_flip_weight_must_be_a_probability(self):
        for beta_sq in (None, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="beta_sq"):
                AttackModel(AttackKind.ENTANGLE_MEASURE, frozenset({AB}), beta_sq=beta_sq)

    def test_beta_sq_constructor(self):
        # The flip weight is stored as given, as a float: no square root is
        # squared back, and a config's 1 is reported as 1.0.
        assert AttackModel.entangle_measure(0.5, AB).beta_sq == 0.5
        assert AttackModel.entangle_measure(0.3, AB).beta_sq == 0.3
        model = AttackModel.entangle_measure(1, AB)
        assert type(model.beta_sq) is float and model.beta_sq == 1.0
        with pytest.raises(ValueError, match="beta_sq"):
            AttackModel.entangle_measure(1.5, AB)

    def test_attack_probability_range(self):
        with pytest.raises(ValueError, match="attack_probability"):
            AttackModel.intercept_resend(AB, attack_probability=-0.1)

    # Each of these once constructed, or raised TypeError.  An enum's value
    # in place of the member ran the wrong attack: no attack at all on the
    # string segment, and the identity probe for the string kind.  A repeated
    # segment was dropped, and True ran as probability 1.0 and was reported
    # as ``true``.  A pauli or beta_sq that the kind ignores was kept,
    # unused, in the model's repr; so was a null attack's probability.
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: AttackModel.intercept_resend("a_to_b"), "segments"),
            (lambda: AttackModel.disturbance(Pauli.X, AB, "c_to_a"), "segments"),
            (lambda: AttackModel("intercept_resend", {AB}), "kind"),
            (lambda: AttackModel("none"), "kind"),
            (lambda: AttackModel.intercept_resend(AB, AB), "segments"),
            (lambda: AttackModel(AttackKind.DISTURBANCE, [CA, AB, CA], pauli=Pauli.X), "segments"),
            (lambda: AttackModel.intercept_resend(AB, attack_probability=True), "attack_probability"),
            (lambda: AttackModel.disturbance(Pauli.Z, AB, attack_probability="0.5"), "attack_probability"),
            (lambda: AttackModel.entangle_measure("0.5", AB), "beta_sq"),
            (lambda: AttackModel.entangle_measure(True, AB), "beta_sq"),
            (lambda: AttackModel(AttackKind.INTERCEPT_RESEND, {AB}, pauli=Pauli.X, beta_sq=5), "pauli"),
            (lambda: AttackModel(AttackKind.NONE, pauli=Pauli.Z), "pauli"),
            (lambda: AttackModel(AttackKind.ENTANGLE_MEASURE, {AB}, pauli=Pauli.X), "pauli"),
            (lambda: AttackModel(AttackKind.INTERCEPT_RESEND, {AB}, beta_sq=0.5), "beta_sq"),
            (lambda: AttackModel(AttackKind.DISTURBANCE, {AB}, pauli=Pauli.Z, beta_sq=0.5), "beta_sq"),
            (lambda: AttackModel(AttackKind.NONE, beta_sq=0.5), "beta_sq"),
            (lambda: AttackModel(AttackKind.NONE, attack_probability=0.5), "attack_probability"),
            (lambda: AttackModel(AttackKind.INTERCEPT_RESEND, None), "segments"),
            (lambda: AttackModel(AttackKind.INTERCEPT_RESEND, 5), "segments"),
        ],
        ids=["segment_value", "one_segment_value", "kind_value", "none_value", "repeated_segment",
             "repeated_segment_in_a_list", "bool_probability", "string_probability", "string_beta_sq", "bool_beta_sq",
             "pauli_on_intercept", "pauli_on_none", "pauli_on_probe", "beta_sq_on_intercept", "beta_sq_on_disturbance",
             "beta_sq_on_none", "gated_null_attack", "segments_none", "segments_integer"],
    )
    def test_a_value_that_would_be_coerced_is_rejected(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()

    def test_an_integer_attack_probability_is_stored_as_given(self):
        # A config's 1 stays 1 in its report.
        assert type(AttackModel.intercept_resend(AB, attack_probability=1).attack_probability) is int

    @pytest.mark.parametrize(
        "given, stored",
        [(np.float32(0.5), 0.5), (np.float64(0.25), 0.25), (np.int64(1), 1), (np.uint8(0), 0)],
        ids=["float32", "float64", "int64", "uint8"],
    )
    def test_a_numpy_attack_probability_is_stored_as_a_plain_number(self, given, stored):
        # A numpy scalar would reach the report as it is, and the JSON
        # writer cannot render it.
        model = AttackModel.intercept_resend(AB, attack_probability=given)
        assert model.attack_probability == stored and type(model.attack_probability) is type(stored)
        config = ExperimentConfig(message_length=8, trials=2, attack=model, seed=3)
        report = json.loads(render_json(run_experiment(config).to_dict()))
        assert report["config"]["attack"]["attack_probability"] == stored


@pytest.fixture
def hop(weigh):
    """``hop(model, segment, state)``: Eve's hop, as the round enters it
    (``conftest.eve_hop``), weighed exactly on a fresh table, ``[(weight,
    (state, record)), ...]``."""

    def weighed(model, segment, state):
        table = TransitionTable()
        return weigh(lambda: eve_hop(table, model, segment, state))

    return weighed


class TestAttackTransit:
    @pytest.mark.parametrize("p_fire", [1.0, 0.5])
    def test_uncovered_segment_is_identity(self, scripted, p_fire):
        # Eve's steps take their segment as covered; the Eavesdropper, like
        # the compiled round, enters them only on a covered one.  Entered,
        # the gated attack would draw for its gate, and either would flip
        # the pair and record it.
        eve = Eavesdropper(AttackModel.disturbance(Pauli.X, BC, attack_probability=p_fire), TransitionTable())
        state = bell_state((0, 0))
        rng = scripted([0.1])
        touched = []
        assert eve.intercept_transit(AB, state, rng, 0, touched) is state
        assert rng.values == [0.1] and eve.records == [] and touched == []

    def test_probe_coupling_state(self, hop):
        model = AttackModel.entangle_measure(0.64, AB)
        ((weight, (state, record)),) = hop(model, AB, bell_state((0, 0)))
        a, b = 0.6 * RH, 0.8 * RH
        assert weight == 1.0
        assert amps_close(state, (0, b, a, 0, a, 0, 0, b))
        assert record == EveRecord(-1, AB, AttackKind.ENTANGLE_MEASURE)

    def test_probe_attaches_once_per_flying_qubit(self, hop):
        model = AttackModel.entangle_measure(0.5, AB, BC)
        ((_, (state, first)),) = hop(model, AB, bell_state((0, 0)))
        assert first is not None
        assert hop(model, BC, state) == [(1.0, (state, None))]

    def test_disturbance_flips_the_pair(self, hop):
        model = AttackModel.disturbance(Pauli.X, AB)
        ((weight, (state, record)),) = hop(model, AB, bell_state((0, 0)))
        assert weight == 1.0
        assert amps_close(state, bell_state((1, 0)).amps)
        assert record == EveRecord(-1, AB, AttackKind.DISTURBANCE)

    def test_intercept_resend_branches(self, hop):
        # A fair basis coin, then Eve's outcome: each of the four branches
        # has weight 1/4, and the forwarded pair is the collapse of the
        # transit qubit onto her outcome (reading 0 in Z leaves the home
        # qubit in |1>).
        pair = bell_state((0, 0))
        ends = hop(AttackModel.intercept_resend(AB), AB, pair)
        expected = [
            (0.25, (kernel_collapse(pair, TRANSIT, basis, outcome), basis, outcome))
            for basis in (Basis.Z, Basis.X)
            for outcome in (0, 1)
        ]
        got = [(weight, (state, record.basis, record.outcome)) for weight, (state, record) in ends]
        assert got == [(pytest.approx(w, abs=1e-15), end) for w, end in expected]
        assert amps_close(ends[0][1][0], (0, 0, 1, 0))

    def test_attack_probability_skips(self, hop):
        model = AttackModel.disturbance(Pauli.X, AB, attack_probability=0.5)
        (fired, (flipped, record)), (skipped, skip) = hop(model, AB, bell_state((0, 0)))
        assert (fired, skipped) == (0.5, 0.5)
        assert record is not None and amps_close(flipped, bell_state((1, 0)).amps)
        assert skip == (bell_state((0, 0)), None)


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
    """The Eavesdropper's drawn hop is one of the exactly weighed hops."""

    @pytest.mark.parametrize("model, segment, state, draws", _STRATEGY_CASES)
    def test_eavesdropper_matches_the_weighed_hop(self, scripted, hop, model, segment, state, draws):
        eve = Eavesdropper(model, TransitionTable())
        engine_rng = scripted(draws)
        touched = []
        engine = eve.intercept_transit(segment, state, engine_rng, 7, touched)
        assert engine_rng.values == []
        if draws == [0.5]:
            assert engine is state and eve.records == [] and touched == []
            record = None
        else:
            (record,) = eve.records
            assert record.round_index == 7 and touched == [segment]
            record = dataclasses.replace(record, round_index=-1)
        weighed = [(weight, end) for weight, end in hop(model, segment, state) if end == (engine, record)]
        assert len(weighed) == 1 and weighed[0][0] > 0.0

    @pytest.mark.parametrize("p_fire", [1.0, 0.4])
    def test_a_probed_qubit_is_not_probed_again(self, scripted, hop, p_fire):
        model = AttackModel.entangle_measure(0.3, AB, BC, attack_probability=p_fire)
        eve = Eavesdropper(model, TransitionTable())
        probed = TransitionTable().attach(bell_state((0, 0)), model.beta_sq)
        touched = []
        draws = [0.1] if p_fire < 1.0 else []
        assert eve.intercept_transit(BC, probed, scripted(draws), 3, touched) is probed
        assert {end for _, end in hop(model, BC, probed)} == {(probed, None)}
        assert eve.records == [] and touched == []

    def test_records_are_slotted(self):
        assert not hasattr(EveRecord(0, AB, AttackKind.DISTURBANCE), "__dict__")


class TestAttackDecoy:
    def test_probe_on_plus_factorizes(self, hop):
        model = AttackModel.entangle_measure(0.64, CA)
        ((_, (state, _)),) = hop(model, CA, prepare_decoy(DecoyState.PLUS))
        assert amps_close(state, (0.6 * RH, 0.8 * RH, 0.6 * RH, 0.8 * RH))

    def test_probe_on_zero_entangles(self, hop):
        model = AttackModel.entangle_measure(0.64, CA)
        ((_, (state, _)),) = hop(model, CA, prepare_decoy(DecoyState.ZERO))
        assert amps_close(state, (0.6, 0, 0, 0.8))

    def test_phase_disturbance_is_invisible_on_z_decoys(self, hop):
        model = AttackModel.disturbance(Pauli.Z, CA)
        ((_, (state, _)),) = hop(model, CA, prepare_decoy(DecoyState.ZERO))
        assert amps_close(state, (1, 0))
        ((_, (state, _)),) = hop(model, CA, prepare_decoy(DecoyState.PLUS))
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

    @pytest.mark.parametrize("segment", [AB, BC, CA], ids=lambda s: s.value)
    @pytest.mark.parametrize("beta_sq", [5e-324, 1e-310, 1e-305, 1e-300])
    def test_a_coupling_at_the_probability_floor_detects_at_most_the_floor(self, beta_sq, segment):
        # Each outcome of probability <= backend.PROBABILITY_FLOOR gets an
        # empty interval, so the enumerator collapses onto none of them.
        model = AttackModel.entangle_measure(beta_sq, segment)
        for kind in ("ab_check", "ca_check", "decoy_check"):
            assert 0.0 <= analytic_detection_probability(model, kind) <= 1e-300

    def test_a_coupling_just_above_the_floor_still_detects(self):
        value = analytic_detection_probability(AttackModel.entangle_measure(2e-300, AB), "ab_check")
        assert 0.0 < value and abs(value - 1e-300) <= 1e-300

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
        # None once raised AttributeError on its ``kind``.
        with pytest.raises(ValueError, match="^model must be of type AttackModel"):
            analytic_detection_probability(None, "ab_check")
        model = AttackModel.disturbance(Pauli.X, AB)
        with pytest.raises(ValueError, match="check"):
            analytic_detection_probability(model, RoundKind.MESSAGE)

    # A list or a dict once raised TypeError, from the lookup by its hash.
    @pytest.mark.parametrize("kind", [["ab_check"], {"ab_check": 1}, "message_round"], ids=["list", "dict", "unknown"])
    def test_rejects_a_kind_that_is_not_a_round_kind(self, kind):
        model = AttackModel.disturbance(Pauli.X, AB)
        with pytest.raises(ValueError, match="not a valid RoundKind"):
            analytic_detection_probability(model, kind)

    @pytest.mark.parametrize("family", ["Z", 0, Basis, DecoyState.ZERO])
    def test_rejects_a_decoy_family_that_is_not_a_basis(self, family):
        model = AttackModel.intercept_resend(CA)
        with pytest.raises(ValueError, match="decoy_family"):
            analytic_detection_probability(model, "decoy_check", family)

    @pytest.mark.parametrize("kind", ["ab_check", "ca_check", RoundKind.BOB_EAVESDROP_CHECK])
    def test_rejects_a_decoy_family_on_a_pair_check(self, kind):
        model = AttackModel.intercept_resend(AB)
        for family in Basis:
            with pytest.raises(ValueError, match="decoy check only"):
                analytic_detection_probability(model, kind, family)


# Every non-empty set of segments an attack can cover.
SEGMENT_SETS = [segments for n in (1, 2, 3) for segments in combinations(ChannelSegment, n)]

# The check rows of a report and the arguments that compute each one.
CHECK_ROWS = {
    "ab_check": ("ab_check", None),
    "ca_check": ("ca_check", None),
    "decoy_check": ("decoy_check", None),
    "decoy_check_z": ("decoy_check", Basis.Z),
    "decoy_check_x": ("decoy_check", Basis.X),
}


def fixture_model(entry):
    segments = [ChannelSegment(value) for value in entry["segments"]]
    p = entry["attack_probability"]
    if entry["kind"] == "intercept_resend":
        return AttackModel.intercept_resend(*segments, attack_probability=p)
    if entry["kind"] == "disturbance":
        return AttackModel.disturbance(Pauli[entry["pauli"]], *segments, attack_probability=p)
    return AttackModel.entangle_measure(entry["beta_sq"], *segments, attack_probability=p)


def fixture_id(entry):
    kind = {"intercept_resend": "intercept", "disturbance": "disturb-%s", "entangle_measure": "entangle-%s"}
    name = kind[entry["kind"]].replace("%s", str(entry["pauli"] or entry["beta_sq"]))
    return "%s-%s-p%s" % (name, "+".join(entry["segments"]), entry["attack_probability"])


class TestEnumeratedValues:
    """The enumerator against values saved from the hand-written enumeration
    it replaced (tests/analytic_values.json): every attack kind on every
    segment set, at attack probability 1 and 0.4 and, for the probe, flip
    weight 0.25 and 0.5, each with all five check rows."""

    ENTRIES = json.loads((Path(__file__).parent / "analytic_values.json").read_text())

    def test_the_grid_is_complete(self):
        assert len(self.ENTRIES) == len(SEGMENT_SETS) * 2 * 5

    @pytest.mark.parametrize(
        "entry",
        ENTRIES,
        ids=[fixture_id(entry) for entry in ENTRIES],
    )
    def test_each_value_is_within_1e_15_of_the_saved_one(self, entry):
        model = fixture_model(entry)
        for row, (kind, family) in CHECK_ROWS.items():
            value = analytic_detection_probability(model, kind, family)
            assert abs(value - entry[row]) <= 1e-15, (row, value, entry[row])


def attack_grid(probabilities, flip_weights):
    """Intercept-resend, both disturbances and the probe at each flip weight,
    on every segment set at each attack probability."""
    for segments in SEGMENT_SETS:
        for p in probabilities:
            yield AttackModel.intercept_resend(*segments, attack_probability=p)
            yield AttackModel.disturbance(Pauli.X, *segments, attack_probability=p)
            yield AttackModel.disturbance(Pauli.Z, *segments, attack_probability=p)
            for beta_sq in flip_weights:
                yield AttackModel.entangle_measure(beta_sq, *segments, attack_probability=p)


class TestLeafWeights:
    def test_each_forced_tree_is_weighed_as_the_reference_weighs_the_round(self, two_enumerations):
        # The trees the enumerator weighs, over the decoy-family grid and
        # from every root: the same weights, bit for bit, and the same
        # leaves, paths and leakage keys included, in the same order.
        models = list(attack_grid((1.0, 0.7, 0.4), (0.0, 0.25, 0.3, 0.5, 0.75, 1.0)))
        assert len(models) == 189
        for model in models:
            for kind, schedule in protocol._FORCING_SCHEDULES.items():
                for j, k in product((0, 1), repeat=2):
                    got, expected = two_enumerations(schedule, model, j, k)
                    assert got == expected, (model, kind, j, k)


class TestDecoyFamilies:
    def test_the_decoy_check_is_the_exact_mean_of_its_two_families(self):
        # Bit for bit: a decoy round reveals a Z-family or an X-family decoy
        # with weight 1/2 each.
        models = list(attack_grid((1.0, 0.7, 0.4), (0.0, 0.25, 0.3, 0.5, 0.75, 1.0)))
        assert len(models) == 189
        mismatched = []
        for model in models:
            both = analytic_detection_probability(model, "decoy_check")
            z = analytic_detection_probability(model, "decoy_check", Basis.Z)
            x = analytic_detection_probability(model, "decoy_check", Basis.X)
            if both != (z + x) / 2:
                mismatched.append((model, both, z, x))
        assert not mismatched


# The largest uniform a draw gives, one step below 1.
LAST_DRAW = 1.0 - 2.0**-53
CRITERION_5 = SchedulePolicy(0.25, 0.1, 0.4)


class TestExtremeDraws:
    """No draw a generator can give crashes a session."""

    def test_the_extreme_draws_pick_each_roots_first_and_last_leaf(self, scripted, monkeypatch):
        # The decoy-family grid and the null model under the criterion-5
        # schedule.  24 of these models have points where the sum of one
        # outcome rounds below 1 while the other has no amplitude: under
        # entangle-measure at |beta|^2 = 0.25 on A->B and C->A, bits (1, 1),
        # no A-B check, Bob's control mode, the X basis and Charlie's outcome
        # 0 leave Alice's outcome 0 at p0 = 0.9999999999999999 in float.
        # ``leaf_weights`` follows every answer of positive probability,
        # which are the drawable answers (``TestWeigh`` in test_states.py),
        # without raising.  From every root, the draw 0.0 takes the first
        # leaf of positive weight and the largest draw the last, a message
        # round, so a one-bit session ends with it.  On a table whose roots
        # are weighed, no draw starts a round's steps.
        models = [AttackModel.none()] + list(attack_grid((1.0, 0.7, 0.4), (0.0, 0.25, 0.3, 0.5, 0.75, 1.0)))
        assert len(models) == 190
        started = []  # the rounds whose steps were started
        round_points = protocol._round_points
        monkeypatch.setattr(protocol, "_round_points", lambda *args: started.append(args) or round_points(*args))
        record = AbortPolicy.RECORD_AND_CONTINUE
        for model in models:
            table = TransitionTable()
            roots = {
                (j, k): [leaf for weight, leaf in protocol.leaf_weights(table, CRITERION_5, model, j, k) if weight > 0.0]
                for j, k in product((0, 1), repeat=2)
            }
            weighed = len(started)
            for (j, k), drawable in roots.items():
                messages = MessageTriple((0,), (j,), (k,))
                first = run_protocol(messages, CRITERION_5, scripted([0.0, LAST_DRAW]), model, record, table=table)
                last = run_protocol(messages, CRITERION_5, scripted([LAST_DRAW]), model, record, table=table)
                assert len(started) == weighed
                assert first.leaves[0] is drawable[0]
                assert last.leaves == [drawable[-1]]
                assert drawable[-1].kind is RoundKind.MESSAGE


# The segments each check's qubit crosses before it is checked.
CHECK_PATHS = {"ab_check": {AB}, "ca_check": {AB, BC}, "decoy_check": {CA}}


class TestUntouchedPaths:
    def test_a_check_whose_path_is_not_attacked_weighs_exactly_zero(self):
        untouched = 0
        for model in attack_grid((1.0, 0.4), (0.25, 1.0)):
            for row, (kind, family) in CHECK_ROWS.items():
                if model.segments.isdisjoint(CHECK_PATHS[kind]):
                    untouched += 1
                    assert analytic_detection_probability(model, kind, family) == 0.0, (model, row)
        assert untouched == 130  # 13 (segment set, row) pairs for each of 10 attacks


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
