import hashlib
import json
import logging
import math
import operator
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qsdc3 import harness, protocol
from qsdc3.adversary import AttackModel, ChannelSegment, analytic_detection_probability
from qsdc3.cli import render_json
from qsdc3.harness import (
    ExperimentAborted,
    ExperimentConfig,
    detection_curve,
    entangle_measure_curve,
    exhaustive_oracle,
    plugin_mutual_information,
    run_experiment,
    wilson_interval,
)
from qsdc3.protocol import (
    AbortPolicy,
    MessageTriple,
    ProtocolAborted,
    RoundBudgetExceeded,
    RoundKind,
    SchedulePolicy,
    run_protocol,
)
from qsdc3.states import Basis, JointState, Pauli, TransitionTable
from test_protocol import BITS, G_TEST_CASES, RECORD, SHARED_TABLE_CASES, chi_square_quantile, two_sample_g

AB = ChannelSegment.A_TO_B
BC = ChannelSegment.B_TO_C
CA = ChannelSegment.C_TO_A


class TestStatsHelpers:
    def test_wilson_interval_brackets_the_estimate(self):
        lo, hi = wilson_interval(25, 100)
        assert 0.0 <= lo < 0.25 < hi <= 1.0

    def test_wilson_interval_at_zero_failures(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_wilson_interval_no_data(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_interval_narrows_with_n(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(5000, 10000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_mi_of_a_copied_fair_bit_is_one(self):
        xs = [0, 0, 1, 1] * 100
        assert plugin_mutual_information(xs, xs) == pytest.approx(1.0, abs=1e-12)

    def test_mi_of_independent_bits_is_zero(self):
        xs = [0, 1, 0, 1]
        ys = [0, 0, 1, 1]
        assert plugin_mutual_information(xs, ys) == pytest.approx(0.0, abs=1e-12)

    def test_mi_rejects_mismatched_input(self):
        with pytest.raises(ValueError):
            plugin_mutual_information([0, 1], [0])


class TestRunExperiment:
    def test_unattacked_experiment_is_perfect(self):
        config = ExperimentConfig(
            message_length=64,
            trials=50,
            schedule=SchedulePolicy(),
            attack=AttackModel.none(),
            abort_policy=AbortPolicy.STRICT,
            seed=17,
        )
        result = run_experiment(config)
        assert result.fidelity.alice == 1.0
        assert result.fidelity.bob == 1.0
        assert result.fidelity.charlie == 1.0
        assert result.trials_completed == 50
        assert result.trials_aborted == 0
        for kind in ("ab_check", "ca_check", "decoy_check"):
            assert result.detection.kinds[kind].checks_failed == 0
        assert result.leakage.xor_identity_fraction == 1.0

    def test_leakage_audit_shape(self):
        # The public pair (x, y) carries one full bit about j XOR k and
        # nothing measurable about any single secret stream.
        config = ExperimentConfig(
            message_length=128,
            trials=40,
            schedule=SchedulePolicy(0.1, 0.1, 0.1),
            seed=23,
        )
        result = run_experiment(config)
        leak = result.leakage
        assert leak.rounds_audited == 128 * 40
        assert leak.mi_xor_announced_vs_xor_secret > 0.99
        for mi in (
            leak.mi_announcement_vs_alice,
            leak.mi_announcement_vs_bob,
            leak.mi_announcement_vs_charlie,
        ):
            assert 0.0 <= mi < 0.01

    def test_reports_are_deterministic(self):
        config = ExperimentConfig(
            message_length=32,
            trials=20,
            schedule=SchedulePolicy(0.4, 0.2, 0.3),
            attack=AttackModel.intercept_resend(AB),
            seed=99,
        )
        first = json.dumps(run_experiment(config).to_dict(), sort_keys=True)
        second = json.dumps(run_experiment(config).to_dict(), sort_keys=True)
        assert first == second

    def test_different_seeds_differ(self):
        base = dict(
            message_length=32,
            trials=20,
            schedule=SchedulePolicy(0.4, 0.2, 0.3),
            attack=AttackModel.intercept_resend(AB),
        )
        a = run_experiment(ExperimentConfig(seed=1, **base))
        b = run_experiment(ExperimentConfig(seed=2, **base))
        assert a.to_dict() != b.to_dict()

    def test_strict_attacked_experiment_aborts_with_partial_stats(self):
        config = ExperimentConfig(
            message_length=64,
            trials=10,
            schedule=SchedulePolicy(0.5, 0.25, 0.25),
            attack=AttackModel.disturbance(Pauli.X, AB),
            abort_policy=AbortPolicy.STRICT,
            seed=3,
        )
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(config)
        partial = info.value.partial
        assert partial.aborted is not None
        assert partial.aborted["check_kind"] in ("ab_check", "ca_check")
        assert partial.trials_aborted == 1
        failed = sum(stats.checks_failed for stats in partial.detection.kinds.values())
        assert failed >= 1

    def test_analytic_column_and_z_score(self):
        config = ExperimentConfig(
            message_length=48,
            trials=60,
            schedule=SchedulePolicy(0.5, 0.25, 0.25),
            attack=AttackModel.disturbance(Pauli.Z, AB),
            seed=31,
        )
        result = run_experiment(config)
        ab = result.detection.kinds["ab_check"]
        assert ab.analytic_probability == pytest.approx(0.5, abs=1e-12)
        assert ab.paper_claim == 0.5
        assert abs(ab.z_score) < 4.0
        # The decoy path is untouched by this attack.
        assert result.detection.kinds["decoy_check"].analytic_probability == 0.0
        assert result.detection.kinds["decoy_check"].checks_failed == 0


class TestRunScope:
    """What a run holds, and for how long."""

    def test_seeds_are_spawned_one_trial_at_a_time(self, monkeypatch):
        # A run of 100,000 trials holds no seed for a trial that has not
        # started: nothing is allocated in proportion to ``trials``.  The
        # experiment draws its trials' counts, so the first draw stops it.
        class FirstTrial(Exception):
            pass

        def first_trial(*args, **kwargs):
            raise FirstTrial

        monkeypatch.setattr(harness._TrialLaw, "draw", first_trial)
        config = ExperimentConfig(message_length=8, trials=100_000, seed=9)
        tracemalloc.start()
        try:
            with pytest.raises(FirstTrial):
                run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_each_trial_draws_from_its_own_spawned_child(self, monkeypatch):
        # The seed contract: trial t draws from a fresh default_rng(child t)
        # of the config's SeedSequence.
        states = []
        draw = harness._TrialLaw.draw

        def recording_draw(law, rng, length, max_rounds):
            states.append(rng.bit_generator.state)
            return draw(law, rng, length, max_rounds)

        monkeypatch.setattr(harness._TrialLaw, "draw", recording_draw)
        run_experiment(ExperimentConfig(message_length=8, trials=5, seed=21))
        children = np.random.SeedSequence(21).spawn(5)
        assert states == [np.random.default_rng(child).bit_generator.state for child in children]

    def test_repeated_runs_validate_the_same_states(self, monkeypatch):
        # Each run builds its own table, so nothing one run built is
        # reused, or counted differently, by the next.  Without an attack no
        # exact enumeration runs, so every state counted is a table state.
        calls = []
        original = JointState.__post_init__

        def counting(state):
            calls.append(state)
            original(state)

        monkeypatch.setattr(JointState, "__post_init__", counting)
        config = ExperimentConfig(message_length=16, trials=4, schedule=SchedulePolicy(0.3, 0.3, 0.3), seed=11)
        counts = []
        for _ in range(2):
            del calls[:]
            run_experiment(config)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestExperimentTable:
    """An experiment builds one transition table: its compiled round is
    weighed there once, and every trial draws from it."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """The tables built, the table of each root the harness weighed and
        the table each session was given."""
        built, weighed, given = [], [], []

        def recording_table():
            built.append(TransitionTable())
            return built[-1]

        def recording_weights(table, schedule, model, j, k):
            weighed.append(table)
            return leaf_weights(table, schedule, model, j, k)

        def recording_session(*args, table=None, **kwargs):
            given.append(table)
            return run_protocol(*args, table=table, **kwargs)

        leaf_weights = harness.leaf_weights
        monkeypatch.setattr(harness, "TransitionTable", recording_table)
        monkeypatch.setattr(harness, "leaf_weights", recording_weights)
        monkeypatch.setattr(harness, "run_protocol", recording_session)
        return built, weighed, given

    def test_run_experiment_builds_one_table_for_every_trial(self, walked):
        built, weighed, given = walked
        attack = AttackModel.intercept_resend(AB)
        run_experiment(ExperimentConfig(message_length=8, trials=5, attack=attack, seed=3))
        assert len(built) == 1 and len(built[0]) > 0
        assert weighed == [built[0]] * 4 and given == []
        # A strict experiment whose checks can fail runs a session per
        # trial, on the same table.
        strict = ExperimentConfig(
            message_length=8,
            trials=5,
            attack=AttackModel.intercept_resend(AB, attack_probability=0.001),
            abort_policy=AbortPolicy.STRICT,
            seed=3,
        )
        run_experiment(strict)
        assert len(built) == 2 and weighed[4:] == [built[1]] * 4
        assert len(given) == 5 and all(table is built[1] for table in given)

    def test_a_detection_curve_builds_one_table_per_grid_point(self, walked):
        built, weighed, given = walked
        entangle_measure_curve([0.0, 0.5, 1.0], message_length=4, trials=3, seed=5)
        assert len(built) == 3 and len({id(table) for table in built}) == 3
        assert weighed == [table for table in built for _ in range(4)]
        assert given == []

    def test_a_probe_experiment_validates_each_distinct_state_once(self, monkeypatch):
        # Counted outside the exact enumeration, which builds states of its
        # own: the experiment's table validates each state it holds once,
        # and its 40 trials validate none.
        calls = []
        counting = [True]
        original = JointState.__post_init__

        def count(state):
            if counting[0]:
                calls.append(state)
            original(state)

        def uncounted_analytic(*args, **kwargs):
            counting[0] = False
            try:
                return analytic(*args, **kwargs)
            finally:
                counting[0] = True

        analytic = harness._Aggregator._analytic
        monkeypatch.setattr(JointState, "__post_init__", count)
        monkeypatch.setattr(harness._Aggregator, "_analytic", uncounted_analytic)
        config = ExperimentConfig(
            message_length=16,
            trials=40,
            schedule=SchedulePolicy(0.25, 0.1, 0.4),
            attack=AttackModel.entangle_measure(0.5, AB, CA),
            seed=8,
        )
        run_experiment(config)
        assert 0 < len(calls) < 64
        assert len(set(calls)) == len(calls)

    def test_a_40_trial_experiment_builds_each_leaf_once(self, monkeypatch):
        # Each leaf built is recorded with the table and schedule of the
        # weighing that builds it.  The table itself, not its id: the
        # enumerator's tables are freed after each call, and an id may then
        # be reused.
        weighing, built = [], []

        def recording_weights(table, schedule, model, j, k):
            weighing[:] = [table, schedule]
            return leaf_weights(table, schedule, model, j, k)

        def recording_leaf(kind, path, *fields):
            built.append((*weighing, path))
            return leaf(kind, path, *fields)

        leaf_weights, leaf = protocol.leaf_weights, protocol.Leaf
        monkeypatch.setattr(protocol, "leaf_weights", recording_weights)
        monkeypatch.setattr(harness, "leaf_weights", recording_weights)
        monkeypatch.setattr(protocol, "Leaf", recording_leaf)
        attack = AttackModel.entangle_measure(0.5, AB, CA, attack_probability=0.7)
        config = ExperimentConfig(
            message_length=32,
            trials=40,
            schedule=SchedulePolicy(0.25, 0.1, 0.4),
            attack=attack,
            abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
            seed=12,
        )
        run_experiment(config)
        # One table, so one compiled round: the experiment weighs its four
        # roots once, building each leaf once, and every trial draws its
        # counts of them.  The exact enumerator weighs its check-forcing
        # schedules on tables of its own.
        assert len({table for table, schedule, _ in built if schedule == config.schedule}) == 1
        assert len(set(built)) == len(built) > 40


class TestAnalyticWeighings:
    """An experiment weighs each check-forced tree once: its five analytic
    rows read three weighings."""

    # The schedules that force every round to be an A-B, C-A or decoy check.
    FORCED = Counter([SchedulePolicy(1.0, 0.0, 0.0), SchedulePolicy(0.0, 1.0, 0.0), SchedulePolicy(0.0, 0.0, 1.0)])
    # Each row's name, and the check kind and decoy family _analytic is given.
    ROWS = [
        ("ab_check", RoundKind.BOB_EAVESDROP_CHECK, None),
        ("ca_check", RoundKind.BOB_CONTROL_CHECK, None),
        ("decoy_check", RoundKind.CHARLIE_DECOY_CHECK, None),
        ("decoy_check_z", RoundKind.CHARLIE_DECOY_CHECK, Basis.Z),
        ("decoy_check_x", RoundKind.CHARLIE_DECOY_CHECK, Basis.X),
    ]

    @pytest.mark.parametrize(
        "attack", [pytest.param(case.values[0], id=case.id) for case in SHARED_TABLE_CASES if case.values[1] is RECORD]
    )
    def test_each_forced_tree_is_weighed_once(self, monkeypatch, attack):
        config = ExperimentConfig(
            message_length=32,
            trials=4,
            schedule=SchedulePolicy(0.25, 0.25, 0.4),
            attack=attack if attack is not None else AttackModel.none(),
            abort_policy=AbortPolicy.RECORD_AND_CONTINUE,
            seed=14,
        )
        forced, rows = Counter(), []

        def recording_weights(table, schedule, model, j, k):
            # The sessions weigh the experiment's own schedule; any other
            # schedule is the enumerator forcing one check kind.
            if schedule != config.schedule:
                forced[schedule] += 1
            return leaf_weights(table, schedule, model, j, k)

        def recording_analytic(agg, kind, decoy_family):
            rows.append((kind, decoy_family))
            return analytic(agg, kind, decoy_family)

        leaf_weights, analytic = protocol.leaf_weights, harness._Aggregator._analytic
        monkeypatch.setattr(protocol, "leaf_weights", recording_weights)
        monkeypatch.setattr(harness._Aggregator, "_analytic", recording_analytic)
        result = run_experiment(config)
        # One _analytic call per row, and every decoy family was run.
        assert rows == [(kind, family) for _, kind, family in self.ROWS]
        assert list(result.detection.kinds) == [name for name, _, _ in self.ROWS]
        if attack is None:
            assert not forced
            return
        assert forced == self.FORCED
        for name, kind, family in self.ROWS:
            exact = analytic_detection_probability(attack, kind, family)
            assert result.detection.kinds[name].analytic_probability == exact, name


def _list_mutual_information(xs, ys):
    """Plug-in mutual information over two lists, as the report computed
    it before the joint count: the reference for the count-based value."""
    n = len(xs)
    joint = Counter(zip(xs, ys))
    px = Counter(xs)
    py = Counter(ys)
    mi = 0.0
    for (x, y), c in sorted(joint.items()):
        mi += (c / n) * math.log2(c * n / (px[x] * py[y]))
    return mi


class TestLeakageCounts:
    """The leakage audit folds message rounds into one joint count."""

    @pytest.mark.parametrize("seed", range(4))
    def test_count_based_mi_equals_the_list_based_mi_bit_for_bit(self, seed):
        generator = np.random.default_rng(seed)
        for n in (1, 7, 1000, 20011):
            xs = generator.integers(0, 4, size=n).tolist()
            # ys copies the low bit of xs with a small flip chance.
            ys = [(x & 1) ^ int(u < 0.1) for x, u in zip(xs, generator.random(n).tolist())]
            assert plugin_mutual_information(xs, ys) == _list_mutual_information(xs, ys)
            assert plugin_mutual_information(ys, xs) == _list_mutual_information(ys, xs)

    def test_a_long_experiment_holds_at_most_32_keys_and_reports_the_list_values(self, monkeypatch):
        # The report's values are those of the per-round lists that the
        # counted message rounds spell out, one entry per round.
        aggregators = []
        build = harness._Aggregator.build

        def recording_build(self, aborted=None):
            aggregators.append(self)
            return build(self, aborted)

        monkeypatch.setattr(harness._Aggregator, "build", recording_build)
        # Intercept-resend on every segment garbles some announcements, so
        # the XOR identity fails on some rounds and every MI is above 0.
        config = ExperimentConfig(
            message_length=1000,
            trials=10,
            attack=AttackModel.intercept_resend(AB, BC, CA, attack_probability=0.3),
            seed=10,
        )
        leakage = run_experiment(config).leakage
        (aggregator,) = aggregators
        assert leakage.rounds_audited == 10_000
        assert 0 < len(aggregator.leakage_counts) <= 32
        rounds = [key for key, c in aggregator.leakage_counts.items() for _ in range(c)]
        xy = [2 * x + y for x, y, _, _, _ in rounds]
        xor_announced = [x ^ y for x, y, _, _, _ in rounds]
        xor_secret = [j ^ k for _, _, _, j, k in rounds]
        hits = sum(a == b for a, b in zip(xor_announced, xor_secret))
        assert 0 < hits < len(rounds) == 10_000
        assert leakage.xor_identity_fraction == hits / len(rounds)
        for name, secret in (("alice", 2), ("bob", 3), ("charlie", 4)):
            reference = _list_mutual_information(xy, [key[secret] for key in rounds])
            assert getattr(leakage, "mi_announcement_vs_" + name) == reference
        assert leakage.mi_xor_announced_vs_xor_secret == _list_mutual_information(xor_announced, xor_secret)


def record_fold(messages, records, transcript, eve_records, decoded=None):
    """A session's report counts folded from its records, as the harness
    folded them before it counted leaves: ``[run, failed]`` per check kind
    and per decoy family, the leakage count, Eve's ``(actions, probe
    readouts, probe flips)`` and, when ``decoded`` is given, each view's
    right bits."""
    reveals = transcript.decoy_reveals()
    checks = {kind.value: [0, 0] for kind in RoundKind if kind is not RoundKind.MESSAGE}
    families = {"decoy_check_z": [0, 0], "decoy_check_x": [0, 0]}
    leakage = Counter()
    for index, rec in enumerate(records):
        if rec.kind is RoundKind.MESSAGE:
            leakage[rec.announcement + (rec.alice_bit, rec.bob_bit, rec.charlie_bit)] += 1
            continue
        failed = not rec.check_passed
        rows = [checks[rec.kind.value]]
        if rec.kind is RoundKind.CHARLIE_DECOY_CHECK:
            rows.append(families["decoy_check_z" if reveals[index] in ("0", "1") else "decoy_check_x"])
        for row in rows:
            row[0] += 1
            row[1] += failed
    readouts = [ev.ancilla_outcome for ev in eve_records if ev.ancilla_outcome is not None]
    eve = (len(eve_records), len(readouts), sum(readouts))
    hits = None
    if decoded is not None:
        pairs = (
            (decoded.alice_view_bob, messages.bob_bits),
            (decoded.alice_view_charlie, messages.charlie_bits),
            (decoded.bob_view_alice, messages.alice_bits),
            (decoded.bob_view_charlie, messages.charlie_bits),
            (decoded.charlie_view_alice, messages.alice_bits),
            (decoded.charlie_view_bob, messages.bob_bits),
        )
        hits = [sum(map(operator.eq, got, want)) for got, want in pairs]
    return checks, families, leakage, eve, hits


def law_counts(law, leaves, alice_bits):
    """A session's leaves counted in the layout of ``law``'s count array:
    the n-th message leaf in the row of Alice's n-th bit."""
    cell = {}
    for row, column, leaf in law.cells:
        cell.setdefault(leaf, (row - row % 3, column))
    counts = np.zeros_like(law.pvals, dtype=np.int64)
    bits = iter(alice_bits)
    for leaf in leaves:
        row, column = cell[leaf]
        counts[row + (next(bits) if leaf.kind is RoundKind.MESSAGE else 2), column] += 1
    return counts


class TestLeafFold:
    """Counting leaves gives the counts that folding the records gave.

    Strict experiments whose checks can fail fold each session's leaves
    (``add_leaves``); the others fold count arrays (``add_totals`` and the
    law's miss cells), which must fold a session's leaves to the same
    counts."""

    @pytest.mark.parametrize("policy", list(AbortPolicy), ids=lambda p: p.name.lower())
    @pytest.mark.parametrize(
        "attack", [pytest.param(case.values[0], id=case.id) for case in SHARED_TABLE_CASES if case.values[1] is RECORD]
    )
    def test_the_leaf_fold_equals_the_record_fold(self, attack, policy):
        aborted = 0
        table = TransitionTable()  # one compiled round for the six sessions
        for seed in range(6):
            rng = np.random.default_rng(seed)
            messages = MessageTriple.random(48, rng)
            try:
                result = run_protocol(messages, SchedulePolicy(0.25, 0.25, 0.4), rng, attack, policy, table=table)
                leaves, shown = result.leaves, (result.records, result.transcript, result.eve_records, result.decoded)
            except ProtocolAborted as abort:
                leaves, shown = abort.leaves, (abort.records, abort.transcript, abort.eve_records)
                aborted += 1
            checks, families, leakage, eve, hits = record_fold(messages, *shown)
            agg = harness._Aggregator(ExperimentConfig())
            keys = agg.add_leaves(leaves, messages.alice_bits)
            assert agg.tally() == ({**checks, **families}, eve)
            assert keys == agg.leakage_counts == leakage
            assert sum(agg.leaf_counts.values()) == len(shown[0])
            if hits is not None:
                assert harness._view_hits(keys) == hits
        if policy is AbortPolicy.STRICT and attack is not None:
            assert aborted == 6

    @pytest.mark.parametrize(
        "attack", [pytest.param(case.values[0], id=case.id) for case in SHARED_TABLE_CASES if case.values[1] is RECORD]
    )
    def test_the_count_fold_equals_the_leaf_fold(self, attack):
        table = TransitionTable()
        schedule = SchedulePolicy(0.25, 0.25, 0.4)
        model = attack if attack is not None else AttackModel.none()
        law = harness._TrialLaw([protocol.leaf_weights(table, schedule, model, j, k) for j in (0, 1) for k in (0, 1)])
        for seed in range(6):
            rng = np.random.default_rng(seed)
            messages = MessageTriple.random(48, rng)
            leaves = run_protocol(messages, schedule, rng, attack, RECORD, table=table).leaves
            counts = law_counts(law, leaves, messages.alice_bits)
            by_leaves, by_counts = harness._Aggregator(ExperimentConfig()), harness._Aggregator(ExperimentConfig())
            keys = by_leaves.add_leaves(leaves, messages.alice_bits)
            by_counts.add_totals(law, counts)
            assert by_counts.leaf_counts == by_leaves.leaf_counts
            assert by_counts.leakage_counts == by_leaves.leakage_counts
            assert law.view_hits(counts, 48) == harness._view_hits(keys)
            assert law.failed_checks(counts) == sum(leaf.passed is False for leaf in leaves)


class TestTrialLog:
    """A trial's INFO line counts its failed checks only when it is shown;
    its text is checked in test_cli.py (``TestTrialProgress``)."""

    class Unread(list):
        def __iter__(self):
            raise AssertionError("the leaves were read")

    def test_below_info_the_leaves_are_not_read(self, caplog):
        caplog.set_level(logging.WARNING, logger="qsdc3")
        harness._log_trial(0, 3, harness._failed_in(self.Unread()))
        assert caplog.records == []

    def test_at_info_the_failed_checks_are_counted(self, caplog):
        caplog.set_level(logging.INFO, logger="qsdc3")
        leaves = [protocol.Leaf(RoundKind.BOB_EAVESDROP_CHECK, (), passed, (), None, None, (), (), None)
                  for passed in (True, False, False)]
        harness._log_trial(4, 3, harness._failed_in(leaves), ", aborted")
        assert [r.getMessage() for r in caplog.records] == ["trial 4: rounds 3, failed checks 2, aborted"]


class TestSessionBoundary:
    """A strict experiment whose checks can fail runs one protocol session
    per trial; every other experiment runs none."""

    @pytest.fixture
    def sessions(self, monkeypatch):
        """How each session ended: its rounds, and whether it aborted."""
        ended = []

        def recording_session(*args, **kwargs):
            try:
                result = run_protocol(*args, **kwargs)
            except ProtocolAborted as abort:
                ended.append((abort.round_index + 1, True))
                raise
            ended.append((result.rounds_used, False))
            return result

        monkeypatch.setattr(harness, "run_protocol", recording_session)
        return ended

    def test_one_session_per_completed_trial(self, sessions):
        config = ExperimentConfig(
            message_length=8,
            trials=7,
            attack=AttackModel.intercept_resend(AB, attack_probability=0.001),
            abort_policy=AbortPolicy.STRICT,
            seed=4,
        )
        assert run_experiment(config).rounds_total == sum(rounds for rounds, _ in sessions)
        assert sessions and [aborted for _, aborted in sessions] == [False] * 7

    @pytest.mark.parametrize(
        "attack, policy",
        [
            (AttackModel.intercept_resend(AB), AbortPolicy.RECORD_AND_CONTINUE),
            (AttackModel.none(), AbortPolicy.STRICT),
            (AttackModel.entangle_measure(0.0, AB, CA), AbortPolicy.STRICT),
        ],
        ids=["record_and_continue", "strict_without_attack", "strict_without_a_failable_check"],
    )
    def test_an_experiment_whose_checks_cannot_abort_runs_no_session(self, sessions, attack, policy):
        # A probe of coupling 0 acts on every crossing, yet no check can
        # fail: no leaf of the round fails, so the strict experiment draws
        # counts too.
        config = ExperimentConfig(message_length=8, trials=7, attack=attack, abort_policy=policy, seed=4)
        result = run_experiment(config)
        assert result.trials_completed == 7
        assert sessions == []

    def test_the_aborting_trial_runs_one_session(self, sessions):
        # The first trials complete; the aborting one is the last session,
        # and the partial report counts its rounds up to the failing one.
        config = ExperimentConfig(
            message_length=8,
            trials=50,
            schedule=SchedulePolicy(0.1, 0.1, 0.1),
            attack=AttackModel.intercept_resend(AB, attack_probability=0.1),
            abort_policy=AbortPolicy.STRICT,
            seed=2,
        )
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(config)
        trial = info.value.trial_index
        assert trial > 0
        assert [aborted for _, aborted in sessions] == [False] * trial + [True]
        assert info.value.partial.rounds_total == sum(rounds for rounds, _ in sessions)
        assert info.value.partial.trials_completed == trial


def experiment_law(schedule, model):
    """A fresh table, its compiled round's four roots' ``leaf_weights`` and
    the :class:`harness._TrialLaw` read from them."""
    table = TransitionTable()
    roots = [protocol.leaf_weights(table, schedule, model, j, k) for j, k in BITS]
    return table, roots, harness._TrialLaw(roots)


class TestTrialLaw:
    """Trials that cannot abort draw their leaf counts from the exact law:
    per root r with message weight m_r, each bit's rounds are geometric
    with p = m_r, the message leaves multinomial(N_ri, w / m_r) under
    Alice's bit i and the check leaves multinomial(C_r, w / (1 - m_r))."""

    @pytest.mark.parametrize("schedule, model, seed", G_TEST_CASES)
    def test_each_leaf_count_has_its_exact_mean(self, schedule, model, seed):
        # Summed over 2,000 trials, each leaf's count meets its exact mean
        # given the trials' N_ri and C_r, and C_r meets its mean given N_r,
        # each within 4 standard errors; the N_ri meet L / 8 per trial.
        _, roots, law = experiment_law(schedule, model)
        rng = np.random.default_rng(seed)
        length, trials = 64, 2000
        totals = np.zeros_like(law.pvals, dtype=np.int64)
        for _ in range(trials):
            counts, rounds = law.draw(rng, length, 1000 + 50 * length)
            assert rounds == counts.sum()
            totals += counts
        given = totals.sum(axis=1)  # the trials' N_ri and C_r, summed
        column = {leaf: column for _, column, leaf in law.cells}
        placed = np.zeros_like(totals)
        for r, weighed in enumerate(roots):
            drawable = [(weight, leaf) for weight, leaf in weighed if weight > 0.0]
            message = sum(weight for weight, leaf in drawable if leaf.kind is RoundKind.MESSAGE)
            check = sum(weight for weight, leaf in drawable if leaf.kind is not RoundKind.MESSAGE)
            for weight, leaf in drawable:
                if leaf.kind is RoundKind.MESSAGE:
                    cells = [(3 * r + i, weight / message) for i in (0, 1)]
                else:
                    cells = [(3 * r + 2, weight / check)]
                for row, p in cells:
                    observed = totals[row, column[leaf]]
                    placed[row, column[leaf]] = observed
                    mean, se = given[row] * p, math.sqrt(given[row] * p * (1.0 - p))
                    assert abs(observed - mean) <= 4.0 * se, (leaf.path, row, observed, mean, se)
            m = message / (message + check)
            bits = given[3 * r] + given[3 * r + 1]
            mean, se = bits * (1.0 - m) / m, math.sqrt(bits * (1.0 - m)) / m
            assert abs(given[3 * r + 2] - mean) <= 4.0 * se, (r, given[3 * r + 2], mean, se)
            for i in (0, 1):
                mean, se = trials * length / 8, math.sqrt(trials * length * 7 / 64)
                assert abs(given[3 * r + i] - mean) <= 4.0 * se
        # No count lands on a cell that holds no leaf.
        assert (placed == totals).all()

    @pytest.mark.parametrize("schedule, model, seed", G_TEST_CASES)
    def test_the_counts_and_the_sessions_pass_a_two_sample_g_test(self, schedule, model, seed):
        table, _, law = experiment_law(schedule, model)
        rng = np.random.default_rng(seed)
        sessions = Counter()
        while sessions.total() < 200_000:
            messages = MessageTriple.random(1000, rng)
            sessions.update(run_protocol(messages, schedule, rng, model, RECORD, table=table).leaves)
        totals = np.zeros_like(law.pvals, dtype=np.int64)
        while totals.sum() < 200_000:
            totals += law.draw(rng, 1000, 51_000)[0]
        drawn = Counter()
        for row, column, leaf in law.cells:
            drawn[leaf] += int(totals[row, column])
        g, df = two_sample_g(+drawn, sessions)
        assert g < chi_square_quantile(1e-6, df), (g, df)

    def test_a_trial_past_the_budget_reads_its_delivered_bits_from_the_running_sum(self):
        class Scripted:
            """Bits all 0, and three bits of 3, 4 and 5 rounds."""

            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

            def geometric(self, p):
                return np.array([3, 4, 5])

            def multinomial(self, n, pvals):
                return np.random.default_rng(0).multinomial(n, pvals)

        _, _, law = experiment_law(SchedulePolicy(), AttackModel.none())
        with pytest.raises(RoundBudgetExceeded, match="^budget of 11 rounds exhausted with 2 of 3 bits delivered$"):
            law.draw(Scripted(), 3, 11)
        counts, rounds = law.draw(Scripted(), 3, 12)
        assert rounds == counts.sum() == 12

    @pytest.mark.parametrize(
        "schedule, delivered",
        [
            (SchedulePolicy(1.0, 0.0, 0.0), "0"),
            # A message weight of 2**-159: each bit's draw saturates int64.
            (SchedulePolicy(1.0 - 2**-53, 1.0 - 2**-53, 1.0 - 2**-53), "0"),
            (SchedulePolicy(0.99, 0.0, 0.0), "[1-9][0-9]?"),
        ],
        ids=["no_message_leaf", "message_weight_2^-159", "message_weight_0.01"],
    )
    def test_a_near_zero_message_schedule_runs_out_of_budget(self, schedule, delivered):
        # The session's message, with the bits the running sum delivered
        # within the default budget of 1000 + 50 * 100 rounds.
        message = "^budget of 6000 rounds exhausted with %s of 100 bits delivered$" % delivered
        for policy in AbortPolicy:
            config = ExperimentConfig(message_length=100, trials=3, schedule=schedule, abort_policy=policy, seed=7)
            with pytest.raises(RoundBudgetExceeded, match=message):
                run_experiment(config)
        rng = np.random.default_rng(7)
        with pytest.raises(RoundBudgetExceeded, match=message):
            run_protocol(MessageTriple.random(100, rng), schedule, rng)


class TestExhaustiveOracle:
    def test_all_eight_triples_pass(self):
        report = exhaustive_oracle()
        assert report.passed
        assert report.first_failure is None
        assert len(report.rows) == 8

    def test_row_000_is_all_zero(self):
        report = exhaustive_oracle()
        row = next(r for r in report.rows if (r.i, r.j, r.k) == (0, 0, 0))
        assert (row.flip, row.phase, row.x, row.y) == (0, 0, 0, 0)

    def test_row_110(self):
        report = exhaustive_oracle()
        row = next(r for r in report.rows if (r.i, r.j, r.k) == (1, 1, 0))
        assert (row.flip, row.phase) == (1, 0)
        assert (row.x, row.y) == (0, 1)

    def test_row_111_masks_to_zero(self):
        report = exhaustive_oracle()
        row = next(r for r in report.rows if (r.i, r.j, r.k) == (1, 1, 1))
        assert (row.flip, row.phase) == (1, 1)
        assert (row.x, row.y) == (0, 0)


class TestDetectionCurve:
    def test_analytic_column_is_half_the_flip_weight(self):
        rows = entangle_measure_curve(
            [0.0, 0.25, 0.5, 0.75, 1.0],
            check_kinds=("ab_check",),
            message_length=16,
            trials=8,
            seed=2,
        )
        ab_rows = [r for r in rows if r.check_kind == "ab_check"]
        assert [r.parameter for r in ab_rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for row in ab_rows:
            assert row.analytic == pytest.approx(row.parameter / 2, abs=1e-12)

    def test_zero_coupling_row_samples_exactly_zero(self):
        rows = entangle_measure_curve([0.0], message_length=32, trials=20, seed=4)
        for row in rows:
            assert row.checks_failed == 0
            assert row.sampled == 0.0

    def test_decoy_rows_include_family_split(self):
        rows = entangle_measure_curve([0.5], message_length=32, trials=30, seed=8)
        kinds = {r.check_kind for r in rows}
        assert {"ab_check", "decoy_check", "decoy_check_z", "decoy_check_x"} <= kinds
        x_row = next(r for r in rows if r.check_kind == "decoy_check_x")
        assert x_row.checks_failed == 0
        assert x_row.analytic == 0.0

    def test_sampled_tracks_analytic_within_four_sigma(self):
        rows = entangle_measure_curve([0.5], message_length=96, trials=60, seed=12)
        for row in rows:
            if row.check_kind in ("ab_check", "decoy_check"):
                p = row.analytic
                se = math.sqrt(p * (1 - p) / row.checks_run)
                assert abs(row.sampled - p) < 4 * se

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            detection_curve(lambda b: AttackModel.entangle_measure(b, AB), [])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            entangle_measure_curve([1.5])

    def test_unknown_check_kind_rejected(self):
        with pytest.raises(ValueError, match="check kind"):
            entangle_measure_curve([0.5], check_kinds=("sideways_check",))

    # Each of these once ran: True as a coupling of 1.0, "0.5" as 0.5 (in
    # ``detection_curve`` too, whatever ``make_attack`` accepts), a seed of
    # True as 1, and a repeated kind's rows twice, identical.  A float or
    # negative seed failed inside numpy, naming no field, and "ab_check" as
    # the unknown kind "a".
    @pytest.mark.parametrize(
        "curve, grid, kwargs, field",
        [
            (entangle_measure_curve, [0.5, True], {}, "grid"),
            (entangle_measure_curve, ["0.5"], {}, "grid"),
            (entangle_measure_curve, [0.5], {"seed": True}, "seed"),
            (entangle_measure_curve, [0.5], {"seed": 2.5}, "seed"),
            (entangle_measure_curve, [0.5], {"seed": -1}, "seed"),
            (entangle_measure_curve, [0.5], {"check_kinds": "ab_check"}, "check_kinds"),
            (entangle_measure_curve, [0.5], {"check_kinds": []}, "check_kinds"),
            (entangle_measure_curve, [0.5], {"check_kinds": ["ab_check", "ab_check"]}, "check_kinds"),
            ("any", [True, "0.5"], {}, "grid"),
            ("any", [0.5, True], {}, "grid"),
            ("any", ["0.5"], {}, "grid"),
            ("any", [0.5, None], {}, "grid"),
            ("any", [0.5, 0.5j], {}, "grid"),
        ],
        ids=["bool_grid_value", "string_grid_value", "bool_seed", "float_seed", "negative_seed",
             "string_check_kinds", "empty_check_kinds", "repeated_check_kind", "detection_curve_bool_and_string",
             "detection_curve_bool", "detection_curve_string", "detection_curve_none", "detection_curve_complex"],
    )
    def test_a_bad_argument_is_rejected_before_any_experiment(self, monkeypatch, curve, grid, kwargs, field):
        def no_experiment(config):
            raise AssertionError("an experiment ran")

        def any_coupling(*args, **kwargs):
            # A ``make_attack`` that takes any value it is given.
            return detection_curve(lambda value: AttackModel.intercept_resend(AB), *args, **kwargs)

        monkeypatch.setattr(harness, "run_experiment", no_experiment)
        run_curve = any_coupling if curve == "any" else curve
        with pytest.raises(ValueError, match=field):
            run_curve(grid, message_length=2, trials=1, **kwargs)


class TestConfigValidation:
    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            ExperimentConfig(message_length=0)
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("message_length", 2.5),
            ("message_length", True),
            ("message_length", "8"),
            ("trials", 3.0),
            ("trials", np.bool_(True)),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("seed", None),
            ("message_length", 2**62),
        ],
    )
    def test_rejects_non_integers_and_a_negative_seed_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    # A value of the right meaning but the wrong type would otherwise run:
    # the string "strict" ran record-and-continue and then broke to_dict().
    @pytest.mark.parametrize(
        "field, value",
        [
            ("abort_policy", "strict"),
            ("abort_policy", None),
            ("attack", "none"),
            ("attack", None),
            ("schedule", (0.25, 0.25, 0.25)),
        ],
    )
    def test_rejects_a_policy_or_model_of_the_wrong_type(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    def test_a_bool_attack_probability_never_reaches_the_report(self):
        # to_dict() once wrote it as "attack_probability": true.
        with pytest.raises(ValueError, match="attack_probability"):
            ExperimentConfig(attack=AttackModel.intercept_resend(AB, attack_probability=True))

    def test_message_length_is_bounded_by_what_numpy_can_draw(self):
        longest = harness._MAX_MESSAGE_LENGTH
        assert ExperimentConfig(message_length=longest).message_length == longest
        with pytest.raises(ValueError, match="message_length must be <= %d" % longest):
            ExperimentConfig(message_length=longest + 1)

    def test_numpy_integers_are_stored_as_int(self):
        config = ExperimentConfig(message_length=np.int32(8), trials=np.uint8(2), seed=np.int64(7))
        assert (config.message_length, config.trials, config.seed) == (8, 2, 7)
        assert all(type(value) is int for value in (config.message_length, config.trials, config.seed))
        assert json.loads(json.dumps(config.to_dict()))["seed"] == 7

    def test_to_dict_round_trips_through_json(self):
        config = ExperimentConfig(
            attack=AttackModel.entangle_measure(0.5, AB, CA), seed=7
        )
        payload = config.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["attack"]["beta_sq"] == pytest.approx(0.5)


# The configurations of TestPinnedReports, by name.  Only ``strict_abort``
# runs under the strict policy; its report is the partial one its abort
# carries.
PINNED_CONFIGS = {
    "no_attack": ExperimentConfig(message_length=16, trials=4, seed=1),
    "intercept_resend_ab": ExperimentConfig(
        message_length=16,
        trials=4,
        schedule=SchedulePolicy(0.5, 0.25, 0.25),
        attack=AttackModel.intercept_resend(AB),
        seed=2,
    ),
    "entangle_measure_ab_ca": ExperimentConfig(
        message_length=16,
        trials=4,
        schedule=SchedulePolicy(0.25, 0.1, 0.4),
        attack=AttackModel.entangle_measure(0.5, AB, CA),
        seed=3,
    ),
    "gated_disturbance_bc_ca": ExperimentConfig(
        message_length=16,
        trials=4,
        attack=AttackModel.disturbance(Pauli.Z, BC, CA, attack_probability=0.5),
        seed=3,
    ),
    "gated_intercept_all": ExperimentConfig(
        message_length=16,
        trials=4,
        attack=AttackModel.intercept_resend(AB, BC, CA, attack_probability=0.4),
        seed=4,
    ),
    "gated_probe_all": ExperimentConfig(
        message_length=16,
        trials=4,
        schedule=SchedulePolicy(0.25, 0.1, 0.4),
        attack=AttackModel.entangle_measure(0.3, AB, BC, CA, attack_probability=0.7),
        seed=5,
    ),
    "strict_abort": ExperimentConfig(
        message_length=16,
        trials=4,
        schedule=SchedulePolicy(0.5, 0.25, 0.25),
        attack=AttackModel.intercept_resend(AB),
        abort_policy=AbortPolicy.STRICT,
        seed=6,
    ),
}


def pinned_report(name):
    """The report dict of the pinned configuration ``name``."""
    config = PINNED_CONFIGS[name]
    if config.abort_policy is AbortPolicy.STRICT:
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(config)
        return info.value.partial.to_dict()
    return run_experiment(config).to_dict()


def report_digest(name):
    return hashlib.sha256(render_json(pinned_report(name)).encode()).hexdigest()


class TestPinnedReports:
    """Report bytes pinned to sha256 digests, so that a refactor which moves
    a random draw, a transcript event or a report field is caught exactly."""

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("no_attack", "d878aaeb86eca925cc41898f098e69a45f76fdb205815e97c1a77fe3ea8b629a"),
            ("intercept_resend_ab", "a9681b234c226786729f15212a2e663c907b85aee7f23c0f987258554f7db972"),
            ("entangle_measure_ab_ca", "26a2e84b3c5a6e3ffdfa38c97ed53030dd6eaddedd34fad6cd983dd79c0f4e89"),
        ],
        ids=["no_attack", "intercept_resend_ab", "entangle_measure_ab_ca"],
    )
    def test_report_digest(self, name, digest):
        assert report_digest(name) == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("gated_disturbance_bc_ca", "1b8d663e63ea1a26fc57512862548e5cc7af02c936d81dedbebf760e54ab150b"),
            ("gated_intercept_all", "cc4df9f6acdbc2b2f2f1b401af51dcf0c60db897abacbb75991c8d4f2f7bfb8e"),
            ("gated_probe_all", "bc9b8cb071ab9126222cc9faec29f6ec437321e22fccecfaa3312a42224c616c"),
        ],
        ids=["gated_disturbance_bc_ca", "gated_intercept_all", "gated_probe_all"],
    )
    def test_gated_attack_report_digest(self, name, digest):
        # Gated attacks, B->C hops and probes riding along over two segments.
        assert report_digest(name) == digest

    def test_strict_abort_partial_report_digest(self):
        assert (
            report_digest("strict_abort")
            == "cd6822640ac12ec58c52e566af118dfa83b646499119de4597e471d321c3e56b"
        )

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("no_attack", "aee9e75b2268793fb920b4c63ddc1f65b358a2b2447d137736a5aa83214687b6"),
            ("intercept_resend_ab", "71357b82dfd58a777d41c2e7eaaab053117e26b915ad96d202e3991c2261223b"),
            ("entangle_measure_ab_ca", "1bb5a41052079f996aecf35ebe365fc57166d9aa41bb9c4a1c7347dbdc887e4c"),
            ("gated_disturbance_bc_ca", "7ad280ab0e6980d2fd673ec5e4175ae92967c3f65498723277fec12b955ba90f"),
            ("gated_intercept_all", "38c9b15aff4307b4a74c922ef81eeffa667965dc4941ea815cfe02a8adc580d4"),
            ("gated_probe_all", "56077e021151960a3a7af0e5efe4bbcc558e0e49096da2baa332ad5955d8d68a"),
            ("strict_abort", "830f15887d0de16e10ad67f6a1305c12b9a8778762ccd04119ae7b186a62af0c"),
        ],
        ids=list(PINNED_CONFIGS),
    )
    def test_sampled_fields_digest(self, name, digest, sampled_digest):
        # Every field but the enumerated ones: a change to the enumerator
        # alone leaves these digests as they are.
        assert sampled_digest(pinned_report(name)) == digest
