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
from qsdc3.protocol import AbortPolicy, MessageTriple, ProtocolAborted, RoundKind, SchedulePolicy, run_protocol
from qsdc3.states import Basis, JointState, Pauli, TransitionTable
from test_protocol import RECORD, SHARED_TABLE_CASES

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
        # started: nothing is allocated in proportion to ``trials``.
        class FirstTrial(Exception):
            pass

        def first_trial(*args, **kwargs):
            raise FirstTrial

        monkeypatch.setattr(harness, "run_protocol", first_trial)
        config = ExperimentConfig(message_length=8, trials=100_000, seed=9)
        tracemalloc.start()
        try:
            with pytest.raises(FirstTrial):
                run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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
    """An experiment builds one transition table, walked by every trial."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """The tables built, and the table each session was given."""
        built, given = [], []

        def recording_table():
            built.append(TransitionTable())
            return built[-1]

        def recording_session(*args, table=None, **kwargs):
            given.append(table)
            return run_protocol(*args, table=table, **kwargs)

        monkeypatch.setattr(harness, "TransitionTable", recording_table)
        monkeypatch.setattr(harness, "run_protocol", recording_session)
        return built, given

    def test_run_experiment_builds_one_table_for_every_trial(self, walked):
        built, given = walked
        attack = AttackModel.intercept_resend(AB)
        run_experiment(ExperimentConfig(message_length=8, trials=5, attack=attack, seed=3))
        assert len(built) == 1 and len(built[0]) > 0
        assert len(given) == 5 and all(table is built[0] for table in given)

    def test_a_detection_curve_builds_one_table_per_grid_point(self, walked):
        built, given = walked
        entangle_measure_curve([0.0, 0.5, 1.0], message_length=4, trials=3, seed=5)
        assert len(built) == 3 and len({id(table) for table in built}) == 3
        assert given == [table for table in built for _ in range(3)]

    def test_a_probe_experiment_validates_each_distinct_state_once(self, monkeypatch):
        # Counted inside the sessions only, since the exact enumeration
        # builds states of its own.  One table per session would validate
        # its states again in each of the 40 trials.
        calls = []
        counting = [False]
        original = JointState.__post_init__

        def count(state):
            if counting[0]:
                calls.append(state)
            original(state)

        def counted_session(*args, **kwargs):
            counting[0] = True
            try:
                return run_protocol(*args, **kwargs)
            finally:
                counting[0] = False

        monkeypatch.setattr(JointState, "__post_init__", count)
        monkeypatch.setattr(harness, "run_protocol", counted_session)
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
        # One table, so one compiled round; the first session weighs its
        # four roots, building each leaf once, and every later round of
        # every trial draws from them.  The exact enumerator weighs its
        # check-forcing schedules on tables of its own.
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
        aggregators, sessions = [], []
        build = harness._Aggregator.build

        def recording_build(self, aborted=None):
            aggregators.append(self)
            return build(self, aborted)

        def recording_session(*args, **kwargs):
            sessions.append(run_protocol(*args, **kwargs))
            return sessions[-1]

        monkeypatch.setattr(harness._Aggregator, "build", recording_build)
        monkeypatch.setattr(harness, "run_protocol", recording_session)
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
        rounds = [rec for result in sessions for rec in result.records if rec.kind is RoundKind.MESSAGE]
        xy = [2 * x + y for x, y in (rec.announcement for rec in rounds)]
        xor_announced = [x ^ y for x, y in (rec.announcement for rec in rounds)]
        xor_secret = [rec.bob_bit ^ rec.charlie_bit for rec in rounds]
        hits = sum(a == b for a, b in zip(xor_announced, xor_secret))
        assert 0 < hits < len(rounds) == 10_000
        assert leakage.xor_identity_fraction == hits / len(rounds)
        assert leakage.mi_announcement_vs_alice == _list_mutual_information(xy, [r.alice_bit for r in rounds])
        assert leakage.mi_announcement_vs_bob == _list_mutual_information(xy, [r.bob_bit for r in rounds])
        assert leakage.mi_announcement_vs_charlie == _list_mutual_information(
            xy, [r.charlie_bit for r in rounds]
        )
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


class TestLeafFold:
    """Counting leaves gives the counts that folding the records gave."""

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


class TestTrialLog:
    """A trial's INFO line counts its failed checks only when it is shown;
    its text is checked in test_cli.py (``TestTrialProgress``)."""

    class Unread(list):
        def __iter__(self):
            raise AssertionError("the leaves were read")

    def test_below_info_the_leaves_are_not_read(self, caplog):
        caplog.set_level(logging.WARNING, logger="qsdc3")
        harness._log_trial(0, self.Unread())
        assert caplog.records == []


class TestSessionBoundary:
    """An experiment runs one protocol session per trial."""

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
        config = ExperimentConfig(message_length=8, trials=7, attack=AttackModel.intercept_resend(AB), seed=4)
        assert run_experiment(config).rounds_total == sum(rounds for rounds, _ in sessions)
        assert len(sessions) == 7

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

    # Each of these once ran: True as a coupling of 1.0, "0.5" as 0.5, a
    # seed of True as 1, and a repeated kind's rows twice, identical.  A
    # float or negative seed failed inside numpy, naming no field, and
    # "ab_check" as the unknown kind "a".
    @pytest.mark.parametrize(
        "grid, kwargs, field",
        [
            ([0.5, True], {}, "grid"),
            (["0.5"], {}, "grid"),
            ([0.5], {"seed": True}, "seed"),
            ([0.5], {"seed": 2.5}, "seed"),
            ([0.5], {"seed": -1}, "seed"),
            ([0.5], {"check_kinds": "ab_check"}, "check_kinds"),
            ([0.5], {"check_kinds": []}, "check_kinds"),
            ([0.5], {"check_kinds": ["ab_check", "ab_check"]}, "check_kinds"),
        ],
        ids=["bool_grid_value", "string_grid_value", "bool_seed", "float_seed", "negative_seed",
             "string_check_kinds", "empty_check_kinds", "repeated_check_kind"],
    )
    def test_a_bad_argument_is_rejected_before_any_experiment(self, monkeypatch, grid, kwargs, field):
        def no_experiment(config):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(harness, "run_experiment", no_experiment)
        with pytest.raises(ValueError, match=field):
            entangle_measure_curve(grid, message_length=2, trials=1, **kwargs)


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
            ("no_attack", "1bf5503eb57fa2c5e1d00541f1d77fa31f18bf3144e3417c91950759a2377d40"),
            ("intercept_resend_ab", "6a0b34b8c087dd6fccbdc78505e31925844fd2e1d2caea75a5ca34e955eca803"),
            ("entangle_measure_ab_ca", "34fd4a9d5576986e64cdfe1c2783ec260c17d3e9963d29de3898f1663b715a56"),
        ],
        ids=["no_attack", "intercept_resend_ab", "entangle_measure_ab_ca"],
    )
    def test_report_digest(self, name, digest):
        assert report_digest(name) == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("gated_disturbance_bc_ca", "7c22984a7263450a9d853ea1132afbe1e5c65556c8144beaf14405bbb3c953df"),
            ("gated_intercept_all", "5eea3ad92ddaac7f1a50bf6fe7a55e59ae50da768403edcb671228f367e20bb4"),
            ("gated_probe_all", "8edd93493620eb25b92c800a9bb167611ee8afb351f6f2e9ae61c323d5070825"),
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
            ("no_attack", "7f97947992332c5ce08feda09a1f74f4b6b9143b38e303611e8d8603ddf6264e"),
            ("intercept_resend_ab", "8edeeae472ec00455a1f08f019ec9f9130b8e0f161dc1e6101845bafdd0f672a"),
            ("entangle_measure_ab_ca", "c2ae60383748979f2a3db5accf94e91d0c6f3aabd2485f5489cf46008cb15384"),
            ("gated_disturbance_bc_ca", "cd5792cd66cd0130467a34420ca61433da66a12a4fb2052da9fd7a54696e4d18"),
            ("gated_intercept_all", "1da08a314f881eb16406bae48829620dcc13bd0563949a46dc05d2b8779ac223"),
            ("gated_probe_all", "e78dcd3ed1031dcb070d0d4fe06fe82c9acb41d7d3888bfa85ad136b3da26595"),
            ("strict_abort", "830f15887d0de16e10ad67f6a1305c12b9a8778762ccd04119ae7b186a62af0c"),
        ],
        ids=list(PINNED_CONFIGS),
    )
    def test_sampled_fields_digest(self, name, digest, sampled_digest):
        # Every field but the enumerated ones: a change to the enumerator
        # alone leaves these digests as they are.
        assert sampled_digest(pinned_report(name)) == digest
