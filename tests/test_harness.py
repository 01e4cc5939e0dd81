import hashlib
import json
import logging
import math
import operator
import tracemalloc
from collections import Counter
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from qsdc3 import adversary, harness, protocol
from qsdc3.adversary import AttackModel, ChannelSegment, analytic_detection_probability
from qsdc3.cli import render_json
from qsdc3.harness import (
    ExperimentAborted,
    ExperimentConfig,
    entangle_measure_curve,
    exhaustive_oracle,
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
    decode_alice,
    decode_bob,
    decode_charlie,
    default_budget,
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
        assert harness._mutual_information(Counter(zip(xs, xs))) == pytest.approx(1.0, abs=1e-12)

    def test_mi_of_independent_bits_is_zero(self):
        xs = [0, 1, 0, 1]
        ys = [0, 0, 1, 1]
        assert harness._mutual_information(Counter(zip(xs, ys))) == pytest.approx(0.0, abs=1e-12)


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

    @pytest.mark.parametrize(
        "attack, policy",
        [
            (AttackModel.none(), RECORD),
            (AttackModel.intercept_resend(AB, attack_probability=1e-6), AbortPolicy.STRICT),
        ],
        ids=["record_and_continue", "strict_failable"],
    )
    def test_one_generator_draws_the_blocks_in_trial_order(self, monkeypatch, attack, policy):
        # The seed contract: one generator, default_rng(SeedSequence(seed)),
        # draws blocks of _BLOCK_BITS // message_length trials in trial
        # order, each block where the last one left off, whether or not a
        # failed check can end a trial; nothing is spawned per trial or per
        # block.  A run of 100,000 trials holds nothing in proportion to
        # ``trials``: the third block stops it.  At attack probability 1e-6
        # a failed check can end a trial, yet one ends within the 12 trials
        # drawn with probability 0.003.
        class ThirdBlock(Exception):
            pass

        blocks = []
        draw = harness._TrialLaw.draw

        def recording_draw(law, rng, trials, length, max_rounds):
            blocks.append((rng.bit_generator.state, trials))
            if len(blocks) == 3:
                raise ThirdBlock
            return draw(law, rng, trials, length, max_rounds)

        monkeypatch.setattr(harness._TrialLaw, "draw", recording_draw)
        config = ExperimentConfig(message_length=1000, trials=100_000, attack=attack, abort_policy=policy, seed=21)
        tracemalloc.start()
        try:
            with pytest.raises(ThirdBlock):
                run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert [trials for _, trials in blocks] == [4, 4, 4]
        # The blocks drawn replay on one reference generator.
        _, _, law = experiment_law(config.schedule, attack, policy)
        reference = np.random.default_rng(np.random.SeedSequence(21))
        for state, trials in blocks:
            assert state == reference.bit_generator.state
            draw(law, reference, trials, 1000, default_budget(1000))

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
        # A strict experiment whose checks can fail draws its counts from
        # its own table too, and runs no session.
        strict = ExperimentConfig(
            message_length=8,
            trials=5,
            attack=AttackModel.intercept_resend(AB, attack_probability=0.001),
            abort_policy=AbortPolicy.STRICT,
            seed=3,
        )
        run_experiment(strict)
        assert len(built) == 2 and weighed[4:] == [built[1]] * 4
        assert given == []

    def test_a_detection_curve_builds_one_table_per_grid_point(self, walked):
        built, weighed, given = walked
        entangle_measure_curve([0.0, 0.5, 1.0], message_length=4, trials=3, seed=5)
        assert len(built) == 3 and len({id(table) for table in built}) == 3
        assert weighed == [table for table in built for _ in range(4)]
        assert given == []

    def test_a_probe_experiment_validates_each_distinct_state_once(self, monkeypatch):
        # Counted apart from the exact enumeration, which builds states on
        # a table of its own: the experiment's table validates each state
        # it holds once, and its 40 trials validate none.  The analytic
        # column weighs its three check-forced rounds on one table, so it
        # too validates each distinct state of that table once.
        calls, analytic_calls = [], []
        counting = [calls]
        original = JointState.__post_init__
        analytic_tables = []

        def count(state):
            counting[0].append(state)
            original(state)

        def counted_analytic(*args, **kwargs):
            counting[0] = analytic_calls
            try:
                return analytic(*args, **kwargs)
            finally:
                counting[0] = calls

        def recording_table():
            analytic_tables.append(TransitionTable())
            return analytic_tables[-1]

        analytic = harness._Aggregator._analytic
        monkeypatch.setattr(JointState, "__post_init__", count)
        monkeypatch.setattr(harness._Aggregator, "_analytic", counted_analytic)
        monkeypatch.setattr(adversary, "TransitionTable", recording_table)
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
        (table,) = analytic_tables
        assert len(set(analytic_calls)) == len(analytic_calls) > 0
        assert set(analytic_calls) == set(table._nodes.values())

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
            assert harness._mutual_information(Counter(zip(xs, ys))) == _list_mutual_information(xs, ys)
            assert harness._mutual_information(Counter(zip(ys, xs))) == _list_mutual_information(ys, xs)

    def test_a_long_experiment_holds_at_most_32_keys_and_reports_the_list_values(self, monkeypatch):
        # The report's values are those of the per-round lists that the
        # counted message rounds spell out, one entry per round.
        audited = []
        leakage = harness._Aggregator._leakage

        def recording_leakage(self, counts):
            audited.append(counts)
            return leakage(self, counts)

        monkeypatch.setattr(harness._Aggregator, "_leakage", recording_leakage)
        # Intercept-resend on every segment garbles some announcements, so
        # the XOR identity fails on some rounds and every MI is above 0.
        config = ExperimentConfig(
            message_length=1000,
            trials=10,
            attack=AttackModel.intercept_resend(AB, BC, CA, attack_probability=0.3),
            seed=10,
        )
        leakage = run_experiment(config).leakage
        (counts,) = audited
        assert leakage.rounds_audited == 10_000
        assert 0 < len(counts) <= 32
        rounds = [key for key, c in counts.items() for _ in range(c)]
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
    the n-th message leaf in the row of Alice's n-th bit, and every other
    leaf in its one cell, a failed check that ends the trial in its fail
    row."""
    cells = {}
    for row, column, leaf in law.cells:
        cells.setdefault(leaf, []).append((row, column))
    counts = np.zeros_like(law.pvals, dtype=np.int64)
    bits = iter(alice_bits)
    for leaf in leaves:
        # A message leaf's two cells are its rows under Alice's bit 0 and 1.
        counts[cells[leaf][next(bits) if leaf.kind is RoundKind.MESSAGE else 0]] += 1
    return counts


class TestLeafFold:
    """Counting leaves gives the counts that folding the records gave: a
    session's leaves, laid out as a trial's count array, build a report
    (``_Aggregator.build``, fidelity included; and the law's failed and
    stop cells fold) whose counts are the record fold's."""

    @pytest.mark.parametrize("policy", list(AbortPolicy), ids=lambda p: p.name.lower())
    @pytest.mark.parametrize(
        "attack", [pytest.param(case.values[0], id=case.id) for case in SHARED_TABLE_CASES if case.values[1] is RECORD]
    )
    def test_the_count_fold_equals_the_record_fold(self, attack, policy, monkeypatch):
        schedule = SchedulePolicy(0.25, 0.25, 0.4)
        # One compiled round for the law and the six sessions.
        table, _, law = experiment_law(schedule, attack if attack is not None else AttackModel.none(), policy)
        aborted = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            messages = MessageTriple.random(48, rng)
            try:
                result = run_protocol(messages, schedule, rng, attack, policy, table=table)
                leaves, shown = result.leaves, (result.records, result.transcript, result.eve_records, result.decoded)
            except ProtocolAborted as abort:
                leaves, shown = abort.leaves, (abort.records, abort.transcript, abort.eve_records)
                aborted += 1
            checks, families, leakage, eve, hits = record_fold(messages, *shown)
            counts = law_counts(law, leaves, messages.alice_bits)
            audited = []
            monkeypatch.setattr(harness._Aggregator, "_leakage", lambda self, counts: audited.append(counts))
            # One completed trial of 48 bits, when the session completed.
            config = ExperimentConfig(message_length=48, trials=1)
            report = harness._Aggregator(config).build(law, counts)
            rows = {name: [stats.checks_run, stats.checks_failed] for name, stats in report.detection.kinds.items()}
            # A family row is reported only when a check of the family ran.
            assert rows == {**checks, **{name: row for name, row in families.items() if row[0]}}
            assert (report.eve.actions, report.eve.probe_measurements, report.eve.probe_flip_count) == eve
            assert audited == [leakage]
            assert report.rounds_total == counts.sum() == len(shown[0])
            assert law.failed_checks(counts) == sum(leaf.passed is False for leaf in leaves)
            if hits is None:
                # The failed check that ended the session sits in its fail row.
                assert law.stop(counts) is leaves[-1] and counts[12:].sum() == 1
            else:
                assert law.stop(counts) is None and not counts[12:].any()
                # Each party's right bits over its two views' 96 bits.
                expected = [(hits[2 * party] + hits[2 * party + 1]) / 96 for party in range(3)]
                assert [report.fidelity.alice, report.fidelity.bob, report.fidelity.charlie] == expected
        if policy is AbortPolicy.STRICT and attack is not None:
            assert aborted == 6


class TestTrialLog:
    """A trial's INFO line sums its failed checks only when it is shown;
    the CLI's lines are checked in test_cli.py (``TestTrialProgress``)."""

    def test_below_info_nothing_is_summed(self, caplog, monkeypatch):
        caplog.set_level(logging.WARNING, logger="qsdc3")
        _, _, law = experiment_law(SchedulePolicy(), AttackModel.intercept_resend(AB), AbortPolicy.STRICT)

        def unsummed(counts):
            raise AssertionError("the failed checks were summed")

        monkeypatch.setattr(law, "failed_checks", unsummed)
        harness._log_trials(0, np.array([3]), law, np.zeros_like(law.pvals, dtype=np.int64)[None])
        assert caplog.records == []

    def test_at_info_the_text_is_exact(self, caplog):
        caplog.set_level(logging.INFO, logger="qsdc3")
        _, _, strict = experiment_law(SchedulePolicy(), AttackModel.intercept_resend(AB), AbortPolicy.STRICT)
        _, _, record = experiment_law(SchedulePolicy(), AttackModel.intercept_resend(AB), RECORD)
        # One failed check that ended a strict trial; two failed checks of a
        # completed trial under record-and-continue.
        aborted = np.zeros_like(strict.pvals, dtype=np.int64)
        aborted.ravel()[strict.failed[0]] = 1
        completed = np.zeros_like(record.pvals, dtype=np.int64)
        completed.ravel()[record.failed[:2]] = 1
        harness._log_trials(4, np.array([3]), strict, aborted[None], aborted=True)
        harness._log_trials(5, np.array([4, 6]), record, np.stack([completed, 0 * completed]))
        assert [r.getMessage() for r in caplog.records] == [
            "trial 4: rounds 3, failed checks 1, aborted",
            "trial 5: rounds 4, failed checks 2",
            "trial 6: rounds 6, failed checks 0",
        ]


class TestSessionBoundary:
    """No experiment runs a protocol session: a strict one whose checks can
    fail draws its trials' counts too, and ends at its first failed check."""

    @pytest.fixture
    def sessions(self, monkeypatch):
        """The arguments of each session the harness started."""
        started = []

        def recording_session(*args, **kwargs):
            started.append(args)
            return run_protocol(*args, **kwargs)

        monkeypatch.setattr(harness, "run_protocol", recording_session)
        return started

    @pytest.mark.parametrize(
        "attack, policy",
        [
            (AttackModel.intercept_resend(AB), AbortPolicy.RECORD_AND_CONTINUE),
            (AttackModel.none(), AbortPolicy.STRICT),
            (AttackModel.entangle_measure(0.0, AB, CA), AbortPolicy.STRICT),
            (AttackModel.intercept_resend(AB, attack_probability=0.001), AbortPolicy.STRICT),
        ],
        ids=["record_and_continue", "strict_without_attack", "strict_without_a_failable_check", "strict_intercept_p0.001"],
    )
    def test_an_experiment_runs_no_session(self, sessions, caplog, attack, policy):
        # A probe of coupling 0 acts on every crossing, yet no check can
        # fail; intercept-resend at p 0.001 can fail a check, yet no trial
        # of this seed does.
        caplog.set_level(logging.INFO, logger="qsdc3")
        config = ExperimentConfig(message_length=8, trials=7, attack=attack, abort_policy=policy, seed=4)
        result = run_experiment(config)
        assert result.trials_completed == 7
        assert result.rounds_total == sum(r.args[1] for r in caplog.records if r.getMessage().startswith("trial "))
        assert sessions == []

    def test_the_aborting_trial_is_the_last(self, sessions, caplog):
        # The first trials complete; the aborting one is the last logged,
        # and the partial report counts its rounds up to the failing one.
        # A trial aborts with probability about 0.05, so one of 400 does.
        caplog.set_level(logging.INFO, logger="qsdc3")
        config = ExperimentConfig(
            message_length=8,
            trials=400,
            schedule=SchedulePolicy(0.1, 0.1, 0.1),
            attack=AttackModel.intercept_resend(AB, attack_probability=0.1),
            abort_policy=AbortPolicy.STRICT,
            seed=2,
        )
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(config)
        trial = info.value.trial_index
        lines = [r for r in caplog.records if r.getMessage().startswith("trial ")]
        assert trial > 0
        assert [r.args[0] for r in lines] == list(range(trial + 1))
        assert [r.getMessage().endswith(", aborted") for r in lines] == [False] * trial + [True]
        partial = info.value.partial
        assert partial.rounds_total == sum(r.args[1] for r in lines)
        assert partial.trials_completed == trial and partial.trials_aborted == 1
        assert info.value.round_index == partial.aborted["round"] == lines[-1].args[1] - 1
        assert sessions == []


def experiment_law(schedule, model, policy=RECORD):
    """A fresh table, its compiled round's four roots' ``leaf_weights`` and
    the :class:`harness._TrialLaw` read from them under ``policy``."""
    table = TransitionTable()
    roots = [protocol.leaf_weights(table, schedule, model, j, k) for j, k in BITS]
    return table, roots, harness._TrialLaw(roots, policy is AbortPolicy.STRICT)


# The G-test cases whose round has a check that can fail.
STRICT_CASES = [case for case in G_TEST_CASES if case.id != "criterion-2"]


def strict_tally(samples, counts, stop, rounds):
    """Add one strict trial to ``samples``, three counters: its failed check
    that ended it, its abort round's bucket (the bit length of the round
    index + 1; None when it completed) and its leaf counts by cell."""
    failing, buckets, cells = samples
    if stop is not None:
        failing[stop] += 1
    buckets[rounds.bit_length() if stop is not None else None] += 1
    for row, column in zip(*np.nonzero(counts)):
        cells[int(row), int(column)] += int(counts[row, column])


def draw_trials(law, rng, trials, length):
    """``trials`` trials of ``length`` bits drawn from ``law`` with ``rng``
    in blocks: their counts, shape (trials, 16, width), and each trial's
    rounds, as Python ints.  A block stops at its first trial that a failed
    check ends; the next block then starts, so the trials kept are a run of
    independent trials.  A block holds the experiment's
    ``max(1, _BLOCK_BITS // length)`` trials, or, when a failed check can
    end a trial, at most the trials expected up to the first abort,
    1 / (1 - (1 - q)^length) with q = 1/4 sum_r f_r / (m_r + f_r) rounded
    up, so that little of a block is drawn to be discarded.  No trial may
    pass the default budget."""
    block = max(1, harness._BLOCK_BITS // length)
    if law.failing:
        block = min(block, math.ceil(1.0 / (1.0 - (1.0 - law.fail_share.mean()) ** length)))
    counts, rounds = [], []
    while len(rounds) < trials:
        drawn, used, over = law.draw(rng, min(block, trials - len(rounds)), length, default_budget(length))
        assert over is None and len(drawn) == len(used) > 0
        counts.append(drawn)
        rounds += used.tolist()
    return np.concatenate(counts), rounds


def stop_weights(roots):
    """Each root's message weight m_r and failed-check weight f_r, and the
    total weight of its drawable leaves."""
    weights = []
    for weighed in roots:
        m = sum(weight for weight, leaf in weighed if leaf.kind is RoundKind.MESSAGE)
        f = sum(weight for weight, leaf in weighed if leaf.passed is False)
        weights.append((m, f, sum(weight for weight, _ in weighed if weight > 0.0)))
    return weights


def row_g_tests(first, second):
    """Two-sample G-tests of the leaves within each row of two count
    arrays in a law's layout, each given its row's totals: ``(row, G, df)``
    for each row that both samples reached in two cells or more.

    Given its total, a row's counts are multinomial in either sample,
    however much the row totals vary from trial to trial, so under one law
    each G is chi-square with ``df`` degrees of freedom, and their sum with
    the summed ``df``.  One G over every cell is that sum plus a G of the row
    totals, which treats them as multinomial; when a sample is a few long
    trials, their spread from trial to trial inflates that part past its
    chi-square law (``row_totals_differ`` checks the totals instead)."""
    for row, (a, b) in enumerate(zip(first, second)):
        reached = np.nonzero(a + b)[0]
        if a.sum() and b.sum() and len(reached) > 1:
            yield (row, *two_sample_g(Counter(dict(zip(reached, a[reached]))), Counter(dict(zip(reached, b[reached])))))


def row_totals_differ(first, second):
    """The rows of a law's layout whose mean total per trial differs between
    two samples of trials' count arrays by more than 4 standard errors, the
    trials being the sampled units."""
    a, b = (np.array([counts.sum(axis=1) for counts in sample], dtype=float) for sample in (first, second))
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    gap = np.abs(a.mean(axis=0) - b.mean(axis=0))
    return [row for row in range(a.shape[1]) if gap[row] > 4.0 * se[row] or (se[row] == 0.0 and gap[row])]


class TestTrialLaw:
    """Trials draw their leaf counts from the exact law: per root r with
    message weight m_r and, under the strict policy, failed-check weight f_r
    (else 0), each bit's rounds are geometric with p = m_r + f_r and its
    stop fails with probability f_r / (m_r + f_r); the trial ends at its
    first failing bit.  The message leaves are multinomial(N_ri, w / m_r)
    under Alice's bit i, the check leaves that let the trial go on
    multinomial(C_r, w / (1 - m_r - f_r)), and the failing leaf is drawn
    with probability w / f_r.  Every gate draws in blocks
    (``_TrialLaw.draw``): the record-and-continue gates in the experiment's,
    the strict gates in blocks sized to end near their first abort
    (``draw_trials``); ``run_protocol`` sessions are the independent
    reference."""

    @pytest.mark.parametrize("schedule, model, seed", G_TEST_CASES)
    def test_each_leaf_count_has_its_exact_mean(self, schedule, model, seed):
        # Summed over 2,000 trials, each leaf's count meets its exact mean
        # given its row's total, the trials' N_ri or C_r: a share w / m_r in
        # a message row, w / (1 - m_r) in a check row.  Each leaf is within
        # z_n standard errors, the Bonferroni limit over the n leaves that
        # makes the whole check fail a correct law as rarely as one 4-SE
        # check does (z_n = 5.18 at n = 288); and each row's leaves pass a
        # G-test at p = 1e-6.  C_r meets its mean given N_r, and the N_ri
        # meet L / 8 per trial, within 4 standard errors.
        _, roots, law = experiment_law(schedule, model)
        rng = np.random.default_rng(seed)
        length, trials = 64, 2000
        counts, rounds = draw_trials(law, rng, trials, length)
        assert rounds == counts.sum(axis=(1, 2)).tolist()
        totals = counts.sum(axis=0)
        given = totals.sum(axis=1)  # the trials' N_ri and C_r, summed
        column = {leaf: column for _, column, leaf in law.cells}
        shares = np.zeros(totals.shape)
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
                    shares[row, column[leaf]] = p
            m = message / (message + check)
            bits = given[3 * r] + given[3 * r + 1]
            mean, se = bits * (1.0 - m) / m, math.sqrt(bits * (1.0 - m)) / m
            assert abs(given[3 * r + 2] - mean) <= 4.0 * se, (r, given[3 * r + 2], mean, se)
            for i in (0, 1):
                mean, se = trials * length / 8, math.sqrt(trials * length * 7 / 64)
                assert abs(given[3 * r + i] - mean) <= 4.0 * se
        # No count lands on a cell that holds no leaf.
        assert not totals[shares == 0.0].any()
        mean = given[:, None] * shares
        se = np.sqrt(mean * (1.0 - shares))
        limit = NormalDist().inv_cdf(1.0 - NormalDist().cdf(-4.0) / np.count_nonzero(shares))
        for row, cell in zip(*np.nonzero(shares)):
            assert abs(totals[row, cell] - mean[row, cell]) <= limit * se[row, cell], (row, cell, se[row, cell])
        # A row of two leaves or more passes its G-test; a row of one leaf
        # holds its whole total.
        for row in range(12):
            (cells,) = np.nonzero(shares[row])
            if len(cells) > 1:
                observed, expected = totals[row, cells], given[row] * shares[row, cells]
                g = 2.0 * sum(o * math.log(o / e) for o, e in zip(observed, expected) if o)
                assert g < chi_square_quantile(1e-6, len(cells) - 1), (row, g, len(cells) - 1)

    @pytest.mark.parametrize("schedule, model, seed", G_TEST_CASES)
    def test_each_trials_rounds_have_their_exact_mean_and_variance(self, schedule, model, seed):
        # Under record-and-continue a trial's rounds sum its L bits' rounds,
        # each geometric with p_r = m_r of a uniform root r: their mean is
        # L mean_r(1/p_r) and their variance L (mean_r((1 - p_r)/p_r^2) +
        # var_r(1/p_r)).  Over 2,000 trials of 64 bits the sample mean and
        # the sample variance meet them within 4 standard errors; the
        # variance's from the exact fourth cumulant of the rounds.
        _, roots, law = experiment_law(schedule, model)
        p = np.array([m / total for m, _, total in stop_weights(roots)])
        length, trials = 64, 2000
        _, rounds = draw_trials(law, np.random.default_rng(seed), trials, length)
        mean = length * np.mean(1.0 / p)
        variance = length * (np.mean((1.0 - p) / p**2) + np.var(1.0 / p))
        # A bit's raw moments, from the geometric's, give its fourth
        # cumulant; a trial's cumulants are L times a bit's.
        raw = [np.mean(moment) for moment in (1 / p, (2 - p) / p**2, (p * p - 6 * p + 6) / p**3)]
        raw.append(np.mean((2 - p) * (p * p - 12 * p + 12) / p**4))
        mu, m2, m3, m4 = raw
        central4 = m4 - 4 * mu * m3 + 6 * mu**2 * m2 - 3 * mu**4
        kappa2 = m2 - mu**2
        fourth = length * (central4 - 3 * kappa2**2) + 3 * variance**2
        sample = np.array(rounds, dtype=float)
        assert abs(sample.mean() - mean) <= 4.0 * math.sqrt(variance / trials), (sample.mean(), mean)
        se = math.sqrt((fourth - variance**2 * (trials - 3) / (trials - 1)) / trials)
        assert abs(sample.var(ddof=1) - variance) <= 4.0 * se, (sample.var(ddof=1), variance, se)

    @pytest.mark.parametrize("schedule, model, seed", G_TEST_CASES)
    def test_trials_at_different_positions_in_a_block_share_nothing(self, schedule, model, seed):
        # Blocks of 8 trials of 512 bits.  Over 2,000 blocks the first and
        # the last trial of a block draw their leaves from one law: each
        # row's leaves pass a two-sample G-test at p = 1e-6, and each row's
        # mean total and the mean rounds agree within 4 standard errors.
        # Over the 16,000 trials in draw order, neighbours' rounds and their
        # totals in each row are uncorrelated within 4 standard errors,
        # 1 / sqrt(16,000).
        _, _, law = experiment_law(schedule, model)
        rng = np.random.default_rng(seed)
        length, blocks = 512, 2000
        block = harness._BLOCK_BITS // length
        first, last, rows, rounds = [], [], [], []
        for _ in range(blocks):
            counts, used, over = law.draw(rng, block, length, default_budget(length))
            assert over is None and len(counts) == block
            first.append(counts[0])
            last.append(counts[-1])
            rows.append(counts.sum(axis=2))
            rounds.append(used)
        for row, g, df in row_g_tests(sum(first), sum(last)):
            assert g < chi_square_quantile(1e-6, df), (row, g, df)
        assert row_totals_differ(first, last) == []
        rounds = np.array(rounds, dtype=float)
        gap = rounds[:, 0].mean() - rounds[:, -1].mean()
        assert abs(gap) <= 4.0 * math.sqrt((rounds[:, 0].var(ddof=1) + rounds[:, -1].var(ddof=1)) / blocks)
        series = [("rounds", rounds.ravel())] + list(enumerate(np.concatenate(rows).T.astype(float)))
        for name, values in series:
            if values.std() > 0.0:
                lag1 = np.corrcoef(values[:-1], values[1:])[0, 1]
                assert abs(lag1) <= 4.0 / math.sqrt(len(values)), (name, lag1)

    @pytest.mark.parametrize("schedule, model, seed", G_TEST_CASES)
    def test_the_counts_and_the_sessions_pass_a_two_sample_g_test(self, schedule, model, seed):
        # Count trials against sessions of 1000 bits, at least 200,000
        # rounds each, on the same table.  Given the rows' totals, the
        # leaves pass a two-sample G-test at p = 1e-6 pooled over every row,
        # and in each row on its own; each row's mean total per trial agrees
        # within 4 standard errors.  The pooled G is the G of one test over
        # every cell less its row-total part (see ``row_g_tests``).
        table, _, law = experiment_law(schedule, model)
        rng = np.random.default_rng(seed)
        sessions = []
        while sum(counts.sum() for counts in sessions) < 200_000:
            messages = MessageTriple.random(1000, rng)
            leaves = run_protocol(messages, schedule, rng, model, RECORD, table=table).leaves
            sessions.append(law_counts(law, leaves, messages.alice_bits))
        drawn = []
        while sum(counts.sum() for counts in drawn) < 200_000:
            drawn += list(law.draw(rng, harness._BLOCK_BITS // 1000, 1000, 51_000)[0])
        rows = list(row_g_tests(sum(drawn), sum(sessions)))
        for row, g, df in rows:
            assert g < chi_square_quantile(1e-6, df), (row, g, df)
        g, df = sum(g for _, g, _ in rows), sum(df for _, _, df in rows)
        assert g < chi_square_quantile(1e-6, df), (g, df)
        assert row_totals_differ(drawn, sessions) == []

    def test_a_trial_past_the_budget_reads_its_delivered_bits_from_the_running_sum(self):
        class Scripted:
            """Bits all 0, and one trial of three bits of 3, 4 and 5 rounds."""

            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

            def geometric(self, p):
                return np.array([[3, 4, 5]])

            def multinomial(self, n, pvals):
                return np.random.default_rng(0).multinomial(n, pvals)

        _, _, law = experiment_law(SchedulePolicy(), AttackModel.none())
        counts, rounds, over = law.draw(Scripted(), 1, 3, 11)
        assert isinstance(over, RoundBudgetExceeded) and len(counts) == len(rounds) == 0
        assert str(over) == "budget of 11 rounds exhausted with 2 of 3 bits delivered"
        counts, rounds, over = law.draw(Scripted(), 1, 3, 12)
        assert over is None and rounds.tolist() == [counts.sum()] == [12]

    @pytest.mark.parametrize("schedule, model, seed", STRICT_CASES)
    def test_the_aborting_bit_has_its_truncated_geometric_law(self, schedule, model, seed):
        # Roots are uniform and each bit's stop fails with probability
        # f_r / (m_r + f_r), so a trial of L bits aborts at bit a with
        # probability (1 - q)^a q and completes with (1 - q)^L, where
        # q = 1/4 sum_r f_r / (m_r + f_r).  The bits before the aborting one
        # are the trial's delivered bits, its message leaves.
        _, roots, law = experiment_law(schedule, model, AbortPolicy.STRICT)
        q = sum(f / (m + f) / 4 for m, f, _ in stop_weights(roots))
        rng = np.random.default_rng(seed)
        length, trials = 12, 10_000
        ends = Counter()
        for counts in draw_trials(law, rng, trials, length)[0]:
            ends[int(counts[:12:3].sum() + counts[1:12:3].sum()) if counts[12:].any() else None] += 1
        expected = {a: trials * (1.0 - q) ** a * q for a in range(length)}
        expected[None] = trials * (1.0 - q) ** length
        assert set(ends) <= set(expected)
        g = 2.0 * sum(c * math.log(c / expected[a]) for a, c in ends.items())
        assert g < chi_square_quantile(1e-6, length), (g, ends)
        aborted, p = trials - ends[None], 1.0 - (1.0 - q) ** length
        assert abs(aborted - trials * p) <= 4.0 * math.sqrt(trials * p * (1.0 - p))

    @pytest.mark.parametrize("schedule, model, seed", STRICT_CASES)
    def test_strict_counts_and_sessions_pass_a_two_sample_g_test(self, schedule, model, seed):
        # Strict count trials against strict sessions on the same table:
        # the failed check that ends a trial, the abort round's bucket and
        # every trial's leaf counts, the partial ones included, each pass a
        # two-sample G-test at p = 1e-6.
        table, _, law = experiment_law(schedule, model, AbortPolicy.STRICT)
        rng = np.random.default_rng(seed)
        # At 8 bits some trials complete, and most abort.
        length, trials = 8, 10_000
        sessions = (Counter(), Counter(), Counter())
        for _ in range(trials):
            messages = MessageTriple.random(length, rng)
            try:
                leaves, stop = run_protocol(messages, schedule, rng, model, table=table).leaves, None
            except ProtocolAborted as abort:
                leaves, stop = abort.leaves, abort.leaves[-1]
                assert abort.round_index == len(leaves) - 1
            strict_tally(sessions, law_counts(law, leaves, messages.alice_bits), stop, len(leaves))
        drawn = (Counter(), Counter(), Counter())
        for counts, rounds in zip(*draw_trials(law, rng, trials, length)):
            strict_tally(drawn, counts, law.stop(counts), rounds)
        for name, first, second in zip(("failing leaf", "abort round", "leaf counts"), drawn, sessions):
            g, df = two_sample_g(first, second)
            assert g < chi_square_quantile(1e-6, df), (name, g, df)

    @pytest.mark.parametrize(
        "second, ends",
        [(4, "abort at round 6"), (1147, "abort at round 1149"), (1148, "budget")],
        ids=["inside_the_budget", "at_the_budget", "past_the_budget"],
    )
    def test_a_failing_round_aborts_only_within_the_budget(self, monkeypatch, second, ends):
        # A block of two trials.  The first has three bits of 3, ``second``
        # and 5 rounds, whose second and third stops fail, against the
        # default budget of 1000 + 50 * 3 rounds: the experiment ends at the
        # second bit's round 3 + second - 1, unless that round is past the
        # budget.  The second trial, which would complete, is never counted.
        generator = np.random.default_rng(0)

        class Scripted:
            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

            def geometric(self, p):
                return np.array([[3, second, 5], [1, 1, 1]])

            def random(self, size):
                return np.array([[0.99, 0.0, 0.0], [0.99, 0.99, 0.99]])

            def multinomial(self, n, pvals):
                return generator.multinomial(n, pvals)

        seeds = []

        def scripted_rng(seed):
            seeds.append(seed)
            return Scripted()

        monkeypatch.setattr(harness.np.random, "default_rng", scripted_rng)
        config = ExperimentConfig(
            message_length=3, trials=2, attack=AttackModel.intercept_resend(AB), abort_policy=AbortPolicy.STRICT
        )
        if ends == "budget":
            with pytest.raises(RoundBudgetExceeded, match="^budget of 1150 rounds exhausted with 1 of 3 bits delivered$"):
                run_experiment(config)
            assert seeds == [config.seed]
            return
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(config)
        assert seeds == [config.seed]
        partial = info.value.partial
        assert (info.value.trial_index, info.value.round_index) == (0, 3 + second - 1)
        assert ends == "abort at round %d" % partial.aborted["round"]
        assert partial.rounds_total == 3 + second and partial.trials_aborted == 1
        assert partial.leakage.rounds_audited == 1

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
        # within the default budget of 1000 + 50 * 100 rounds.  The
        # experiment's first block holds all three trials, and the first
        # trial passes the budget.
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
            entangle_measure_curve([])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            entangle_measure_curve([1.5])

    def test_unknown_check_kind_rejected(self):
        with pytest.raises(ValueError, match="check kind"):
            entangle_measure_curve([0.5], check_kinds=("sideways_check",))

    # Each of these once ran: True as a coupling of 1.0, "0.5" as 0.5, a
    # seed of True as 1, a repeated kind's rows twice, identical, and a
    # None schedule as the default one.  A float or negative seed failed
    # inside numpy, naming no field, and "ab_check" as the unknown kind "a".
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
            ([0.5], {"schedule": None}, "schedule"),
        ],
        ids=["bool_grid_value", "string_grid_value", "bool_seed", "float_seed", "negative_seed",
             "string_check_kinds", "empty_check_kinds", "repeated_check_kind", "null_schedule"],
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
        # The flip weight is written as given, not squared back from a root.
        assert payload["attack"]["beta_sq"] == 0.5


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
    # The largest attack probability 2**-k at which a trial completes with
    # probability (1 - q)^16 >= 0.75, and the fewest trials that abort but
    # with probability 1e-6 (CHANGES.md states the rule).
    "strict_abort": ExperimentConfig(
        message_length=16,
        trials=51,
        schedule=SchedulePolicy(0.5, 0.25, 0.25),
        attack=AttackModel.intercept_resend(AB, attack_probability=0.03125),
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
            ("no_attack", "9bc452581bd057fc0c1223859112786528e81832869f6506db5811804a750822"),
            ("intercept_resend_ab", "9277a896cc4f31e7dc524ab11d107ecab7a6ab78b15fcd1e049d37aebcf34b2d"),
            ("entangle_measure_ab_ca", "2822185a7d6cc319eb7481a92683acd2ebc51e6e59c2c921642474e0e7557b11"),
        ],
        ids=["no_attack", "intercept_resend_ab", "entangle_measure_ab_ca"],
    )
    def test_report_digest(self, name, digest):
        assert report_digest(name) == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("gated_disturbance_bc_ca", "92124d432110061fc0c11615ac46265324cb415b54c8b2ce2d8cb4b803ad3464"),
            ("gated_intercept_all", "41c73b5add410db1f45fd35d52ac5136c228aff645016059a9f2b11048006c05"),
            ("gated_probe_all", "e4f96b89726fefa7d3d0c82a0710aecb4884155cc7a2260fcbd5e5d6a7bc9df4"),
        ],
        ids=["gated_disturbance_bc_ca", "gated_intercept_all", "gated_probe_all"],
    )
    def test_gated_attack_report_digest(self, name, digest):
        # Gated attacks, B->C hops and probes riding along over two segments.
        assert report_digest(name) == digest

    def test_strict_abort_partial_report_digest(self):
        assert (
            report_digest("strict_abort")
            == "8e1df6328ee19692d037828a1fd5dd6912184220eabca81549bbef85f80011e8"
        )

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("no_attack", "4148151e25f23030835938a7e2f8646938d28e97bebadb5ba102ede3148d4a87"),
            ("intercept_resend_ab", "ba4f347080eeca0d7d59ad8a4cf51e918ef76048217b99fadf2917bfc672677b"),
            ("entangle_measure_ab_ca", "3161b5111d3ed3f9f2e520b56c62ed036d0a432871de90f1fd645312ea00fc24"),
            ("gated_disturbance_bc_ca", "9498603744bbeddeb97335527854b535a12547e6df5f40ea968084dc0acf2838"),
            ("gated_intercept_all", "0a16fc99e9a20a47dd9f64a86017f5f56ac1976ab31184f6aa9176b22d6072ad"),
            ("gated_probe_all", "bbad03a4cb497341cd3c6473c953fdf37311ac16ba68ca33b838ce0e254b73c7"),
            ("strict_abort", "6a0a01f3158bffd0c3b5b31ef18fc548b39330e7442936dccbb08815e8818567"),
        ],
        ids=list(PINNED_CONFIGS),
    )
    def test_sampled_fields_digest(self, name, digest, sampled_digest):
        # Every field but the enumerated ones: a change to the enumerator
        # alone leaves these digests as they are.
        assert sampled_digest(pinned_report(name)) == digest


def wrong_bits(x, y, i, j, k):
    """The bits each party decodes wrong, of its two, in a message round of
    announcement (x, y) and secrets (i, j, k): read through the decode
    rules, Alice's, Bob's and Charlie's in that order."""
    decoded = (decode_alice(x, y, i), decode_bob(x, y, j), decode_charlie(x, y, k))
    sent = ((j, k), (i, k), (i, j))
    return [sum(map(operator.ne, got, want)) for got, want in zip(decoded, sent)]


def drawn_fidelity(config):
    """Each party's fidelity as a ``Fraction``: the exact mean, over the
    completed trials that ``config``'s one block of draws gives, of each
    trial's right bits over its 2 * L; and the number of those trials."""
    _, _, law = experiment_law(config.schedule, config.attack, config.abort_policy)
    length = config.message_length
    assert config.trials <= harness._BLOCK_BITS // length
    rng = np.random.default_rng(config.seed)
    counts, _, over = law.draw(rng, config.trials, length, default_budget(length))
    assert over is None
    if law.stop(counts[-1]) is not None:
        counts = counts[:-1]
    sums = [Fraction(0)] * 3
    for trial in counts:
        wrong = [0, 0, 0]
        for row, column, leaf in law.cells:
            if leaf.kind is RoundKind.MESSAGE:
                # A message row holds the leaves under Alice's bit row % 3.
                c = int(trial[row, column])
                wrong = [w + c * miss for w, miss in zip(wrong, wrong_bits(*leaf.leakage_keys[row % 3]))]
        sums = [total + Fraction(2 * length - w, 2 * length) for total, w in zip(sums, wrong)]
    return [total / len(counts) for total in sums], len(counts)


def exact_fidelity(config, n):
    """Each party's exact mean fidelity over ``n`` completed trials of
    ``config``, and its standard error, from the compiled round's
    ``leaf_weights`` with the secrets (i, j, k) uniform.

    A completed trial's bits are independent, and each ends at a message
    leaf.  A bit of root (j, k) stops at a leaf of weight w with probability
    w / (m + f), m being the root's message weight and f its failed-check
    weight under the strict policy (else 0); a completed trial conditions
    on every bit stopping at a message leaf.  So party p's wrong bits X per
    bit have an exact law, the fidelity's mean is 1 - E[X] / 2 and its
    standard error over n trials of L bits is sqrt(Var[X] / (4 L n)).
    """
    strict = config.abort_policy is AbortPolicy.STRICT
    table = TransitionTable()
    mass, first, second = 0.0, [0.0] * 3, [0.0] * 3
    for j, k in BITS:
        weighed = protocol.leaf_weights(table, config.schedule, config.attack, j, k)
        messages = [(w, leaf) for w, leaf in weighed if leaf.kind is RoundKind.MESSAGE]
        stop = sum(w for w, _ in messages) + strict * sum(w for w, leaf in weighed if leaf.passed is False)
        for w, leaf in messages:
            for i in (0, 1):
                p = w / stop / 8
                mass += p
                for party, miss in enumerate(wrong_bits(*leaf.leakage_keys[i])):
                    first[party] += p * miss
                    second[party] += p * miss * miss
    means = [m / mass for m in first]
    variances = [max(0.0, s / mass - m * m) for s, m in zip(second, means)]
    errors = [math.sqrt(v / (4 * config.message_length * n)) for v in variances]
    return [1.0 - m / 2 for m in means], errors


def experiment_report(config):
    """The report of ``config``: the partial one when a failed check ends it."""
    try:
        return run_experiment(config)
    except ExperimentAborted as abort:
        return abort.partial


# Rounded once per trial and summed, Alice's fidelity here was
# 0.9333333333333332, one ulp below the exact mean.
ONE_ULP_CASE = ExperimentConfig(
    message_length=3, trials=5, attack=AttackModel.intercept_resend(AB, attack_probability=0.3), seed=1
)

# Criterion 6's configuration, as tests/test_acceptance.py runs it.
CRITERION_6 = ExperimentConfig(
    message_length=64,
    trials=100,
    schedule=SchedulePolicy(0.5, 0.25, 0.25),
    attack=AttackModel.intercept_resend(AB),
    seed=1006,
)


class TestFidelity:
    """The report's fidelity is the exact mean over the completed trials,
    rounded once, and lies within 4 SE of its exact expectation."""

    @pytest.mark.parametrize(
        "config",
        [
            ONE_ULP_CASE,
            # Trial 27 aborts; the 27 before it complete.
            ExperimentConfig(
                message_length=8,
                trials=400,
                schedule=SchedulePolicy(0.1, 0.1, 0.1),
                attack=AttackModel.intercept_resend(AB, attack_probability=0.1),
                abort_policy=AbortPolicy.STRICT,
                seed=2,
            ),
        ],
        ids=["record_and_continue", "strict_partial"],
    )
    def test_fidelity_is_the_correctly_rounded_mean_of_the_drawn_trials(self, config):
        expected, completed = drawn_fidelity(config)
        report = experiment_report(config)
        assert report.trials_completed == completed > 0
        assert [report.fidelity.alice, report.fidelity.bob, report.fidelity.charlie] == list(map(float, expected))

    def test_the_one_ulp_case_reads_the_exact_mean(self):
        expected, _ = drawn_fidelity(ONE_ULP_CASE)
        assert expected[0] == Fraction(14, 15)
        assert run_experiment(ONE_ULP_CASE).fidelity.alice == 0.9333333333333333

    @pytest.mark.parametrize("name", [name for name in PINNED_CONFIGS if name != "no_attack"])
    def test_a_pinned_attacked_report_is_within_four_se(self, name):
        self.assert_within_four_se(PINNED_CONFIGS[name], experiment_report(PINNED_CONFIGS[name]))

    def test_criterion_6_is_within_four_se(self):
        self.assert_within_four_se(CRITERION_6, run_experiment(CRITERION_6))

    def test_each_criterion_5_point_is_within_four_se(self, monkeypatch):
        # The experiments of the criterion-5 curve, as it runs them.
        ran = []

        def recording(config):
            ran.append((config, run_experiment(config)))
            return ran[-1][1]

        monkeypatch.setattr(harness, "run_experiment", recording)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        entangle_measure_curve(grid, message_length=128, trials=140, schedule=SchedulePolicy(0.25, 0.1, 0.4), seed=1005)
        assert [config.attack.beta_sq for config, _ in ran] == grid
        for config, result in ran:
            self.assert_within_four_se(config, result)

    @staticmethod
    def assert_within_four_se(config, report):
        means, errors = exact_fidelity(config, report.trials_completed)
        got = [report.fidelity.alice, report.fidelity.bob, report.fidelity.charlie]
        for party, (value, mean, se) in enumerate(zip(got, means, errors)):
            if se == 0.0:
                assert value == pytest.approx(mean, abs=1e-12), party
            else:
                assert abs(value - mean) <= 4 * se, (party, value, mean, se)
