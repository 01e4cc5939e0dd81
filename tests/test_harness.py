import hashlib
import json
import logging
import math
import operator
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from statistics import NormalDist
from typing import NamedTuple

import numpy as np
import pytest

from qsdc3 import harness, protocol
from qsdc3.adversary import AttackModel, ChannelSegment
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
    analytic_detection_probability,
    decode_errors,
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
        # draws blocks of law.block_trials(message_length) trials in trial
        # order, each block where the last one left off; nothing is spawned
        # per trial or per block.  A run of 100,000 trials holds nothing in
        # proportion to ``trials``: the third block stops it.  At attack
        # probability 1e-6 a failed check can end a trial, yet so rarely
        # that the blocks keep _BLOCK_BITS // message_length trials, and
        # one ends within the 12 trials drawn with probability 0.003.
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
        assert law.block_trials(1000) == 4
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
        monkeypatch.setattr(protocol, "TransitionTable", recording_table)
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
    leaf in its one cell, a failed check in its fail row."""
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
            # Every failed check sits in a fail row, under either policy.
            assert counts[12:].sum() == sum(leaf.passed is False for leaf in leaves)
            if hits is None:
                # The failed check that ended the session is its only one.
                assert law.stop(counts) is leaves[-1] and counts[12:].sum() == 1
            else:
                assert policy is RECORD or not counts[12:].any()
                # Each party's right bits over its two views' 96 bits.
                expected = [(hits[2 * party] + hits[2 * party + 1]) / 96 for party in range(3)]
                assert [report.fidelity.alice, report.fidelity.bob, report.fidelity.charlie] == expected
        if policy is AbortPolicy.STRICT and attack is not None:
            assert aborted == 6


class TestTrialLog:
    """A trial's INFO line reads its rounds and failed checks from its row
    totals, only when it is shown; the CLI's lines are checked in
    test_cli.py (``TestTrialProgress``)."""

    def test_below_info_nothing_is_summed(self, caplog):
        caplog.set_level(logging.WARNING, logger="qsdc3")

        class Unsummed:
            def __getattr__(self, name):
                raise AssertionError("the row totals were read")

        harness._log_trials(0, Unsummed())
        assert caplog.records == []

    def test_at_info_the_text_is_exact(self, caplog):
        caplog.set_level(logging.INFO, logger="qsdc3")
        # A strict trial of 3 rounds whose last one failed and ended it; a
        # completed trial of 4 rounds with two failed checks and one of 6
        # with none.
        aborted = np.zeros((1, 16), dtype=np.int64)
        aborted[0, [2, 13]] = 2, 1
        completed = np.zeros((2, 16), dtype=np.int64)
        completed[:, 0] = 2, 4
        completed[0, [12, 15]] = 1
        completed[1, 5] = 2
        harness._log_trials(4, aborted, aborted=True)
        harness._log_trials(5, completed)
        assert [r.getMessage() for r in caplog.records] == [
            "trial 4: rounds 3, failed checks 1, aborted",
            "trial 5: rounds 4, failed checks 2",
            "trial 6: rounds 6, failed checks 0",
        ]

    @pytest.mark.parametrize("policy", list(AbortPolicy), ids=lambda p: p.name.lower())
    def test_each_line_counts_its_trials_failed_checks(self, caplog, policy):
        # Each trial's failed checks are its fail rows' totals: the binomial
        # split of its check rounds under record-and-continue, and the one
        # failed check that ended it under the strict policy.  The block's
        # summed leaf counts hold as many, and its lines sum them.
        caplog.set_level(logging.INFO, logger="qsdc3")
        attack = AttackModel.intercept_resend(AB, attack_probability=0.2)
        _, _, law = experiment_law(SchedulePolicy(0.5, 0.25, 0.25), attack, policy)
        rng = np.random.default_rng(9)
        counts, last, rows, over = law.draw(rng, 64, 32, default_budget(32))
        assert over is None
        harness._log_trials(0, rows, last is not None)
        failed = [r.args[2] for r in caplog.records]
        assert failed == rows[:, 12:].sum(axis=1).tolist()
        failed_leaves = sum(int(counts[row, column]) for row, column, leaf in law.cells if leaf.passed is False)
        assert sum(failed) == counts[12:].sum() == failed_leaves
        assert [r.args[1] for r in caplog.records] == rows.sum(axis=1).tolist()
        if policy is RECORD:
            assert len(rows) == 64 and sum(failed) > 0
        else:
            assert last is not None and failed == [0] * (len(rows) - 1) + [1]
            assert last[12:].sum() == 1 and law.stop(last).passed is False


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


def strict_tally(stops, rounds):
    """Two counters over strict trials: the failed check that ended each
    trial in ``stops`` (None when it completed), and each abort round's
    bucket (the bit length of the round index + 1; None when the trial
    completed), from each trial's ``rounds``."""
    failing = Counter(stop for stop in stops if stop is not None)
    buckets = Counter(used.bit_length() if stop is not None else None for stop, used in zip(stops, rounds))
    return failing, buckets


def cell_counts(counts):
    """The nonzero cells of a count array in a law's layout, as a counter."""
    return Counter({(int(row), int(column)): int(counts[row, column]) for row, column in zip(*np.nonzero(counts))})


def draw_trials(law, rng, trials, length):
    """``trials`` trials of ``length`` bits drawn from ``law`` with ``rng``
    in the experiment's blocks (``law.block_trials``): their summed leaf
    counts, shape (16, width), each trial's row totals, shape (trials, 16),
    and the failed check that ended each trial, or None.  A block stops at
    its first trial that a failed check ends; the next block then starts,
    so the trials kept are a run of independent trials.  No trial may pass
    the default budget."""
    counts = np.zeros_like(law.pvals, dtype=np.int64)
    rows, stops = [], []
    while len(stops) < trials:
        block = min(law.block_trials(length), trials - len(stops))
        drawn, last, kept, over = law.draw(rng, block, length, default_budget(length))
        assert over is None and len(kept) > 0
        counts += drawn
        rows.append(kept)
        stops += [None] * (len(kept) - 1) + [None if last is None else law.stop(last)]
    return counts, np.concatenate(rows), stops


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
    two samples of trials' row totals by more than 4 standard errors, the
    trials being the sampled units."""
    a, b = (np.array(sample, dtype=float) for sample in (first, second))
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    gap = np.abs(a.mean(axis=0) - b.mean(axis=0))
    return [row for row in range(a.shape[1]) if gap[row] > 4.0 * se[row] or (se[row] == 0.0 and gap[row])]


class TestTrialLaw:
    """Trials draw their leaf counts from the exact law: per root r with
    message weight m_r and, under the strict policy, failed-check weight f_r
    (else 0), each bit's rounds are geometric with p = m_r + f_r and its
    stop fails with probability f_r / (m_r + f_r); the trial ends at its
    first failing bit.  The message leaves are multinomial(N_ri, w / m_r)
    under Alice's bit i.  Under record-and-continue F_r of the C_r check
    rounds fail, binomial(C_r, f_r / c_r) with c_r the root's check weight;
    the passed checks are multinomial(C_r - F_r, w / (c_r - f_r)), the
    failed ones multinomial(F_r, w / f_r), and a strict trial's failing
    leaf is drawn with probability w / f_r.  A block draws each row's
    leaves once, over its trials' summed row totals.  Every gate draws in
    the experiment's blocks (``_TrialLaw.draw``, ``draw_trials``);
    ``run_protocol`` sessions are the independent reference."""

    @pytest.mark.parametrize("schedule, model, seed", G_TEST_CASES)
    def test_each_leaf_count_has_its_exact_mean(self, schedule, model, seed):
        # Summed over 2,000 trials, each leaf's count meets its exact mean
        # given its row's total, the trials' N_ri, C_r - F_r or F_r: a share
        # w / m_r in a message row, w / (c_r - f_r) in a passed-check row and
        # w / f_r in a failed-check row.  Each leaf is within z_n standard
        # errors, the Bonferroni limit over the n leaves that makes the
        # whole check fail a correct law as rarely as one 4-SE check does
        # (z_n = 5.18 at n = 288); and each row's leaves pass a G-test at
        # p = 1e-6.  C_r meets its mean given N_r, F_r its mean f_r / c_r
        # given C_r, and the N_ri meet L / 8 per trial, within 4 standard
        # errors.  The summed leaf counts of each row are the trials' summed
        # row totals.
        _, roots, law = experiment_law(schedule, model)
        rng = np.random.default_rng(seed)
        length, trials = 64, 2000
        totals, rows, _ = draw_trials(law, rng, trials, length)
        given = totals.sum(axis=1)  # the trials' N_ri, C_r - F_r and F_r, summed
        assert given.tolist() == rows.sum(axis=0).tolist()
        column = {leaf: column for _, column, leaf in law.cells}
        shares = np.zeros(totals.shape)
        for r, weighed in enumerate(roots):
            drawable = [(weight, leaf) for weight, leaf in weighed if weight > 0.0]
            message = sum(weight for weight, leaf in drawable if leaf.kind is RoundKind.MESSAGE)
            check = sum(weight for weight, leaf in drawable if leaf.kind is not RoundKind.MESSAGE)
            failed = sum(weight for weight, leaf in drawable if leaf.passed is False)
            for weight, leaf in drawable:
                if leaf.kind is RoundKind.MESSAGE:
                    cells = [(3 * r + i, weight / message) for i in (0, 1)]
                elif leaf.passed is False:
                    cells = [(12 + r, weight / failed)]
                else:
                    cells = [(3 * r + 2, weight / (check - failed))]
                for row, p in cells:
                    shares[row, column[leaf]] = p
            m = message / (message + check)
            bits = given[3 * r] + given[3 * r + 1]
            checks = given[3 * r + 2] + given[12 + r]
            mean, se = bits * (1.0 - m) / m, math.sqrt(bits * (1.0 - m)) / m
            assert abs(checks - mean) <= 4.0 * se, (r, checks, mean, se)
            share = failed / check
            mean, se = checks * share, math.sqrt(checks * share * (1.0 - share))
            assert abs(given[12 + r] - mean) <= 4.0 * se + 1e-9 * mean, (r, given[12 + r], mean, se)
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
        for row in range(16):
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
        _, rows, _ = draw_trials(law, np.random.default_rng(seed), trials, length)
        rounds = rows.sum(axis=1)
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
        # the last trial of a block have one law of row totals: each row's
        # mean total and the mean rounds agree within 4 standard errors.
        # Over the 16,000 trials in draw order, neighbours' rounds and their
        # totals in each row are uncorrelated within 4 standard errors,
        # 1 / sqrt(16,000).  (A block draws its leaves once, over its
        # trials' summed row totals, so no leaf count is a trial's own.)
        _, _, law = experiment_law(schedule, model)
        rng = np.random.default_rng(seed)
        length, blocks = 512, 2000
        block = harness._BLOCK_BITS // length
        rows = []
        for _ in range(blocks):
            _, _, kept, over = law.draw(rng, block, length, default_budget(length))
            assert over is None and len(kept) == block
            rows.append(kept)
        rows = np.array(rows)
        assert row_totals_differ(rows[:, 0], rows[:, -1]) == []
        rounds = rows.sum(axis=2).astype(float)
        gap = rounds[:, 0].mean() - rounds[:, -1].mean()
        assert abs(gap) <= 4.0 * math.sqrt((rounds[:, 0].var(ddof=1) + rounds[:, -1].var(ddof=1)) / blocks)
        series = [("rounds", rounds.ravel())] + list(enumerate(rows.reshape(-1, 16).T.astype(float)))
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
        drawn, drawn_rows = np.zeros_like(law.pvals, dtype=np.int64), []
        while drawn.sum() < 200_000:
            counts, _, kept, _ = law.draw(rng, harness._BLOCK_BITS // 1000, 1000, 51_000)
            drawn += counts
            drawn_rows += list(kept)
        rows = list(row_g_tests(drawn, sum(sessions)))
        for row, g, df in rows:
            assert g < chi_square_quantile(1e-6, df), (row, g, df)
        g, df = sum(g for _, g, _ in rows), sum(df for _, _, df in rows)
        assert g < chi_square_quantile(1e-6, df), (g, df)
        assert row_totals_differ(drawn_rows, [counts.sum(axis=1) for counts in sessions]) == []

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
        counts, last, rows, over = law.draw(Scripted(), 1, 3, 11)
        assert isinstance(over, RoundBudgetExceeded) and len(rows) == counts.sum() == 0 and last is None
        assert str(over) == "budget of 11 rounds exhausted with 2 of 3 bits delivered"
        counts, last, rows, over = law.draw(Scripted(), 1, 3, 12)
        assert over is None and last is None and rows.sum(axis=1).tolist() == [counts.sum()] == [12]

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
        for rows in draw_trials(law, rng, trials, length)[1]:
            ends[int(rows[:12:3].sum() + rows[1:12:3].sum()) if rows[12:].any() else None] += 1
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
        # the trials' summed leaf counts, the partial trials' included, each
        # pass a two-sample G-test at p = 1e-6.
        table, _, law = experiment_law(schedule, model, AbortPolicy.STRICT)
        rng = np.random.default_rng(seed)
        # At 8 bits some trials complete, and most abort.
        length, trials = 8, 10_000
        stops, rounds, cells = [], [], Counter()
        for _ in range(trials):
            messages = MessageTriple.random(length, rng)
            try:
                leaves, stop = run_protocol(messages, schedule, rng, model, table=table).leaves, None
            except ProtocolAborted as abort:
                leaves, stop = abort.leaves, abort.leaves[-1]
                assert abort.round_index == len(leaves) - 1
            stops.append(stop)
            rounds.append(len(leaves))
            cells.update(cell_counts(law_counts(law, leaves, messages.alice_bits)))
        sessions = (*strict_tally(stops, rounds), cells)
        counts, rows, stops = draw_trials(law, rng, trials, length)
        drawn = (*strict_tally(stops, rows.sum(axis=1).tolist()), cell_counts(counts))
        for name, first, second in zip(("failing leaf", "abort round", "leaf counts"), drawn, sessions):
            g, df = two_sample_g(first, second)
            assert g < chi_square_quantile(1e-6, df), (name, g, df)

    @pytest.mark.parametrize("length", [1, 16, 100, 1000, 5000])
    def test_a_strict_block_holds_the_trials_expected_up_to_its_first_abort(self, length):
        # A trial aborts with probability 1 - (1 - q)^L, so a block of the
        # inverse of that, rounded up, mostly ends at its last trial; the
        # experiment's block size bounds it, and is the size whenever no
        # failed check can end a trial.
        schedule, attack = SchedulePolicy(0.1, 0.1, 0.1), AttackModel.intercept_resend(AB, attack_probability=0.1)
        _, roots, strict = experiment_law(schedule, attack, AbortPolicy.STRICT)
        _, _, record = experiment_law(schedule, attack)
        _, _, honest = experiment_law(schedule, AttackModel.none(), AbortPolicy.STRICT)
        q = sum(f / (m + f) / 4 for m, f, _ in stop_weights(roots))
        block = max(1, harness._BLOCK_BITS // length)
        assert record.block_trials(length) == honest.block_trials(length) == block
        assert strict.block_trials(length) == min(block, math.ceil(1.0 / (1.0 - (1.0 - q) ** length)))
        # When every bit's stop can fail (no message leaf), each trial
        # aborts, and a block holds one.
        _, _, every = experiment_law(SchedulePolicy(1.0, 0.0, 0.0), attack, AbortPolicy.STRICT)
        assert every.fail_share.tolist() == [1.0] * 4 and every.block_trials(length) == 1

    @pytest.mark.parametrize("one", [1.0, 1], ids=["float", "int"])
    @pytest.mark.parametrize("field", ["p_ab_check", "p_bob_cm", "p_charlie_cm"])
    def test_a_schedule_without_a_message_round_is_refused(self, monkeypatch, field, one):
        # A bit is delivered only in a message round, and a probability of 1
        # leaves none.  Under the strict policy, with a check that can fail,
        # such an experiment once aborted in trial 0 with no bit delivered;
        # now the config refuses it, and a curve refuses it before any of
        # its experiments runs.
        def no_experiment(config):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(harness, "run_experiment", no_experiment)
        schedule = SchedulePolicy(**{field: one})
        refusal = "^schedule leaves no round for a message bit: %s is 1$" % field
        for policy in AbortPolicy:
            with pytest.raises(ValueError, match=refusal):
                ExperimentConfig(
                    message_length=100,
                    trials=3,
                    schedule=schedule,
                    attack=AttackModel.intercept_resend(AB, attack_probability=0.01),
                    abort_policy=policy,
                    seed=7,
                )
        with pytest.raises(ValueError, match=refusal):
            entangle_measure_curve([0.5], schedule=schedule)

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
        # trial passes the budget.  An experiment refuses a schedule with no
        # message round; a session, whose budget is its own argument, runs
        # it out.
        message = "^budget of 6000 rounds exhausted with %s of 100 bits delivered$" % delivered
        for policy in AbortPolicy:
            if schedule.p_ab_check == 1.0:
                with pytest.raises(ValueError, match="^schedule leaves no round for a message bit"):
                    ExperimentConfig(message_length=100, trials=3, schedule=schedule, abort_policy=policy, seed=7)
                continue
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
    # seed of True as 1, a repeated kind's rows twice, identical, a None
    # schedule as the default one, and a set of kinds in an order that
    # followed string hashing.  A float or negative seed failed inside
    # numpy, naming no field, "ab_check" as the unknown kind "a", and a
    # grid or check kinds that are not iterable with a TypeError.
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
            (0.5, {}, "grid"),
            ([0.5], {"check_kinds": {"ab_check", "decoy_check"}}, "check_kinds"),
            ([0.5], {"check_kinds": {"ab_check": 1}}, "check_kinds"),
            ([0.5], {"check_kinds": 5}, "check_kinds"),
        ],
        ids=["bool_grid_value", "string_grid_value", "bool_seed", "float_seed", "negative_seed",
             "string_check_kinds", "empty_check_kinds", "repeated_check_kind", "null_schedule",
             "non_iterable_grid", "set_check_kinds", "dict_check_kinds", "non_iterable_check_kinds"],
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
            ("no_attack", "68e56e9b2d5c1daf7507b9370b2c86138bcaffc9d605a592a03ff5d60464b996"),
            ("intercept_resend_ab", "45e28f77c9e847d1c384a15b6b973e24f1c1df5cfa9d70ad4d4bd43069fb1296"),
            ("entangle_measure_ab_ca", "7c2b4d2b6cdcd255f2ab7a58d79ad2a4f13c2bc482927758a3aceec34d6a76aa"),
        ],
        ids=["no_attack", "intercept_resend_ab", "entangle_measure_ab_ca"],
    )
    def test_report_digest(self, name, digest):
        # Nothing a run builds outlives it: each experiment builds its own
        # table, so a second run in the same process gives the same bytes.
        assert report_digest(name) == report_digest(name) == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("gated_disturbance_bc_ca", "09336d0c6a3189bf293507d450fbc44fb005a0ffefee8da7bfee3d1042834ca6"),
            ("gated_intercept_all", "fb5e28bb839d19cc4cd0d0d1d7eabf29e3f5e4d0c1838eadb6b357bf59e25a72"),
            ("gated_probe_all", "d6285dd1a035be25b4a9a615b879d60dbda0f310cd3a57072410f5999f257465"),
        ],
        ids=["gated_disturbance_bc_ca", "gated_intercept_all", "gated_probe_all"],
    )
    def test_gated_attack_report_digest(self, name, digest):
        # Gated attacks, B->C hops and probes riding along over two segments.
        assert report_digest(name) == digest

    def test_strict_abort_partial_report_digest(self):
        assert (
            report_digest("strict_abort")
            == "ba5c0904a658039db8358d074f27f353ba77435496b952e856c884f499ba6f5b"
        )

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("no_attack", "bcfd87840cb8ad66b2bbe869fb26b740149054014d998708905f84163b591c2e"),
            ("intercept_resend_ab", "89613b0241c6ed823fa58a62514f6abff850ed8c937c10275ad736d02413d256"),
            ("entangle_measure_ab_ca", "970b6b4a45f1481e35f8120680c22fe7864a0848bd22c1f93a5488a9d676f650"),
            ("gated_disturbance_bc_ca", "b5787ecdd73943e1b93af9789fd4a91a39f2e57cbcbf35aeff33d6ff0c6342cc"),
            ("gated_intercept_all", "1611a6f31e1191485730458ea75ae2cd2a26154e3b83c485211390e3c99c85de"),
            ("gated_probe_all", "6c234986a6fe9d37d300cfa9b8a58d0b75a5340bb0bf4f3d7cd42eda1c45e995"),
            ("strict_abort", "64a1e8ed3b8f7a16a308346a42b5fd606c2689bbc6eac5770bfa2e4572fd9da3"),
        ],
        ids=list(PINNED_CONFIGS),
    )
    def test_sampled_fields_digest(self, name, digest, sampled_digest):
        # Every field but the enumerated ones: a change to the enumerator
        # alone leaves these digests as they are.
        assert sampled_digest(pinned_report(name)) == digest


def wrong_bits(x, y, i, j, k):
    """The bits each party decodes wrong, of its two, in a message round of
    announcement (x, y) and secrets (i, j, k), Alice's, Bob's and Charlie's
    in that order.  The decode rules are the paper's, written out here
    rather than read from ``protocol``, so that a fault there shows: with
    x = i XOR j and y = i XOR k, Alice reads (x ^ i, y ^ i), Bob
    (x ^ j, x ^ y ^ j) and Charlie (y ^ k, x ^ y ^ k)."""
    decoded = ((x ^ i, y ^ i), (x ^ j, x ^ y ^ j), (y ^ k, x ^ y ^ k))
    sent = ((j, k), (i, k), (i, j))
    return [sum(map(operator.ne, got, want)) for got, want in zip(decoded, sent)]


def test_decode_errors_counts_what_the_paper_rules_get_wrong():
    for x, y, i, j, k in product((0, 1), repeat=5):
        assert decode_errors(x, y, i, j, k) == tuple(wrong_bits(x, y, i, j, k))
        # Alice announces her Bell outcome (j, k) masked by her bit i.
        if (x, y) == (j ^ i, k ^ i):
            assert decode_errors(x, y, i, j, k) == (0, 0, 0)


def drawn_fidelity(config):
    """Each party's fidelity as a ``Fraction``: its right bits over its
    2 * L per completed trial, of the trials that ``config``'s blocks of
    draws give, up to the one a failed check ends, which is left out; and
    the number of those completed trials."""
    _, _, law = experiment_law(config.schedule, config.attack, config.abort_policy)
    length = config.message_length
    rng = np.random.default_rng(config.seed)
    wrong, completed, last = [0, 0, 0], 0, None
    while completed < config.trials and last is None:
        block = min(law.block_trials(length), config.trials - completed)
        counts, last, rows, over = law.draw(rng, block, length, default_budget(length))
        assert over is None
        if last is not None:
            counts = counts - last
        completed += len(rows) - (last is not None)
        for row, column, leaf in law.cells:
            if leaf.kind is RoundKind.MESSAGE:
                # A message row holds the leaves under Alice's bit row % 3.
                c = int(counts[row, column])
                wrong = [w + c * miss for w, miss in zip(wrong, wrong_bits(*leaf.leakage_keys[row % 3]))]
    bits = 2 * length * completed
    return [Fraction(bits - w, bits) for w in wrong], completed


# The per-round values the report sums, in this order: the round itself,
# Eve's actions, her probe readouts and the flips among them, a message
# round whose announced XOR x ^ y equals the secrets' j ^ k, and the bits
# Alice, Bob and Charlie decode wrong.
ROUNDS, ACTIONS, READOUTS, FLIPS, XOR_HITS = range(5)
WRONG = slice(5, 8)


def round_values(leaf, i=None):
    """The per-round values of a round that ends at ``leaf``, under Alice's
    bit ``i`` when it is a message round."""
    readouts = [ancilla for *_, ancilla in leaf.eve if ancilla is not None]
    values = [1, len(leaf.eve), len(readouts), sum(readouts), 0, 0, 0, 0]
    if i is not None:
        x, y, _, j, k = key = leaf.leakage_keys[i]
        values[XOR_HITS] = int(x ^ y == j ^ k)
        values[WRONG] = wrong_bits(*key)
    return np.array(values, dtype=float)


def moments(cases):
    """The mean and covariance of the values of ``cases``, ``[(probability,
    values), ...]`` with probabilities summing to 1; zeros when empty."""
    if not cases:
        return np.zeros(8), np.zeros((8, 8))
    p = np.array([c for c, _ in cases])
    values = np.array([v for _, v in cases])
    mean = p @ values
    centred = values - mean
    return mean, (p[:, None] * centred).T @ centred


def mixture(parts):
    """The mean and covariance of a draw from ``parts``, ``[(weight, (mean,
    covariance)), ...]``, picked with probability weight / sum of weights."""
    total = sum(weight for weight, _ in parts)
    mean = sum(weight / total * m for weight, (m, _) in parts)
    second = sum(weight / total * (c + np.outer(m, m)) for weight, (m, c) in parts)
    return mean, second - np.outer(mean, mean)


class BitLaw:
    """The exact law of one message bit's summed per-round values
    (``round_values``), read from the compiled round's ``leaf_weights``.

    A bit of root r (Bob's and Charlie's bits, uniform) goes on for K
    rounds and then stops.  Under record-and-continue it stops at a message
    leaf, of weight m_r, and goes on at every check leaf.  Under the strict
    policy it also stops at a failed check, of weight f_r, and goes on only
    at a passing check.  So K is geometric on {0, 1, ...} with stop
    probability s_r = m_r + f_r (f_r = 0 under record-and-continue), the
    rounds it goes on are independent draws of the going-on leaves by
    weight, and the stop is independent of K.  A bit's values X = sum of K
    going-on rounds + the stop's, so E[X | r] = E[K] mu_G + mu_S and
    Cov[X | r] = E[K] Sigma_G + Var[K] mu_G mu_G^T + Sigma_S.

    ``delivered`` is the law of a bit that stops at a message leaf, under
    Alice's bit i uniform: its root has probability proportional to
    m_r / (m_r + f_r).  ``failing`` is the law of a bit that stops at a
    failed check (strict policy only; None when no check can end a trial),
    its root in proportion to f_r / (m_r + f_r).  Given how many bits of
    each kind a report holds, its bits are independent draws of these
    laws: a strict trial ends at its first failing bit, and the bits before
    it are delivered ones.  ``messages`` gives each leakage key's
    probability in a delivered bit's message round.
    """

    def __init__(self, config):
        strict = config.abort_policy is AbortPolicy.STRICT
        table = TransitionTable()
        delivered, failing = [], []
        self.messages = Counter()
        for j, k in BITS:
            weighed = protocol.leaf_weights(table, config.schedule, config.attack, j, k)
            drawable = [(w, leaf) for w, leaf in weighed if w > 0.0]
            total = sum(w for w, _ in drawable)
            messages = [(w, leaf) for w, leaf in drawable if leaf.kind is RoundKind.MESSAGE]
            failed = [(w, leaf) for w, leaf in drawable if strict and leaf.passed is False]
            go_on = [
                (w, leaf)
                for w, leaf in drawable
                if leaf.kind is not RoundKind.MESSAGE and not (strict and leaf.passed is False)
            ]
            m, f = sum(w for w, _ in messages), sum(w for w, _ in failed)
            s = (m + f) / total
            rounds = moments([(w / (total - m - f), round_values(leaf)) for w, leaf in go_on])
            message = moments([(w / m / 2, round_values(leaf, i)) for w, leaf in messages for i in (0, 1)])
            delivered.append((m / (m + f), self._bit(s, rounds, message)))
            if f:
                stop = moments([(w / f, round_values(leaf)) for w, leaf in failed])
                failing.append((f / (m + f), self._bit(s, rounds, stop)))
            for w, leaf in messages:
                for key in leaf.leakage_keys:
                    self.messages[key] += m / (m + f) * w / m / 2
        self.delivered = mixture(delivered)
        self.failing = mixture(failing) if failing else None
        total = sum(self.messages.values())
        self.messages = {key: p / total for key, p in self.messages.items()}

    @staticmethod
    def _bit(s, rounds, stop):
        """A bit's mean and covariance, from its stop probability ``s`` and
        the moments of a going-on round and of its stop."""
        (mu_g, sigma_g), (mu_s, sigma_s) = rounds, stop
        go, spread = (1.0 - s) / s, (1.0 - s) / (s * s)
        return go * mu_g + mu_s, go * sigma_g + spread * np.outer(mu_g, mu_g) + sigma_s

    def totals(self, delivered, failing=0):
        """The mean and covariance of the values summed over ``delivered``
        delivered bits and ``failing`` failing ones."""
        mean, covariance = delivered * self.delivered[0], delivered * self.delivered[1]
        if failing:
            mean, covariance = mean + failing * self.failing[0], covariance + failing * self.failing[1]
        return mean, covariance

    def mutual_information(self, symbols, n):
        """The plug-in mutual information (bits) between the two symbols
        ``symbols(x, y, i, j, k)`` gives a message round of leakage key
        (x, y, i, j, k), over ``n`` message rounds, as a :class:`Field`
        without its value.

        Its mean is the exact MI plus the Miller-Madow term df / (2 n ln 2),
        df = K_ab - K_a - K_b + 1 over the cells and margins of positive
        probability.  Its law is the exact MI, plus the delta method's
        normal term of variance Var[log2(p(a, b) / (p(a) p(b)))] / n, plus
        chi-square(|df|) / (2 n ln 2) with the sign of df: all of it when
        the two symbols are independent (df > 0) or one is a function of
        the other (df < 0).  That law is skewed: a band of 4 SE each side
        would fail a correct sampler in 0.5% of reports at df = 3, not in
        the 6.3e-5 of a 4-SE normal gate.  So the band gives the chi-square
        part its quantile with that tail, on its side, and the normal part
        its 4 SE on both."""
        joint, first, second = Counter(), Counter(), Counter()
        for key, p in self.messages.items():
            a, b = symbols(*key)
            if p > 0.0:
                joint[a, b] += p
                first[a] += p
                second[b] += p
        logs = {(a, b): math.log2(p / (first[a] * second[b])) for (a, b), p in joint.items()}
        exact = sum(p * logs[cell] for cell, p in joint.items())
        sd = math.sqrt(max(0.0, sum(p * logs[cell] ** 2 for cell, p in joint.items()) - exact**2) / n)
        df = len(joint) - len(first) - len(second) + 1
        scale = 2.0 * n * math.log(2.0)
        tail = chi_square_quantile(2.0 * NormalDist().cdf(-4.0), abs(df)) / scale if df else 0.0
        low, high = exact - 4.0 * sd, exact + 4.0 * sd
        if df > 0:
            high += tail
        else:
            low -= tail
        se = math.sqrt(sd**2 + 2.0 * abs(df) / scale**2)
        # Widened by float rounding, as normal_field's band.
        return Field(None, exact + df / scale, se, low - 1e-12, high + 1e-12)


# The leakage audit's MI fields, and the two symbols each reads from a
# message round's leakage key (x, y, i, j, k).
MI_SYMBOLS = {
    "mi_announcement_vs_alice": lambda x, y, i, j, k: (2 * x + y, i),
    "mi_announcement_vs_bob": lambda x, y, i, j, k: (2 * x + y, j),
    "mi_announcement_vs_charlie": lambda x, y, i, j, k: (2 * x + y, k),
    "mi_xor_announced_vs_xor_secret": lambda x, y, i, j, k: (x ^ y, j ^ k),
}


class Field(NamedTuple):
    """A sampled report field: its value, its exact mean and standard
    error, and the band [low, high] its 4-SE gate allows."""

    value: float
    mean: float
    se: float
    low: float
    high: float


def normal_field(value, mean, variance):
    """A field whose value is a sum of many independent bits' values, or a
    ratio of two: its band is its mean +- 4 SE, widened by float rounding."""
    se = math.sqrt(max(0.0, variance))
    width = 4.0 * se + 1e-12 * max(1.0, abs(mean))
    return Field(value, mean, se, mean - width, mean + width)


def exact_fields(config, report):
    """Each sampled field of ``report``, a run of ``config``, as a
    :class:`Field`, by name.

    The report's bits are its delivered bits, one per message round
    (``rounds_audited``), and under the strict policy its aborting trial's
    failing bit; given these counts they are independent draws of
    :class:`BitLaw`'s laws.  The fidelity reads the completed trials' bits
    alone.  A ratio's error is the delta method's."""
    law = BitLaw(config)
    leakage, eve = report.leakage, report.eve
    delivered, failing = leakage.rounds_audited, report.trials_aborted
    # Every delivered bit of a completed trial is one message round; an
    # aborted trial delivers fewer than L bits.
    length, completed = config.message_length, report.trials_completed * config.message_length
    most = completed + failing * (length - 1)
    fields = {"leakage.rounds_audited": Field(delivered, completed, 0.0, completed, most)}
    mean, cov = law.totals(delivered, failing)
    fields |= {
        "rounds_total": normal_field(report.rounds_total, mean[ROUNDS], cov[ROUNDS, ROUNDS]),
        "eve.actions": normal_field(eve.actions, mean[ACTIONS], cov[ACTIONS, ACTIONS]),
        "eve.probe_measurements": normal_field(eve.probe_measurements, mean[READOUTS], cov[READOUTS, READOUTS]),
    }
    if eve.probe_flip_frequency is not None:
        r = mean[FLIPS] / mean[READOUTS]
        spread = cov[FLIPS, FLIPS] - 2 * r * cov[FLIPS, READOUTS] + r * r * cov[READOUTS, READOUTS]
        variance = spread / mean[READOUTS] ** 2
        fields["eve.probe_flip_frequency"] = normal_field(eve.probe_flip_frequency, r, variance)
    if delivered:
        fields["leakage.xor_identity_fraction"] = normal_field(
            leakage.xor_identity_fraction, mean[XOR_HITS] / delivered, cov[XOR_HITS, XOR_HITS] / delivered**2
        )
        for name, symbols in MI_SYMBOLS.items():
            field = law.mutual_information(symbols, delivered)
            fields["leakage." + name] = field._replace(value=getattr(leakage, name))
    if completed:
        mean, cov = law.totals(completed)
        bits = 2 * completed
        for party, index in zip(("alice", "bob", "charlie"), range(WRONG.start, WRONG.stop)):
            value = getattr(report.fidelity, party)
            variance = cov[index, index] / bits**2
            fields["fidelity." + party] = normal_field(value, 1.0 - mean[index] / bits, variance)
    return fields


FIDELITY_FIELDS = ("fidelity.alice", "fidelity.bob", "fidelity.charlie")


def assert_fields_within_four_se(config, report, names=None):
    """Every field of ``exact_fields``, or those ``names``, within its band."""
    for name, field in exact_fields(config, report).items():
        if names is None or name in names:
            assert field.low <= field.value <= field.high, (name, field)


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
    rounded once; TestReportFields gates it at 4 SE of its exact
    expectation."""

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



# The acceptance configurations, as tests/test_acceptance.py runs them (the
# criterion-5 curve's points come from TestReportFields' recording run).
ACCEPTANCE_CONFIGS = {
    "criterion_2": ExperimentConfig(
        message_length=100,
        trials=100,
        schedule=SchedulePolicy(0.05, 0.05, 0.05),
        abort_policy=AbortPolicy.STRICT,
        seed=1002,
    ),
    "criterion_3": ExperimentConfig(
        message_length=32,
        trials=160,
        schedule=SchedulePolicy(0.35, 0.3, 0.3),
        abort_policy=AbortPolicy.STRICT,
        seed=1003,
    ),
    **{
        "criterion_4_%s" % pauli.name: ExperimentConfig(
            message_length=64,
            trials=100,
            schedule=SchedulePolicy(0.5, 0.25, 0.25),
            attack=AttackModel.disturbance(pauli, AB),
            seed=1004 + pauli.value,
        )
        for pauli in (Pauli.X, Pauli.Z)
    },
    "criterion_5_at_a_million_checks": ExperimentConfig(
        message_length=1000,
        trials=1800,
        schedule=SchedulePolicy(0.25, 0.1, 0.4),
        attack=AttackModel.entangle_measure(0.5, AB, CA),
        seed=1009,
    ),
    "criterion_6": CRITERION_6,
    "criterion_7": ExperimentConfig(message_length=256, trials=50, abort_policy=AbortPolicy.STRICT, seed=1007),
    "criterion_8": ExperimentConfig(
        message_length=64,
        trials=60,
        schedule=SchedulePolicy(0.5, 0.25, 0.25),
        attack=AttackModel.disturbance(Pauli.X, AB),
        seed=1008,
    ),
}


class TestReportFields:
    """Every sampled report field lies within 4 SE of its exact mean
    (:func:`exact_fields`): the rounds, Eve's actions, readouts and flip
    frequency, the XOR identity fraction, each party's fidelity, and each
    per-secret MI against the exact MI plus its Miller-Madow term; on the
    pinned configurations and the acceptance ones."""

    @pytest.mark.parametrize("name", list(PINNED_CONFIGS))
    def test_a_pinned_report(self, name):
        assert_fields_within_four_se(PINNED_CONFIGS[name], experiment_report(PINNED_CONFIGS[name]))

    @pytest.mark.parametrize("name", list(ACCEPTANCE_CONFIGS))
    def test_an_acceptance_report(self, name):
        assert_fields_within_four_se(ACCEPTANCE_CONFIGS[name], experiment_report(ACCEPTANCE_CONFIGS[name]))

    def test_each_criterion_5_point(self, monkeypatch):
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
            assert_fields_within_four_se(config, result)

    def test_every_sampled_field_is_gated(self):
        # A report with probe readouts names all thirteen sampled fields; an
        # aborted strict report has no readouts, so no flip frequency.
        config = PINNED_CONFIGS["gated_probe_all"]
        assert len(exact_fields(config, experiment_report(config))) == 13
        config = PINNED_CONFIGS["strict_abort"]
        report = experiment_report(config)
        assert report.trials_aborted == 1 and len(exact_fields(config, report)) == 12
