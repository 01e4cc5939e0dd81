import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from qsdc3 import harness
from qsdc3.adversary import AttackModel, ChannelSegment
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
from qsdc3.protocol import AbortPolicy, SchedulePolicy
from qsdc3.states import JointState, Pauli

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
        # Each session builds its own table, so nothing one run built is
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
        ],
    )
    def test_rejects_non_integers_and_a_negative_seed_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

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


class TestPinnedReports:
    """Report bytes pinned to sha256 digests, so that a refactor which moves
    a random draw, a transcript event or a report field is caught exactly."""

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                ExperimentConfig(message_length=16, trials=4, seed=1),
                "206461afa1b0ab836a6e9a3548161930f88c1ac25be4a65ca265b0d52c81ab24",
            ),
            (
                ExperimentConfig(
                    message_length=16,
                    trials=4,
                    schedule=SchedulePolicy(0.5, 0.25, 0.25),
                    attack=AttackModel.intercept_resend(AB),
                    seed=2,
                ),
                "3558889e1eccb1a5c6fae3a28e13d6fc2488714c78e78a1c837723a8d296662f",
            ),
            (
                ExperimentConfig(
                    message_length=16,
                    trials=4,
                    schedule=SchedulePolicy(0.25, 0.1, 0.4),
                    attack=AttackModel.entangle_measure(0.5, AB, CA),
                    seed=3,
                ),
                "d42343650e4d28e7f3cdb3c761d8af5523783f7dd569e85e9cc87dd55fc11eb3",
            ),
        ],
        ids=["no_attack", "intercept_resend_ab", "entangle_measure_ab_ca"],
    )
    def test_report_digest(self, config, digest):
        text = render_json(run_experiment(config).to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                ExperimentConfig(
                    message_length=16,
                    trials=4,
                    attack=AttackModel.disturbance(Pauli.Z, BC, CA, attack_probability=0.5),
                    seed=3,
                ),
                "e0b7d6c55172ff1e50dd5892edfed66c62ad1ebf3f4015cdc31ad8c5291afb3d",
            ),
            (
                ExperimentConfig(
                    message_length=16,
                    trials=4,
                    attack=AttackModel.intercept_resend(AB, BC, CA, attack_probability=0.4),
                    seed=4,
                ),
                "2c7932a29f8fb9d085a43cf2f6087ffd1e7441d1240327542df0436a0db4f4e4",
            ),
            (
                ExperimentConfig(
                    message_length=16,
                    trials=4,
                    schedule=SchedulePolicy(0.25, 0.1, 0.4),
                    attack=AttackModel.entangle_measure(0.3, AB, BC, CA, attack_probability=0.7),
                    seed=5,
                ),
                "74070f4220080241bf9ed4149d161561bcd9230ba966d1c82f8e62725430f38c",
            ),
        ],
        ids=["gated_disturbance_bc_ca", "gated_intercept_all", "gated_probe_all"],
    )
    def test_gated_attack_report_digest(self, config, digest):
        # Gated attacks, B->C hops and probes riding along over two segments.
        text = render_json(run_experiment(config).to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_strict_abort_partial_report_digest(self):
        config = ExperimentConfig(
            message_length=16,
            trials=4,
            schedule=SchedulePolicy(0.5, 0.25, 0.25),
            attack=AttackModel.intercept_resend(AB),
            abort_policy=AbortPolicy.STRICT,
            seed=6,
        )
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(config)
        text = render_json(info.value.partial.to_dict())
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "ff21e6710bd8e10ba1c2583b540d2eee846eae45388e2d665c9f9bbb65acdc63"
        )
