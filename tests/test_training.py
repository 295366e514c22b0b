"""Loss, metrics, optimizer, schedule, trainer, and evaluation harness."""

import json
import math
import os

import numpy as np
import pytest

from beamkit.autodiff import Tensor, finite_difference_check
from beamkit.errors import (
    ConfigError,
    ConfigMismatchError,
    DivergenceError,
    ValidationError,
)
from beamkit.metrics import SATURATION_DB, loss_tensors, si_snr_db, snr_db
from beamkit.model import ModelConfig, build_model, tiny_config
from beamkit.rooms import SceneSampling, build_corpus
from beamkit.signals import WaveBuffer
from beamkit.stft import StftConfig
from beamkit.training import (
    MetricsRow,
    OptimState,
    TrainConfig,
    adam_step,
    enhance_waveform,
    evaluate,
    format_aligned,
    load_trained_model,
    lr_schedule,
    train,
    write_jsonl,
)
from beamkit.wavio import read_wav


# ---------------------------------------------------------------------------
# loss


def loss_report(estimate, target, lambda_ri=0.5, lambda_mag=0.5):
    """The spectral loss on complex arrays, the oracle of ``loss_tensors``:
    ``(total, ri_term, mag_term)`` with ``ri_term`` the mean complex
    squared error and ``mag_term`` the mean squared magnitude error."""
    diff = estimate - target
    ri = float(np.mean(diff.real**2 + diff.imag**2))
    mag = float(np.mean((np.abs(estimate) - np.abs(target)) ** 2))
    return lambda_ri * ri + lambda_mag * mag, ri, mag


class TestLossReport:
    def test_identical_spectra_give_zero_loss(self):
        rng = np.random.default_rng(0)
        spec = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        assert loss_report(spec, spec.copy()) == (0.0, 0.0, 0.0)

    def test_unit_error_single_bin(self):
        # estimate 1+0j against target 0: complex squared error 1,
        # magnitude error (1-0)^2 = 1, total 0.5+0.5 = 1.
        assert loss_report(np.array([[1.0 + 0j]]), np.array([[0j]])) == (1.0, 1.0, 1.0)

    def test_pure_phase_error_single_bin(self):
        # estimate j against target 1: |j-1|^2 = 2 lands in the complex
        # term while the magnitudes match exactly, so total = 0.5*2 = 1.
        assert loss_report(np.array([[1j]]), np.array([[1.0 + 0j]])) == (1.0, 2.0, 0.0)

    def test_term_weights_are_applied(self):
        total, _, _ = loss_report(
            np.array([[1j]]), np.array([[1.0 + 0j]]), lambda_ri=0.25, lambda_mag=0.75
        )
        assert total == 0.25 * 2.0

    def test_tensor_route_matches_array_route(self):
        # Same arithmetic through the differentiable path and the plain
        # complex-array path, on random data.
        rng = np.random.default_rng(11)
        for _ in range(5):
            planes_e = rng.standard_normal((1, 2, 6, 4))
            planes_t = rng.standard_normal((1, 2, 6, 4))
            total, ri, mag = loss_tensors(Tensor(planes_e), Tensor(planes_t))
            complex_e = planes_e[0, 0].T + 1j * planes_e[0, 1].T
            complex_t = planes_t[0, 0].T + 1j * planes_t[0, 1].T
            want = loss_report(complex_e, complex_t)
            for got, value in zip((total, ri, mag), want):
                assert np.isclose(float(got.data), value, rtol=1e-12, atol=0)

    def test_tensor_route_requires_single_channel_planes(self):
        with pytest.raises(ValidationError, match="planes"):
            loss_tensors(Tensor(np.zeros((1, 4, 3, 2))), Tensor(np.zeros((1, 4, 3, 2))))

    def test_tensor_route_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            loss_tensors(Tensor(np.zeros((1, 2, 3, 2))), Tensor(np.zeros((1, 2, 2, 3))))

    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        estimate = Tensor(rng.standard_normal((2, 2, 4, 3)), requires_grad=True)
        target = Tensor(rng.standard_normal((2, 2, 4, 3)))

        def fn():
            total, _, _ = loss_tensors(estimate, target)
            return total

        worst = finite_difference_check(fn, [estimate])
        assert worst <= 1e-4


# ---------------------------------------------------------------------------
# metrics


def orthogonal_pair(length: int = 64):
    """Two zero-mean, exactly orthogonal, equal-energy integer signals."""
    s = np.tile([1.0, -1.0], length // 2)
    n = np.tile([1.0, 1.0, -1.0, -1.0], length // 4)
    assert s.sum() == 0.0 and n.sum() == 0.0 and np.dot(s, n) == 0.0
    assert np.dot(s, s) == np.dot(n, n)
    return s, n


class TestSiSnr:
    def test_identical_signals_saturate(self):
        x = np.sin(np.arange(200) * 0.1)
        assert si_snr_db(x, x) == SATURATION_DB

    def test_scaled_copy_saturates(self):
        x = np.sin(np.arange(200) * 0.1)
        assert si_snr_db(2.0 * x, x) == SATURATION_DB

    def test_equal_energy_orthogonal_noise_gives_zero_db(self):
        # The projection of s+n onto s is exactly s (integer arithmetic is
        # exact), leaving residual n of equal energy: ratio 1, 0 dB.
        s, n = orthogonal_pair()
        assert si_snr_db(s + n, s) == 0.0

    def test_scale_invariance_exact_for_power_of_two_gains(self):
        rng = np.random.default_rng(7)
        ref = rng.standard_normal(300)
        est = ref + 0.3 * rng.standard_normal(300)
        base = si_snr_db(est, ref)
        for gain in (2.0, 0.5, 256.0):
            assert si_snr_db(gain * est, ref) == base

    def test_scale_invariance_near_exact_for_arbitrary_gain(self):
        rng = np.random.default_rng(8)
        ref = rng.standard_normal(300)
        est = ref + 0.3 * rng.standard_normal(300)
        assert si_snr_db(1.7 * est, ref) == pytest.approx(
            si_snr_db(est, ref), abs=1e-10
        )

    def test_more_orthogonal_noise_strictly_decreases(self):
        s, n = orthogonal_pair()
        values = [si_snr_db(s + alpha * n, s) for alpha in (0.25, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dc_offsets_are_removed(self):
        rng = np.random.default_rng(9)
        ref = rng.standard_normal(256)
        est = ref + 0.2 * rng.standard_normal(256)
        assert si_snr_db(est + 5.0, ref - 3.0) == pytest.approx(
            si_snr_db(est, ref), abs=1e-9
        )

    def test_wavebuffer_route_matches_array_route(self):
        rng = np.random.default_rng(10)
        ref = rng.standard_normal(400)
        est = ref + 0.1 * rng.standard_normal(400)
        assert si_snr_db(WaveBuffer(est, 16000), WaveBuffer(ref, 16000)) == si_snr_db(
            est, ref
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="samples"):
            si_snr_db(np.ones(5), np.ones(6))

    def test_multichannel_estimate_rejected(self):
        stereo = WaveBuffer(np.ones((2, 50)), 16000)
        with pytest.raises(ValidationError, match="mono"):
            si_snr_db(stereo, WaveBuffer(np.ones(50), 16000))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValidationError, match="zero energy"):
            si_snr_db(np.ones(16), np.ones(16))  # constant → zero after mean removal

    def test_nonfinite_input_rejected(self):
        bad = np.ones(16)
        bad[3] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            si_snr_db(bad, np.arange(16.0))


class TestSnr:
    def test_identical_signals_saturate(self):
        x = np.cos(np.arange(100) * 0.2)
        assert snr_db(x, x) == SATURATION_DB

    def test_doubled_copy_scores_exactly_zero_db(self):
        # No scale allowance: 2s versus s leaves error energy equal to the
        # reference energy, so the ratio is exactly one.
        x = np.cos(np.arange(100) * 0.2)
        assert snr_db(2.0 * x, x) == 0.0

    def test_zero_estimate_scores_exactly_zero_db(self):
        x = np.cos(np.arange(100) * 0.2) + 1.0
        assert snr_db(np.zeros_like(x), x) == 0.0

    def test_scale_error_penalized_unlike_si_snr(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal(500)
        assert si_snr_db(1.01 * ref, ref) == SATURATION_DB
        assert snr_db(1.01 * ref, ref) == pytest.approx(10 * np.log10(1 / 0.01**2))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValidationError, match="zero energy"):
            snr_db(np.ones(8), np.zeros(8))


# ---------------------------------------------------------------------------
# optimizer


def step_with(params: dict, grads: dict, state: OptimState) -> OptimState:
    """One :func:`adam_step` after setting each named parameter's ``.grad``."""
    for name, grad in grads.items():
        params[name].grad = grad
    return adam_step(params, state)


class TestAdamStep:
    def test_zero_gradients_leave_parameters_unchanged(self):
        p = Tensor(np.array([0.3, -1.2, 4.0]), requires_grad=True)
        before = p.data.copy()
        state = OptimState(TrainConfig(learning_rate=0.01))
        step_with({"p": p}, {"p": np.zeros(3)}, state)
        step_with({"p": p}, {"p": None}, state)
        np.testing.assert_array_equal(p.data, before)
        assert state.step_count == 2

    def test_single_step_matches_scalar_hand_computation(self):
        # Independent scalar oracle: the textbook update computed with
        # plain floats for p=0.7, g=0.2, lr=0.01 at t=1.
        p = Tensor(np.array(0.7), requires_grad=True)
        state = OptimState(TrainConfig(learning_rate=0.01))
        step_with({"p": p}, {"p": np.array(0.2)}, state)
        m = (1 - 0.9) * 0.2
        v = (1 - 0.999) * 0.2**2
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = 0.7 - 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(float(p.data) - expected) <= 1e-12

    def test_two_steps_match_scalar_hand_computation(self):
        self.check_two_steps(beta1=0.9, beta2=0.999, epsilon=1e-8)

    def test_coefficients_come_from_the_train_config(self):
        self.check_two_steps(beta1=0.5, beta2=0.9, epsilon=0.1)

    def check_two_steps(self, beta1, beta2, epsilon):
        p = Tensor(np.array(-0.4), requires_grad=True)
        cfg = TrainConfig(learning_rate=0.05, beta1=beta1, beta2=beta2, epsilon=epsilon)
        state = OptimState(cfg)
        step_with({"p": p}, {"p": np.array(0.3)}, state)
        step_with({"p": p}, {"p": np.array(-0.1)}, state)

        # scalar replay
        value, m, v = -0.4, 0.0, 0.0
        for t, g in ((1, 0.3), (2, -0.1)):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            value -= 0.05 * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + epsilon)
        assert abs(float(p.data) - value) <= 1e-12

    def test_constant_gradient_update_approaches_lr_times_sign(self):
        # With g constant, bias-corrected m̂ = g and v̂ = g², so the step
        # magnitude tends to lr·|g|/(|g|+ε) ≈ lr in the direction −sign(g).
        for g in (0.3, -0.7):
            p = Tensor(np.array(0.0), requires_grad=True)
            state = OptimState(TrainConfig(learning_rate=1e-3))
            previous = float(p.data)
            for _ in range(50):
                step_with({"p": p}, {"p": np.array(g)}, state)
                update = float(p.data) - previous
                previous = float(p.data)
            assert update == pytest.approx(-math.copysign(1e-3, g), rel=1e-6)

    def test_gradient_shape_mismatch_rejected(self):
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        state = OptimState(TrainConfig(learning_rate=0.01))
        with pytest.raises(ValidationError, match="shape"):
            step_with({"p": p}, {"p": np.zeros((3, 2))}, state)

    def test_multiple_parameters_update_independently(self):
        a = Tensor(np.array(1.0), requires_grad=True)
        b = Tensor(np.array(1.0), requires_grad=True)
        state = OptimState(TrainConfig(learning_rate=0.01))
        step_with({"a": a, "b": b}, {"a": np.array(0.5), "b": np.array(-0.5)}, state)
        assert float(a.data) < 1.0 < float(b.data)
        assert abs((1.0 - float(a.data)) - (float(b.data) - 1.0)) < 1e-15

    def test_halved_learning_rate_halves_steady_state_update(self):
        p = Tensor(np.array(0.0), requires_grad=True)
        state = OptimState(TrainConfig(learning_rate=2e-3))
        for _ in range(60):
            step_with({"p": p}, {"p": np.array(1.0)}, state)
        before = float(p.data)
        step_with({"p": p}, {"p": np.array(1.0)}, state)
        full_step = float(p.data) - before
        state.learning_rate *= 0.5
        before = float(p.data)
        step_with({"p": p}, {"p": np.array(1.0)}, state)
        half_step = float(p.data) - before
        assert half_step == pytest.approx(0.5 * full_step, rel=1e-9)


class TestLrSchedule:
    def run_trace(self, losses, lr=1.0, patience=2):
        state = OptimState(TrainConfig(learning_rate=lr, plateau_patience=patience))
        rates = []
        for value in losses:
            lr_schedule(state, value)
            rates.append(state.learning_rate)
        return state, rates

    def test_improving_losses_never_halve(self):
        state, rates = self.run_trace([1.0, 0.9, 0.8])
        assert rates == [1.0, 1.0, 1.0]
        assert state.halvings == 0
        assert state.best_val_loss == 0.8

    def test_two_consecutive_stalls_halve_once(self):
        state, rates = self.run_trace([1.0, 1.1, 1.2])
        assert rates == [1.0, 1.0, 0.5]
        assert state.halvings == 1

    def test_improvement_resets_the_stall_counter(self):
        # 1.0 improves; 1.1 stalls; 0.9 improves (reset); 1.0 stalls;
        # 1.1 stalls → exactly one halving, at the final epoch.
        state, rates = self.run_trace([1.0, 1.1, 0.9, 1.0, 1.1])
        assert rates == [1.0, 1.0, 1.0, 1.0, 0.5]
        assert state.halvings == 1

    def test_equal_loss_counts_as_a_stall(self):
        # Strict less-than: repeating the best value is not an improvement.
        state, rates = self.run_trace([1.0, 1.0, 1.0])
        assert rates == [1.0, 1.0, 0.5]

    def test_counter_resets_after_halving(self):
        state, rates = self.run_trace([1.0, 1.1, 1.2, 1.3, 1.4])
        assert rates == [1.0, 1.0, 0.5, 0.5, 0.25]
        assert state.halvings == 2

    def test_patience_comes_from_the_train_config(self):
        state, rates = self.run_trace([1.0, 1.1, 1.2, 1.3, 1.4], patience=1)
        assert rates == [1.0, 0.5, 0.25, 0.125, 0.0625]
        state, rates = self.run_trace([1.0, 1.1, 1.2, 1.3, 1.4], patience=3)
        assert rates == [1.0, 1.0, 1.0, 0.5, 0.5]

    def test_learning_rate_never_increases(self):
        rng = np.random.default_rng(0)
        state = OptimState(TrainConfig(learning_rate=1.0))
        last = state.learning_rate
        for value in rng.uniform(0.5, 1.5, size=40):
            lr_schedule(state, float(value))
            assert state.learning_rate <= last
            assert state.learning_rate > 0.0
            last = state.learning_rate

    def test_nonfinite_validation_loss_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            lr_schedule(OptimState(TrainConfig(learning_rate=1.0)), float("nan"))


# ---------------------------------------------------------------------------
# structured records


class TestRecords:
    def test_jsonl_round_trips(self, tmp_path):
        records = [{"b": 1, "a": 0.25}, {"b": 2, "a": -1.5}]
        path = write_jsonl(tmp_path / "records.jsonl", records)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert [json.loads(line) for line in lines] == records
        # keys are sorted for byte-stable output
        assert lines[0] == '{"a": 0.25, "b": 1}'

    def test_aligned_table_lines_up(self):
        table = format_aligned(
            [{"epoch": 1, "loss": 0.5}, {"epoch": 20, "loss": 0.0625}],
            ["epoch", "loss"],
        )
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # constant width
        assert "epoch" in lines[0] and "loss" in lines[0]
        assert "0.0625" in lines[-1]


# ---------------------------------------------------------------------------
# trainer + evaluation on a tiny synthesized corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = build_corpus(
        root,
        count=4,
        master_seed=7,
        sampling=SceneSampling(num_mics=2),
        duration=1.2,
    )
    return manifest


def fresh_model(seed: int = 3):
    return build_model(tiny_config(), seed=seed)


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=-1e-4)
        with pytest.raises(ConfigError, match="patience"):
            TrainConfig(plateau_patience=0)
        with pytest.raises(ConfigError, match="segment_seconds"):
            TrainConfig(segment_seconds=0.0)
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"momentum": 0.9})

    @pytest.mark.parametrize("field", ["epsilon", "segment_seconds", "lambda_ri", "lambda_mag"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    def test_loss_decreases_on_smoke_run(self, corpus, tmp_path):
        result = train(
            fresh_model(),
            corpus,
            TrainConfig(epochs=4, batch_size=2, segment_seconds=0.5, seed=1),
            out_dir=tmp_path / "run",
        )
        assert len(result.records) == 4
        assert result.records[-1]["train_loss"] < result.records[0]["train_loss"]
        assert all(math.isfinite(r["val_loss"]) for r in result.records)
        assert os.path.exists(result.best_checkpoint)
        assert os.path.exists(result.final_checkpoint)
        assert os.path.exists(result.loss_curve_path)
        assert os.path.exists(result.summary_path)

    def test_zero_learning_rate_freezes_parameters(self, corpus):
        model = fresh_model()
        before = model.state_dict()
        # one batch per epoch so both epochs see the identical ordering
        result = train(
            model,
            corpus,
            TrainConfig(
                epochs=2, batch_size=4, learning_rate=0.0, segment_seconds=0.4
            ),
        )
        after = model.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
        assert result.records[0]["train_loss"] == result.records[1]["train_loss"]
        assert result.records[0]["val_loss"] == result.records[1]["val_loss"]

    def test_reruns_are_byte_identical(self, corpus, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=2, segment_seconds=0.4, seed=5)
        paths = []
        for run in ("a", "b"):
            out = tmp_path / run
            train(fresh_model(seed=9), corpus, cfg, out_dir=out)
            paths.append(out)
        for name in ("loss_curve.jsonl", "checkpoint_best.bkt", "checkpoint_final.bkt",
                     "training_summary.txt"):
            a = (paths[0] / name).read_bytes()
            b = (paths[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_divergence_error_names_epoch_and_batch(self, corpus):
        model = fresh_model()
        first_param = next(iter(model.parameters()))
        first_param.data.flat[0] = np.nan
        with pytest.raises(DivergenceError) as excinfo:
            train(model, corpus, TrainConfig(epochs=1, segment_seconds=0.4))
        assert excinfo.value.epoch == 1
        assert excinfo.value.batch == 1

    def test_best_checkpoint_reloads_and_reproduces(self, corpus, tmp_path):
        model = fresh_model()
        result = train(
            model,
            corpus,
            TrainConfig(epochs=2, batch_size=2, segment_seconds=0.4, seed=2),
            out_dir=tmp_path / "run",
        )
        loaded, stft_cfg, meta = load_trained_model(result.best_checkpoint)
        assert meta["epoch"] == result.best_epoch
        assert stft_cfg == StftConfig() and "stft" not in meta
        # JSON stores tuples as lists; compare through the config parser.
        assert ModelConfig.from_dict(meta["model"]) == model.cfg
        for name, value in loaded.state_dict().items():
            np.testing.assert_array_equal(value, result.best_state[name])
        # the reloaded model runs the full waveform pipeline
        header_scene = read_wav(
            os.path.join(os.path.dirname(corpus), "audio/scene_000000_mixture.wav")
        )
        out = enhance_waveform(loaded, header_scene, stft_cfg)
        assert out.num_channels == 1
        assert out.num_samples == header_scene.num_samples

    def test_enhance_refuses_another_sample_rate(self):
        # An 8 kHz input once ran the 16 kHz front end and came back
        # labelled 8000 Hz.
        x = np.random.default_rng(4).standard_normal((2, 1600))
        with pytest.raises(ValidationError, match="waveform rate 8000 Hz, expected 16000 Hz"):
            enhance_waveform(build_model(tiny_config(), 0), WaveBuffer(x, 8000))

    def test_channel_mismatch_is_rejected(self, corpus):
        cfg = tiny_config()
        widened = ModelConfig(**{**cfg.to_dict(), "mics": 3})
        with pytest.raises(ConfigMismatchError, match="channels"):
            train(build_model(widened, seed=0), corpus, TrainConfig(epochs=1))

    def test_separate_validation_manifest(self, corpus, tmp_path_factory):
        val_root = tmp_path_factory.mktemp("valcorpus")
        val_manifest = build_corpus(
            val_root,
            count=2,
            master_seed=99,
            sampling=SceneSampling(num_mics=2),
            duration=1.2,
        )
        result = train(
            fresh_model(),
            corpus,
            TrainConfig(epochs=1, batch_size=2, segment_seconds=0.4),
            val_manifest_path=val_manifest,
        )
        assert math.isfinite(result.records[0]["val_loss"])
        assert result.records[0]["val_loss"] != result.records[0]["train_loss"]


class TestEvaluate:
    def test_identity_system_reproduces_noisy_metrics(self, corpus, tmp_path):
        result = evaluate("identity", corpus, out_dir=tmp_path / "eval")
        assert len(result.rows) == 4
        for row in result.rows:
            assert row.si_snr_enhanced_db == row.si_snr_noisy_db
            assert row.snr_enhanced_db == row.snr_noisy_db
            assert row.si_snr_gain_db == 0.0

    def test_oracle_target_system_saturates(self, corpus):
        def oracle_target(mixture, speech_img, noise_img):
            return WaveBuffer(speech_img.data[0], mixture.sample_rate)

        result = evaluate(oracle_target, corpus)
        for row in result.rows:
            assert row.si_snr_enhanced_db == SATURATION_DB
            assert "si_snr_enhanced_db" in row.saturated

    def test_oracle_mvdr_as_system_copies_baseline_columns(self, corpus):
        result = evaluate("oracle-mvdr", corpus)
        for row in result.rows:
            assert row.si_snr_enhanced_db == row.si_snr_mvdr_db
            assert row.snr_enhanced_db == row.snr_mvdr_db

    def test_oracle_mvdr_improves_on_noisy_in_the_mean(self, corpus):
        result = evaluate("identity", corpus)
        gains = [row.mvdr_si_snr_gain_db for row in result.rows]
        assert np.mean(gains) > 0.0

    def test_buckets_partition_the_rows(self, corpus):
        result = evaluate("identity", corpus)
        overall = [a for a in result.aggregates if a["bucket"] == "all"]
        buckets = [a for a in result.aggregates if a["bucket"] != "all"]
        assert len(overall) == 1
        assert overall[0]["count"] == len(result.rows)
        assert sum(a["count"] for a in buckets) == len(result.rows)
        row_buckets = {row.snr_db for row in result.rows}
        assert {a["bucket"] for a in buckets} == row_buckets

    def test_metrics_files_are_parseable_and_aligned(self, corpus, tmp_path):
        result = evaluate("identity", corpus, out_dir=tmp_path / "eval")
        lines = open(result.metrics_path, encoding="utf-8").read().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {record["kind"] for record in records}
        assert kinds == {"scene_metrics", "aggregate"}
        assert sum(r["kind"] == "scene_metrics" for r in records) == len(result.rows)
        summary = open(result.summary_path, encoding="utf-8").read()
        assert "si_snr_mvdr_db" in summary
        widths = {len(line) for line in summary.splitlines()}
        assert len(widths) == 1

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        a = evaluate("identity", corpus, out_dir=tmp_path / "a")
        b = evaluate("identity", corpus, out_dir=tmp_path / "b")
        assert (
            open(a.metrics_path, "rb").read() == open(b.metrics_path, "rb").read()
        )

    def test_trained_model_runs_through_evaluate(self, corpus):
        model = fresh_model()
        result = evaluate(model, corpus, max_scenes=1)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert math.isfinite(row.si_snr_enhanced_db)

    def test_unknown_system_string_rejected(self, corpus):
        with pytest.raises(ConfigError, match="system"):
            evaluate("wiener", corpus)

    def test_non_callable_system_rejected_before_any_scene(self, corpus, monkeypatch):
        def regenerate(*args, **kwargs):
            raise AssertionError("a scene was regenerated")

        monkeypatch.setattr("beamkit.training.rebuild_scene_audio", regenerate)
        with pytest.raises(ConfigError, match="system"):
            evaluate(5, corpus)

    @pytest.mark.parametrize("system", ["identity", "oracle-mvdr"])
    def test_oracle_mvdr_runs_once_per_scene(self, corpus, monkeypatch, system):
        import beamkit.training as training

        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        real = training.oracle_mvdr_enhance
        monkeypatch.setattr(training, "oracle_mvdr_enhance", counted)
        result = evaluate(system, corpus, max_scenes=2)
        assert len(calls) == len(result.rows) == 2

    def test_model_channel_mismatch_rejected(self, corpus):
        widened = ModelConfig.from_dict({**tiny_config().to_dict(), "mics": 3})
        with pytest.raises(ConfigError, match="expects 3"):
            evaluate(build_model(widened, seed=0), corpus, max_scenes=1)

    def test_max_scenes_limits_the_run(self, corpus):
        result = evaluate("identity", corpus, max_scenes=2)
        assert len(result.rows) == 2

    @pytest.mark.parametrize("max_scenes", [-1, 0, True, False, 1.0, "2"])
    def test_bad_max_scenes_rejected_before_any_scene(
        self, corpus, monkeypatch, max_scenes
    ):
        def regenerate(*args, **kwargs):
            raise AssertionError("a scene was regenerated")

        monkeypatch.setattr("beamkit.training.rebuild_scene_audio", regenerate)
        with pytest.raises(ConfigError, match="evaluate.max_scenes"):
            evaluate("identity", corpus, max_scenes=max_scenes)

    def test_max_scenes_accepts_numpy_integer(self, corpus):
        assert len(evaluate("identity", corpus, max_scenes=np.int64(1)).rows) == 1

    def test_metrics_row_rejects_unknown_saturation_flag(self):
        with pytest.raises(ValidationError, match="flags"):
            MetricsRow(
                scene_id="s",
                snr_db=0.0,
                si_snr_noisy_db=1.0,
                si_snr_enhanced_db=1.0,
                si_snr_mvdr_db=1.0,
                snr_noisy_db=1.0,
                snr_enhanced_db=1.0,
                snr_mvdr_db=1.0,
                saturated=("nonsense",),
            )
