"""Release gates: twelve end-to-end checks, one verdict line each.

Every test here measures a property of the assembled toolkit (front end,
engine, model, baseline, trainer, CLI) and registers a one-line verdict
that the terminal summary prints after the run.  Tolerances and budgets
are fixed in this file; the heavy training fixtures are shared between
gates so the whole module stays desk-scale.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from criteria import record_criterion

from beamkit.autodiff import (
    LSTM,
    AxisNorm,
    Conv2d,
    ConvTranspose2d,
    Initializer,
    Linear,
    PReLU,
    Tensor,
    concat,
    finite_difference_check,
    glu,
    lstm_step,
    magnitude,
    matmul,
    no_grad,
    prelu,
    relu,
    sigmoid,
    tanh,
)
from beamkit.cli import main
from beamkit.metrics import loss_tensors
from beamkit.model import (
    ModelConfig,
    build_model,
    filter_and_sum,
    tiny_config,
)
from beamkit.mvdr import SteeringVector, mvdr_weights
from beamkit.rooms import SceneSampling, build_corpus, sample_scene
from beamkit.stft import StftConfig, cola_interior, compress, decompress, istft, stft
from beamkit.training import TrainConfig, evaluate, train
from beamkit.wavio import WaveBuffer

SAMPLE_RATE = 16000


# ---------------------------------------------------------------------------
# shared heavy fixtures (built lazily, reused across gates)


@pytest.fixture(scope="module")
def overfit_manifest(tmp_path_factory):
    """Ten 2-second two-mic scenes for the overfit and head-comparison gates."""
    out = tmp_path_factory.mktemp("overfit_corpus")
    return build_corpus(
        out, count=10, master_seed=42,
        sampling=SceneSampling(num_mics=2), duration=2.0,
    )


OVERFIT_TRAIN = TrainConfig(
    epochs=20, batch_size=2, learning_rate=1e-3, segment_seconds=2.0, seed=0
)


def _train_and_score(model, manifest):
    t0 = time.perf_counter()
    result = train(model, manifest, OVERFIT_TRAIN)
    train_seconds = time.perf_counter() - t0
    rows = evaluate(model, manifest).rows
    return {
        "first_loss": result.records[0]["train_loss"],
        "last_loss": result.records[-1]["train_loss"],
        "epochs": len(result.records),
        "train_seconds": train_seconds,
        "si_snr_noisy": float(np.mean([r.si_snr_noisy_db for r in rows])),
        "si_snr_enhanced": float(np.mean([r.si_snr_enhanced_db for r in rows])),
    }


@pytest.fixture(scope="module")
def beamforming_overfit(overfit_manifest):
    """Tiny beamforming-head model trained to overfit the ten scenes."""
    return _train_and_score(build_model(tiny_config(), seed=0), overfit_manifest)


@pytest.fixture(scope="module")
def mask_overfit(overfit_manifest):
    """Mask-head twin: identical data, seed, and optimizer settings."""
    cfg = replace(tiny_config(), bf_type="mask", multi_output=False)
    return _train_and_score(build_model(cfg, seed=0), overfit_manifest)


# ---------------------------------------------------------------------------
# 1. analysis/synthesis round trip


def test_criterion_01_stft_round_trip():
    cfg = StftConfig()
    rng = np.random.default_rng(101)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(20):
        num_samples = int(rng.integers(1 * SAMPLE_RATE, 6 * SAMPLE_RATE + 1))
        x = rng.standard_normal(num_samples)
        back = istft(stft(WaveBuffer(x, SAMPLE_RATE), cfg), cfg).data[0]
        region = cola_interior(num_samples, cfg)
        err = np.linalg.norm(back[region] - x[region]) / np.linalg.norm(x[region])
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    record_criterion(
        1, ok,
        f"stft round trip on 20 signals (1-6 s): max rel err {worst:.2e} "
        f"<= 1e-06, {elapsed:.2f} s < 5 s",
    )
    assert worst <= 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. magnitude compression round trip


def test_criterion_02_compression_round_trip():
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_angle = 0.0
    signs_ok = True
    for shape in [(161, 40, 2), (7, 3), (1000,)]:
        scale = 10.0 ** rng.uniform(-6, 6, size=shape)
        z = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        c = compress(z)
        back = decompress(c)
        worst_rel = max(worst_rel, float(np.max(np.abs(back - z) / np.abs(z))))
        worst_angle = max(worst_angle, float(np.max(np.abs(np.angle(c) - np.angle(z)))))
        # Compression scales both components by one positive real, so the
        # quadrant (component signs) can never change.
        signs_ok = signs_ok and np.array_equal(np.sign(c.real), np.sign(z.real))
        signs_ok = signs_ok and np.array_equal(np.sign(c.imag), np.sign(z.imag))
    zero_ok = complex(compress(np.array(0j))) == 0j
    ok = worst_rel <= 1e-12 and worst_angle <= 1e-12 and signs_ok and zero_ok
    record_criterion(
        2, ok,
        f"compression round trip: max rel err {worst_rel:.2e} <= 1e-12, "
        f"max phase err {worst_angle:.2e}, component signs exact",
    )
    assert worst_rel <= 1e-12
    assert worst_angle <= 1e-12
    assert signs_ok and zero_ok


# ---------------------------------------------------------------------------
# 3. gradient suite: every op, five shapes each, then the full model


def _op_suite(seed: int):
    """One (fn, leaves) pair per differentiable op, dims drawn from seed."""
    rng = np.random.default_rng(1000 + seed)

    def dims(k=2, lo=2, hi=5):
        return tuple(int(d) for d in rng.integers(lo, hi + 1, size=k))

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    init = Initializer(seed)
    suite = {}

    a, b = dims()
    x, y = leaf(a, b), leaf(a, b)
    suite["add"] = (lambda: (x + y).sum(), [x, y])
    x2, y2 = leaf(a, b), leaf(a, b)
    suite["sub"] = (lambda: (x2 - y2).sum(), [x2, y2])
    x3, y3 = leaf(a, b), leaf(a, b)
    suite["mul"] = (lambda: (x3 * y3 * 0.7).sum(), [x3, y3])
    x4, y4 = leaf(a, b), leaf(a, b)
    suite["div"] = (lambda: (x4 / (y4 * y4 + 1.0)).sum(), [x4, y4])
    x5 = leaf(a, b)
    suite["pow"] = (lambda: ((x5 * x5 + 1.0) ** 1.7).sum(), [x5])
    x6 = leaf(a, b, 3)
    suite["sum_axis"] = (lambda: (x6.sum(axis=1, keepdims=True) ** 2.0).sum(), [x6])
    x7 = leaf(a, b, 3)
    suite["mean"] = (lambda: (x7.mean(axis=2) ** 2.0).sum(), [x7])
    x8 = leaf(a, b, 4)
    suite["reshape"] = (lambda: (x8.reshape((a * b, 4)) ** 2.0).sum(), [x8])
    x9 = leaf(a, b, 3)
    suite["transpose"] = (lambda: (x9.transpose(2, 0, 1) ** 2.0).sum(), [x9])
    x10 = leaf(a, 6)
    suite["narrow"] = (lambda: (x10.narrow(1, 1, 4) ** 2.0).sum(), [x10])
    x11 = leaf(a, 4)
    suite["pad"] = (lambda: (x11.pad(((1, 0), (2, 1))) ** 2.0).sum(), [x11])
    xa, xb = leaf(a, 3), leaf(a, 2)
    suite["concat"] = (lambda: (concat([xa, xb], axis=1) ** 2.0).sum(), [xa, xb])
    m, k, n = dims(3)
    ma, mb = leaf(m, k), leaf(k, n)
    suite["matmul"] = (lambda: (matmul(ma, mb) ** 2.0).sum(), [ma, mb])

    r1 = leaf(a, b)
    suite["relu"] = (lambda: (relu(r1) * r1).sum(), [r1])
    r2, alpha = leaf(2, 3, 4), leaf(3)
    suite["prelu"] = (lambda: (prelu(r2, alpha) ** 2.0).sum(), [r2, alpha])
    r3 = leaf(a, b)
    suite["sigmoid"] = (lambda: (sigmoid(r3) * r3).sum(), [r3])
    r4 = leaf(a, b)
    suite["tanh"] = (lambda: (tanh(r4) * r4).sum(), [r4])
    re_, im_ = leaf(a, b), leaf(a, b)
    suite["magnitude"] = (lambda: (magnitude(re_, im_) * re_).sum(), [re_, im_])
    g1, g2 = leaf(a, b), leaf(a, b)
    suite["glu"] = (lambda: (glu(g1, g2) ** 2.0).sum(), [g1, g2])

    conv = Conv2d(2, 3, (2, 3), init, stride=(1, 2), dilation=(2, 1))
    cx = leaf(1, 2, 6, 7)
    suite["conv2d"] = (
        lambda: (conv.forward(cx) ** 2.0).sum(), [cx] + conv.parameters()
    )
    deconv = ConvTranspose2d(2, 3, (1, 3), init, stride=(1, 2))
    dx = leaf(1, 2, 4, 5)
    suite["deconv2d"] = (
        lambda: (deconv.forward(dx) ** 2.0).sum(), [dx] + deconv.parameters()
    )
    lin = Linear(4, 3, init)
    lx = leaf(2, 5, 4)
    suite["linear"] = (
        lambda: (lin.forward(lx) ** 2.0).sum(), [lx] + lin.parameters()
    )
    # Normalized outputs need a loss that projects onto a fixed random
    # direction: the sum of squares of a standardized tensor is nearly
    # constant in the input, leaving finite differences nothing to resolve.
    norm_inst = AxisNorm(3, (2, 3), init)
    nx = leaf(2, 3, 4, 5)
    n_dir = Tensor(rng.standard_normal((2, 3, 4, 5)))
    suite["axis_norm_instance"] = (
        lambda: (norm_inst.forward(nx) * n_dir).sum(), [nx] + norm_inst.parameters()
    )
    norm_frame = AxisNorm(3, (3,), init)
    nf = leaf(2, 3, 4, 5)
    nf_dir = Tensor(rng.standard_normal((2, 3, 4, 5)))
    suite["axis_norm_frame"] = (
        lambda: (norm_frame.forward(nf) * nf_dir).sum(), [nf] + norm_frame.parameters()
    )
    pr = PReLU(3, init)
    px = leaf(2, 3, 4)
    suite["prelu_module"] = (
        lambda: (pr.forward(px) ** 2.0).sum(), [px] + pr.parameters()
    )

    hidden = 3
    sx, sh, sc = leaf(2, 4), leaf(2, hidden), leaf(2, hidden)
    sw_ih, sw_hh = leaf(4 * hidden, 4), leaf(4 * hidden, hidden)
    sbias = leaf(4 * hidden)

    def lstm_step_fn():
        h2, c2 = lstm_step(sx, sh, sc, sw_ih, sw_hh, sbias)
        return (h2 * h2).sum() + (c2 * c2).sum()

    suite["lstm_step"] = (lstm_step_fn, [sx, sh, sc, sw_ih, sw_hh, sbias])

    lstm = LSTM(3, 4, init)
    seq = leaf(2, 5, 3)
    suite["lstm_sequence"] = (
        lambda: (lstm.forward(seq) ** 2.0).sum(), [seq] + lstm.parameters()
    )
    return suite


def test_criterion_03_gradient_suite():
    t0 = time.perf_counter()
    worst_op, worst_err = "", 0.0
    op_names = sorted(_op_suite(0))
    for seed in range(5):
        suite = _op_suite(seed)
        assert sorted(suite) == op_names
        for name, (fn, leaves) in suite.items():
            err = finite_difference_check(fn, leaves)
            if err > worst_err:
                worst_op, worst_err = name, err
            assert err <= 1e-4, f"{name} (seed {seed}): {err}"

    # Full model: loss gradient w.r.t. every parameter tensor, subsampled.
    model = build_model(tiny_config(), seed=1)
    rng = np.random.default_rng(7)
    planes = rng.standard_normal((1, 4, 16, 161))
    target = rng.standard_normal((1, 2, 16, 161))

    def model_loss():
        total, _, _ = loss_tensors(model.forward(Tensor(planes)), Tensor(target))
        return total

    # Step 1e-6: through three composed encoder stages the loss has enough
    # curvature that truncation error dominates central differences at the
    # default 1e-5 step (error is V-shaped in h with its floor near 1e-6).
    model_err = finite_difference_check(
        model_loss, model.parameters(), h=1e-6, rng=np.random.default_rng(8),
        max_elements_per_tensor=2,
    )
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 1e-4 and model_err <= 1e-4 and elapsed < 120.0
    record_criterion(
        3, ok,
        f"gradients: {len(op_names)} ops x 5 shapes worst {worst_err:.1e} "
        f"({worst_op}), full tiny model {model_err:.1e} <= 1e-04, "
        f"{elapsed:.0f} s < 120 s",
    )
    assert model_err <= 1e-4
    assert elapsed < 120.0
    assert ok


# ---------------------------------------------------------------------------
# 4. end-to-end time causality


def test_criterion_04_causality():
    model = build_model(tiny_config(), seed=4)
    frames = 24
    rng = np.random.default_rng(404)
    checked = 0
    with no_grad():
        for _ in range(10):
            planes = rng.standard_normal((1, 4, frames, 161))
            baseline = model.forward(Tensor(planes)).data
            for prefix in (1, frames // 2, frames - 1):
                tampered = planes.copy()
                tampered[:, :, prefix:, :] += 1.0 + 5.0 * rng.standard_normal(
                    tampered[:, :, prefix:, :].shape
                )
                out = model.forward(Tensor(tampered)).data
                assert np.array_equal(
                    out[:, :, :prefix, :], baseline[:, :, :prefix, :]
                ), f"frames before {prefix} changed"
                checked += 1
    record_criterion(
        4, True,
        f"causality: {checked} perturbed runs (10 inputs x prefixes "
        f"{{1, T/2, T-1}}), all prefixes bit-identical",
    )


# ---------------------------------------------------------------------------
# 5. conjugate filter-and-sum hand arithmetic


def test_criterion_05_filter_and_sum_hand_cases():
    base = ComplexSpectrogramFactory()

    # Selector: weights picking channel k reproduce channel k exactly.
    spec = base.random(freq=3, frames=2, channels=2, seed=5)
    for k in range(2):
        weights = np.zeros((3, 2, 2), dtype=np.complex128)
        weights[:, :, k] = 1.0
        out = filter_and_sum(weights, spec)
        assert np.array_equal(out.data[:, :, 0], spec.data[:, :, k])

    # Conjugation: single bins checked against hand arithmetic.
    one = base.constant(value=1 + 0j, freq=2, frames=1, channels=1)
    w = np.full((2, 1, 1), 0 + 1j)
    assert filter_and_sum(w, one).data[0, 0, 0] == -1j
    two = base.constant(value=2 + 3j, freq=2, frames=1, channels=1)
    w = np.full((2, 1, 1), 1 + 1j)
    # conj(1+j)(2+3j) = (1-j)(2+3j) = 5 + j
    assert filter_and_sum(w, two).data[0, 0, 0] == 5 + 1j

    # Two-channel accumulation: conj(1+j)(2+0j) + conj(2-j)(1+1j)
    #   = (1-j)(2) + (2+j)(1+j) = 2-2j + 1+3j = 3 + j
    mixed = base.from_array(np.array([[[2 + 0j, 1 + 1j]], [[0j, 0j]]]))
    w = np.full((2, 1, 2), [1 + 1j, 2 - 1j])
    assert filter_and_sum(w, mixed).data[0, 0, 0] == 3 + 1j

    # Linearity on integer grids is exact in floating point.
    sa = base.random_int(freq=4, frames=3, channels=2, seed=51)
    sb = base.random_int(freq=4, frames=3, channels=2, seed=52)
    weights = base.random_int(freq=4, frames=3, channels=2, seed=53).data
    summed = base.from_array(sa.data + sb.data)
    lhs = filter_and_sum(weights, summed).data
    rhs = filter_and_sum(weights, sa).data + filter_and_sum(weights, sb).data
    assert np.array_equal(lhs, rhs)

    record_criterion(
        5, True,
        "filter-and-sum: selector, conjugation, accumulation, and "
        "linearity hand cases all exact",
    )


class ComplexSpectrogramFactory:
    """Small helpers building spectrogram-shaped complex test tensors."""

    def from_array(self, data):
        from beamkit.stft import ComplexSpectrogram

        data = np.asarray(data, dtype=np.complex128)
        fft_size = 2 * (data.shape[0] - 1)  # bins = fft/2 + 1
        return ComplexSpectrogram(
            data, frame_shift=fft_size // 2, frame_length=fft_size,
            fft_size=fft_size,
        )

    def constant(self, value, freq, frames, channels):
        return self.from_array(np.full((freq, frames, channels), value))

    def random(self, freq, frames, channels, seed):
        rng = np.random.default_rng(seed)
        shape = (freq, frames, channels)
        return self.from_array(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def random_int(self, freq, frames, channels, seed):
        rng = np.random.default_rng(seed)
        shape = (freq, frames, channels)
        return self.from_array(
            rng.integers(-4, 5, size=shape) + 1j * rng.integers(-4, 5, size=shape)
        )


# ---------------------------------------------------------------------------
# 6. closed-form distortionless weights beat random candidates


def test_criterion_06_mvdr_optimality():
    rng = np.random.default_rng(606)
    worst_gap = -np.inf
    worst_constraint = 0.0
    for mics in (2, 3):
        for _ in range(25):
            a = rng.standard_normal((mics, mics)) + 1j * rng.standard_normal((mics, mics))
            phi = a @ a.conj().T + 0.1 * np.eye(mics)
            c = rng.standard_normal(mics) + 1j * rng.standard_normal(mics)
            c = c / c[0]  # reference channel pinned to exactly 1
            steering = SteeringVector(c[np.newaxis], mode="reference")
            w = mvdr_weights(phi[np.newaxis], steering)[0]
            power = float(np.real(w.conj() @ phi @ w))
            worst_constraint = max(worst_constraint, abs(w.conj() @ c - 1.0))

            candidates = rng.standard_normal((10_000, mics)) + 1j * rng.standard_normal(
                (10_000, mics)
            )
            alpha = (1.0 - candidates.conj() @ c).conj() / float(np.real(c.conj() @ c))
            candidates = candidates + alpha[:, np.newaxis] * c
            powers = np.einsum("ip,pq,iq->i", candidates.conj(), phi, candidates).real
            worst_gap = max(worst_gap, power - float(powers.min()))
    ok = worst_gap <= 1e-10 and worst_constraint <= 1e-8
    record_criterion(
        6, ok,
        f"mvdr optimality: 50 instances (P in {{2,3}}) vs 1e4 candidates "
        f"each, worst power gap {worst_gap:+.1e} <= 1e-10, worst "
        f"|w^H c - 1| {worst_constraint:.1e} <= 1e-08",
    )
    assert worst_gap <= 1e-10
    assert worst_constraint <= 1e-8


# ---------------------------------------------------------------------------
# 7. oracle beamformer gain on a synthesized corpus


def test_criterion_07_oracle_mvdr_gain(tmp_path):
    manifest = build_corpus(
        tmp_path / "corpus", count=40, master_seed=77,
        sampling=SceneSampling(snr_grid_db=(-5.0, -2.0, 0.0, 2.0)), duration=2.0,
    )
    rows = evaluate("identity", manifest).rows
    assert len(rows) == 40
    gain = float(np.mean([r.si_snr_mvdr_db - r.si_snr_noisy_db for r in rows]))
    buckets = sorted({r.snr_db for r in rows})
    ok = gain >= 5.0
    record_criterion(
        7, ok,
        f"oracle mvdr on 40 scenes (snr grid {buckets}): mean si-snr gain "
        f"{gain:+.2f} dB >= +5 dB",
    )
    assert gain >= 5.0


# ---------------------------------------------------------------------------
# 8. tiny-model overfit smoke


def test_criterion_08_overfit_smoke(beamforming_overfit):
    run = beamforming_overfit
    ratio = run["last_loss"] / run["first_loss"]
    gain = run["si_snr_enhanced"] - run["si_snr_noisy"]
    ok = (
        ratio <= 0.5
        and run["epochs"] <= 20
        and gain >= 3.0
        and run["train_seconds"] < 1800.0
    )
    record_criterion(
        8, ok,
        f"overfit 10 utterances: loss {run['first_loss']:.4f} -> "
        f"{run['last_loss']:.4f} ({(1 - ratio) * 100:.0f}% drop >= 50%) in "
        f"{run['epochs']} epochs, si-snr gain {gain:+.2f} dB >= +3 dB, "
        f"{run['train_seconds']:.0f} s < 1800 s",
    )
    assert ratio <= 0.5
    assert gain >= 3.0
    assert run["train_seconds"] < 1800.0


# ---------------------------------------------------------------------------
# 9. beamforming head versus mask-only head (direction report)


def test_criterion_09_head_comparison(beamforming_overfit, mask_overfit):
    bf = beamforming_overfit["si_snr_enhanced"]
    mask = mask_overfit["si_snr_enhanced"]
    delta = bf - mask
    holds = bf >= mask
    # This gate reports the measured direction; a reversal at desk scale is
    # flagged but is not a failure.
    detail = (
        f"beamforming head {bf:.2f} dB vs mask-only {mask:.2f} dB "
        f"(delta {delta:+.2f} dB, matched data/seed/optimizer)"
    )
    if not holds:
        detail += " FLAG: direction reversed at desk scale"
    record_criterion(9, True, detail)
    assert np.isfinite(bf) and np.isfinite(mask)


# ---------------------------------------------------------------------------
# 10. parameter-count anchor for the full-scale configuration


def test_criterion_10_parameter_count():
    model = build_model(ModelConfig(), seed=0)
    total = model.num_parameters()
    groups = {
        name: getattr(model, name).num_parameters()
        for name in ("encoder", "temporal", "decoder", "head")
    }
    anchor = 2.84e6
    deviation = abs(total - anchor) / anchor
    print(f"full-scale parameter count: {total}")
    for name, count in groups.items():
        print(f"  {name:>8}: {count}")
    ok = sum(groups.values()) == total and deviation <= 0.15
    breakdown = ", ".join(f"{name} {count}" for name, count in groups.items())
    record_criterion(
        10, ok,
        f"parameter anchor: {total} total ({breakdown}); "
        f"{deviation * 100:.1f}% from 2.84e6 <= 15%",
    )
    assert sum(groups.values()) == total
    assert deviation <= 0.15


# ---------------------------------------------------------------------------
# 11. scene sampler constraint sweep


def test_criterion_11_scene_constraints():
    cfg = SceneSampling()
    rng = np.random.default_rng(1111)
    count = 100_000
    violations = 0
    distances = np.asarray(cfg.source_distances)
    snr_grid = set(cfg.snr_grid_db)
    for _ in range(count):
        scene = sample_scene(rng, cfg)
        center = scene.array.mic_positions.mean(axis=0)
        u = np.asarray(scene.speech_position) - center
        v = np.asarray(scene.noise_position) - center
        du, dv = np.linalg.norm(u), np.linalg.norm(v)
        angle = np.degrees(np.arccos(np.clip(np.dot(u / du, v / dv), -1.0, 1.0)))
        scene_ok = (
            angle >= cfg.min_doa_deg - 1e-9
            and np.min(np.abs(distances - du)) <= 1e-9
            and np.min(np.abs(distances - dv)) <= 1e-9
            and cfg.rt60_range[0] <= scene.room.rt60 <= cfg.rt60_range[1]
            and scene.snr_db in snr_grid
        )
        violations += not scene_ok
    ok = violations == 0
    record_criterion(
        11, ok,
        f"scene sampler: {count} scenes, {violations} violations of "
        f"angle/distance/rt60/snr constraints (required: 0)",
    )
    assert violations == 0


# ---------------------------------------------------------------------------
# 12. byte-identical reruns through the command line


def test_criterion_12_determinism(tmp_path):
    def run(args):
        assert main(args) == 0

    def tree_bytes(root, names):
        return {name: (root / name).read_bytes() for name in names}

    sim_args = lambda out: [
        "simulate", "--out", str(out), "--count", "4", "--seed", "11",
        "--set", "simulate.duration_seconds=1.0",
        "--set", "simulate.sampling.num_mics=2",
    ]
    run(sim_args(tmp_path / "sim_a"))
    run(sim_args(tmp_path / "sim_b"))
    audio = sorted(p.name for p in (tmp_path / "sim_a" / "audio").iterdir())
    sim_names = ["manifest.jsonl"] + [f"audio/{name}" for name in audio]
    sim_same = tree_bytes(tmp_path / "sim_a", sim_names) == tree_bytes(
        tmp_path / "sim_b", sim_names
    )

    config = {
        "model": {
            "mics": 2, "embedding_channels": 8, "encoder_layers": 3,
            "unet_block_depths_encoder": [2, 1, 0],
            "unet_block_depths_decoder": [1, 2, 0],
            "stcn_groups": 1, "stcm_per_group": 2, "stcm_dilations": [1, 2],
            "stcm_squeeze_channels": 16, "lstm_hidden": 16,
            "bf_type": "mask",
        },
        "train": {
            "epochs": 2, "batch_size": 2, "segment_seconds": 0.8,
            "manifest": str(tmp_path / "sim_a" / "manifest.jsonl"),
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    train_args = lambda out: [
        "train", "--config", str(config_path), "--out", str(out), "--seed", "5",
    ]
    run(train_args(tmp_path / "train_a"))
    run(train_args(tmp_path / "train_b"))
    train_names = [
        "loss_curve.jsonl", "training_summary.txt",
        "checkpoint_best.bkt", "checkpoint_final.bkt",
    ]
    train_same = tree_bytes(tmp_path / "train_a", train_names) == tree_bytes(
        tmp_path / "train_b", train_names
    )

    eval_args = lambda out: [
        "evaluate", "--out", str(out), "--system", "identity",
        "--manifest", str(tmp_path / "sim_a" / "manifest.jsonl"),
    ]
    run(eval_args(tmp_path / "eval_a"))
    run(eval_args(tmp_path / "eval_b"))
    eval_names = ["metrics.jsonl", "metrics_summary.txt"]
    eval_same = tree_bytes(tmp_path / "eval_a", eval_names) == tree_bytes(
        tmp_path / "eval_b", eval_names
    )

    ok = sim_same and train_same and eval_same
    record_criterion(
        12, ok,
        f"determinism: byte-identical reruns - simulate {sim_same}, "
        f"train {train_same}, evaluate {eval_same}",
    )
    assert sim_same
    assert train_same
    assert eval_same
