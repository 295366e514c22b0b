"""Tests for the neural beamformer: config, geometry, causality, heads."""

import json
import tracemalloc

import numpy as np
import pytest

from beamkit.autodiff import (
    Conv2d,
    ConvTranspose2d,
    Initializer,
    Tensor,
    glu,
    load_checkpoint,
    no_grad,
    save_checkpoint,
    split_glu,
)
from beamkit.errors import ConfigError, ValidationError
from beamkit.metrics import loss_tensors
from beamkit.model import (
    FREQ_STRIDE,
    GLU_KERNEL,
    LSTM_LAYERS,
    STCM_KERNEL,
    UNET_KERNEL,
    FrequencyUnet,
    GatedConvLayer,
    GatedDeconvLayer,
    ModelConfig,
    NeuralBeamformer,
    RecurrentSubbandHead,
    build_model,
    downsampled_width,
    filter_and_sum,
    filter_and_sum_ri,
    ri_stack,
    ri_unstack,
    tiny_config,
)
from beamkit.stft import ComplexSpectrogram, StftConfig, compress


def random_spec(rng, freq=161, frames=8, chans=9):
    data = rng.standard_normal((freq, frames, chans)) + 1j * rng.standard_normal(
        (freq, frames, chans)
    )
    return ComplexSpectrogram(data, fft_size=(freq - 1) * 2)


# ---------------------------------------------------------------------------
# closed-form parameter arithmetic, independent of the module tree


def conv_p(cin, cout, kt, kf):
    return cin * cout * kt * kf + cout


def norm_act_p(c):
    return 3 * c  # gamma + beta + prelu slope


def glu_p(cin, c, kt, kf):
    return 2 * conv_p(cin, c, kt, kf) + norm_act_p(c)


def unet_p(c, depth, kf):
    if depth == 0:
        return 0
    down = conv_p(c, c, 1, kf) + norm_act_p(c)
    up_first = conv_p(c, c, 1, kf) + norm_act_p(c)
    up_rest = conv_p(2 * c, c, 1, kf) + norm_act_p(c)
    return depth * down + up_first + (depth - 1) * up_rest


def temporal_block_p(wide, squeeze, kernel):
    return (
        conv_p(wide, squeeze, 1, 1)
        + norm_act_p(squeeze)
        + conv_p(squeeze, squeeze, kernel, 1)
        + norm_act_p(squeeze)
        + conv_p(squeeze, wide, 1, 1)
    )


def lstm_p(inputs, hidden):
    return 4 * hidden * inputs + 4 * hidden * hidden + 4 * hidden


def head_p(cfg):
    c, out = cfg.embedding_channels, cfg.head_output_channels
    h = cfg.lstm_hidden
    total = 2 * c + lstm_p(c, h) + (LSTM_LAYERS - 1) * lstm_p(h, h)
    return total + (h * h + h) + (h * out + out)


def expected_parameters(cfg: ModelConfig) -> int:
    c = cfg.embedding_channels
    kt, kf = GLU_KERNEL
    widths = cfg.encoder_widths()
    total = glu_p(cfg.input_channels, c, kt, kf)
    total += (cfg.encoder_layers - 1) * glu_p(c, c, kt, kf)
    for depth in cfg.unet_block_depths_encoder:
        total += unet_p(c, depth, UNET_KERNEL[1])
    wide = c * widths[-1]
    total += (
        cfg.stcn_groups
        * cfg.stcm_per_group
        * temporal_block_p(wide, cfg.stcm_squeeze_channels, STCM_KERNEL)
    )
    total += cfg.encoder_layers * glu_p(2 * c, c, kt, kf)
    for depth in cfg.unet_block_depths_decoder:
        total += unet_p(c, depth, UNET_KERNEL[1])
    return total + head_p(cfg)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ModelConfig()
        assert cfg.mics == 9
        assert cfg.input_channels == 18
        assert cfg.head_output_channels == 18
        assert cfg.multi_output is True

    def test_width_chain(self):
        assert ModelConfig().encoder_widths() == [161, 80, 40, 20, 10, 5]
        assert downsampled_width(161, 3, 2) == 80

    def test_depth_list_length_rejected(self):
        with pytest.raises(ConfigError, match="one depth per layer"):
            ModelConfig(unet_block_depths_encoder=(4, 3))

    def test_unknown_bf_type_rejected(self):
        with pytest.raises(ConfigError, match="bf_type"):
            ModelConfig(bf_type="fancy")

    def test_mask_with_multi_output_rejected(self):
        with pytest.raises(ConfigError, match="multi_output"):
            ModelConfig(bf_type="mask", multi_output=True)

    def test_mask_defaults_to_single_output(self):
        cfg = ModelConfig(bf_type="mask")
        assert cfg.multi_output is False
        assert cfg.head_output_channels == 2

    def test_exhausted_width_chain_names_layer(self):
        # 161 -> 80 -> 40 -> 20 -> 10 -> 5 -> 2; layer 7 would hit width 1.
        with pytest.raises(ConfigError, match="encoder layer 7"):
            ModelConfig(
                encoder_layers=8,
                unet_block_depths_encoder=(0,) * 8,
                unet_block_depths_decoder=(0,) * 8,
            )

    def test_deep_subunet_names_stage(self):
        with pytest.raises(ConfigError, match="sub-unet stage 6"):
            ModelConfig(
                encoder_layers=1,
                unet_block_depths_encoder=(6,),
                unet_block_depths_decoder=(0,),
            )

    def test_dilation_count_must_match(self):
        with pytest.raises(ConfigError, match="stcm_dilations"):
            ModelConfig(stcm_dilations=(1, 2))

    def test_dict_round_trip_through_json(self):
        cfg = tiny_config()
        restored = ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert restored == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown model config fields"):
            ModelConfig.from_dict({"mics": 2, "warp_factor": 9})


class TestParameterCount:
    def test_default_matches_hand_enumeration(self):
        # Hand total: encoder 14,144 + 4*49,472 + (137,216+99,840+62,464+25,088)
        # = 536,640; temporal 18*62,272 = 1,120,896; decoder 5*98,624 +
        # 324,608 = 817,728; recurrent head 71,506.  Sum = 2,546,770.
        cfg = ModelConfig()
        model = build_model(cfg, seed=0)
        assert expected_parameters(cfg) == 2_546_770
        assert model.num_parameters() == 2_546_770

    def test_default_in_published_band(self):
        count = expected_parameters(ModelConfig())
        assert 0.85 * 2.84e6 <= count <= 1.15 * 2.84e6

    def test_tiny_matches_hand_enumeration(self):
        # Encoder 424 + 2*808 + (1,088+448) = 3,576; temporal 2*6,688 =
        # 13,376; decoder 3*1,576 + (448+1,088) = 6,264; head 4,068.
        cfg = tiny_config()
        assert expected_parameters(cfg) == 27_284
        assert build_model(cfg, seed=3).num_parameters() == 27_284

    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(bf_type="mask"),
            ModelConfig(unet_block_depths_encoder=(0,) * 5, unet_block_depths_decoder=(0,) * 5),
            ModelConfig(bf_type="recurrent", multi_output=False),
            tiny_config(),
        ],
        ids=["mask", "no-unet", "recurrent-single", "tiny"],
    )
    def test_variants_match_formula(self, cfg):
        assert build_model(cfg, seed=1).num_parameters() == expected_parameters(cfg)

    def test_seeded_build_is_deterministic(self):
        a = build_model(tiny_config(), seed=7)
        b = build_model(tiny_config(), seed=7)
        c = build_model(tiny_config(), seed=8)
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)
        assert any(
            np.any(pa.data != pc.data)
            for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters())
        )


class TestFrequencyUnet:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_shape_preserved_at_width_80(self, depth):
        rng = np.random.default_rng(depth)
        unet = FrequencyUnet(4, depth, 80, Initializer(depth))
        x = Tensor(rng.standard_normal((1, 4, 3, 80)))
        assert unet(x).shape == x.shape

    def test_residual_identity_when_head_zeroed(self):
        # Zeroing the final upsampling conv makes the block output exactly
        # zero (the affine shift of the following norm initializes to 0),
        # so the residual connection passes the input through unchanged.
        rng = np.random.default_rng(9)
        unet = FrequencyUnet(4, 2, 40, Initializer(2))
        unet.ups[-1].deconv.weight.data[:] = 0.0
        unet.ups[-1].deconv.bias.data[:] = 0.0
        x = Tensor(rng.standard_normal((2, 4, 3, 40)))
        np.testing.assert_array_equal(unet(x).data, 0.0)
        np.testing.assert_array_equal((unet(x) + x).data, x.data)

    def test_per_frame_independence(self):
        # Time kernel 1 everywhere: corrupting one frame changes only it.
        rng = np.random.default_rng(10)
        unet = FrequencyUnet(3, 2, 40, Initializer(4))
        x = rng.standard_normal((1, 3, 5, 40))
        base = unet(Tensor(x)).data
        poked = x.copy()
        poked[:, :, 2, :] += 1.0
        out = unet(Tensor(poked)).data
        frames = list(range(5))
        frames.remove(2)
        np.testing.assert_array_equal(out[:, :, frames, :], base[:, :, frames, :])
        assert np.any(out[:, :, 2, :] != base[:, :, 2, :])


class TestModelGeometry:
    def test_smoke_single_layer_model(self):
        cfg = ModelConfig(
            mics=2,
            embedding_channels=4,
            encoder_layers=1,
            unet_block_depths_encoder=(0,),
            unet_block_depths_decoder=(0,),
            stcn_groups=1,
            stcm_per_group=1,
            stcm_dilations=(1,),
            stcm_squeeze_channels=8,
            lstm_hidden=8,
        )
        model = build_model(cfg, seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal((1, 4, 32, 161)))
        out = model.forward(x)
        assert out.shape == (1, 2, 32, 161)

    def test_embedding_restores_frequency_resolution(self):
        model = build_model(tiny_config(), seed=0)
        x = Tensor(np.random.default_rng(1).standard_normal((1, 4, 6, 161)))
        emb = model.embed(x)
        assert emb.shape == (1, 8, 6, 161)

    def test_enhance_shape_contract(self):
        rng = np.random.default_rng(2)
        model = build_model(tiny_config(), seed=0)
        spec = random_spec(rng, frames=7, chans=2)
        out = model.enhance_spectrogram(spec)
        assert out.data.shape == (161, 7, 1)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ConfigError, match="channels"):
            model.enhance_spectrogram(random_spec(rng, chans=3))

    def test_full_forward_graph_size(self, monkeypatch):
        # Counts every op node one no-grad forward creates: norm + PReLU
        # is one node, each gated layer runs one (de)conv over weights
        # stored stacked and one GLU, and convolutions pad inside the op.
        model = build_model(ModelConfig(), seed=0)
        ops = []
        make = Tensor._result

        def counted(data, parents, backward_fn, op):
            ops.append(op)
            return make(data, parents, backward_fn, op)

        monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
        with no_grad():
            model.forward(Tensor(np.zeros((1, 18, 4, 161))))
        assert len(ops) <= 345

    def test_training_step_memory(self):
        # tracemalloc counts numpy's buffers, so both figures are exact
        # and repeat: the arrays the graph holds at the loss, and the peak
        # while backward consumes it.  They bound what each node keeps.
        model = build_model(tiny_config(), seed=0)
        rng = np.random.default_rng(0)
        planes = Tensor(rng.standard_normal((2, 4, 201, 161)))
        target = Tensor(rng.standard_normal((2, 2, 201, 161)))
        tracemalloc.start()
        try:
            total, _, _ = loss_tensors(model.forward(planes), target)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 126 * 2**20
        assert peak <= 139 * 2**20

    def test_no_backward_closure_holds_a_tensor(self):
        # Closures capture graph nodes and the arrays they read, never an
        # input tensor, whose data the graph would then keep alive.
        model = build_model(tiny_config(), seed=0)
        rng = np.random.default_rng(1)
        out = model.forward(Tensor(rng.standard_normal((1, 4, 20, 161))))
        total, _, _ = loss_tensors(out, Tensor(rng.standard_normal(out.shape)))
        nodes, stack, seen = [], [total._node], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        closures = [n._backward_fn for n in nodes if n._backward_fn is not None]
        assert len(closures) > 100
        for fn in closures:
            for cell in fn.__closure__ or ():
                try:
                    contents = cell.cell_contents
                except ValueError:  # a name the op binds only on some paths
                    continue
                assert not isinstance(contents, Tensor), fn.__qualname__

    def test_norm_act_is_one_node(self):
        model = build_model(tiny_config(), seed=0)
        post = model.encoder[0].post
        x = Tensor(np.ones((1, 8, 2, 80)), requires_grad=True)
        out = post(x)
        assert out._op == "axis_norm"
        assert out._parents == (x, post.gamma, post.beta, post.alpha)

    @pytest.mark.parametrize(
        "layer_cls,attr,branch_cls,weight_axis,in_ch,width",
        [
            (GatedConvLayer, "conv", Conv2d, 0, 4, 80),
            (GatedDeconvLayer, "deconv", ConvTranspose2d, 1, 16, 20),
        ],
        ids=["conv", "deconv"],
    )
    def test_stacked_gated_layer_equals_two_branches(
        self, layer_cls, attr, branch_cls, weight_axis, in_ch, width
    ):
        # The layer draws linear weight, linear bias, gate weight, gate
        # bias and then its refiner, so two branch layers and a refiner
        # built in that order from the same seed hold the same numbers,
        # and the GLU of the branches is the stacked layer's gated output.
        layer = layer_cls(in_ch, 8, 1, 40, Initializer(21))
        init = Initializer(21)
        linear, gate = (
            branch_cls(in_ch, 8, GLU_KERNEL, init, stride=FREQ_STRIDE) for _ in range(2)
        )
        refiner = FrequencyUnet(8, 1, 40, init)
        stacked = getattr(layer, attr)
        np.testing.assert_array_equal(
            stacked.weight.data,
            np.concatenate([linear.weight.data, gate.weight.data], axis=weight_axis),
        )
        np.testing.assert_array_equal(
            stacked.bias.data, np.concatenate([linear.bias.data, gate.bias.data])
        )
        for (name, ours), (_, theirs) in zip(
            layer.refiner.named_parameters(), refiner.named_parameters(), strict=True
        ):
            np.testing.assert_array_equal(ours.data, theirs.data, err_msg=name)
        x = Tensor(np.random.default_rng(21).standard_normal((2, in_ch, 5, width)))
        ours = split_glu(stacked(x)).data
        theirs = glu(linear(x), gate(x)).data
        assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(theirs).max()

    def test_zero_input_is_deterministic_bias_response(self):
        model = build_model(tiny_config(), seed=5)
        x = Tensor(np.zeros((1, 4, 5, 161)))
        a = model.embed(x).data
        b = model.embed(Tensor(np.zeros((1, 4, 5, 161)))).data
        np.testing.assert_array_equal(a, b)
        assert np.any(a != 0.0)  # biases respond


class TestCausality:
    @pytest.mark.parametrize("t0", [1, 12, 23])
    def test_embedding_weights_output_prefixes_frozen(self, t0):
        rng = np.random.default_rng(t0)
        model = build_model(tiny_config(), seed=11)
        frames = 24
        x = rng.standard_normal((1, 4, frames, 161))
        poked = x.copy()
        poked[:, :, t0 + 1 :, :] = rng.standard_normal(
            (1, 4, frames - t0 - 1, 161)
        )
        emb_a = model.embed(Tensor(x))
        emb_b = model.embed(Tensor(poked))
        np.testing.assert_array_equal(
            emb_a.data[:, :, : t0 + 1], emb_b.data[:, :, : t0 + 1]
        )
        w_a, w_b = model.beam_weights(emb_a), model.beam_weights(emb_b)
        np.testing.assert_array_equal(
            w_a.data[:, :, : t0 + 1], w_b.data[:, :, : t0 + 1]
        )
        out_a = filter_and_sum_ri(w_a, Tensor(x)).data
        out_b = filter_and_sum_ri(w_b, Tensor(poked)).data
        np.testing.assert_array_equal(out_a[:, :, : t0 + 1], out_b[:, :, : t0 + 1])

    def test_impulse_response_starts_at_impulse_frame(self):
        # Relative to the all-zero bias response, an input impulse at
        # frame t0 must not alter any earlier frame of the embedding but
        # must alter some frame >= t0.
        model = build_model(tiny_config(), seed=13)
        t0, frames = 3, 8
        zero = model.embed(Tensor(np.zeros((1, 4, frames, 161)))).data
        x = np.zeros((1, 4, frames, 161))
        x[:, :, t0, :] = 1.0
        probed = model.embed(Tensor(x)).data
        np.testing.assert_array_equal(probed[:, :, :t0], zero[:, :, :t0])
        assert np.any(probed[:, :, t0:] != zero[:, :, t0:])


class TestHeads:
    def test_recurrent_head_is_frequency_shared(self):
        rng = np.random.default_rng(1)
        head = RecurrentSubbandHead(8, 16, 4, Initializer(1))
        emb = rng.standard_normal((1, 8, 6, 10))
        base = head(Tensor(emb)).data
        perm = rng.permutation(10)
        permuted = head(Tensor(emb[:, :, :, perm])).data
        np.testing.assert_allclose(permuted, base[:, :, :, perm], atol=1e-14)

    def test_recurrent_head_is_causal(self):
        rng = np.random.default_rng(2)
        head = RecurrentSubbandHead(8, 16, 4, Initializer(1))
        emb = rng.standard_normal((1, 8, 6, 5))
        full = head(Tensor(emb)).data
        truncated = head(Tensor(emb[:, :, :4, :])).data
        np.testing.assert_array_equal(full[:, :, :4, :], truncated)

    def test_mask_config_emits_two_planes(self):
        model = build_model(
            ModelConfig(
                mics=2,
                embedding_channels=8,
                encoder_layers=3,
                unet_block_depths_encoder=(2, 1, 0),
                unet_block_depths_decoder=(1, 2, 0),
                stcn_groups=1,
                stcm_per_group=2,
                stcm_dilations=(1, 2),
                stcm_squeeze_channels=16,
                lstm_hidden=16,
                bf_type="mask",
            ),
            seed=0,
        )
        x = Tensor(np.random.default_rng(0).standard_normal((1, 4, 5, 161)))
        weights = model.beam_weights(model.embed(x))
        assert weights.shape == (1, 2, 5, 161)
        assert model.forward(x).shape == (1, 2, 5, 161)


class TestFilterAndSum:
    def test_hand_case(self):
        # Two channels: weights (1, j), mixture (1+j, 2):
        # conj(1)(1+j) + conj(j)(2) = 1+j - 2j = 1-j.
        data = np.zeros((2, 1, 2), dtype=complex)
        data[0, 0] = [1 + 1j, 2 + 0j]
        weights = np.zeros((2, 1, 2), dtype=complex)
        weights[0, 0] = [1 + 0j, 0 + 1j]
        out = filter_and_sum(weights, ComplexSpectrogram(data, fft_size=2))
        assert out.data.shape == (2, 1, 1)
        assert out.data[0, 0, 0] == pytest.approx(1 - 1j)
        assert out.data[1, 0, 0] == 0.0

    def test_selector_recovers_reference(self):
        rng = np.random.default_rng(0)
        spec = random_spec(rng, freq=5, frames=4, chans=3)
        weights = np.zeros((5, 4, 3), dtype=complex)
        weights[:, :, 0] = 1.0
        out = filter_and_sum(weights, spec)
        np.testing.assert_array_equal(out.data[:, :, 0], spec.data[:, :, 0])

    def test_linearity_in_mixture(self):
        rng = np.random.default_rng(1)
        spec_x = random_spec(rng, freq=5, frames=4, chans=3)
        spec_y = random_spec(rng, freq=5, frames=4, chans=3)
        weights = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        a, b = 1.7, -0.4 + 0.9j
        combo = spec_x.with_data(a * spec_x.data + b * spec_y.data)
        lhs = filter_and_sum(weights, combo).data
        rhs = a * filter_and_sum(weights, spec_x).data + b * filter_and_sum(
            weights, spec_y
        ).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        spec = random_spec(rng, freq=5, frames=4, chans=3)
        with pytest.raises(ValidationError, match="shape"):
            filter_and_sum(np.zeros((5, 4, 2)), spec)

    def test_tensor_route_matches_complex_route(self):
        # Same arithmetic through the real-plane training path and the
        # complex numpy path.
        rng = np.random.default_rng(3)
        spec = random_spec(rng, freq=6, frames=5, chans=4)
        weights = rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4))
        complex_out = filter_and_sum(weights, spec).data[:, :, 0]

        w_spec = spec.with_data(weights)
        planes = filter_and_sum_ri(
            Tensor(ri_stack(w_spec)[None]), Tensor(ri_stack(spec)[None])
        ).data[0]
        tensor_out = planes[0].T + 1j * planes[1].T
        np.testing.assert_allclose(tensor_out, complex_out, atol=1e-12)

    def test_ri_stack_unstack_round_trip(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng, freq=5, frames=3, chans=1)
        planes = ri_stack(spec)
        assert planes.shape == (2, 3, 5)
        back = ri_unstack(planes, spec)
        np.testing.assert_array_equal(back.data, spec.data)

    def test_too_many_filters_rejected(self):
        with pytest.raises(ValidationError, match="filters"):
            filter_and_sum_ri(
                Tensor(np.zeros((1, 6, 2, 3))), Tensor(np.zeros((1, 4, 2, 3)))
            )


def force_identity_mask(model: NeuralBeamformer):
    """Pin the mask head so it always emits the complex mask 1+0j."""
    model.head.fc_out.weight.data[:] = 0.0
    model.head.fc_out.bias.data[:] = np.array([1.0, 0.0])


class TestEnhancePipeline:
    def mask_model(self, seed=0):
        cfg = ModelConfig(
            mics=2,
            embedding_channels=8,
            encoder_layers=3,
            unet_block_depths_encoder=(2, 1, 0),
            unet_block_depths_decoder=(1, 2, 0),
            stcn_groups=1,
            stcm_per_group=2,
            stcm_dilations=(1, 2),
            stcm_squeeze_channels=16,
            lstm_hidden=16,
            bf_type="mask",
        )
        return build_model(cfg, seed=seed)

    def test_unit_mask_returns_compressed_reference(self):
        rng = np.random.default_rng(5)
        model = self.mask_model()
        force_identity_mask(model)
        spec = random_spec(rng, frames=6, chans=2)
        out = model.enhance_spectrogram(spec)
        expected = compress(spec, 0.5).data[:, :, :1]
        np.testing.assert_array_equal(out.data, expected)

    def test_geometry_fields_survive(self):
        rng = np.random.default_rng(9)
        model = self.mask_model()
        cfg = StftConfig()
        data = rng.standard_normal((161, 5, 2)) + 1j * rng.standard_normal((161, 5, 2))
        spec = ComplexSpectrogram(
            data,
            frame_shift=cfg.frame_shift,
            frame_length=cfg.frame_length,
            fft_size=cfg.fft_size,
            num_samples=700,
        )
        out = model.enhance_spectrogram(spec)
        assert out.fft_size == 320
        assert out.num_samples == 700


class TestGradientFlow:
    def test_every_parameter_receives_gradient(self):
        rng = np.random.default_rng(14)
        model = build_model(tiny_config(), seed=21)
        touched = {name: False for name, _ in model.named_parameters()}
        for _ in range(5):
            model.zero_grad()
            x = Tensor(rng.standard_normal((1, 4, 5, 161)))
            out = model.forward(x)
            (out * out).sum().backward()
            for name, p in model.named_parameters():
                if p.grad is not None and np.any(p.grad != 0.0):
                    touched[name] = True
        dead = sorted(name for name, hit in touched.items() if not hit)
        assert not dead, f"parameters with no gradient over 5 trials: {dead}"


class TestCheckpointing:
    def test_forward_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(15)
        cfg = tiny_config()
        model = build_model(cfg, seed=31)
        path = tmp_path / "model.ckpt"
        save_checkpoint(
            path,
            {name: p.data for name, p in model.named_parameters()},
            {"model": cfg.to_dict()},
        )
        tensors, meta = load_checkpoint(path)
        restored_cfg = ModelConfig.from_dict(meta["model"])
        fresh = build_model(restored_cfg, seed=99)
        fresh.load_state_dict(tensors)
        x = rng.standard_normal((1, 4, 5, 161))
        np.testing.assert_array_equal(
            model.forward(Tensor(x)).data, fresh.forward(Tensor(x)).data
        )
