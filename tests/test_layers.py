"""Layer semantics, model construction, variant invariants, checkpoints."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from uqnet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from uqnet.layers import (
    LayerSpec,
    ModelSpec,
    VARIANTS,
    build_model,
    body_forward,
    dropout,
    forward_range,
    infer_shapes,
    miniresnet_spec,
    mlp_spec,
    model_forward,
    validate_spec,
)
from uqnet.rng import NS_EVAL_DROPOUT, PassRng
from uqnet.tensor import Tensor, check_gradient


class _AllKeep:
    """Stub stream whose draws never fall below the dropout rate."""

    def random(self, shape):
        return np.full(shape, 0.99)


def _edit_header(path, edit):
    """Rewrite the checkpoint at ``path`` with its JSON header replaced by ``edit(header)``."""
    raw = path.read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    blob = json.dumps(edit(json.loads(raw[16:16 + n])), sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + n:])


def _without_dtype(spec_dict):
    """A header's spec as a writer from before the dtype key wrote it."""
    return {k: v for k, v in spec_dict.items() if k != "dtype"}


def _with_unknown_layer_field(header):
    header["spec"]["layers"][0]["width"] = 3
    return header


class _CountingRng(PassRng):
    def __init__(self, seed, pass_index):
        super().__init__(seed, pass_index, NS_EVAL_DROPOUT)
        self.layers_touched = []

    def layer(self, layer_index):
        self.layers_touched.append(layer_index)
        return super().layer(layer_index)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        for gen in (None, _AllKeep()):
            out = dropout(x, 0.0, gen)
            np.testing.assert_array_equal(out.data, x.data)

    def test_eval_deterministic_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = dropout(x, 0.9, None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_keep_mask_scales_by_two(self):
        x = Tensor(np.arange(1.0, 7.0).reshape(2, 3))
        out = dropout(x, 0.5, _AllKeep())
        np.testing.assert_allclose(out.data, 2.0 * x.data)

    def test_invalid_rate(self):
        x = Tensor([1.0])
        with pytest.raises(ValueError):
            dropout(x, 1.0, _AllKeep())
        with pytest.raises(ValueError):
            dropout(x, -0.1, _AllKeep())

    def test_deterministic_mode_gradient_is_identity(self):
        err = check_gradient(
            lambda x: dropout(x, 0.5, None).sum(),
            np.random.default_rng(0).normal(size=6),
        )
        assert err < 1e-4

    def test_expectation_matches_deterministic_linear_model(self):
        # purely linear model: E[dropout(x) @ W] = x @ W; Monte Carlo oracle
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 8)))
        w = rng.normal(size=(8, 4))
        det = x.data @ w

        def mc_mean(n):
            gen = np.random.default_rng(1234)
            acc = np.zeros((1, 4))
            for _ in range(n):
                acc += dropout(x, 0.5, gen).data @ w
            return acc / n

        dev100 = np.linalg.norm(mc_mean(100) - det) / np.linalg.norm(det)
        dev10k = np.linalg.norm(mc_mean(10_000) - det) / np.linalg.norm(det)
        assert dev10k < 0.05
        # convergence consistent with 1/sqrt(n): 100x samples, ~10x tighter
        assert dev10k < dev100 / 3.0


class TestSpecs:
    def test_bayesian1_has_single_dropout_before_head(self):
        spec = mlp_spec(2, variant="bayesian1")
        positions = spec.dropout_positions()
        assert positions == [len(spec.layers) - 1]

    def test_bayesian2_has_dropout_before_every_block_plus_head(self):
        spec = miniresnet_spec(variant="bayesian2")
        n_blocks = sum(1 for l in spec.layers if l.kind == "residual-block")
        assert len(spec.dropout_positions()) == n_blocks + 1

    def test_baseline_and_variational_have_no_dropout(self):
        for variant in ("baseline", "variational"):
            assert mlp_spec(2, variant=variant).dropout_positions() == []

    def test_misplaced_dropout_rejected(self):
        good = mlp_spec(2, variant="bayesian1")
        bad = ModelSpec(good.layers[:-1] + (LayerSpec("dropout", p=0.5), LayerSpec("relu")),
                        good.n_classes, good.input_shape, "bayesian1", "mlp")
        with pytest.raises(ValueError, match="bayesian1"):
            validate_spec(bad)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("preset", [lambda v: mlp_spec(2, variant=v),
                                        lambda v: miniresnet_spec((1, 8, 8), variant=v)],
                             ids=["mlp", "miniresnet"])
    def test_placement_rule_accepts_presets_and_rejects_any_other(self, preset, variant):
        spec = preset(variant)
        validate_spec(spec)
        drop = LayerSpec("dropout", p=0.5)
        layers = list(spec.layers)
        others = []
        for i in range(len(layers) + 1):   # add one dropout anywhere
            others.append(layers[:i] + [drop] + layers[i:])
        for d in spec.dropout_positions():
            rest = layers[:d] + layers[d + 1:]
            others.append(rest)           # drop one
            for i in range(len(rest) + 1):   # or move it anywhere else
                others.append(rest[:i] + [layers[d]] + rest[i:])
        kinds = [l.kind for l in layers]
        for other in others:
            if [l.kind for l in other] == kinds:
                continue   # moving a dropout to where it was, or past another dropout
            with pytest.raises(ValueError, match=f"{variant} dropout placement"):
                validate_spec(ModelSpec(tuple(other), spec.n_classes, spec.input_shape,
                                        variant, spec.backbone))

    @pytest.mark.parametrize("layer, message", [
        (LayerSpec("linear", in_dim=3, out_dim=0), "linear layer needs out_dim >= 1, got 0"),
        (LayerSpec("linear", in_dim=-3, out_dim=4), "linear layer needs in_dim >= 1, got -3"),
        (LayerSpec("linear", out_dim=4), "linear layer needs in_dim >= 1, got None"),
        (LayerSpec("conv3x3", in_ch=1, out_ch=-8), "conv3x3 layer needs out_ch >= 1, got -8"),
        (LayerSpec("residual-block", block="conv", in_ch=0, out_ch=8),
         "residual-block layer needs in_ch >= 1, got 0"),
        (LayerSpec("residual-block", block="fc", in_dim=-1),
         "residual-block layer needs in_dim >= 1, got -1"),
    ])
    def test_nonpositive_widths_rejected_by_name(self, layer, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            layer.validate()

    def test_inconsistent_shapes_rejected(self):
        spec = ModelSpec(
            (LayerSpec("linear", in_dim=3, out_dim=4), LayerSpec("linear", in_dim=5, out_dim=2)),
            4, (3,), "baseline", "mlp")
        with pytest.raises(ValueError):
            validate_spec(spec)

    def test_residual_blocks_preserve_shape(self):
        spec = miniresnet_spec((1, 12, 12), variant="baseline")
        shapes = infer_shapes(spec)
        for layer, before, after in zip(spec.layers, shapes, shapes[1:]):
            if layer.kind == "residual-block":
                assert after[1:] == before[1:]  # spatial size preserved
                if layer.in_ch == layer.out_ch:
                    assert after == before


class TestBuildModel:
    def test_deterministic_in_spec_and_seed(self):
        spec = miniresnet_spec(variant="bayesian2")
        a = build_model(spec, 42)
        b = build_model(spec, 42)
        assert a.names() == b.names()
        for name in a.names():
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_init_variance_matches_he_target(self):
        # fan_in 100 -> weight variance 2/100 = 0.02, within 20% across seeds
        spec = ModelSpec((LayerSpec("linear", in_dim=100, out_dim=50),), 4, (100,), "baseline", "mlp")
        draws = [build_model(spec, s)["body.0.w"].data.ravel() for s in range(12)]
        var = np.concatenate(draws).var()
        assert abs(var - 0.02) < 0.2 * 0.02

    def test_biases_are_zero(self):
        params = build_model(mlp_spec(2, variant="baseline"), 3)
        for name, t in params.tensors.items():
            if name.endswith(".b"):
                assert not t.data.any()

    def test_dropout_is_parameter_free(self):
        base = build_model(mlp_spec(2, variant="baseline"), 0)
        b1 = build_model(mlp_spec(2, variant="bayesian1"), 0)
        assert base.n_parameters() == b1.n_parameters()

    def test_variants_share_parameter_tensors(self):
        # only (parameter-free) dropout placement differs, so the parameter
        # tensors must be bit-identical; layer indices shift, so match by order
        seed = 11

        def ordered_bodies(params):
            keyed = [(int(n.split(".")[1]), n, t.data) for n, t in params.tensors.items()
                     if n.startswith("body.")]
            return [data for _, _, data in sorted(keyed, key=lambda kv: (kv[0], kv[1]))]

        base = ordered_bodies(build_model(mlp_spec(2, variant="baseline"), seed))
        for variant in ("bayesian1", "bayesian2"):
            other = ordered_bodies(build_model(mlp_spec(2, variant=variant), seed))
            assert len(base) == len(other)
            for x, y in zip(base, other):
                np.testing.assert_array_equal(x, y)

    def test_variational_mu_head_matches_baseline_head(self):
        seed = 5
        base = build_model(mlp_spec(2, variant="baseline"), seed)
        var = build_model(mlp_spec(2, variant="variational"), seed)
        np.testing.assert_array_equal(base["head.fc.w"].data, var["head.mu.w"].data)


def _reference_forward(params, spec, x, pass_rng):
    """A standard-head MiniResNet forward in plain NCHW numpy: einsum
    convolutions over sliding windows, masks drawn from ``pass_rng``."""
    def conv(h, prefix):
        w, b = params[f"{prefix}.w"].data, params[f"{prefix}.b"].data
        k = w.shape[-1]
        hp = np.pad(h, ((0, 0), (0, 0), (k // 2, k // 2), (k // 2, k // 2)))
        windows = np.lib.stride_tricks.sliding_window_view(hp, (k, k), axis=(2, 3))
        return np.einsum("nchwyx,ocyx->nohw", windows, w) + b[None, :, None, None]

    h = x
    for i, layer in enumerate(spec.layers):
        prefix = f"body.{i}"
        if layer.kind == "conv3x3":
            h = conv(h, prefix)
        elif layer.kind == "relu":
            h = np.maximum(h, 0.0)
        elif layer.kind == "dropout":
            h = h * ((pass_rng.layer(i).random(h.shape) >= layer.p) / (1.0 - layer.p))
        elif layer.kind == "residual-block":
            y = conv(np.maximum(conv(h, f"{prefix}.conv1"), 0.0), f"{prefix}.conv2")
            shortcut = conv(h, f"{prefix}.proj") if layer.in_ch != layer.out_ch else h
            h = np.maximum(y + shortcut, 0.0)
        elif layer.kind == "global-avg-pool":
            h = h.mean(axis=(2, 3))
    return h @ params["head.fc.w"].data + params["head.fc.b"].data


class TestModelForward:
    def test_miniresnet_matches_nchw_reference_up_to_rounding(self):
        # conv2d computes in channels-last memory; the masks are still drawn
        # in NCHW order, so only the rounding of the sums may differ. The
        # preset computes its convs in float32; this pins the float64 path.
        spec = replace(miniresnet_spec((1, 16, 16), n_classes=4, variant="bayesian2"),
                       dtype="float64")
        params = build_model(spec, 7)
        x = np.random.default_rng(8).normal(size=(3, 1, 16, 16))
        got = model_forward(params, spec, x, PassRng(5, 1)).data
        want = _reference_forward(params, spec, x, PassRng(5, 1))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_float32_miniresnet_matches_nchw_reference_to_float32_rounding(self):
        # The body is float32 from the input cast to the pooled features,
        # and each activation it stores is one float32 rounding (relative
        # error u = eps32/2): the input cast, each conv's output (its
        # products summed in float32 with float32-rounded weights), each
        # residual add and the pooled mean. relu is exact, and so is
        # dropout's scaling by 1/(1-p) = 2. The deepest path (the stem, then
        # conv1, conv2 and the add in each of three blocks, then the
        # pooling) stores 12 roundings on top of the sums of its 7 convs,
        # and these add up layer by layer; the head is float64. So the
        # logits may differ from the float64 reference by a few eps32 of
        # their largest magnitude. This is an estimate, not a worst case:
        # the bound allows 7 eps32, and the preset measures 0.29 eps32.
        spec = miniresnet_spec((1, 16, 16), n_classes=4, variant="bayesian2")
        assert spec.dtype == "float32"
        convs = sum({"conv3x3": 1, "residual-block": 2}.get(layer.kind, 0) for layer in spec.layers)
        params = build_model(spec, 7)
        x = np.random.default_rng(8).normal(size=(3, 1, 16, 16))
        got = model_forward(params, spec, x, PassRng(5, 1)).data
        want = _reference_forward(params, spec, x, PassRng(5, 1))
        atol = convs * np.finfo(np.float32).eps * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        assert not np.array_equal(got, model_forward(params, replace(spec, dtype="float64"),
                                                     x, PassRng(5, 1)).data)

    def test_zero_input_baseline_logits(self):
        spec = miniresnet_spec((1, 16, 16), n_classes=4)
        params = build_model(spec, 0)
        logits = model_forward(params, spec, np.zeros((1, 16, 16)))
        assert logits.shape == (1, 4)
        assert np.all(np.isfinite(logits.data))

    def test_eval_sampling_frozen_rng_is_deterministic(self):
        spec = mlp_spec(2, variant="bayesian2")
        params = build_model(spec, 1)
        x = np.random.default_rng(2).normal(size=(3, 2))
        a = model_forward(params, spec, x, PassRng(9, 0)).data
        b = model_forward(params, spec, x, PassRng(9, 0)).data
        np.testing.assert_array_equal(a, b)

    def test_eval_deterministic_is_bit_identical(self):
        spec = miniresnet_spec((1, 8, 8))
        params = build_model(spec, 4)
        x = np.random.default_rng(3).normal(size=(2, 1, 8, 8))
        a = model_forward(params, spec, x).data
        b = model_forward(params, spec, x).data
        np.testing.assert_array_equal(a, b)

    def test_bayesian2_applies_block_count_plus_one_dropouts(self):
        spec = miniresnet_spec(variant="bayesian2")
        n_blocks = sum(1 for l in spec.layers if l.kind == "residual-block")
        params = build_model(spec, 6)
        counter = _CountingRng(0, 0)
        model_forward(params, spec, np.zeros((1, 16, 16)), counter)
        assert len(counter.layers_touched) == n_blocks + 1

    def test_stochastic_mode_requires_rng(self):
        # The pass stream is the only dropout switch: with it the forward
        # samples masks, without it every dropout is the identity.
        spec = mlp_spec(2, variant="bayesian1")
        params = build_model(spec, 0)
        x = np.random.default_rng(4).normal(size=(3, 2))
        plain = model_forward(params, spec, x).data
        counter = _CountingRng(3, 0)
        sampled = model_forward(params, spec, x, counter).data
        assert counter.layers_touched == spec.dropout_positions()
        assert not np.array_equal(sampled, plain)
        np.testing.assert_array_equal(model_forward(params, spec, x).data, plain)

    def test_variational_spec_rejected(self):
        spec = mlp_spec(2, variant="variational")
        params = build_model(spec, 0)
        with pytest.raises(ValueError, match="head_forward or eval_heads"):
            model_forward(params, spec, np.zeros((1, 2)))

    def test_shape_mismatch_rejected(self):
        spec = mlp_spec(2)
        params = build_model(spec, 0)
        with pytest.raises(ValueError):
            model_forward(params, spec, np.zeros((1, 3)))


class TestForwardRange:
    """A body pass split at any layer is the same pass, bit for bit."""

    SPECS = [(backbone, variant) for backbone in ("mlp", "miniresnet") for variant in VARIANTS]

    @staticmethod
    def make(backbone, variant):
        if backbone == "mlp":
            spec = mlp_spec(3, variant=variant, hidden=8)
        else:
            spec = miniresnet_spec((1, 6, 6), variant=variant, channels=(4, 6, 6))
        x = np.random.default_rng(1).normal(size=(3,) + spec.input_shape)
        return spec, build_model(spec, 5), x

    @pytest.mark.parametrize("backbone,variant", SPECS)
    @pytest.mark.parametrize("sampled", [False, True])
    def test_every_split_composes_to_body_forward(self, backbone, variant, sampled):
        spec, params, x = self.make(backbone, variant)

        def pass_rng():   # one object per pass: it keeps each layer's stream
            return PassRng(9, 2) if sampled else None

        end = len(spec.layers)
        whole = body_forward(params, spec, x, pass_rng()).data
        for k in range(end + 1):
            split_pass = pass_rng()
            head = forward_range(params, spec, x, 0, k, split_pass)
            tail = forward_range(params, spec, head, k, end, split_pass)
            assert tail.data.tobytes() == whole.tobytes(), f"split at layer {k}"

    def test_stochastic_range_without_dropout_needs_no_rng(self):
        spec, params, x = self.make("miniresnet", "bayesian1")
        first = spec.dropout_positions()[0]
        counter = _CountingRng(9, 2)
        sampled = forward_range(params, spec, x, 0, first, counter)
        plain = forward_range(params, spec, x, 0, first)
        np.testing.assert_array_equal(sampled.data, plain.data)
        assert counter.layers_touched == []
        forward_range(params, spec, sampled, first, len(spec.layers), counter)
        assert counter.layers_touched == spec.dropout_positions()

    def test_range_casts_what_enters_it_to_the_spec_dtype(self):
        # spec.dtype alone sets the body's dtype: a float64 copy of a
        # float32 prefix enters the rest of the body as float32 and gives
        # the same bits as the prefix itself.
        spec, params, x = self.make("miniresnet", "bayesian2")
        assert spec.dtype == "float32"
        first, end = spec.dropout_positions()[0], len(spec.layers)
        prefix = forward_range(params, spec, x, 0, first)
        outs = [forward_range(params, spec, h, first, end, PassRng(9, 2))
                for h in (prefix, Tensor(prefix.data.astype(np.float64)))]
        assert [out.data.dtype for out in outs] == [np.float32, np.float32]
        assert outs[0].data.tobytes() == outs[1].data.tobytes()

    def test_range_outside_body_rejected(self):
        spec, params, x = self.make("mlp", "bayesian2")
        for start, stop in ((0, len(spec.layers) + 1), (3, 2), (-1, 2)):
            with pytest.raises(ValueError, match="layer range"):
                forward_range(params, spec, x, start, stop)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = miniresnet_spec(variant="bayesian1")
        params = build_model(spec, 77)
        path = tmp_path / "model.bin"
        meta = {"seed": 77, "epochs": 3, "final_loss": 0.25}
        save_checkpoint(str(path), spec, params, meta)

        spec2, params2, meta2 = load_checkpoint(str(path))
        assert spec2 == spec
        assert meta2 == meta
        assert params2.names() == sorted(params.names())
        for name in params.names():
            assert np.array_equal(params[name].data, params2[name].data)

    def test_double_save_is_byte_identical(self, tmp_path):
        spec = mlp_spec(2)
        params = build_model(spec, 1)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(str(p1), spec, params, {"epochs": 1})
        save_checkpoint(str(p2), spec, params, {"epochs": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_temp_file_left_behind(self, tmp_path):
        spec = mlp_spec(2)
        params = build_model(spec, 1)
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), spec, params)
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="offset 0"):
            load_checkpoint(str(path))

    def test_truncated_payload_detected(self, tmp_path):
        spec = mlp_spec(2)
        params = build_model(spec, 1)
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), spec, params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_array_names_the_file_and_array(self, tmp_path, value):
        spec = mlp_spec(2)
        params = build_model(spec, 1)
        params["body.0.w"].data[1, 2] = value
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), spec, params)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(str(path))
        assert str(exc.value) == f"{path}: array 'body.0.w' is not finite"

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.pop("head.fc.b"), "missing array 'head.fc.b'"),
        (lambda t: t.update({"head.fc.w": Tensor(np.zeros((3, 4)))}),
         r"array 'head.fc.w' has shape \(3, 4\), its spec needs \(64, 4\)"),
        (lambda t: t.update({"head.extra.w": Tensor(np.zeros(4))}),
         "array 'head.extra.w' is not a parameter of its spec"),
    ], ids=["missing", "wrong-shape", "extra"])
    def test_arrays_must_match_the_spec(self, tmp_path, edit, message):
        spec = mlp_spec(2)
        params = build_model(spec, 1)
        edit(params.tensors)
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), spec, params)
        with pytest.raises(CheckpointError, match=message) as exc:
            load_checkpoint(str(path))
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("edit, message", [
        (list, "header is not a JSON object"),
        (lambda h: {k: v for k, v in h.items() if k != "spec"},
         "malformed header: missing key 'spec'"),
        (_with_unknown_layer_field, "malformed header: .*unexpected keyword argument 'width'"),
        (lambda h: {**h, "meta": [1]}, "malformed header"),
        (lambda h: {**h, "spec": {**_without_dtype(h["spec"]), "conv_dtype": "float16"}},
         "malformed header: unknown dtype 'float16'"),
        (lambda h: {**h, "spec": {**h["spec"], "dtype": "float16"}},
         "malformed header: unknown dtype 'float16'"),
    ], ids=["array", "no-spec", "unknown-layer-field", "meta-array", "unknown-conv-dtype",
            "unknown-dtype"])
    def test_malformed_header_names_the_file(self, tmp_path, edit, message):
        spec = mlp_spec(2)
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), spec, build_model(spec, 1))
        _edit_header(path, edit)
        with pytest.raises(CheckpointError, match=message) as exc:
            load_checkpoint(str(path))
        assert str(exc.value).startswith(f"{path}: ")

    def _assert_loads_as_float64(self, tmp_path, spec, x):
        """A file of ``spec`` whose header holds no dtype key loads as the
        float64 spec, scores like it and saves back to the same bytes."""
        spec64 = replace(spec, dtype="float64")
        params = build_model(spec, 9)
        old, resaved = tmp_path / "old.bin", tmp_path / "resaved.bin"
        save_checkpoint(str(old), spec, params, {"epochs": 2})
        _edit_header(old, lambda h: {**h, "spec": _without_dtype(h["spec"])})
        loaded, params2, meta = load_checkpoint(str(old))
        assert loaded == spec64
        want = model_forward(params, spec64, x).data
        assert model_forward(params2, loaded, x).data.tobytes() == want.tobytes()
        save_checkpoint(str(resaved), loaded, params2, meta)
        assert resaved.read_bytes() == old.read_bytes()

    def test_header_without_conv_dtype_loads_as_float64(self, tmp_path):
        # Files written before the key existed hold neither ``dtype`` nor
        # ``conv_dtype``: their MiniResNet loads with float64 convs.
        spec = miniresnet_spec((1, 8, 8), variant="bayesian1", p=0.3)
        self._assert_loads_as_float64(tmp_path, spec, np.random.default_rng(0).normal(size=(2, 1, 8, 8)))

    def test_mlp_header_without_dtype_loads_as_float64(self, tmp_path):
        # Every MLP file written while the MLP body was float64 holds no key.
        spec = mlp_spec(3, variant="bayesian1", hidden=12)
        assert spec.dtype == "float32"
        self._assert_loads_as_float64(tmp_path, spec, np.random.default_rng(0).normal(size=(5, 3)))

    def test_header_with_the_old_conv_dtype_key_loads(self, tmp_path):
        spec = miniresnet_spec((1, 8, 8))
        path = tmp_path / "m.bin"
        save_checkpoint(str(path), spec, build_model(spec, 1))
        _edit_header(path, lambda h: {**h, "spec": {**_without_dtype(h["spec"]), "conv_dtype": "float32"}})
        assert load_checkpoint(str(path))[0] == spec

    def test_dtype_key_is_written_only_when_not_float64(self, tmp_path):
        for spec, key in ((miniresnet_spec((1, 8, 8)), "float32"), (mlp_spec(2), "float32"),
                          (replace(mlp_spec(2), dtype="float64"), None)):
            path = tmp_path / "m.bin"
            save_checkpoint(str(path), spec, build_model(spec, 1))
            raw = path.read_bytes()
            header = json.loads(raw[16:16 + int.from_bytes(raw[8:16], "little")])
            assert header["spec"].get("dtype") == key
            assert "conv_dtype" not in header["spec"]
            assert load_checkpoint(str(path))[0] == spec

    @pytest.mark.parametrize("legacy_dropout_p", [False, True])
    def test_loaded_model_produces_identical_logits(self, tmp_path, legacy_dropout_p):
        spec = miniresnet_spec((1, 8, 8), variant="bayesian1", p=0.3)
        params = build_model(spec, 9)
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
        before = model_forward(params, spec, x).data
        path = tmp_path / "m.bin"
        save_checkpoint(str(path), spec, params)
        if legacy_dropout_p:   # older writers stored a spec-level rate that readers ignore
            _edit_header(path, lambda h: {**h, "spec": {**h["spec"], "dropout_p": 0.5}})
        spec2, params2, _ = load_checkpoint(str(path))
        assert spec2 == spec
        after = model_forward(params2, spec2, x).data
        assert after.tobytes() == before.tobytes()
