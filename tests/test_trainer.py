"""Adapter architectures, optimizers, and the training loop."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from xmodal import (
    AdapterConfig,
    EmbeddingSet,
    InvalidConfigError,
    NonFiniteLossError,
    ShapeMismatchError,
    TooFewItemsError,
    TrainConfig,
    ZeroVectorError,
    adapter_forward,
    distill_loss,
    init_params,
    train_adapter,
)
from xmodal.baselines import _text_map_layers
from xmodal.rng import rng_for
from xmodal.trainer import (
    adapter_backward,
    fit,
    make_optimizer,
    mlp_backward,
    mlp_forward,
    mlp_init,
    sample_variants,
    xavier_uniform,
)

from conftest import SMALL_ADAPTER, SMALL_TRAIN


def sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestAdapterConfig:
    def test_defaults(self):
        c = AdapterConfig()
        assert c.mode == "mlp_encoder_plus_head"
        assert (c.d_in, c.d_student, c.d_teacher, c.d_hidden) == (20, 24, 32, 512)

    def test_head_in_depends_on_mode(self):
        mlp = AdapterConfig(mode="mlp_encoder_plus_head", d_in=6, d_student=9, d_teacher=7, d_hidden=5)
        lin = AdapterConfig(mode="linear_head_only", d_in=6, d_student=9, d_teacher=7, d_hidden=5)
        assert mlp.layers == (("enc1", 6, 5, True), ("enc2", 5, 9, False), ("head", 9, 7, False))
        assert lin.layers == (("head", 6, 7, False),)

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidConfigError, match="adapter mode"):
            AdapterConfig(mode="transformer")

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(InvalidConfigError):
            AdapterConfig(d_hidden=0)


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert (c.batch_size, c.epochs, c.learning_rate, c.tau) == (32, 30, 0.01, 0.07)
        assert c.optimizer == "adam"
        assert (c.beta1, c.beta2, c.adam_eps) == (0.9, 0.999, 1e-8)
        assert c.prompt_mixture is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 1},
            {"epochs": -1},
            {"learning_rate": -0.1},
            {"learning_rate": float("inf")},
            {"tau": 0.0},
            {"optimizer": "rmsprop"},
            {"momentum": 1.0},
            {"beta1": -0.1},
            {"beta2": 1.0},
            {"adam_eps": 0.0},
            {"prompt_mixture": (0.5, 0.6)},
            {"prompt_mixture": (-0.1, 1.1)},
            {"prompt_mixture": (float("nan"), 0.5, 0.5)},
            {"prompt_mixture": (0.5, float("nan"), 0.5)},
            {"adam_eps": float("inf")},
            {"adam_eps": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            TrainConfig(**kwargs)

    def test_mixture_normalized_to_float_tuple(self):
        c = TrainConfig(prompt_mixture=(1, 0))
        assert c.prompt_mixture == (1.0, 0.0)
        assert all(isinstance(p, float) for p in c.prompt_mixture)

    def test_mixture_for_uniform_default(self):
        mix = TrainConfig().mixture_for(3)
        assert np.allclose(mix, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_mixture_for_length_check(self):
        c = TrainConfig(prompt_mixture=(0.25, 0.75))
        assert np.array_equal(c.mixture_for(2), [0.25, 0.75])
        with pytest.raises(InvalidConfigError, match="variants"):
            c.mixture_for(3)

    def test_zero_epochs_and_zero_lr_are_legal(self):
        assert TrainConfig(epochs=0).epochs == 0
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


class TestInit:
    def test_xavier_range_and_shape(self):
        fan_out, fan_in = 9, 7
        w = xavier_uniform(rng_for(0, "t"), fan_out, fan_in)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_out, fan_in)
        assert np.all(np.abs(w) <= limit)
        assert np.max(np.abs(w)) > 0.5 * limit  # actually spans the range

    def test_linear_param_keys(self):
        cfg = AdapterConfig(mode="linear_head_only", d_in=6, d_student=9, d_teacher=7)
        params = init_params(cfg, seed=0)
        assert set(params) == {"head_w", "head_b"}
        assert params["head_w"].shape == (7, 6)
        assert np.array_equal(params["head_b"], np.zeros(7))

    def test_mlp_param_keys(self):
        params = init_params(SMALL_ADAPTER, seed=0)
        assert set(params) == {"enc1_w", "enc1_b", "enc2_w", "enc2_b", "head_w", "head_b"}
        assert params["enc1_w"].shape == (SMALL_ADAPTER.d_hidden, SMALL_ADAPTER.d_in)
        assert params["enc2_w"].shape == (SMALL_ADAPTER.d_student, SMALL_ADAPTER.d_hidden)
        assert params["head_w"].shape == (SMALL_ADAPTER.d_teacher, SMALL_ADAPTER.d_student)
        for name in ("enc1_b", "enc2_b", "head_b"):
            assert not params[name].any()

    def test_deterministic_per_seed(self):
        a = init_params(SMALL_ADAPTER, seed=3)
        b = init_params(SMALL_ADAPTER, seed=3)
        c = init_params(SMALL_ADAPTER, seed=4)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert not np.array_equal(a["head_w"], c["head_w"])


class TestForward:
    def test_linear_is_affine_map(self):
        cfg = AdapterConfig(mode="linear_head_only", d_in=5, d_student=5, d_teacher=4)
        rng = rng_for(0, "affine")
        params = {"head_w": rng.standard_normal((4, 5)), "head_b": rng.standard_normal(4)}
        x = rng.standard_normal((6, 5))
        z, cache = adapter_forward(cfg, params, x)
        assert np.allclose(z, x @ params["head_w"].T + params["head_b"], atol=1e-10)
        assert len(cache) == 1 and np.array_equal(cache[0], x)

    def test_identity_head_passthrough(self):
        cfg = AdapterConfig(mode="linear_head_only", d_in=4, d_student=4, d_teacher=4)
        params = {"head_w": np.eye(4), "head_b": np.zeros(4)}
        x = rng_for(1, "identity").standard_normal((3, 4))
        z, _ = adapter_forward(cfg, params, x)
        assert np.array_equal(z, x)

    def test_zero_weights_emit_bias(self):
        cfg = AdapterConfig(mode="linear_head_only", d_in=3, d_student=3, d_teacher=2)
        bias = np.array([5.0, -1.0])
        params = {"head_w": np.zeros((2, 3)), "head_b": bias}
        z, _ = adapter_forward(cfg, params, np.ones((4, 3)))
        assert np.array_equal(z, np.tile(bias, (4, 1)))

    def test_mlp_matches_manual_composition(self):
        rng = rng_for(2, "mlp")
        params = init_params(SMALL_ADAPTER, seed=9)
        x = rng.standard_normal((5, SMALL_ADAPTER.d_in))
        z, cache = adapter_forward(SMALL_ADAPTER, params, x)
        pre1 = x @ params["enc1_w"].T + params["enc1_b"]
        h1 = np.maximum(pre1, 0.0)
        student = h1 @ params["enc2_w"].T + params["enc2_b"]
        expected = student @ params["head_w"].T + params["head_b"]
        assert np.allclose(z, expected, atol=1e-12)
        assert [c.shape for c in cache] == [x.shape, h1.shape, student.shape]
        assert np.array_equal(cache[0], x)
        assert np.allclose(cache[1], h1, atol=1e-12)
        assert np.allclose(cache[2], student, atol=1e-12)

    def test_shape_errors(self):
        params = init_params(SMALL_ADAPTER, seed=0)
        with pytest.raises(ShapeMismatchError, match=r"\(n, 8\)"):
            adapter_forward(SMALL_ADAPTER, params, np.ones((3, 5)))
        with pytest.raises(ShapeMismatchError):
            adapter_forward(SMALL_ADAPTER, params, np.ones(8))


@pytest.mark.parametrize(
    "layers",
    [
        AdapterConfig(mode="linear_head_only", d_in=4, d_student=4, d_teacher=5, d_hidden=3).layers,
        AdapterConfig(mode="mlp_encoder_plus_head", d_in=4, d_student=4, d_teacher=5, d_hidden=3).layers,
        _text_map_layers(4, 5),
    ],
    ids=["linear", "mlp", "text_map"],
)
def test_backward_matches_finite_differences(layers):
    # End-to-end check: loss -> every layer -> every parameter, for each
    # layer table in the package. Jittered params keep biases nonzero so
    # no ReLU column is fully dead (a dead network emits zero rows, which
    # cosine rejects).
    rng = rng_for(4, "backprop", *(name for name, *_ in layers))
    init = mlp_init(layers, seed=13, stream="fd")
    params = {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in init.items()}
    x = rng.standard_normal((3, layers[0][1]))
    targets = rng.standard_normal((3, layers[-1][2]))
    tau = 0.2

    def loss() -> float:
        return distill_loss(mlp_forward(layers, params, x)[0], targets, tau).loss

    z, cache = mlp_forward(layers, params, x)
    analytic = {k: np.full_like(v, np.nan) for k, v in params.items()}
    mlp_backward(layers, params, cache, distill_loss(z, targets, tau).grad_student, analytic)

    step = 1e-6
    for key in params:
        flat = params[key].reshape(-1)
        grad_flat = analytic[key].reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus = loss()
            flat[idx] = original - step
            minus = loss()
            flat[idx] = original
            numeric = (plus - minus) / (2 * step)
            err = abs(grad_flat[idx] - numeric) / (abs(numeric) + 1e-12)
            assert err < 1e-4, f"{key}[{idx}]: analytic {grad_flat[idx]} vs numeric {numeric}"


def reference_optimizer(train_config, params):
    """The per-key Adam and SGD loops the buffer optimizer replaced."""
    if train_config.optimizer == "sgd_momentum":
        velocity = {k: np.zeros_like(v) for k, v in params.items()}

        def sgd_step(p, grads):
            for key in p:
                velocity[key] = train_config.momentum * velocity[key] + grads[key]
                p[key] -= train_config.learning_rate * velocity[key]

        return sgd_step

    first = {k: np.zeros_like(v) for k, v in params.items()}
    second = {k: np.zeros_like(v) for k, v in params.items()}
    t = {"step": 0}

    def adam_step(p, grads):
        t["step"] += 1
        b1, b2 = train_config.beta1, train_config.beta2
        correction1 = 1.0 - b1 ** t["step"]
        correction2 = 1.0 - b2 ** t["step"]
        for key in p:
            first[key] = b1 * first[key] + (1.0 - b1) * grads[key]
            second[key] = b2 * second[key] + (1.0 - b2) * grads[key] ** 2
            m_hat = first[key] / correction1
            v_hat = second[key] / correction2
            p[key] -= train_config.learning_rate * m_hat / (np.sqrt(v_hat) + train_config.adam_eps)

    return adam_step


def buffer_optimizer(train_config, params):
    """The package optimizer behind a per-call gradient dict: each call
    writes the gradients through the buffer's views, then steps."""
    grads = {k: np.empty_like(v) for k, v in params.items()}
    step = make_optimizer(train_config, params, grads)

    def apply(new_grads):
        for key, value in new_grads.items():
            grads[key][...] = value
        step()

    return apply


class TestOptimizers:
    @pytest.mark.parametrize(
        "tc, steps",
        [
            pytest.param(TrainConfig(learning_rate=0.03), 4, id="adam"),
            pytest.param(TrainConfig(learning_rate=0.2, beta1=0.5, beta2=0.75, adam_eps=1e-3), 4, id="adam_odd_betas"),
            pytest.param(TrainConfig(optimizer="sgd_momentum", learning_rate=0.07, momentum=0.6), 4, id="sgd_momentum"),
            # 1 - 0.5**t rounds to 1.0 from t = 54 on, so both bias
            # corrections divide by exactly 1.0 for the last 27 steps.
            pytest.param(TrainConfig(learning_rate=0.01, beta1=0.5, beta2=0.5), 80, id="adam_past_bias_correction"),
            pytest.param(
                TrainConfig(optimizer="sgd_momentum", learning_rate=0.01, momentum=0.5), 80, id="sgd_momentum_80_steps"
            ),
        ],
    )
    def test_buffer_equals_per_key_reference(self, tc, steps):
        rng = rng_for(6, "optimizer", tc.optimizer, tc.beta1)
        shapes = {"enc_w": (5, 3), "enc_b": (5,), "head_w": (2, 5), "scale": ()}
        start = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
        params = {k: v.copy() for k, v in start.items()}
        expected = {k: v.copy() for k, v in start.items()}
        grads = {k: np.full(shape, np.nan) for k, shape in reversed(shapes.items())}
        step = make_optimizer(tc, params, grads)
        reference = reference_optimizer(tc, expected)
        assert params.keys() == start.keys()
        assert grads.keys() == start.keys()
        for _ in range(steps):
            # Reversed key order: the gradients are matched by name.
            new_grads = {k: rng.standard_normal(shapes[k]) for k in reversed(list(shapes))}
            new_grads["enc_b"][0] = 0.0
            for key, value in new_grads.items():
                grads[key][...] = value
            step()
            reference(expected, new_grads)
            for key in shapes:
                assert np.shape(params[key]) == shapes[key]
                assert np.array_equal(params[key], expected[key]), key
        if tc.optimizer == "adam" and steps > 54:
            assert 1.0 - tc.beta1**steps == 1.0 - tc.beta2**steps == 1.0

    def test_params_become_views_of_one_buffer(self):
        params = {"a": np.ones((2, 3)), "b": np.zeros(4)}
        grads = {"b": np.zeros(4), "a": np.zeros((2, 3))}
        make_optimizer(TrainConfig(), params, grads)
        for arrays in (params, grads):
            base = arrays["a"].base
            assert base is not None and arrays["b"].base is base
            assert base.shape == (10,) and base.flags.c_contiguous
            assert np.shares_memory(arrays["a"], base) and np.shares_memory(arrays["b"], base)
        # Both buffers are laid out in the parameters' key order.
        grad_base = grads["a"].base
        assert not np.shares_memory(grads["a"], grad_base[6:]) and not np.shares_memory(grads["b"], grad_base[:6])
        assert not np.shares_memory(params["a"].base, grad_base)

    @pytest.mark.parametrize(
        "grads",
        [{"a": np.zeros(3)}, {"a": np.zeros(3), "b": np.zeros(3)}, {"a": np.zeros(3), "c": np.zeros(2)}],
        ids=["missing", "wrong_shape", "wrong_key"],
    )
    def test_grads_must_fit_params(self, grads):
        params = {"a": np.ones(3), "b": np.ones(2)}
        with pytest.raises(ShapeMismatchError, match="do not fit"):
            make_optimizer(TrainConfig(), params, grads)

    def test_adam_single_step_oracle(self):
        tc = TrainConfig(learning_rate=0.1)
        params = {"w": np.array([1.0, -2.0, 3.0])}
        step = buffer_optimizer(tc, params)
        g = np.array([0.5, -1.0, 2.0])
        step({"w": g})
        # After one step the bias corrections cancel: update = lr*g/(|g|+eps).
        expected = np.array([1.0, -2.0, 3.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(params["w"], expected, atol=1e-12)

    def test_adam_two_step_oracle(self):
        tc = TrainConfig(learning_rate=0.05)
        start = np.array([0.5, -0.5])
        params = {"w": start.copy()}
        step = buffer_optimizer(tc, params)
        g1 = np.array([1.0, -2.0])
        g2 = np.array([-0.5, 0.25])
        step({"w": g1})
        step({"w": g2})

        m = np.zeros(2)
        v = np.zeros(2)
        p = start.copy()
        for t, g in ((1, g1), (2, g2)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g**2
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            p = p - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(params["w"], p, atol=1e-14)

    def test_sgd_momentum_oracle(self):
        tc = TrainConfig(optimizer="sgd_momentum", learning_rate=0.1, momentum=0.5)
        params = {"w": np.array([1.0, 1.0])}
        step = buffer_optimizer(tc, params)
        g1 = np.array([2.0, -4.0])
        g2 = np.array([1.0, 1.0])
        step({"w": g1})
        p1 = np.array([1.0, 1.0]) - 0.1 * g1
        assert np.allclose(params["w"], p1, atol=1e-15)
        step({"w": g2})
        v2 = 0.5 * g1 + g2
        assert np.allclose(params["w"], p1 - 0.1 * v2, atol=1e-15)

    def test_zero_lr_is_noop(self):
        tc = TrainConfig(learning_rate=0.0)
        params = {"w": np.array([1.0, 2.0])}
        before = params["w"].copy()
        buffer_optimizer(tc, params)({"w": np.array([100.0, -100.0])})
        assert np.array_equal(params["w"], before)


class TestSampleVariants:
    def test_deterministic(self):
        mix = np.array([0.5, 0.5])
        a = sample_variants(7, 0, 100, mix)
        b = sample_variants(7, 0, 100, mix)
        c = sample_variants(7, 1, 100, mix)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_degenerate_mixture_selects_one_variant(self):
        assert not sample_variants(0, 0, 50, np.array([1.0, 0.0])).any()
        assert np.all(sample_variants(0, 0, 50, np.array([0.0, 1.0])) == 1)

    def test_values_in_range(self):
        draws = sample_variants(3, 2, 200, np.array([0.2, 0.3, 0.5]))
        assert draws.min() >= 0 and draws.max() <= 2


class TestFit:
    """``fit`` trains a copy of the parameters it is given."""

    LAYERS = SMALL_ADAPTER.layers

    def problem(self):
        rng = rng_for(3, "fit_problem")
        inputs = rng.standard_normal((9, SMALL_ADAPTER.d_in))
        targets = rng.standard_normal((9, SMALL_ADAPTER.d_teacher))
        # Not init_params: the start must be the given values, whatever stream drew them.
        params = mlp_init(self.LAYERS, seed=21, stream="given")
        return inputs, targets, params

    def test_callers_params_untouched(self):
        inputs, targets, params = self.problem()
        arrays = dict(params)
        values = {key: value.copy() for key, value in params.items()}
        report = fit(self.LAYERS, params, inputs, targets, lambda _: np.arange(9), SMALL_TRAIN, "shuffle")
        assert report.steps > 0
        assert list(params) == list(values)
        for key, value in params.items():
            assert value is arrays[key]
            assert np.array_equal(value, values[key])
            assert not np.shares_memory(report.final_params[key], value)
            assert not np.array_equal(report.final_params[key], value)

    def test_zero_epochs_returns_given_values(self):
        inputs, targets, params = self.problem()
        tc = dataclasses.replace(SMALL_TRAIN, epochs=0)
        report = fit(self.LAYERS, params, inputs, targets, lambda _: np.arange(9), tc, "shuffle")
        assert report.loss_curve == () and report.steps == 0
        assert list(report.final_params) == list(params)
        assert all(np.array_equal(report.final_params[key], params[key]) for key in params)

    @pytest.mark.parametrize(
        "change",
        [
            lambda p: p.pop("enc2_b"),
            lambda p: p.update(head_w=np.zeros((SMALL_ADAPTER.d_teacher, SMALL_ADAPTER.d_student + 1))),
            lambda p: p.update(extra_w=np.zeros((1, 1))),
        ],
        ids=["missing_key", "wrong_shape", "extra_key"],
    )
    def test_params_must_fit_layers(self, change):
        inputs, targets, params = self.problem()
        change(params)
        paired = []

        def pairing(epoch):
            paired.append(epoch)
            return np.arange(9)

        with pytest.raises(ShapeMismatchError, match="do not fit the layer table"):
            fit(self.LAYERS, params, inputs, targets, pairing, SMALL_TRAIN, "shuffle")
        assert paired == []


class TestTrainAdapter:
    def test_report_structure(self, small_views):
        train_view, _ = small_views
        report = train_adapter(train_view, SMALL_ADAPTER, SMALL_TRAIN)
        n_train = train_view.audio_features.n_items
        batches = n_train // SMALL_TRAIN.batch_size + (1 if n_train % SMALL_TRAIN.batch_size >= 2 else 0)
        assert len(report.loss_curve) == SMALL_TRAIN.epochs
        assert report.steps == SMALL_TRAIN.epochs * batches
        assert all(math.isfinite(x) and x >= 0 for x in report.loss_curve)

    def test_training_reduces_loss(self, small_views):
        train_view, _ = small_views
        tc = dataclasses.replace(SMALL_TRAIN, epochs=12)
        report = train_adapter(train_view, SMALL_ADAPTER, tc)
        audio = train_view.audio_features
        targets = train_view.teacher_text.matrix[audio.labels * train_view.config.variant_count]
        init = init_params(SMALL_ADAPTER, tc.seed)
        before = distill_loss(adapter_forward(SMALL_ADAPTER, init, audio.matrix)[0], targets, tc.tau).loss
        after = distill_loss(adapter_forward(SMALL_ADAPTER, report.final_params, audio.matrix)[0], targets, tc.tau).loss
        assert after < before
        assert report.loss_curve[-1] < report.loss_curve[0]

    def test_bitwise_determinism(self, small_views):
        train_view, _ = small_views
        a = train_adapter(train_view, SMALL_ADAPTER, SMALL_TRAIN)
        b = train_adapter(train_view, SMALL_ADAPTER, SMALL_TRAIN)
        assert a.loss_curve == b.loss_curve
        assert all(np.array_equal(a.final_params[k], b.final_params[k]) for k in a.final_params)

    def test_seed_changes_outcome(self, small_views):
        train_view, _ = small_views
        a = train_adapter(train_view, SMALL_ADAPTER, SMALL_TRAIN)
        b = train_adapter(train_view, SMALL_ADAPTER, dataclasses.replace(SMALL_TRAIN, seed=99))
        assert not np.array_equal(a.final_params["head_w"], b.final_params["head_w"])

    def test_zero_epochs_returns_init(self, small_views):
        train_view, _ = small_views
        tc = dataclasses.replace(SMALL_TRAIN, epochs=0)
        report = train_adapter(train_view, SMALL_ADAPTER, tc)
        assert report.loss_curve == ()
        assert report.steps == 0
        init = init_params(SMALL_ADAPTER, tc.seed)
        assert all(np.array_equal(report.final_params[k], init[k]) for k in init)

    def test_zero_lr_leaves_params_and_loss_unchanged(self, small_views):
        train_view, _ = small_views
        tc = dataclasses.replace(SMALL_TRAIN, learning_rate=0.0, epochs=2)
        audio = train_view.audio_features
        targets = train_view.teacher_text.matrix[audio.labels * train_view.config.variant_count]
        init = init_params(SMALL_ADAPTER, tc.seed)
        before = distill_loss(adapter_forward(SMALL_ADAPTER, init, audio.matrix)[0], targets, tc.tau).loss
        report = train_adapter(train_view, SMALL_ADAPTER, tc)
        after = distill_loss(adapter_forward(SMALL_ADAPTER, report.final_params, audio.matrix)[0], targets, tc.tau).loss
        assert after == before
        assert all(np.array_equal(report.final_params[k], init[k]) for k in init)

    def test_trailing_singleton_batch_dropped(self, small_views):
        train_view, _ = small_views
        n_train = train_view.audio_features.n_items  # 32
        tc = dataclasses.replace(SMALL_TRAIN, batch_size=n_train - 1, epochs=2)
        report = train_adapter(train_view, SMALL_ADAPTER, tc)
        assert report.steps == 2  # one surviving batch per epoch

    def test_teacher_and_audio_frozen(self, small_views):
        train_view, _ = small_views
        teacher_before = sha(train_view.teacher_text.matrix)
        audio_before = sha(train_view.audio_features.matrix)
        train_adapter(train_view, SMALL_ADAPTER, SMALL_TRAIN)
        assert sha(train_view.teacher_text.matrix) == teacher_before
        assert sha(train_view.audio_features.matrix) == audio_before

    def test_too_few_items(self, small_views):
        train_view, _ = small_views
        tiny = dataclasses.replace(train_view, audio_features=train_view.audio_features.take([0]))
        with pytest.raises(TooFewItemsError, match="at least 2 items, got 1"):
            train_adapter(tiny, SMALL_ADAPTER, SMALL_TRAIN)

    def test_dimension_mismatches(self, small_views):
        train_view, _ = small_views
        bad_in = dataclasses.replace(SMALL_ADAPTER, d_in=SMALL_ADAPTER.d_in + 1)
        with pytest.raises(InvalidConfigError, match="adapter expects"):
            train_adapter(train_view, bad_in, SMALL_TRAIN)
        bad_out = dataclasses.replace(SMALL_ADAPTER, d_teacher=SMALL_ADAPTER.d_teacher + 1)
        with pytest.raises(InvalidConfigError, match="teacher space"):
            train_adapter(train_view, bad_out, SMALL_TRAIN)

    def test_mixture_controls_variant_access(self, small_views):
        # Poison variant 1 rows with NaN: a (1, 0) mixture must never
        # touch them; the uniform mixture must trip on them.
        train_view, _ = small_views
        poisoned_matrix = train_view.teacher_text.matrix.copy()
        v = train_view.config.variant_count
        poisoned_matrix[1::v] = np.nan
        poisoned = EmbeddingSet(poisoned_matrix, train_view.teacher_text.labels, train_view.teacher_text.modality)
        view = dataclasses.replace(train_view, teacher_text=poisoned)

        only_zero = dataclasses.replace(SMALL_TRAIN, prompt_mixture=(1.0, 0.0), epochs=2)
        report = train_adapter(view, SMALL_ADAPTER, only_zero)
        assert all(math.isfinite(x) for x in report.loss_curve)

        with pytest.raises(NonFiniteLossError) as info:
            train_adapter(view, SMALL_ADAPTER, dataclasses.replace(SMALL_TRAIN, epochs=2))
        assert info.value.step >= 0
        assert "training step" in str(info.value)

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_zero_target_row_rejected_before_step_0(self, small_views, epochs):
        # The row is species 3's variant 1, which a (1, 0) mixture never
        # pairs with a clip: the check runs once on every target row.
        train_view, _ = small_views
        v = train_view.config.variant_count
        matrix = train_view.teacher_text.matrix.copy()
        matrix[3 * v + 1] = 0.0
        zeroed = EmbeddingSet(matrix, train_view.teacher_text.labels, train_view.teacher_text.modality)
        view = dataclasses.replace(train_view, teacher_text=zeroed)
        tc = dataclasses.replace(SMALL_TRAIN, prompt_mixture=(1.0, 0.0), epochs=epochs)
        with pytest.raises(ZeroVectorError, match=f"teacher row {3 * v + 1} is all zeros"):
            train_adapter(view, SMALL_ADAPTER, tc)

    def test_mixture_length_mismatch_rejected(self, small_views):
        train_view, _ = small_views
        tc = dataclasses.replace(SMALL_TRAIN, prompt_mixture=(0.2, 0.3, 0.5))
        with pytest.raises(InvalidConfigError, match="variants"):
            train_adapter(train_view, SMALL_ADAPTER, tc)

