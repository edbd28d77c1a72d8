import math
import struct

import numpy as np
import pytest

from bridgecap.datasets import DatasetItem, DatasetSplit
from bridgecap.errors import (
    ConfigError,
    DomainError,
    FormatError,
    InvariantError,
    TrainingDivergedError,
)
from bridgecap.learner import (
    ArchitectureDescriptor,
    EarlyStopper,
    Network,
    TrainConfig,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    fit,
    linear_head,
    load_checkpoint,
    make_checkpoint,
    micro_cnn,
    network_from_checkpoint,
    normalize_descriptor,
    predict_proba,
    read_features_csv,
    reinit_head,
    save_checkpoint,
    train,
    train_head_on_features,
)
from bridgecap.learner import layers as L
from bridgecap.learner.checkpoint import MAGIC, VERSION


def tiny_descriptor(seed: int) -> ArchitectureDescriptor:
    """A randomized small architecture exercising every layer type."""
    rng = np.random.default_rng(seed)
    in_ch = int(rng.integers(1, 3))
    size = int(rng.choice([5, 6, 8]))
    out_ch = int(rng.integers(2, 4))
    classes = int(rng.integers(2, 5))
    layers = [
        {"op": "conv", "kh": 3, "kw": 3, "out_ch": out_ch, "stride": 1, "pad": 1},
        {"op": "relu"},
        {"op": "maxpool", "k": 2, "stride": 2},
    ]
    pooled = (size - 2) // 2 + 1
    if pooled >= 3 and rng.random() < 0.5:
        layers += [
            {"op": "conv", "kh": 3, "kw": 3, "out_ch": out_ch + 1, "stride": 1, "pad": 0},
            {"op": "relu"},
        ]
    layers += [
        {"op": "flatten"},
        {"op": "fc", "n_out": int(rng.integers(4, 9))},
        {"op": "relu"},
        {"op": "fc", "n_out": classes},
        {"op": "softmax"},
    ]
    return normalize_descriptor(
        ArchitectureDescriptor(
            input_shape=(in_ch, size, size),
            layers=tuple(layers),
            class_labels=tuple(str(i) for i in range(classes)),
        )
    )


def ce_loss(net, x, y):
    """Independent loss evaluation used by the finite-difference oracle."""
    z = net.logits(x)
    zs = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(zs).sum(axis=1))
    return float(np.mean(lse - zs[np.arange(len(y)), y]))


def max_relative_grad_error(net, x, y, step=1e-5):
    loss, _ = net.loss_and_grads(x, y)
    assert math.isfinite(loss)
    grads = [g.copy() for g in net.gradients()]
    worst = 0.0
    for param, grad in zip(net.parameters(), grads):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            hi = ce_loss(net, x, y)
            param[idx] = orig - step
            lo = ce_loss(net, x, y)
            param[idx] = orig
            fd = (hi - lo) / (2 * step)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(fd - grad[idx]) / denom)
    return worst


class WindowStackMaxPool(L.MaxPool):
    """Oracle: max pooling as an argmax over a (k*k, n, c, oh, ow) stack of
    window views, keeping the winners after every forward."""

    def forward(self, x, train=False):
        n, c, h, w = x.shape
        k, s = self.k, self.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        windows = np.empty((k * k, n, c, oh, ow), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                windows[i * k + j] = x[:, :, i : i + s * oh : s, j : j + s * ow : s]
        self._arg = windows.argmax(axis=0)
        self._in_shape = x.shape
        return np.take_along_axis(windows, self._arg[None], axis=0)[0]

    def backward(self, dout):
        k, s = self.k, self.stride
        oh, ow = dout.shape[2], dout.shape[3]
        dx = np.zeros(self._in_shape, dtype=dout.dtype)
        for i in range(k):
            for j in range(k):
                mask = self._arg == (i * k + j)
                dx[:, :, i : i + s * oh : s, j : j + s * ow : s] += dout * mask
        return dx


class MaskRelu(L.Relu):
    """Oracle: ReLU as x times its x > 0 mask."""

    def forward(self, x, train=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


def with_oracle_layers(net):
    net.layers = [
        WindowStackMaxPool(layer.k, layer.stride) if isinstance(layer, L.MaxPool)
        else MaskRelu() if isinstance(layer, L.Relu)
        else layer
        for layer in net.layers
    ]
    return net


def held_caches(net):
    """(layer index, attribute) of everything a layer keeps besides its
    parameters and gradients."""
    held = []
    for i, layer in enumerate(net.layers):
        for name, value in vars(layer).items():
            if name in ("w", "b", "dw", "db") or value is None:
                continue
            values = value if isinstance(value, tuple) else (value,)
            if name == "_saved" or any(isinstance(v, np.ndarray) for v in values):
                held.append((i, name))
    return held


class TestForward:
    def test_probabilities_sum_to_one(self):
        net = Network(tiny_descriptor(0), seed=1)
        x = np.random.default_rng(2).normal(size=(6, *net.descriptor.input_shape))
        probs = net.forward(x)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert (probs >= 0).all()

    def test_zero_weights_give_uniform(self):
        net = Network(linear_head(4, ["a", "b", "c"]), seed=0)
        net.set_weights([np.zeros((4, 3)), np.zeros(3)])
        probs = net.forward(np.ones((2, 4)))
        assert np.allclose(probs, 1 / 3)

    def test_two_logit_softmax(self):
        net = Network(linear_head(2, ["a", "b"]), seed=0, dtype=np.float64)
        net.set_weights([np.eye(2), np.zeros(2)])
        probs = net.forward(np.array([[1.0, 0.0]]))
        assert probs[0] == pytest.approx([0.7311, 0.2689], abs=1e-4)

    def test_shape_mismatch_names_layer(self):
        net = Network(tiny_descriptor(3), seed=0)
        with pytest.raises(DomainError, match="input layer"):
            net.forward(np.zeros((1, 1, 2, 2)))

    def test_descriptor_wiring_errors(self):
        with pytest.raises(ConfigError, match="layer 1"):
            normalize_descriptor(
                ArchitectureDescriptor(
                    input_shape=(4,),
                    layers=({"op": "fc", "n_out": 3}, {"op": "conv", "out_ch": 2},
                            {"op": "softmax"}),
                    class_labels=("a", "b"),
                )
            )
        with pytest.raises(ConfigError, match="head width"):
            linear_head(4, ["a", "b"]) and normalize_descriptor(
                ArchitectureDescriptor(
                    input_shape=(4,),
                    layers=({"op": "fc", "n_out": 3}, {"op": "softmax"}),
                    class_labels=("a", "b"),
                )
            )


    def test_foreign_colour_mode_rejected(self):
        with pytest.raises(ConfigError, match="colour mode"):
            micro_cnn(["a", "b"], input_shape=(3, 8, 8), colour_mode="grayscale_1ch")
        ckpt = make_checkpoint(Network(micro_cnn(["a", "b"], input_shape=(3, 8, 8)), seed=0))
        data = checkpoint_to_bytes(ckpt)
        forged = data.replace(b'"colour_mode":"rgb"', b'"colour_mode":"bgr"')
        assert forged != data
        with pytest.raises(ConfigError, match="colour mode"):
            checkpoint_from_bytes(forged)


class TestBackward:
    def test_softmax_ce_gradient_hand_example(self):
        # logits [1, 0], target class 0: dz = p - onehot = [-0.2689, 0.2689]
        net = Network(linear_head(2, ["a", "b"]), seed=0, dtype=np.float64)
        net.set_weights([np.eye(2), np.zeros(2)])
        net.loss_and_grads(np.array([[1.0, 0.0]]), np.array([0]))
        db = net.gradients()[1]  # bias gradient equals dz for a single sample
        assert db == pytest.approx([-0.2689, 0.2689], abs=1e-4)

    def test_confident_correct_predictions_have_tiny_gradient(self):
        net = Network(linear_head(2, ["a", "b"]), seed=0, dtype=np.float64)
        net.set_weights([np.eye(2) * 50.0, np.zeros(2)])
        net.loss_and_grads(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        norms = [np.abs(g).max() for g in net.gradients()]
        assert max(norms) < 1e-8

    def test_gradients_match_finite_differences_across_architectures(self):
        rng = np.random.default_rng(1234)
        for seed in range(10):
            net = Network(tiny_descriptor(seed), seed=seed + 100, dtype=np.float64)
            x = rng.normal(size=(4, *net.descriptor.input_shape))
            y = rng.integers(0, net.descriptor.num_classes, size=4)
            assert max_relative_grad_error(net, x, y) <= 1e-4

    def test_gradient_shapes_mirror_params(self):
        net = Network(tiny_descriptor(7), seed=0, dtype=np.float64)
        x = np.random.default_rng(0).normal(size=(3, *net.descriptor.input_shape))
        net.loss_and_grads(x, np.array([0, 1, 1]))
        for param, grad in zip(net.parameters(), net.gradients()):
            assert param.shape == grad.shape


class TestLayerOracles:
    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 2), (3, 1)])
    @pytest.mark.parametrize("hw", [(8, 8), (9, 7), (10, 8)], ids=["8x8", "9x7", "10x8"])
    def test_maxpool_matches_window_stack_bytes(self, k, stride, hw):
        # (9, 7) and (10, 8) leave an uncovered border for some (k, stride).
        rng = np.random.default_rng(10 * k + stride)
        shape = (3, 2, *hw)
        # Small integers after ReLU: many ties and all-zero windows.
        tied = np.maximum(rng.integers(-2, 3, shape), 0).astype(np.float32)
        for x in (tied, rng.normal(size=shape).astype(np.float32)):
            pool, oracle = L.MaxPool(k, stride), WindowStackMaxPool(k, stride)
            expected = oracle.forward(x)
            assert pool.forward(x).tobytes() == expected.tobytes()
            assert pool.forward(x, train=True).tobytes() == expected.tobytes()
            dout = rng.normal(size=expected.shape).astype(np.float32)
            dout.flat[::3] = -0.0
            dout.flat[1::5] = 0.0
            assert pool.backward(dout).tobytes() == oracle.backward(dout).tobytes()

    def test_relu_matches_mask_form(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
        x.flat[::7] = 0.0
        x.flat[1::7] = -0.0
        relu, oracle = L.Relu(), MaskRelu()
        out = relu.forward(x, train=True)
        # Equal values; the mask form writes -0.0 where max(x, 0) writes 0.0.
        assert np.array_equal(out, oracle.forward(x))
        assert not np.signbit(out).any()
        dout = rng.normal(size=x.shape).astype(np.float32)
        assert relu.backward(dout).tobytes() == oracle.backward(dout).tobytes()

    def test_sgd_steps_match_oracle_network_bytes(self):
        desc = micro_cnn(["a", "b", "c"], input_shape=(3, 16, 16))
        rng = np.random.default_rng(4)
        # Quantized pixels give ReLU zeros and pooling ties.
        x = (rng.integers(0, 4, size=(24, 3, 16, 16)) / 3).astype(np.float32)
        y = rng.integers(0, 3, size=24)
        config = TrainConfig(max_epochs=2, batch_size=8, seed=1)
        ckpts = [
            fit(net, x, y, x[:6], y[:6], config)
            for net in (Network(desc, seed=6), with_oracle_layers(Network(desc, seed=6)))
        ]
        assert checkpoint_to_bytes(ckpts[0]) == checkpoint_to_bytes(ckpts[1])


class TestTrainingOnlyCaches:
    def test_inference_keeps_nothing(self):
        net = Network(tiny_descriptor(3), seed=0, dtype=np.float64)
        x = np.random.default_rng(0).normal(size=(4, *net.descriptor.input_shape))
        net.forward(x)
        assert held_caches(net) == []
        net.loss_and_grads(x, np.array([0, 1, 0, 1]))
        assert held_caches(net) == []
        net.logits(x)
        predict_proba(net, x)
        assert held_caches(net) == []

    def test_backward_needs_training_forward(self):
        net = Network(tiny_descriptor(5), seed=0, dtype=np.float64)
        x = np.random.default_rng(0).normal(size=(2, *net.descriptor.input_shape))
        net.loss_and_grads(x, np.array([0, 1]))  # consumes what it saved
        net.forward(x)
        for layer in net.layers:
            with pytest.raises(InvariantError):
                layer.backward(np.zeros(1))

    def test_predict_between_steps_leaves_gradients(self):
        rng = np.random.default_rng(8)
        desc = tiny_descriptor(6)
        xs = [rng.normal(size=(3, *desc.input_shape)) for _ in range(3)]
        y = np.array([0, 1, 0])
        plain = Network(desc, seed=1, dtype=np.float64)
        mixed = Network(desc, seed=1, dtype=np.float64)
        plain.loss_and_grads(xs[0], y)
        mixed.loss_and_grads(xs[0], y)
        first = [g.copy() for g in mixed.gradients()]
        predict_proba(mixed, xs[2])
        assert all(np.array_equal(a, b) for a, b in zip(first, mixed.gradients()))
        plain.loss_and_grads(xs[1], y)
        mixed.loss_and_grads(xs[1], y)
        for a, b in zip(plain.gradients(), mixed.gradients()):
            assert a.tobytes() == b.tobytes()


class TestEarlyStopping:
    def test_stagnant_sequence_stops_on_schedule(self):
        stopper = EarlyStopper(patience=3, min_delta=1e-4)
        decisions = [stopper.update(v) for v in (0.50, 0.60, 0.60, 0.60, 0.60)]
        assert decisions == [False, False, False, False, True]

    def test_improvement_resets_streak(self):
        stopper = EarlyStopper(patience=2, min_delta=0.01)
        seq = [stopper.update(v) for v in (0.5, 0.5, 0.6, 0.6, 0.6)]
        assert seq == [False, False, False, False, True]

    def test_injected_sequence_drives_fit(self):
        # Validation accuracies are injected; weights still change per epoch,
        # so the restored checkpoint must be the epoch-2 snapshot.
        values = iter([0.50, 0.60, 0.60, 0.60, 0.60, 0.60, 0.60])
        snapshots = []

        def canned_eval(net, x_val, y_val):
            snapshots.append(net.get_weights())
            return next(values), 0.0

        rng = np.random.default_rng(5)
        net = Network(linear_head(3, ["a", "b"]), seed=2)
        x = rng.normal(size=(12, 3)).astype(np.float32)
        y = rng.integers(0, 2, size=12)
        config = TrainConfig(max_epochs=50, patience=3, min_delta=1e-4, seed=0)
        ckpt = fit(net, x, y, x[:2], y[:2], config, evaluate_fn=canned_eval)

        assert ckpt.history["stopped_epoch"] == 5
        assert ckpt.history["best_epoch"] == 2
        assert ckpt.history["val_acc"] == [0.50, 0.60, 0.60, 0.60, 0.60]
        for saved, snap in zip(ckpt.weights, snapshots[1]):
            assert np.array_equal(saved, snap.astype(np.float32))

    def test_best_epoch_attains_max_logged_accuracy(self):
        values = iter([0.4, 0.7, 0.65, 0.71, 0.71, 0.71, 0.71])

        def canned_eval(net, x_val, y_val):
            return next(values), 0.0

        net = Network(linear_head(2, ["a", "b"]), seed=0)
        x = np.random.default_rng(1).normal(size=(8, 2)).astype(np.float32)
        y = np.array([0, 1] * 4)
        ckpt = fit(net, x, y, x, y, TrainConfig(max_epochs=50, patience=3, seed=0),
                   evaluate_fn=canned_eval)
        history = ckpt.history
        assert history["val_acc"][history["best_epoch"] - 1] == max(history["val_acc"])


class TestTraining:
    def test_empty_train_set_rejected(self):
        net = Network(linear_head(2, ["a", "b"]), seed=0)
        with pytest.raises(DomainError, match="empty"):
            fit(net, np.empty((0, 2)), np.empty(0, dtype=int), np.zeros((1, 2)),
                np.array([0]), TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostics(self):
        net = Network(linear_head(2, ["a", "b"]), seed=0)
        x = np.array([[np.inf, 1.0], [1.0, 0.0]], dtype=np.float32)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            fit(net, x, np.array([0, 1]), x, np.array([0, 1]), TrainConfig())

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 6)).astype(np.float32)
        y = (x[:, 0] > 0).astype(np.int64)
        config = TrainConfig(max_epochs=5, seed=9)
        ckpts = []
        for _ in range(2):
            net = Network(linear_head(6, ["lo", "hi"]), seed=4)
            ckpts.append(fit(net, x, y, x, y, config))
        assert ckpts[0].history == ckpts[1].history
        assert checkpoint_to_bytes(ckpts[0]) == checkpoint_to_bytes(ckpts[1])

    def test_train_on_split_maps_sparse_classes(self, tmp_path):
        # classes 2 and 5 (sparse ids) must map onto a 2-wide head
        from bridgecap.imaging import RgbImage, encode_pnm

        rng = np.random.default_rng(0)
        items = {"train": [], "test": []}
        for side, count in (("train", 8), ("test", 4)):
            for i in range(count):
                cls = 2 if i % 2 == 0 else 5
                shade = 40 if cls == 2 else 200
                path = f"{side}_{i}.pnm"
                pixels = np.full((8, 8, 3), shade, dtype=np.uint8)
                pixels += rng.integers(0, 20, pixels.shape).astype(np.uint8)
                (tmp_path / path).write_bytes(encode_pnm(RgbImage(pixels)))
                items[side].append(DatasetItem(image_path=path, cls=cls))
        split = DatasetSplit(train=tuple(items["train"]), test=tuple(items["test"]))

        from bridgecap.imaging import make_loader

        net = Network(micro_cnn(["2", "5"], input_shape=(3, 8, 8)), seed=0)
        ckpt = train(net, split, TrainConfig(max_epochs=3, seed=0),
                     make_loader(tmp_path, "rgb", (8, 8)))
        assert len(ckpt.history["val_acc"]) == ckpt.history["stopped_epoch"]

    def test_head_width_mismatch(self):
        net = Network(linear_head(4, ["a", "b", "c"]), seed=0)
        split = DatasetSplit(
            train=(DatasetItem("x", 1), DatasetItem("y", 2)),
            test=(DatasetItem("z", 1),),
        )
        with pytest.raises(DomainError, match="head"):
            train(net, split, TrainConfig(), lambda p: np.zeros(4))


class TestCheckpoint:
    def test_round_trip_bit_identical_forward(self, tmp_path):
        net = Network(tiny_descriptor(2), seed=8)
        ckpt = make_checkpoint(net, {"val_acc": [0.5], "best_epoch": 1})
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.descriptor == ckpt.descriptor
        assert loaded.history == ckpt.history
        x = np.random.default_rng(0).normal(size=(3, *net.descriptor.input_shape))
        out1 = net.forward(x)
        out2 = network_from_checkpoint(loaded).forward(x)
        assert np.array_equal(out1, out2)

    def test_serialization_deterministic(self):
        net = Network(tiny_descriptor(4), seed=1)
        ckpt = make_checkpoint(net, {"val_acc": [1.0]})
        assert checkpoint_to_bytes(ckpt) == checkpoint_to_bytes(ckpt)

    def test_truncated_weights_detected(self):
        net = Network(linear_head(3, ["a", "b"]), seed=0)
        data = checkpoint_to_bytes(make_checkpoint(net))
        with pytest.raises(FormatError):
            checkpoint_from_bytes(data[:-9])

    def test_bad_magic_detected(self):
        with pytest.raises(FormatError, match="magic"):
            checkpoint_from_bytes(b"NOPE" + b"\x00" * 32)

    def test_every_truncation_is_format_error(self):
        # Cut at every byte of the header, metadata and history block, and
        # at each weight-block boundary and one byte either side of it; a
        # cut inside a weight block takes the same branch wherever it falls.
        net = Network(micro_cnn(["a", "b"], input_shape=(3, 4, 4)), seed=0)
        data = checkpoint_to_bytes(make_checkpoint(net, {"val_acc": [0.5]}))
        (meta_len,) = struct.unpack_from("<Q", data, 8)
        boundary = 16 + meta_len
        cuts = set(range(boundary))
        for arr in net.get_weights():
            cuts.update((boundary - 1, boundary, boundary + 1))
            boundary += arr.nbytes
        cuts.update(range(boundary - 1, len(data)))
        for cut in sorted(cuts):
            with pytest.raises(FormatError):
                checkpoint_from_bytes(data[:cut])

    @pytest.mark.parametrize("meta", [
        b"\xff\xfe{}",
        b'{"input_shape": [2], "layers": [',
        b"[1, 2]",
        b'{"layers": [{"op": "softmax"}], "class_labels": ["a", "b"]}',
        b'{"input_shape": 2, "layers": [{"op": "softmax"}], "class_labels": ["a", "b"]}',
        b"[" * 100_000,
    ], ids=["not_utf8", "cut_json", "not_an_object", "no_input_shape", "scalar_shape",
            "too_deep"])
    def test_bad_metadata_is_format_error(self, meta):
        header = MAGIC + struct.pack("<IQ", VERSION, len(meta))
        with pytest.raises(FormatError):
            checkpoint_from_bytes(header + meta + b"\x00" * 8)

    def test_metadata_length_past_eof_is_format_error(self):
        data = checkpoint_to_bytes(make_checkpoint(Network(linear_head(2, ["a", "b"]))))
        with pytest.raises(FormatError, match="past the end"):
            checkpoint_from_bytes(data[:8] + struct.pack("<Q", 2**63) + data[16:])

    def test_bad_layer_sizes_are_config_errors(self):
        for key, value in (("out_ch", -4), ("stride", 0), ("kh", "3"), ("pad", -1)):
            spec = {"op": "conv", "kh": 3, "out_ch": 2, key: value}
            with pytest.raises(ConfigError, match=key):
                normalize_descriptor(ArchitectureDescriptor(
                    (1, 4, 4), (spec, {"op": "flatten"}, {"op": "softmax"}), ("a",) * 8))
        with pytest.raises(ConfigError, match="stride"):
            normalize_descriptor(ArchitectureDescriptor(
                (1, 4, 4), ({"op": "maxpool", "k": 2, "stride": 0}, {"op": "softmax"}), ("a",)))


class TestReinitHead:
    def test_earlier_layers_bit_identical(self):
        net = Network(micro_cnn(list("abcdefgh"), input_shape=(3, 16, 16)), seed=3)
        ckpt = make_checkpoint(net, {"val_acc": [0.3]})
        smaller = reinit_head(ckpt, 3, seed=11)
        assert smaller.descriptor.num_classes == 3
        # every parameter array except the final fc pair is byte-identical
        for old, new in zip(ckpt.weights[:-2], smaller.weights[:-2]):
            assert old.tobytes() == new.tobytes()
        assert smaller.weights[-2].shape == (128, 3)
        assert (smaller.weights[-1] == 0).all()
        assert smaller.history == {}

    def test_reinit_deterministic(self):
        net = Network(linear_head(5, ["a", "b", "c"]), seed=0)
        ckpt = make_checkpoint(net)
        a = reinit_head(ckpt, 3, seed=5)
        b = reinit_head(ckpt, 3, seed=5)
        assert checkpoint_to_bytes(a) == checkpoint_to_bytes(b)

    def test_forward_after_reinit(self):
        net = Network(micro_cnn(["a", "b", "c", "d"], input_shape=(3, 8, 8)), seed=0)
        ckpt = reinit_head(make_checkpoint(net), 3, seed=1)
        probs = network_from_checkpoint(ckpt).forward(np.zeros((2, 3, 8, 8)))
        assert probs.shape == (2, 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_too_few_classes(self):
        net = Network(linear_head(4, ["a", "b"]), seed=0)
        with pytest.raises(DomainError):
            reinit_head(make_checkpoint(net), 1, seed=0)


class TestFeatureHead:
    def test_linearly_separable_reaches_full_train_accuracy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4)).astype(np.float32)
        labels = np.where(x[:, 0] + 0.5 * x[:, 1] > 0, "hi", "lo")
        ckpt = train_head_on_features(
            x, labels, TrainConfig(max_epochs=60, learning_rate=0.5, patience=10, seed=1)
        )
        assert max(ckpt.history["train_acc"]) == 1.0

    def test_shuffled_labels_stay_near_chance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 6)).astype(np.float32)
        labels = rng.permutation(np.array(["a", "b", "c"] * 100))
        ckpt = train_head_on_features(x, labels, TrainConfig(max_epochs=10, seed=2))
        assert abs(max(ckpt.history["val_acc"]) - 1 / 3) <= 0.1

    def test_same_seed_identical_weights(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3)).astype(np.float32)
        labels = ["a", "b"] * 20
        a = train_head_on_features(x, labels, TrainConfig(max_epochs=4, seed=7))
        b = train_head_on_features(x, labels, TrainConfig(max_epochs=4, seed=7))
        assert checkpoint_to_bytes(a) == checkpoint_to_bytes(b)

    def test_csv_parsing_and_ragged_row_named(self):
        text = "id,v1,v2,label\nr1,0.5,1.5,a\nr2,0.25,2.5,b\n"
        ids, x, labels = read_features_csv(text)
        assert ids == ["r1", "r2"]
        assert x.shape == (2, 2)
        assert labels == ["a", "b"]
        with pytest.raises(ConfigError, match="r2"):
            read_features_csv("r1,1.0,2.0,a\nr2,1.0,b\n")
