import contextlib
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bridgecap._records import plain
from bridgecap.datasets import DatasetItem, DatasetSplit
from bridgecap.errors import (
    BridgecapError,
    ConfigError,
    DomainError,
    FormatError,
    InvariantError,
    TrainingDivergedError,
)
from bridgecap.imaging import COLOUR_MODES, pixels_to_tensor
from bridgecap.learner import (
    ArchitectureDescriptor,
    Checkpoint,
    EarlyStopper,
    Network,
    TrainConfig,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    fit,
    load_checkpoint,
    make_checkpoint,
    micro_cnn,
    network_from_checkpoint,
    normalize_descriptor,
    predict_proba,
    save_checkpoint,
    train,
)
from bridgecap.learner import layers as L
from bridgecap.learner import network as network_module
from bridgecap.learner.checkpoint import MAGIC, VERSION
from helpers import BAD_DESCRIPTORS, BAD_SIZES, CHECKPOINT, damaged, linear_head, set_field

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)
HELPER_COUNTS = (0, 1, 3)


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
        self._arg = windows.argmax(axis=0)  # the first maximum takes the gradient
        self._in_shape = x.shape
        # The output holds the last maximum's bytes, np.maximum's tie rule:
        # of a +0.0 and a -0.0, the later in scan order.
        last = k * k - 1 - windows[::-1].argmax(axis=0)
        return np.take_along_axis(windows, last[None], axis=0)[0]

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


def strided_col2im(dcols, dxp, s):
    """Oracle: col2im as one strided add per kernel cell, of each (m, c,
    oh, ow) block of ``dcols`` into ``dxp``."""
    _, _, kh, kw, oh, ow = dcols.shape
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += dcols[:, :, i, j]


class WholeBatchConv(L.Conv):
    """Oracle: convolution that unfolds the whole batch once, with no
    slices, and keeps those columns from its training forward for its
    backward."""

    def _columns(self, x):
        n, c, h, w = x.shape
        s, p = self.stride, self.pad
        oh = (h + 2 * p - self.kh) // s + 1
        ow = (w + 2 * p - self.kw) // s + 1
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        cols = np.empty((n, c, self.kh, self.kw, oh, ow), dtype=x.dtype)
        for i in range(self.kh):
            for j in range(self.kw):
                cols[:, :, i, j] = xp[:, :, i : i + s * oh : s, j : j + s * ow : s]
        return cols.reshape(n, -1, oh * ow), (oh, ow)

    def forward(self, x, train=False):
        cols2, (oh, ow) = self._columns(x)
        out = np.matmul(self.w.reshape(self.out_ch, -1), cols2)
        out += self.b[:, None]
        self._cols2, self._in_shape = cols2, x.shape
        return out.reshape(len(x), self.out_ch, oh, ow)

    def backward(self, dout, input_grad=True):
        n, c, h, w = self._in_shape
        s, p = self.stride, self.pad
        oh, ow = dout.shape[2:]
        dout2 = dout.reshape(n, self.out_ch, oh * ow)
        wm = self.w.reshape(self.out_ch, -1)
        self.dw = np.matmul(dout2, self._cols2.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.w.shape)
        self.db = dout.sum(axis=(0, 2, 3))
        self._cols2 = None
        if not input_grad:
            return None
        dcols = np.matmul(wm.T, dout2).reshape(n, c, self.kh, self.kw, oh, ow)
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dout.dtype)
        strided_col2im(dcols, dxp, s)
        return dxp[:, :, p : p + h, p : p + w]


def whole_batch_conv(layer):
    """A ``WholeBatchConv`` sharing ``layer``'s weight and bias arrays."""
    oracle = WholeBatchConv(layer.kh, layer.kw, layer.in_ch, layer.out_ch, layer.stride,
                            layer.pad, None, layer.w.dtype)
    oracle.w, oracle.b = layer.w, layer.b
    return oracle


def in_descriptor_order(net, oracle=lambda layer: layer):
    """``net`` with ``oracle(layer)`` for each of its layers, put in the
    order of its descriptor: each relu before the maxpool it precedes
    there, where ``Network`` builds them the other way round."""
    built = {}
    for layer in net.layers:
        built.setdefault(type(layer), []).append(layer)
    net.layers = [oracle(built[network_module._OPS[spec["op"]][0]].pop(0))
                  for spec in net.descriptor.layers]
    return net


def with_oracle_layers(net):
    return in_descriptor_order(net, lambda layer: (
        WindowStackMaxPool(layer.k, layer.stride) if isinstance(layer, L.MaxPool)
        else MaskRelu() if isinstance(layer, L.Relu)
        else whole_batch_conv(layer) if isinstance(layer, L.Conv)
        else layer))


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


def decode_both(data: bytes):
    """``checkpoint_from_bytes(data)``, once ``load_checkpoint`` of a file
    holding ``data`` has given the same checkpoint or raised the same
    exception with the same message; that exception is raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(data)
        outcomes = []
        for read in (lambda: checkpoint_from_bytes(data), lambda: load_checkpoint(path)):
            try:
                outcomes.append(read())
            except Exception as exc:  # compared below, then raised
                outcomes.append(exc)
    from_bytes, from_file = outcomes
    if isinstance(from_bytes, Exception):
        assert (type(from_file), str(from_file)) == (type(from_bytes), str(from_bytes))
        raise from_bytes
    assert from_file.descriptor == from_bytes.descriptor
    assert from_file.history == from_bytes.history
    assert [w.tobytes() for w in from_file.weights] == [w.tobytes() for w in from_bytes.weights]
    return from_bytes


def traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def split_helpers(count):
    """Make ``layers._split`` use ``count`` helper threads, whatever the
    host's CPUs and BLAS settings."""
    saved = L._pool
    executor = ThreadPoolExecutor(count) if count else None
    L._pool = (executor, count)
    try:
        yield
    finally:
        L._pool = saved
        if executor is not None:
            executor.shutdown()


def layer_bytes(make_layer, x, dout, **backward_args):
    """Bytes of an inference forward, a training forward, its backward
    and the parameter gradients, for each helper count."""
    runs = []
    for count in HELPER_COUNTS:
        layer = make_layer()
        with split_helpers(count):
            inferred = layer.forward(x)
            trained = layer.forward(x, train=True)
            dx = layer.backward(dout, **backward_args)
        runs.append([inferred.tobytes(), trained.tobytes(), None if dx is None else dx.tobytes()]
                    + [g.tobytes() for g in layer.grads()])
    return runs


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


def signed_ints(rng, shape, low=-2):
    """Small integers from ``low`` to 2 as float32, about half of the
    zeros -0.0: many ties, of both zeros as well, and all-negative
    windows."""
    x = rng.integers(low, 3, shape).astype(np.float32)
    x[(x == 0) & (rng.random(shape) < 0.5)] = -0.0
    return x


def signed_dout(rng, shape):
    dout = rng.normal(size=shape).astype(np.float32)
    dout.flat[::3] = -0.0
    dout.flat[1::5] = 0.0
    return dout


def check_maxpool_against_window_stack(k, stride, x, rng):
    pool, oracle = L.MaxPool(k, stride), WindowStackMaxPool(k, stride)
    expected = oracle.forward(x)
    assert pool.forward(x).tobytes() == expected.tobytes()
    assert pool.forward(x, train=True).tobytes() == expected.tobytes()
    dout = signed_dout(rng, expected.shape)
    assert pool.backward(dout).tobytes() == oracle.backward(dout).tobytes()


# Run a second time under another NumPy SIMD path by
# test_pool_kernels_keep_their_bytes_without_avx512.
KERNEL_TESTS = ("TestLayerOracles::test_maxpool_matches_window_stack_bytes_over_shapes",
                "TestLayerOracles::test_col2im_matches_strided_bytes",
                "TestPoolBeforeRelu::test_pool_then_relu_gives_the_bytes_of_relu_then_pool")


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
            check_maxpool_against_window_stack(k, stride, x, rng)
        check_maxpool_against_window_stack(k, stride, signed_ints(rng, shape), rng)

    @PROPERTY
    @given(k=st.integers(1, 4), stride=st.integers(1, 4), n=st.integers(1, 9),
           c=st.integers(1, 3), h=st.integers(1, 13), w=st.integers(1, 13),
           low=st.sampled_from([-2, -6]), seed=st.integers(0, 2**32 - 1))
    def test_maxpool_matches_window_stack_bytes_over_shapes(self, k, stride, n, c, h, w, low,
                                                            seed):
        # Tiling pools (k == stride, sizes that k divides) take a backward
        # of their own; the rest add into a zeroed dx.
        assume(h >= k and w >= k)
        rng = np.random.default_rng(seed)
        x = signed_ints(rng, (n, c, h, w), low)
        check_maxpool_against_window_stack(k, stride, x, rng)

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

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_conv_matches_whole_batch_bytes(self, stride, pad, input_grad):
        # 9 images: two full slices and a short one.
        rng = np.random.default_rng(10 * stride + pad)
        x = rng.normal(size=(9, 3, 9, 7)).astype(np.float32)
        conv = L.Conv(3, 3, 3, 4, stride, pad, rng, np.float32)
        conv.b[:] = rng.normal(size=4)
        oracle = whole_batch_conv(conv)
        out = conv.forward(x, train=True)
        assert out.tobytes() == oracle.forward(x, train=True).tobytes()
        dout = rng.normal(size=out.shape).astype(np.float32)
        dx = conv.backward(dout, input_grad=input_grad)
        expected = oracle.backward(dout, input_grad=input_grad)
        assert (dx is None) == (not input_grad)
        if input_grad:
            assert dx.shape == x.shape and dx.tobytes() == expected.tobytes()
        assert conv.dw.tobytes() == oracle.dw.tobytes()
        assert conv.db.tobytes() == oracle.db.tobytes()

    @PROPERTY
    @given(kh=st.integers(1, 4), kw=st.integers(1, 4), stride=st.integers(1, 3),
           pad=st.integers(0, 2), n=st.integers(1, 9), c=st.integers(1, 3),
           h=st.integers(1, 11), w=st.integers(1, 11), out_ch=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_col2im_matches_strided_bytes(self, kh, kw, stride, pad, n, c, h, w, out_ch, seed):
        # Conv.backward adds each kernel cell's dX columns through a
        # zero-filled stage in one flat add; the oracle adds a strided
        # block. The stage's +0.0 cells must leave every byte as it is.
        assume(h + 2 * pad >= kh and w + 2 * pad >= kw)
        rng = np.random.default_rng(seed)
        inf = np.array([np.inf], dtype=np.float32)
        with np.errstate(invalid="ignore"):
            nan = inf * 0  # the NaN that inf * 0 and inf - inf in the GEMM give
        # Only that NaN: which of two different NaNs a sum keeps depends on
        # NumPy's loop, not on the order of the adds (an add of one value
        # keeps the second operand's, a longer one the first's).
        special = np.array([0.0, -0.0, np.inf, -np.inf, nan[0], 3e38, -3e38], dtype=np.float32)

        def draw(shape):
            values = rng.normal(size=shape).astype(np.float32)
            pick = rng.random(shape) < 0.2
            values[pick] = rng.choice(special, size=int(pick.sum()))
            return values

        conv = L.Conv(kh, kw, c, out_ch, stride, pad, None, np.float32)
        conv.w[...], conv.b[...] = draw(conv.w.shape), 0
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        shape = (n, c, kh, kw, L.out_len(h, kh, stride, pad), L.out_len(w, kw, stride, pad))
        dout = draw((n, out_ch, *shape[4:]))
        padded = (n, c, h + 2 * pad, w + 2 * pad)
        runs, direct = [], []
        # OpenBLAS's GEMM sums from +0.0, so its dcols hold no -0.0:
        # col2im is also handed drawn columns directly.
        dcols = draw(shape)
        with np.errstate(all="ignore"):
            for col2im in (L._col2im, strided_col2im):
                with mock.patch.object(L, "_col2im", col2im):
                    conv.forward(x, train=True)
                    runs.append(conv.backward(dout).tobytes())
                dxp = np.zeros(padded, dtype=np.float32)
                col2im(dcols, dxp, stride)
                direct.append(dxp.tobytes())
        assert runs[0] == runs[1]
        assert direct[0] == direct[1]

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


class TestPoolBeforeRelu:
    """A network runs each relu -> maxpool pair of its descriptor as
    maxpool -> relu, which gives the same bytes."""

    @PROPERTY
    @given(k=st.integers(1, 3), stride=st.integers(1, 3), n=st.integers(1, 9),
           c=st.integers(1, 3), h=st.integers(1, 11), w=st.integers(1, 11),
           low=st.sampled_from([-2, -6]), seed=st.integers(0, 2**32 - 1))
    def test_pool_then_relu_gives_the_bytes_of_relu_then_pool(self, k, stride, n, c, h, w, low,
                                                              seed):
        assume(h >= k and w >= k)
        rng = np.random.default_rng(seed)
        below = rng.normal(size=(n, 2, h, w)).astype(np.float32)
        # Stands in for the conv's output, so that it holds ties, both
        # zeros and all-negative windows.
        z = signed_ints(rng, (n, c, h, w), low)
        dout = signed_dout(rng, (n, c, (h - k) // stride + 1, (w - k) // stride + 1))
        runs = []
        for first, second in ((L.Relu(), L.MaxPool(k, stride)), (L.MaxPool(k, stride), L.Relu())):
            conv = L.Conv(3, 3, 2, c, 1, 1, np.random.default_rng(seed), np.float32)
            conv.forward(below, train=True)
            out = second.forward(first.forward(z, train=True), train=True)
            dz = first.backward(second.backward(dout))
            dx = conv.backward(dz)
            # Relu -> MaxPool leaves -0.0 where a negative dout reaches a
            # cell <= 0, and MaxPool -> Relu +0.0. Adding 0 makes them one
            # zero; the conv below gives the same bytes for either.
            runs.append([out.tobytes(), (dz + 0).tobytes(), dx.tobytes(), conv.dw.tobytes(),
                         conv.db.tobytes()])
        assert runs[0] == runs[1]

    def test_network_loss_and_grads_bytes_match_descriptor_order(self):
        desc = micro_cnn(["a", "b", "c"], input_shape=(3, 16, 16))
        rng = np.random.default_rng(8)
        x = rng.integers(0, 4, size=(10, 3, 16, 16), dtype=np.uint8)  # ReLU zeros, pool ties
        y = rng.integers(0, 3, size=10)
        runs = []
        for net in (Network(desc, seed=2), in_descriptor_order(Network(desc, seed=2))):
            loss, labels = net.loss_and_grads(x, y)
            runs.append([struct.pack("<d", loss), labels.tobytes(), net.forward(x).tobytes()]
                        + [g.tobytes() for g in net.gradients()])
        assert [type(layer) for layer in net.layers][:3] == [L.Conv, L.Relu, L.MaxPool]
        assert runs[0] == runs[1]

    def test_network_pools_before_relu_and_keeps_the_descriptor(self):
        desc = micro_cnn(["a", "b"])
        net = Network(desc, seed=3)
        ops = [spec["op"] for spec in desc.layers]
        assert ops[:6] == ["conv", "relu", "maxpool", "conv", "relu", "maxpool"]
        assert [type(layer) for layer in net.layers] == [
            L.Conv, L.MaxPool, L.Relu, L.Conv, L.MaxPool, L.Relu, L.Flatten,
            L.FullyConnected, L.Relu, L.FullyConnected, L.Softmax]
        assert (net._first_param, net._trunk_end) == (0, 7)
        assert [p.shape for p in net.parameters()] == desc.param_shapes()
        # A relu before two pools follows both; one after a conv stays.
        deep = normalize_descriptor(ArchitectureDescriptor(
            input_shape=(1, 8, 8), class_labels=("a", "b"),
            layers=({"op": "relu"}, {"op": "maxpool", "k": 2}, {"op": "maxpool", "k": 2},
                    {"op": "conv", "out_ch": 2, "pad": 1}, {"op": "relu"}, {"op": "flatten"},
                    {"op": "fc", "n_out": 2}, {"op": "softmax"})))
        assert [type(layer) for layer in Network(deep).layers][:5] == [
            L.MaxPool, L.MaxPool, L.Relu, L.Conv, L.Relu]

    def test_pool_kernels_keep_their_bytes_without_avx512(self):
        # The kernels' bytes rest on np.maximum returning its second
        # operand on a tie and on col2im's flat adds of +0.0, and NumPy
        # picks its loops by CPU: run the kernel tests again with the
        # AVX-512 loops switched off.
        try:
            found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        except (TypeError, KeyError):
            pytest.skip("this NumPy does not list the SIMD extensions it found")
        disabled = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if f in found]
        if not disabled:
            pytest.skip(f"NumPy found none of the AVX-512 groups here: {found}")
        here = Path(__file__)
        script = ("import sys, numpy, pytest; "
                  "found = numpy.show_config(mode='dicts')['SIMD Extensions']['found']; "
                  "print('found', *found); sys.exit(pytest.main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "-q", "-p", "no:cacheprovider",
             *(f"{here}::{test}" for test in KERNEL_TESTS)],
            env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled)),
            cwd=here.parents[1], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        found = proc.stdout.splitlines()[0].split()[1:]
        assert found and not set(disabled) & set(found), found
        assert f"{len(KERNEL_TESTS)} passed" in proc.stdout


POOL_KINDS = pytest.mark.parametrize("k,stride,hw", [(2, 2, (8, 8)), (3, 2, (9, 9)),
                                                    (2, 2, (9, 7))],
                                     ids=["tiling", "overlapping", "ragged"])


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

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_conv_keeps_no_more_than_its_padded_input(self, pad):
        rng = np.random.default_rng(pad)
        x = rng.normal(size=(9, 3, 12, 10)).astype(np.float32)
        conv = L.Conv(3, 3, 3, 8, 1, pad, rng, np.float32)
        conv.forward(x, train=True)
        padded = x.nbytes * (12 + 2 * pad) * (10 + 2 * pad) // (12 * 10)
        arrays = [v for v in conv._saved if isinstance(v, np.ndarray)]
        assert arrays and all(a.nbytes <= padded for a in arrays)
        # Unpadded, the saved array is the caller's input itself.
        assert any(a is x for a in arrays) == (pad == 0)

    @POOL_KINDS
    def test_maxpool_keeps_only_its_winners(self, k, stride, hw):
        x = signed_ints(np.random.default_rng(k), (9, 3, *hw))
        pool = L.MaxPool(k, stride)
        out = pool.forward(x, train=True)
        arrays = [v for v in pool._saved if isinstance(v, np.ndarray)]
        assert arrays and not any(np.issubdtype(a.dtype, np.floating) for a in arrays)
        assert not any(np.shares_memory(a, x) or np.shares_memory(a, out) for a in arrays)
        assert sum(a.nbytes for a in arrays) == k * k * out.size

    @POOL_KINDS
    def test_maxpool_backward_reads_neither_input_nor_output(self, k, stride, hw):
        rng = np.random.default_rng(k + stride)
        x = signed_ints(rng, (9, 3, *hw))
        runs = []
        for spoil in (False, True):
            pool, xs = L.MaxPool(k, stride), x.copy()
            out = pool.forward(xs, train=True)
            dout = signed_dout(np.random.default_rng(0), out.shape)
            if spoil:
                xs[...] = out[...] = np.nan
            runs.append(pool.backward(dout).tobytes())
        assert runs[0] == runs[1]

    def test_training_step_peak_allocation(self):
        # The full-batch im2col columns of both convolutions, 14 and 19 MB
        # here, once lived from the forward to the backward: the step's
        # traced peak was 58.8 MiB. With per-slice columns in the backward
        # it was 37.9 MiB. Per-slice columns in the forward too, each pool
        # before its ReLU, which then sees a quarter of the cells, and a
        # backward slice's columns dropped before its dX columns are made
        # took it to 28.5 MiB. Pools that keep their winner masks, not the
        # conv outputs, took it to 19.7 MiB. On the calling thread alone,
        # as each helper holds a slice's columns of its own at the same
        # time.
        net = Network(micro_cnn(["a", "b", "c", "d"], input_shape=(3, 64, 64)), seed=0)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 256, (32, 3, 64, 64), dtype=np.uint8)
        y = rng.integers(0, 4, 32)
        with split_helpers(0):
            net.loss_and_grads(x, y)
            tracemalloc.start()
            try:
                net.loss_and_grads(x, y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 24 * 2**20, peak / 2**20

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


class TestPredictProba:
    @staticmethod
    def count_forward_rows(net):
        """Record the row count of every forward call of the network's
        first ``FullyConnected`` layer, where the head starts."""
        rows = []
        fc = next(layer for layer in net.layers if isinstance(layer, L.FullyConnected))
        forward = fc.forward

        def counted(x):
            rows.append(len(x))
            return forward(x)

        fc.forward = counted
        return rows

    @pytest.mark.parametrize("batch_size", [None, 3, 16])
    def test_no_one_row_forward_when_n_at_least_two(self, batch_size):
        net = Network(micro_cnn(["a", "b"], input_shape=(3, 8, 8)), seed=0)
        x = np.random.default_rng(1).random((70, 3, 8, 8), dtype=np.float32)
        rows = self.count_forward_rows(net)
        args = () if batch_size is None else (batch_size,)
        limit = batch_size or 8  # the default chunk size
        for n in range(1, 71):
            rows.clear()
            assert len(predict_proba(net, x[:n], *args)) == n
            assert sum(rows) == n and len(rows) == math.ceil(n / limit)
            assert max(rows) - min(rows) <= 1
            assert min(rows) >= 2 or n == 1, (n, rows)

    @PROPERTY
    @given(width=st.integers(2, 9), n=st.integers(1, 70),
           batch_size=st.sampled_from([None, 3, 16]), helpers=st.sampled_from(HELPER_COUNTS),
           pixels=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_forward_chunk_by_chunk(self, width, n, batch_size, helpers, pixels,
                                                seed):
        rng = np.random.default_rng(seed)
        net = Network(micro_cnn([str(i) for i in range(width)], input_shape=(3, 8, 8)),
                      seed=seed % 1000)
        x = (rng.integers(0, 256, (n, 3, 8, 8), dtype=np.uint8) if pixels
             else rng.random((n, 3, 8, 8), dtype=np.float32))
        chunks = np.array_split(x, math.ceil(n / (batch_size or 8)))
        expected = np.concatenate([net.forward(chunk) for chunk in chunks])
        with split_helpers(helpers):
            probs = predict_proba(net, x, *(() if batch_size is None else (batch_size,)))
        assert probs.dtype == expected.dtype and probs.tobytes() == expected.tobytes()

    def test_zero_rows_keep_the_dtype_and_check_the_shape(self):
        for dtype in (np.float32, np.float64):
            net = Network(micro_cnn(["a", "b"], input_shape=(3, 8, 8)), seed=0, dtype=dtype)
            probs = predict_proba(net, np.zeros((0, 3, 8, 8), dtype=np.uint8))
            assert probs.shape == (0, 2) and probs.dtype == dtype
            probs = net.forward(np.zeros((0, 3, 8, 8), dtype=np.uint8))
            assert probs.shape == (0, 2) and probs.dtype == dtype
            for n in (0, 2):
                with pytest.raises(DomainError, match="input layer"):
                    predict_proba(net, np.zeros((n, 3, 9, 9), dtype=np.float32))

    def test_feature_head_has_no_trunk(self):
        net = Network(linear_head(5, ["a", "b", "c"]), seed=1)
        x = np.random.default_rng(3).random((41, 5), dtype=np.float32)
        expected = np.concatenate([net.forward(c) for c in np.array_split(x, 6)])
        assert predict_proba(net, x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 17, 33, 120])
    def test_chunks_agree_with_one_whole_batch_forward(self, n):
        net = Network(micro_cnn(["a", "b", "c", "d"], input_shape=(3, 16, 16)), seed=2)
        x = np.random.default_rng(n).random((n, 3, 16, 16), dtype=np.float32)
        whole = net.forward(x)
        chunked = predict_proba(net, x)
        assert np.array_equal(chunked.argmax(axis=1), whole.argmax(axis=1))
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-6)


class TestSplit:
    """Per-image layer work spread over helper threads gives the same
    bytes as one slice on the calling thread."""

    @PROPERTY
    @given(n=st.integers(1, 37), c=st.integers(1, 4), out_ch=st.integers(1, 4),
           kh=st.integers(1, 3), kw=st.integers(1, 3), stride=st.integers(1, 2),
           pad=st.integers(0, 2), h=st.integers(1, 9), w=st.integers(1, 9),
           input_grad=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_conv_bytes_do_not_depend_on_helpers(self, n, c, out_ch, kh, kw, stride, pad,
                                                 h, w, input_grad, seed):
        assume(h + 2 * pad >= kh and w + 2 * pad >= kw)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        oh, ow = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
        dout = rng.normal(size=(n, out_ch, oh, ow)).astype(np.float32)

        def make():
            return L.Conv(kh, kw, c, out_ch, stride, pad, np.random.default_rng(seed), np.float32)

        first, *rest = layer_bytes(make, x, dout, input_grad=input_grad)
        assert all(run == first for run in rest)

    @PROPERTY
    @given(n=st.integers(1, 37), c=st.integers(1, 3), h=st.integers(3, 9),
           w=st.integers(3, 9), k_stride=st.sampled_from([(2, 2), (3, 2), (3, 1)]),
           seed=st.integers(0, 2**32 - 1))
    def test_maxpool_bytes_do_not_depend_on_helpers(self, n, c, h, w, k_stride, seed):
        k, stride = k_stride
        rng = np.random.default_rng(seed)
        # Small integers give tied windows; zeros of both signs tie too.
        x = rng.integers(-1, 3, size=(n, c, h, w)).astype(np.float32)
        x[x == -1] = -0.0
        oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
        dout = rng.normal(size=(n, c, oh, ow)).astype(np.float32)
        dout.flat[::3] = -0.0
        first, *rest = layer_bytes(lambda: L.MaxPool(k, stride), x, dout)
        assert all(run == first for run in rest)

    @PROPERTY
    @given(shape=st.one_of(st.tuples(st.integers(1, 37), st.integers(1, 4), st.integers(1, 6),
                                     st.integers(1, 6)),
                           st.tuples(st.integers(1, 37), st.integers(1, 20))),
           seed=st.integers(0, 2**32 - 1))
    def test_relu_bytes_do_not_depend_on_helpers(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape).astype(np.float32)
        x.flat[::5] = -0.0
        x.flat[1::5] = 0.0
        dout = rng.normal(size=shape).astype(np.float32)
        first, *rest = layer_bytes(L.Relu, x, dout)
        assert all(run == first for run in rest)

    @pytest.mark.parametrize("cpus,env,helpers", [
        (2, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 1),
        (4, {"OMP_NUM_THREADS": "1"}, 3),
        (4, {"OPENBLAS_NUM_THREADS": " 1 "}, 3),
        (2, {}, 0),
        (2, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 0),
        (2, {"MKL_NUM_THREADS": ""}, 0),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 0),
    ])
    def test_helpers_only_when_blas_runs_one_thread(self, monkeypatch, cpus, env, helpers):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(L.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        executor, count = L._make_pool()
        assert count == helpers and (executor is None) == (helpers == 0)
        if executor is not None:
            executor.shutdown()

    def test_fit_and_predict_bytes_do_not_depend_on_helpers(self):
        desc = micro_cnn(["a", "b", "c"], input_shape=(3, 16, 16))
        rng = np.random.default_rng(5)
        x = (rng.integers(0, 4, size=(45, 3, 16, 16)) / 3).astype(np.float32)
        y = rng.integers(0, 3, size=45)
        config = TrainConfig(max_epochs=2, batch_size=13, seed=2)
        ckpts, probs = [], []
        for count in HELPER_COUNTS:
            with split_helpers(count):
                net = Network(desc, seed=3)
                ckpts.append(checkpoint_to_bytes(fit(net, x, y, x[:9], y[:9], config)))
                probs.append(predict_proba(net, x, batch_size=16).tobytes())
        assert ckpts[1:] == ckpts[:1] * 2
        assert probs[1:] == probs[:1] * 2

    def test_layer_and_network_methods_stay_on_the_calling_thread(self, monkeypatch):
        caller = threading.get_ident()
        method_threads, slice_threads = set(), set()

        def recorded(fn):
            def run(*args, **kwargs):
                method_threads.add(threading.get_ident())
                return fn(*args, **kwargs)
            return run

        classes = [L.Conv, L.Relu, L.MaxPool, L.Flatten, L.FullyConnected, L.Softmax]
        for cls in classes:
            for name in ("forward", "backward"):
                monkeypatch.setattr(cls, name, recorded(vars(cls)[name]))
        for name, value in list(vars(Network).items()):
            if callable(value) and not isinstance(value, (type, staticmethod)):
                monkeypatch.setattr(Network, name, recorded(value))
        begin = L._begin

        def recorded_begin(fn, n):
            def run(part):
                slice_threads.add(threading.get_ident())
                fn(part)
            return begin(run, n)

        monkeypatch.setattr(L, "_begin", recorded_begin)
        net = Network(micro_cnn(["a", "b"], input_shape=(3, 16, 16)), seed=0)
        x = np.random.default_rng(1).random((37, 3, 16, 16), dtype=np.float32)
        with split_helpers(3):
            for _ in range(3):
                net.loss_and_grads(x, np.arange(37) % 2)
            net.set_weights(net.get_weights())
            net.logits(x)
            assert len(slice_threads) > 1  # the helpers did take slices
            slice_threads.clear()
            for _ in range(3):
                predict_proba(net, x, batch_size=37)
                predict_proba(net, x, batch_size=5)
        assert method_threads == {caller}
        assert len(slice_threads) > 1  # and slices of the inference trunk

    def test_error_reaches_caller_after_every_started_slice(self):
        caller = threading.get_ident()
        boom = RuntimeError("slice failed")
        raised, sleeping = threading.Event(), threading.Event()
        lock = threading.Lock()
        finished = []

        def fn(part):
            if threading.get_ident() == caller:
                raised.wait(10)
                sleeping.wait(10)
                return
            with lock:
                first = not raised.is_set()
                raised.set()
            if first:
                raise boom
            sleeping.set()
            time.sleep(0.2)
            finished.append(part)

        with split_helpers(2):
            with pytest.raises(RuntimeError) as info:
                L._split(fn, 3 * L._SLICE)
            assert info.value is boom and finished

    def test_trunk_slice_exception_reaches_caller_and_pool_survives(self, monkeypatch):
        caller = threading.get_ident()
        net = Network(micro_cnn(["a", "b"], input_shape=(3, 8, 8)), seed=0)
        x = np.random.default_rng(2).random((70, 3, 8, 8), dtype=np.float32)
        expected = predict_proba(net, x).tobytes()
        boom = RuntimeError("slice failed")
        infer = L.MaxPool._infer_slice

        def failing(self, h, out=None):
            if threading.get_ident() != caller:
                raise boom
            return infer(self, h, out)

        with split_helpers(3):
            monkeypatch.setattr(L.MaxPool, "_infer_slice", failing)
            with pytest.raises(RuntimeError) as info:
                predict_proba(net, x)
            assert info.value is boom
            monkeypatch.setattr(L.MaxPool, "_infer_slice", infer)
            assert predict_proba(net, x).tobytes() == expected

    @pytest.mark.parametrize("make_layer,shape", [
        (lambda: L.Conv(3, 3, 2, 3, 1, 1, np.random.default_rng(0), np.float32),
         (17, 2, 6, 6)),
        (L.Relu, (17, 2, 6, 6)),
        (lambda: L.MaxPool(2, 2), (17, 2, 6, 6)),
    ], ids=["conv", "relu", "maxpool"])
    @pytest.mark.parametrize("stage", ["forward", "backward"])
    def test_helper_exception_reaches_caller_and_pool_survives(self, monkeypatch, make_layer,
                                                               shape, stage):
        caller = threading.get_ident()
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape).astype(np.float32)
        dout = make_layer().forward(x)
        dout = rng.normal(size=dout.shape).astype(np.float32)
        expected = make_layer()
        expected.forward(x, train=True)
        expected = expected.backward(dout).tobytes()
        boom = RuntimeError("slice failed")
        raised = threading.Event()
        lock = threading.Lock()
        split = L._split

        def failing_split(fn, n):
            # The calling thread waits until a helper has raised.
            def run(part):
                if threading.get_ident() == caller:
                    raised.wait(10)
                else:
                    with lock:
                        if not raised.is_set():
                            raised.set()
                            raise boom
                fn(part)
            split(run, n)

        layer = make_layer()
        with split_helpers(3):
            if stage == "backward":
                layer.forward(x, train=True)
            monkeypatch.setattr(L, "_split", failing_split)
            with pytest.raises(RuntimeError) as info:
                layer.forward(x, train=True) if stage == "forward" else layer.backward(dout)
            assert info.value is boom and raised.is_set()
            assert layer._saved is None
            monkeypatch.setattr(L, "_split", split)
            layer.forward(x, train=True)
            assert layer.backward(dout).tobytes() == expected


class TestPixelInput:
    """uint8 input is pixels: a network scales it in its own dtype, so it
    gives the bytes the matching float tensors give."""

    @staticmethod
    def pixels(n, size=12, seed=0):
        return np.random.default_rng(seed).integers(0, 256, (n, 3, size, size), dtype=np.uint8)

    def test_forward_and_predict_proba_match_float_tensors(self):
        net = Network(micro_cnn(["a", "b", "c"], input_shape=(3, 12, 12)), seed=5)
        px = self.pixels(21)
        tensors = pixels_to_tensor(px)
        assert net.forward(px).tobytes() == net.forward(tensors).tobytes()
        assert net.logits(px).tobytes() == net.logits(tensors).tobytes()
        assert predict_proba(net, px).tobytes() == predict_proba(net, tensors).tobytes()
        assert net.forward(px[:4]).dtype == np.float32

    def test_float64_network_scales_in_float64(self):
        net = Network(tiny_descriptor(1), seed=2, dtype=np.float64)
        px = self.pixels(5, size=net.descriptor.input_shape[1])[:, : net.descriptor.input_shape[0]]
        tensors = pixels_to_tensor(px, np.float64)
        assert net.forward(px).tobytes() == net.forward(tensors).tobytes()

    def test_fit_matches_float_tensors(self):
        px, y = self.pixels(40, seed=1), np.arange(40) % 2
        config = TrainConfig(max_epochs=2, batch_size=8, seed=3)
        ckpts = []
        for x in (px, pixels_to_tensor(px)):
            net = Network(micro_cnn(["a", "b"], input_shape=(3, 12, 12)), seed=6)
            ckpts.append(checkpoint_to_bytes(fit(net, x, y, x[:12], y[:12], config)))
        assert ckpts[0] == ckpts[1]

    def test_fit_keeps_pixels_and_scales_each_batch_on_the_calling_thread(self, monkeypatch):
        # Training batches are scaled on the calling thread; validation
        # rows in the trunk slices that run them, each row once.
        caller = threading.get_ident()
        in_slice = threading.local()
        scaled = []

        def recorded(scale):
            def run(pixels, dtype):
                scaled.append((threading.get_ident(), getattr(in_slice, "on", False),
                               pixels.copy()))
                return scale(pixels, dtype)
            return run

        begin = L._begin

        def recorded_begin(fn, n):
            def run(part):
                in_slice.on = True
                try:
                    fn(part)
                finally:
                    in_slice.on = False
            return begin(run, n)

        monkeypatch.setattr(network_module, "pixels_to_tensor", recorded(pixels_to_tensor))
        monkeypatch.setattr(L, "_scale_pixels", recorded(L._scale_pixels))
        monkeypatch.setattr(L, "_begin", recorded_begin)
        px, y = self.pixels(20, seed=2), np.arange(20) % 2
        net = Network(micro_cnn(["a", "b"], input_shape=(3, 12, 12)), seed=0)
        with split_helpers(3):
            fit(net, px, y, px[:9], y[:9], TrainConfig(max_epochs=1, batch_size=8))
        # Three training batches, then one group of 9 validation rows in
        # slices of at most L._SLICE.
        train, val = scaled[:3], scaled[3:]
        assert [(thread, on, len(p)) for thread, on, p in train] == [
            (caller, False, 8), (caller, False, 8), (caller, False, 4)]
        assert all(on and len(p) <= L._SLICE for _, on, p in val)
        assert sorted(row.tobytes() for _, _, p in val for row in p) == sorted(
            row.tobytes() for row in px[:9])

    def test_train_hands_fit_uint8_pixels(self, tmp_path, monkeypatch):
        import importlib

        from bridgecap.imaging import encode_pnm, load_batch

        train_module = importlib.import_module("bridgecap.learner.train")
        seen = []

        def spy(net, x_train, y_train, x_val, y_val, config):
            seen.extend([x_train, x_val])
            return make_checkpoint(net)

        monkeypatch.setattr(train_module, "fit", spy)
        rng = np.random.default_rng(4)
        items = []
        for i in range(6):
            pixels = rng.integers(0, 256, (10, 7, 3)).astype(np.uint8)
            (tmp_path / f"{i}.pnm").write_bytes(encode_pnm(pixels))
            items.append(DatasetItem(image_path=f"{i}.pnm", cls=1 + i % 2))
        split = DatasetSplit(train=tuple(items[:4]), test=tuple(items[4:]))
        net = Network(micro_cnn(["1", "2"], input_shape=(3, 8, 8)), seed=0)
        train(net, split, TrainConfig(), tmp_path)
        x_train, x_val = seen
        assert x_train.dtype == x_val.dtype == np.uint8
        assert x_train.shape == (4, 3, 8, 8) and x_val.shape == (2, 3, 8, 8)
        expected = load_batch([i.image_path for i in items[:4]], tmp_path, "rgb", (8, 8))
        assert x_train.tobytes() == expected.tobytes()


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

    def test_fit_holds_one_best_weights_copy_at_a_time(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3)).astype(np.float32)
        y = rng.integers(0, 2, size=12)

        def run(net):
            values = iter([0.5, 0.6, 0.7])  # every epoch improves
            return fit(net, x, y, x[:2], y[:2], TrainConfig(max_epochs=3, seed=0),
                       evaluate_fn=lambda net, x_val, y_val: (next(values), 0.0))

        net = Network(linear_head(3, ["a", "b"]), seed=2)
        get_weights, previous, live_at_call = net.get_weights, [], []

        def tracked():
            live_at_call.append(sum(ref() is not None for ref in previous))
            copies = get_weights()
            previous[:] = [weakref.ref(a) for a in copies]
            return copies

        net.get_weights = tracked
        ckpt = run(net)
        # Before epoch 1, at each of the three improving epochs, and in
        # make_checkpoint: the previous copy is gone each time.
        assert live_at_call == [0] * 5
        expected = run(Network(linear_head(3, ["a", "b"]), seed=2))
        assert checkpoint_to_bytes(ckpt) == checkpoint_to_bytes(expected)

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

    def test_empty_validation_set_rejected(self):
        net = Network(linear_head(2, ["a", "b"]), seed=0)
        with pytest.raises(DomainError, match="validation set is empty"):
            fit(net, np.zeros((1, 2)), np.array([0]), np.empty((0, 2)),
                np.empty(0, dtype=int), TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostics(self):
        net = Network(linear_head(2, ["a", "b"]), seed=0)
        x = np.array([[np.inf, 1.0], [1.0, 0.0]], dtype=np.float32)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            fit(net, x, np.array([0, 1]), x, np.array([0, 1]), TrainConfig())

    def test_non_finite_validation_loss_aborts_with_diagnostics(self):
        net = Network(linear_head(2, ["a", "b"]), seed=0)
        x = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(TrainingDivergedError, match="validation loss nan at epoch 1; lr="):
            fit(net, x, np.array([0, 1]), x, np.array([0, 1]), TrainConfig(),
                evaluate_fn=lambda net, x_val, y_val: (0.5, float("nan")))

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
        from bridgecap.imaging import encode_pnm

        rng = np.random.default_rng(0)
        items = {"train": [], "test": []}
        for side, count in (("train", 8), ("test", 4)):
            for i in range(count):
                cls = 2 if i % 2 == 0 else 5
                shade = 40 if cls == 2 else 200
                path = f"{side}_{i}.pnm"
                pixels = np.full((8, 8, 3), shade, dtype=np.uint8)
                pixels += rng.integers(0, 20, pixels.shape).astype(np.uint8)
                (tmp_path / path).write_bytes(encode_pnm(pixels))
                items[side].append(DatasetItem(image_path=path, cls=cls))
        split = DatasetSplit(train=tuple(items["train"]), test=tuple(items["test"]))

        net = Network(micro_cnn(["2", "5"], input_shape=(3, 8, 8)), seed=0)
        ckpt = train(net, split, TrainConfig(max_epochs=3, seed=0), tmp_path)
        assert len(ckpt.history["val_acc"]) == ckpt.history["stopped_epoch"]

    def test_head_width_mismatch(self):
        net = Network(linear_head(4, ["a", "b", "c"]), seed=0)
        split = DatasetSplit(
            train=(DatasetItem("x", 1), DatasetItem("y", 2)),
            test=(DatasetItem("z", 1),),
        )
        with pytest.raises(DomainError, match="head"):
            train(net, split, TrainConfig(), None)


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

    def test_seeded_init_bytes_are_pinned(self):
        digests = []
        for dtype in (np.float32, np.float64):
            desc = micro_cnn(["a", "b", "c"], input_shape=(3, 16, 16))
            net = Network(desc, seed=11, dtype=dtype)
            raw = b"".join(p.tobytes() for p in net.parameters())
            digests.append(hashlib.sha256(raw).hexdigest())
        assert digests == [
            "076b4046fa28a1ec291c20fe8a96f989684e7c5d4eb3d0d93cba6158c3e35f1b",
            "62bd321a732182eb36a81c2f9bca8abde64ffa56283f21e3822931d185f4b48e",
        ]

    def test_from_checkpoint_draws_no_initial_weights(self, monkeypatch):
        net = Network(tiny_descriptor(4), seed=3)
        ckpt = make_checkpoint(net)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew initial weights")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = Network(ckpt.descriptor, dtype=np.float64, weights=ckpt.weights)
        assert [p.dtype for p in loaded.parameters()] == [np.dtype(np.float64)] * len(ckpt.weights)
        for got, saved in zip(loaded.parameters(), ckpt.weights):
            assert got.tobytes() == saved.astype(np.float64).tobytes()

    def test_serialization_deterministic(self):
        net = Network(tiny_descriptor(4), seed=1)
        ckpt = make_checkpoint(net, {"val_acc": [1.0]})
        assert checkpoint_to_bytes(ckpt) == checkpoint_to_bytes(ckpt)

    def test_truncated_weights_detected(self):
        net = Network(linear_head(3, ["a", "b"]), seed=0)
        data = checkpoint_to_bytes(make_checkpoint(net))
        with pytest.raises(FormatError):
            decode_both(data[:-9])

    def test_bad_magic_detected(self):
        with pytest.raises(FormatError, match="magic"):
            decode_both(b"NOPE" + b"\x00" * 32)

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
                decode_both(data[:cut])

    @settings(PROPERTY, max_examples=300)
    @given(data=st.data())
    def test_damaged_checkpoint_raises_only_package_errors(self, data):
        with contextlib.suppress(BridgecapError):
            decode_both(data.draw(damaged(CHECKPOINT)))

    @pytest.mark.parametrize("meta", [
        b"\xff\xfe{}",
        b'{"input_shape": [2], "layers": [',
        b"[1, 2]",
        b"[" * 100_000,
    ], ids=["not_utf8", "cut_json", "not_an_object", "too_deep"])
    def test_bad_metadata_is_format_error(self, meta):
        header = MAGIC + struct.pack("<IQ", VERSION, len(meta))
        with pytest.raises(FormatError):
            decode_both(header + meta + b"\x00" * 8)

    # Metadata that is a JSON object but not a descriptor raises
    # ConfigError, as the descriptor would at construction.
    @pytest.mark.parametrize("meta, message", [
        (b'{"layers": [{"op": "softmax"}], "class_labels": ["a", "b"]}',
         "descriptor: missing field 'input_shape'"),
        (b'{"input_shape": 2, "layers": [{"op": "softmax"}], "class_labels": ["a", "b"]}',
         "descriptor.input_shape must be a list, got 2"),
    ], ids=["no_input_shape", "scalar_shape"])
    def test_bad_descriptor_is_config_error(self, meta, message):
        header = MAGIC + struct.pack("<IQ", VERSION, len(meta))
        with pytest.raises(ConfigError, match=re.escape(message)):
            decode_both(header + meta + b"\x00" * 8)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_history_is_not_written(self, value):
        ckpt = make_checkpoint(Network(linear_head(2, ["a", "b"])), {"val_acc": [value]})
        with pytest.raises(DomainError, match="cannot write checkpoint history"):
            checkpoint_to_bytes(ckpt)

    def test_unwritable_checkpoint_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"earlier checkpoint")
        ckpt = make_checkpoint(Network(linear_head(2, ["a", "b"])), {"val_acc": [math.nan]})
        with pytest.raises(DomainError, match="cannot write checkpoint history"):
            save_checkpoint(ckpt, path)
        assert path.read_bytes() == b"earlier checkpoint"

    @pytest.mark.parametrize("layers", [
        [{"op": "flatten"}, {"op": "fc", "n_out": 2**45}, {"op": "fc", "n_out": 2}],
        [{"op": "conv", "out_ch": 2**62}, {"op": "flatten"}, {"op": "fc", "n_out": 2}],
    ], ids=["fc", "conv"])
    def test_sizes_no_memory_holds_are_a_truncated_weight_block(self, layers):
        # The shapes are read without reserving memory for the weights.
        meta = b'{"class_labels":["a","b"],"input_shape":[1,3,3],"layers":%s}' % (
            json.dumps([*layers, {"op": "softmax"}]).encode())
        header = MAGIC + struct.pack("<IQ", VERSION, len(meta))
        with pytest.raises(FormatError, match="weight block truncated"):
            decode_both(header + meta + b"\x00" * 8)

    def test_flattened_width_past_int64_is_config_error(self):
        meta = (b'{"class_labels":["a","b"],"input_shape":[3,4294967296,4294967296],'
                b'"layers":[{"op":"flatten"},{"op":"fc","n_out":2},{"op":"softmax"}]}')
        header = MAGIC + struct.pack("<IQ", VERSION, len(meta))
        with pytest.raises(ConfigError, match=re.escape("layer 1 (fc).n_in must be int, got")):
            decode_both(header + meta + b"\x00" * 8)

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity", b"1e999", b"-1e999"])
    def test_non_finite_history_is_format_error(self, token):
        reason = "overflows a double" if b"e" in token else "is not a JSON number"
        data = checkpoint_to_bytes(make_checkpoint(Network(linear_head(2, ["a", "b"])),
                                                   {"val_acc": [0.5]}))
        history = b'{"val_acc":[' + token + b"]}"
        head = data[: -len(b'{"val_acc":[0.5]}') - 8]
        forged = head + struct.pack("<Q", len(history)) + history
        with pytest.raises(FormatError, match=re.escape(
                f"checkpoint history: not valid JSON ({token.decode()} {reason})")):
            decode_both(forged)

    def test_non_finite_metadata_is_format_error(self):
        meta = b'{"input_shape": [NaN], "layers": [], "class_labels": []}'
        header = MAGIC + struct.pack("<IQ", VERSION, len(meta))
        with pytest.raises(FormatError, match="NaN is not a JSON number"):
            decode_both(header + meta + b"\x00" * 8)

    def test_metadata_length_past_eof_is_format_error(self):
        data = checkpoint_to_bytes(make_checkpoint(Network(linear_head(2, ["a", "b"]))))
        with pytest.raises(FormatError, match="past the end"):
            decode_both(data[:8] + struct.pack("<Q", 2**63) + data[16:])

    @PROPERTY
    @given(cnn=st.booleans(), labels=st.lists(st.text(max_size=4), min_size=1, max_size=9),
           colour_mode=st.sampled_from(COLOUR_MODES), side=st.integers(4, 24),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trip_keeps_descriptor_weights_and_bytes(self, cnn, labels, colour_mode,
                                                           side, seed):
        desc = (micro_cnn(labels, input_shape=(3, side, side), colour_mode=colour_mode)
                if cnn else replace(linear_head(side, labels), colour_mode=colour_mode))
        rng = np.random.default_rng(seed)
        # Any bit pattern: NaN payloads, infinities, -0.0 and subnormals.
        weights = tuple(rng.integers(0, 2**32, size=shape, dtype=np.uint32).view("<f4")
                        for shape in desc.param_shapes())
        ckpt = Checkpoint(desc, weights, {"val_acc": [0.5], "best_epoch": 1})
        data_bytes = checkpoint_to_bytes(ckpt)
        loaded = checkpoint_from_bytes(data_bytes)
        assert loaded.descriptor == desc
        assert [w.tobytes() for w in loaded.weights] == [w.tobytes() for w in weights]
        assert checkpoint_to_bytes(loaded) == data_bytes

    def test_defaults_fill_every_size(self):
        desc = normalize_descriptor(ArchitectureDescriptor(
            (2, 9, 9),
            ({"op": "conv", "out_ch": 4}, {"op": "conv", "kh": 5, "out_ch": 3},
             {"op": "maxpool", "k": 2}, {"op": "flatten"}, {"op": "fc", "n_out": 2},
             {"op": "softmax"}),
            ("a", "b")))
        assert desc.layers == (
            {"op": "conv", "kh": 3, "kw": 3, "in_ch": 2, "out_ch": 4, "stride": 1, "pad": 0},
            {"op": "conv", "kh": 5, "kw": 5, "in_ch": 4, "out_ch": 3, "stride": 1, "pad": 0},
            {"op": "maxpool", "k": 2, "stride": 2},
            {"op": "flatten"},
            {"op": "fc", "n_in": 3, "n_out": 2},
            {"op": "softmax"},
        )

    @pytest.mark.parametrize("desc", [
        micro_cnn(["a", "b", "c"], input_shape=(3, 12, 12)),
        linear_head(5, ["a", "b"]),
        ArchitectureDescriptor((2, 6, 6), (
            {"op": "maxpool", "k": 3, "stride": 1}, {"op": "conv", "out_ch": 3, "kw": 2},
            {"op": "relu"}, {"op": "flatten"}, {"op": "fc", "n_out": 4}, {"op": "relu"},
            {"op": "fc", "n_out": 2}, {"op": "softmax"}), ("a", "b")),
    ], ids=["micro_cnn", "linear_head", "pool_first"])
    def test_param_shapes_are_the_network_parameter_shapes(self, desc):
        shapes = [p.shape for p in Network(desc, seed=0).parameters()]
        assert normalize_descriptor(desc).param_shapes() == shapes

    def test_bad_layer_sizes_are_config_errors(self):
        for key, value in (("out_ch", -4), ("stride", 0), ("kh", "3"), ("pad", -1)):
            spec = {"op": "conv", "kh": 3, "out_ch": 2, key: value}
            with pytest.raises(ConfigError, match=key):
                normalize_descriptor(ArchitectureDescriptor(
                    (1, 4, 4), (spec, {"op": "flatten"}, {"op": "softmax"}), ("a",) * 8))
        with pytest.raises(ConfigError, match="stride"):
            normalize_descriptor(ArchitectureDescriptor(
                (1, 4, 4), ({"op": "maxpool", "k": 2, "stride": 0}, {"op": "softmax"}), ("a",)))

    @pytest.mark.parametrize("spec", [
        {"op": "conv", "out_ch": 4, "stide": 2},
        {"op": "conv", "kernel": 3, "out_ch": 4},
        {"op": "maxpool", "k": 2, "pad": 1},
        {"op": "relu", "inplace": True},
        {"op": "flatten", "dims": 2},
        {"op": "fc", "out": 2},
        {"op": "softmax", "axis": 1},
    ], ids=["conv_typo", "conv_kernel_alias", "maxpool", "relu", "flatten", "fc_out_alias",
            "softmax"])
    def test_unknown_layer_key_is_config_error(self, spec):
        unknown = (spec.keys() - {"op", "out_ch", "k"}).pop()
        with pytest.raises(ConfigError, match=rf"unknown layer 0 \({spec['op']}\) keys: "
                                              rf"\['{unknown}'\]"):
            normalize_descriptor(ArchitectureDescriptor(
                (1, 4, 4), (spec, {"op": "flatten"}, {"op": "softmax"}), ("a",) * 16))

    def test_unknown_descriptor_key_is_config_error(self):
        meta = plain(micro_cnn(["a", "b"], input_shape=(3, 4, 4)))
        assert normalize_descriptor(meta) == micro_cnn(["a", "b"], (3, 4, 4))
        with pytest.raises(ConfigError, match=r"unknown descriptor keys: \['bogus'\]"):
            normalize_descriptor({**meta, "bogus": 1})

    @pytest.mark.parametrize("path, value, message", BAD_SIZES)
    def test_size_that_is_not_an_integer_is_config_error(self, path, value, message):
        meta = plain(micro_cnn(["a", "b"], input_shape=(3, 4, 4)))
        set_field(meta, path, value)
        with pytest.raises(ConfigError, match=message):
            normalize_descriptor(meta)

    @pytest.mark.parametrize("path, value, message", BAD_DESCRIPTORS)
    def test_malformed_descriptor_is_config_error(self, path, value, message):
        meta = plain(micro_cnn(["a", "b"], input_shape=(3, 4, 4)))
        set_field(meta, path, value)
        with pytest.raises(ConfigError, match=message):
            normalize_descriptor(meta)

    def test_forged_width_fails_before_any_allocation(self, tmp_path):
        meta = (b'{"class_labels":["a","b"],"input_shape":[1,3,3],"layers":[{"op":"flatten"},'
                b'{"op":"fc","n_out":35184372088832},{"op":"fc","n_out":2},{"op":"softmax"}]}')
        data = MAGIC + struct.pack("<IQ", VERSION, len(meta)) + meta + b"\x00" * 8
        path = tmp_path / "model.ckpt"
        path.write_bytes(data)
        for read in (lambda: checkpoint_from_bytes(data), lambda: load_checkpoint(path)):
            def decode():
                with pytest.raises(FormatError, match="weight block truncated: need 1266637"):
                    read()
            assert traced_peak(decode)[1] < 2**20

    def test_each_boundary_has_its_own_message(self):
        net = Network(linear_head(3, ["a", "b"]), seed=0)
        data = checkpoint_to_bytes(make_checkpoint(net, {"val_acc": [0.5]}))
        (meta_len,) = struct.unpack_from("<Q", data, 8)
        meta_end = 16 + meta_len
        weights_end = meta_end + 4 * (3 * 2) + 4 * 2
        cases = [
            (b"NOPE" + data[4:], "bad checkpoint magic b'NOPE'"),
            (data[:15], "checkpoint header truncated at 15 of 16 bytes"),
            (data[:8] + struct.pack("<Q", 0), "checkpoint metadata: not valid JSON"),
            (data[:8] + struct.pack("<Q", meta_len + 1) + data[16:meta_end],
             f"metadata of {meta_len + 1} bytes runs past the end of the file"),
            (data[:meta_end], f"weight block truncated: need 24 bytes at offset {meta_end}"),
            (data[: weights_end - 1],
             f"weight block truncated: need 8 bytes at offset {meta_end + 24}"),
            (data[:weights_end], "missing history block"),
            (data[: weights_end + 7], "missing history block"),
            (data[:weights_end] + struct.pack("<Q", 0), "checkpoint history: not valid JSON"),
            (data[:-1], f"history length mismatch: expected end at {len(data)}, "
                        f"file has {len(data) - 1}"),
            (data + b" ", f"history length mismatch: expected end at {len(data)}, "
                          f"file has {len(data) + 1}"),
        ]
        for forged, message in cases:
            with pytest.raises(FormatError, match=re.escape(message)):
                decode_both(forged)

    def test_file_cut_while_it_is_read_is_format_error(self):
        net = Network(micro_cnn(["a", "b"], input_shape=(3, 4, 4)), seed=0)
        data = checkpoint_to_bytes(make_checkpoint(net, {"val_acc": [0.5]}))
        (meta_len,) = struct.unpack_from("<Q", data, 8)
        history = 8 + len(b'{"val_acc":[0.5]}')

        class Cut(io.BytesIO):
            """The first bytes of a file whose size read ``len(data)``
            before it was cut."""

            def seek(self, offset, whence=io.SEEK_SET):
                end = super().seek(offset, whence)
                return len(data) if whence == io.SEEK_END else end

        for cut, message in ((16 + meta_len + 100, "weight block truncated"),
                             (len(data) - history, "missing history block"),
                             (len(data) - 1, "history length mismatch")):
            with pytest.raises(FormatError, match=message):
                checkpoint_from_bytes(Cut(data[:cut]))

    def test_checkpoint_read_from_a_pipe_loads(self, tmp_path):
        net = Network(micro_cnn(["a", "b"], input_shape=(3, 16, 16)), seed=1)
        data = checkpoint_to_bytes(make_checkpoint(net, {"val_acc": [0.5]}))
        fifo = tmp_path / "model.ckpt"
        os.mkfifo(fifo)
        # The pipe holds less than the checkpoint, so a thread writes it.
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            loaded = load_checkpoint(fifo)
        finally:
            writer.join()
        assert len(data) > 2**16 and checkpoint_to_bytes(loaded) == data
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as source:
            with os.fdopen(write_end, "wb") as sink:
                sink.write(data[:4096])
            with pytest.raises(FormatError, match="weight block truncated"):
                checkpoint_from_bytes(source)


class TestHeldOnce:
    """Building, writing, reading and running a model hold its weights
    once: at most one small block beside the arrays that are kept."""

    @staticmethod
    def weight_bytes(arrays):
        return sum(a.nbytes for a in arrays)

    @PROPERTY
    @given(rows=st.integers(1, 3 * L._DRAW // 4), cols=st.sampled_from([1, 4, 7]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    @example(rows=8192, cols=128, dtype=np.float32, seed=0)
    @example(rows=L._DRAW, cols=1, dtype=np.float64, seed=0)
    @example(rows=L._DRAW + 1, cols=1, dtype=np.float32, seed=0)
    def test_block_drawn_init_matches_one_draw(self, rows, cols, dtype, seed):
        for shape in ((rows, cols), (rows, cols, 1, 1)):
            drawn, whole = np.random.default_rng(seed), np.random.default_rng(seed)
            got = L._glorot(drawn, 27, 144, shape, dtype)
            a = np.sqrt(6.0 / (27 + 144))
            expected = whole.uniform(-a, a, size=shape).astype(dtype)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert drawn.bit_generator.state == whole.bit_generator.state

    def test_building_a_network_holds_its_parameters_once(self):
        desc = micro_cnn(["a", "b"])
        Network(desc, seed=7)  # first-use imports and caches are not the build's
        net, peak = traced_peak(lambda: Network(desc, seed=7))
        # A float64 draw of the whole shape, then its cast, put it at 3.0x.
        assert peak <= 1.1 * self.weight_bytes(net.parameters()), peak

    def test_encode_makes_one_copy(self):
        ckpt = make_checkpoint(Network(micro_cnn(["a", "b"]), seed=7), {"val_acc": [0.5]})
        data, peak = traced_peak(lambda: checkpoint_to_bytes(ckpt))
        assert peak <= self.weight_bytes(ckpt.weights) + 2**20, peak
        assert len(data) > self.weight_bytes(ckpt.weights)

    def test_loaded_network_shares_the_checkpoint_weights(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_checkpoint(Network(micro_cnn(["a", "b"]), seed=7)), path)
        network_from_checkpoint(load_checkpoint(path))  # first use, as above

        def load():
            ckpt = load_checkpoint(path)
            return ckpt, network_from_checkpoint(ckpt)

        (ckpt, net), peak = traced_peak(load)
        assert peak <= 1.1 * self.weight_bytes(ckpt.weights), peak
        params = net.parameters()
        assert len(params) == len(ckpt.weights)
        assert all(np.shares_memory(p, w) for p, w in zip(params, ckpt.weights))

    def test_only_ready_arrays_are_shared(self):
        desc = linear_head(3, ["a", "b"])
        w = np.arange(6, dtype=np.float32).reshape(3, 2)
        b = np.array([0.5, -0.5], dtype=np.float32)
        frozen = b.copy()
        frozen.flags.writeable = False
        unaligned = np.zeros(4 * w.size + 1, dtype=np.uint8)[1:].view(np.float32).reshape(3, 2)
        unaligned[...] = w
        assert not unaligned.flags.aligned
        cases = [
            ((w, b), np.float32, (True, True)),
            ((np.asfortranarray(w), b), np.float32, (False, True)),
            ((w, frozen), np.float32, (True, False)),
            ((unaligned, b), np.float32, (False, True)),
            ((w.astype(">f4"), b), np.float32, (False, True)),
            ((w, b), np.float64, (False, False)),
        ]
        for weights, dtype, shared in cases:
            net = Network(desc, dtype=dtype, weights=weights)
            params = net.parameters()
            assert [np.shares_memory(p, s) for p, s in zip(params, weights)] == list(shared)
            assert all(p.dtype == dtype and p.flags.c_contiguous and p.flags.writeable
                       for p in params)
            assert [p.tolist() for p in params] == [w.tolist(), b.tolist()]

    def test_predict_proba_scales_pixels_a_slice_at_a_time(self):
        net = Network(micro_cnn(["a", "b"]), seed=7)
        x = np.random.default_rng(0).integers(0, 256, (480, 3, 64, 64), dtype=np.uint8)
        with split_helpers(0):
            expected = predict_proba(net, pixels_to_tensor(x[:40]))
            assert predict_proba(net, x[:40]).tobytes() == expected.tobytes()
            _, peak = traced_peak(lambda: predict_proba(net, x))
        # 6.8 MiB when each group of chunks was scaled and stacked as floats.
        assert peak < 6 * 2**20, peak / 2**20


class TestFeatureHead:
    """``fit`` on a linear head over flat feature vectors, with every
    second row held out for validation."""

    @staticmethod
    def fit_head(x, labels, config):
        names = sorted(set(labels))
        y = np.array([names.index(v) for v in labels])
        val = np.arange(len(x)) % 2 == 1
        net = Network(linear_head(x.shape[1], names), seed=config.seed)
        return fit(net, x[~val], y[~val], x[val], y[val], config)

    def test_linearly_separable_reaches_full_train_accuracy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4)).astype(np.float32)
        labels = np.where(x[:, 0] + 0.5 * x[:, 1] > 0, "hi", "lo")
        ckpt = self.fit_head(
            x, labels, TrainConfig(max_epochs=60, learning_rate=0.5, patience=10, seed=1)
        )
        assert max(ckpt.history["train_acc"]) == 1.0

    def test_shuffled_labels_stay_near_chance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 6)).astype(np.float32)
        labels = rng.permutation(np.array(["a", "b", "c"] * 100))
        ckpt = self.fit_head(x, labels, TrainConfig(max_epochs=10, seed=2))
        assert abs(max(ckpt.history["val_acc"]) - 1 / 3) <= 0.1
