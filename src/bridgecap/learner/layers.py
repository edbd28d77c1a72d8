"""Network layers with explicit forward/backward passes.

Convolution and pooling are vectorized through slice-strided window
views (a loop over the kernel footprint, not over pixels), which keeps a
minutes-scale CPU training budget realistic. Gradients mirror parameter
shapes.

``forward(x)`` is inference and keeps nothing. ``forward(x, train=True)``
also saves what the next ``backward`` needs, and ``backward`` consumes
it: no array outlives the step that made it, and a ``backward`` without
a training forward before it raises ``InvariantError``. Layers never
write into their input or into an array they have returned.
"""

import numpy as np

from ..errors import InvariantError


class _Layer:
    params = []
    _saved = None

    def grads(self):
        return []

    def _take_saved(self):
        saved, self._saved = self._saved, None
        if saved is None:
            raise InvariantError(f"{type(self).__name__}.backward needs a training forward")
        return saved


class Conv(_Layer):
    """2-D convolution, zero padding, square stride."""

    def __init__(self, kh, kw, in_ch, out_ch, stride, pad, rng, dtype):
        self.kh, self.kw = kh, kw
        self.in_ch, self.out_ch = in_ch, out_ch
        self.stride, self.pad = stride, pad
        fan_in = in_ch * kh * kw
        fan_out = out_ch * kh * kw
        a = np.sqrt(6.0 / (fan_in + fan_out))
        self.w = rng.uniform(-a, a, size=(out_ch, in_ch, kh, kw)).astype(dtype)
        self.b = np.zeros(out_ch, dtype=dtype)
        self.dw = None
        self.db = None

    @property
    def params(self):
        return [("w", self.w), ("b", self.b)]

    def grads(self):
        return [self.dw, self.db]

    def forward(self, x, train=False):
        n, c, h, w = x.shape
        s, p = self.stride, self.pad
        oh = (h + 2 * p - self.kh) // s + 1
        ow = (w + 2 * p - self.kw) // s + 1
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        cols = np.empty((n, c, self.kh, self.kw, oh, ow), dtype=x.dtype)
        for i in range(self.kh):
            for j in range(self.kw):
                cols[:, :, i, j] = xp[:, :, i : i + s * oh : s, j : j + s * ow : s]
        cols2 = cols.reshape(n, c * self.kh * self.kw, oh * ow)
        out = np.matmul(self.w.reshape(self.out_ch, -1), cols2)
        out += self.b[:, None]
        if train:
            self._saved = (cols2, x.shape)
        return out.reshape(n, self.out_ch, oh, ow)

    def backward(self, dout, input_grad=True):
        """Fill dW and db and return dX; with ``input_grad=False`` (the
        lowest parameter layer of a network) skip dX and return None."""
        cols2, (n, c, h, w) = self._take_saved()
        s, p = self.stride, self.pad
        oh, ow = dout.shape[2:]
        dout2 = dout.reshape(n, self.out_ch, oh * ow)
        self.dw = (
            np.matmul(dout2, cols2.transpose(0, 2, 1)).sum(axis=0).reshape(self.w.shape)
        )
        self.db = dout.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        wm = self.w.reshape(self.out_ch, -1)
        dcols = np.matmul(wm.T, dout2).reshape(n, c, self.kh, self.kw, oh, ow)
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dout.dtype)
        for i in range(self.kh):
            for j in range(self.kw):
                dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += dcols[:, :, i, j]
        return dxp[:, :, p : p + h, p : p + w] if p else dxp


class Relu(_Layer):
    """max(x, 0); a training forward keeps only the x > 0 mask."""

    def forward(self, x, train=False):
        if train:
            self._saved = x > 0
        return np.maximum(x, 0)

    def backward(self, dout):
        return dout * self._take_saved()


class MaxPool(_Layer):
    """Max pooling; ties go to the first cell in window scan order.

    The forward pass folds the k*k strided window views into the output
    with ``np.maximum``. A training forward keeps its input and output,
    and the backward pass finds each window's winner again by walking
    the same views in scan order: a cell wins where it equals the output
    and no earlier cell of its window has won.
    """

    def __init__(self, k, stride):
        self.k, self.stride = k, stride

    def _views(self, oh, ow):
        k, s = self.k, self.stride
        return [
            (slice(None), slice(None), slice(i, i + s * oh, s), slice(j, j + s * ow, s))
            for i in range(k)
            for j in range(k)
        ]

    def forward(self, x, train=False):
        h, w = x.shape[2:]
        oh = (h - self.k) // self.stride + 1
        ow = (w - self.k) // self.stride + 1
        first, *rest = self._views(oh, ow)
        out = x[first].copy()
        for view in rest:
            np.maximum(out, x[view], out=out)
        if train:
            self._saved = (x, out)
        return out

    def backward(self, dout):
        x, out = self._take_saved()
        dx = np.zeros(x.shape, dtype=dout.dtype)
        unclaimed = np.ones(out.shape, dtype=bool)
        hit = np.empty(out.shape, dtype=bool)
        for view in self._views(*out.shape[2:]):
            np.equal(x[view], out, out=hit)
            hit &= unclaimed
            unclaimed ^= hit
            dx[view] += dout * hit
        return dx


class Flatten(_Layer):
    def forward(self, x, train=False):
        if train:
            self._saved = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._take_saved())


class FullyConnected(_Layer):
    def __init__(self, n_in, n_out, rng, dtype):
        self.n_in, self.n_out = n_in, n_out
        a = np.sqrt(6.0 / (n_in + n_out))
        self.w = rng.uniform(-a, a, size=(n_in, n_out)).astype(dtype)
        self.b = np.zeros(n_out, dtype=dtype)
        self.dw = None
        self.db = None

    @property
    def params(self):
        return [("w", self.w), ("b", self.b)]

    def grads(self):
        return [self.dw, self.db]

    def forward(self, x, train=False):
        if train:
            self._saved = x
        return x @ self.w + self.b

    def backward(self, dout, input_grad=True):
        """Fill dW and db and return dX (None with ``input_grad=False``)."""
        x = self._take_saved()
        self.dw = x.T @ dout
        self.db = dout.sum(axis=0)
        return dout @ self.w.T if input_grad else None


class Softmax(_Layer):
    """Terminal probability layer. The loss path bypasses its backward
    (softmax and cross-entropy are differentiated together)."""

    def forward(self, z, train=False):
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def backward(self, dout):
        raise InvariantError("softmax backward is folded into the loss gradient")
