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

What a training forward saves is its input or smaller: ``Conv`` its
padded input, ``Relu`` its mask, ``MaxPool`` its input and output.
``Conv.backward`` unfolds each slice of that input again (im2col) into
columns of the slice's own, rather than keep the forward's full-batch
columns, kh * kw times the padded input, until the backward: the
recompute trade of Chen et al. 2016 (arXiv:1604.06174). It cut the
traced allocation peak of a 32-image 64-px ``micro_cnn`` SGD step from
58.8 to 37.9 MiB, and added about 2-3 ms to that step on one thread.

Per-image work runs on every core, and ``forward`` and ``backward`` run
only on the calling thread. ``Conv`` (im2col, the per-image GEMMs, bias
and col2im), ``Relu`` and ``MaxPool`` write each image's results into
full-batch buffers through ``_split``, which hands slices of ``_SLICE``
images to whichever thread asks next: the calling thread and one helper
per further CPU. A slice runs only a layer's private per-slice code,
which may run on any thread. Work that mixes images stays whole-batch
on the calling thread: the ``dw`` sum over per-image products, every
``db``, and all of ``FullyConnected``. So every output byte is the same
whatever the helper count and wherever the slices fall.

Each of those three layers keeps its forward arithmetic in one kernel,
``_kernel``, which writes into buffers it is handed. ``forward`` calls
it on slices of the full-batch buffers. ``_infer_slice(x, out=None)``
calls it for a few images on buffers of its own, or writes into ``out``
when given (C-contiguous, of any shape with the right size).
``begin_trunk`` uses ``_infer_slice`` for inference: a network's trunk,
the leading conv, relu and maxpool layers and the flatten after them,
runs depth-first over a group of images, each slice going through every
trunk layer before the next slice is taken, and the slices write their
flattened output into one buffer for the group. The work per image is
that of ``forward``, and so are the bytes, but there is one hand-off per
slice instead of one per slice and layer. ``begin_trunk`` returns before
the calling thread joins in, so the caller can run the layers that mix
images over the previous group meanwhile.

The calling thread also pads the input and allocates every full-batch
buffer, gradient buffers zeroed, in the order a whole-batch layer would.
glibc reuses freed heap memory well for that order and poorly for
others: padding per slice after allocating ``cols2`` and zeroing each
slice of an ``np.empty`` gradient buffer tripled the page faults of a
``train`` run with BLAS on two threads (about 75k against 26k) and made
it 13% slower. ``Conv.forward``'s full-batch ``cols2`` is such a buffer,
freed when the forward returns. Unfolding into per-slice columns in the
forward too held less, but without that freed chunk raising glibc's
dynamic mmap threshold the 4-8 MB activation buffers were mapped afresh
at every step, about 1,500 page faults per step.

Helpers are used only when the process may run on more than one CPU and
BLAS is configured for one thread through the variables it reads
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``: at
least one set, every one set reading 1). With BLAS left to start its own
threads, its spinning workers compete with the helpers: a 64-px
``micro_cnn`` SGD step on 32 images went from 104 to 130 ms on a 2-vCPU
Xeon with OpenBLAS 0.3.31 when helpers were forced on. Without
helpers the calling thread takes every slice in turn, through the same
code. Pinned to one CPU of that Xeon, the process that trains on 600
64-px images for 3 epochs then peaked at 108.6 MB. It peaked at 129.9 MB
while ``Conv`` kept its full-batch columns, and at 147.9 MB with the
whole batch as one slice as well. All three wrote the same checkpoint.
"""

import math
import os
import threading

import numpy as np

from ..errors import InvariantError

_SLICE = 4  # images per slice: small enough that an idle thread finds work
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (executor or None, helper count), made on first use; None until then.
_pool = None
_pool_lock = threading.Lock()


def _make_pool():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    settings = [os.environ[var].strip() for var in _BLAS_THREAD_VARS if var in os.environ]
    helpers = (cpus or 1) - 1 if settings and all(v == "1" for v in settings) else 0
    if not helpers:
        return None, 0
    # Imported here: it pulls in logging, which a process that never
    # trains would load for nothing.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(helpers, "bridgecap-split"), helpers


def _split(fn, n):
    """Run ``fn(part)`` over consecutive slices ``part`` of ``range(n)``
    that together cover it once, then return. ``fn`` must touch only its
    own slice of any batch buffer. An exception from a slice reaches the
    caller after every slice already started has finished."""
    _begin(fn, n)()


def _begin(fn, n):
    """Start ``_split(fn, n)`` and return its ``finish()``: the helpers
    take slices at once, and the calling thread joins in, waits for them
    and raises a slice's exception only when it calls ``finish``. Until
    then it may do work that touches none of ``fn``'s buffers."""
    global _pool
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                _pool = _make_pool()
    executor, helpers = _pool
    slices = -(-n // _SLICE)
    if slices < 2:
        return lambda: fn(slice(0, n))
    starts = iter(range(0, n, _SLICE))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            fn(slice(start, min(start + _SLICE, n)))

    futures = [executor.submit(work) for _ in range(min(helpers, slices - 1))]

    def finish():
        try:
            work()
        finally:
            # A helper that has not started has nothing left to do: cancel
            # it rather than wait for it to wake. exception() waits for the
            # rest.
            errors = [future.exception() for future in futures if not future.cancel()]
        for error in errors:
            if error is not None:
                raise error

    return finish


def begin_trunk(trunk, x, out):
    """Start running the per-image layers ``trunk``, a ``Flatten`` last,
    over the images ``x`` depth-first, writing their flattened output
    into ``out`` (n, features), and return the ``finish`` of ``_begin``.
    Each slice of at most ``_SLICE`` images that ``_begin`` hands over
    goes through every layer before the next slice is taken: a 32-image
    slice took 591 us per image, 4-image ones 535 (one thread, 64-px
    ``micro_cnn``). Only the layers' private kernels run in the slices,
    on arrays the slice owns; a ReLU works in place on them."""
    *body, _ = trunk  # out is flat already, so the Flatten has nothing to do
    last = len(body) - 1

    def run(rows):
        h = x[rows]
        for i, layer in enumerate(body):
            target = out[rows] if i == last else h if i and isinstance(layer, Relu) else None
            h = layer._infer_slice(h, target)
        if not body:
            out[rows] = h.reshape(len(h), -1)

    return _begin(run, len(x))


def out_len(n, k, stride, pad=0):
    """The number of windows of ``k`` cells, ``stride`` apart, along an
    axis of ``n`` cells padded with ``pad`` zeros at each end."""
    return (n + 2 * pad - k) // stride + 1


def _glorot(rng, fan_in, fan_out, shape, dtype):
    """Glorot-uniform weights drawn from ``rng``; with ``rng`` None,
    uninitialised ones for ``Network.set_weights`` to fill."""
    if rng is None:
        return np.empty(shape, dtype=dtype)
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape).astype(dtype)


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


class _Weighted(_Layer):
    """A layer with a weight ``w`` and a bias ``b``, and their gradients
    ``dw`` and ``db`` once a backward has run."""

    dw = db = None

    @property
    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]


class Conv(_Weighted):
    """2-D convolution, zero padding, square stride.

    A training forward keeps its padded input, which with ``pad == 0``
    is the caller's input, held by reference as ``MaxPool`` holds its
    own. ``backward`` unfolds each slice of it again with ``_unfold``,
    the loop the forward's ``_kernel`` runs, before the per-image dW
    GEMM and the dX path.
    """

    def __init__(self, kh, kw, in_ch, out_ch, stride, pad, rng, dtype):
        self.kh, self.kw = kh, kw
        self.in_ch, self.out_ch = in_ch, out_ch
        self.stride, self.pad = stride, pad
        self.w = _glorot(rng, in_ch * kh * kw, out_ch * kh * kw, (out_ch, in_ch, kh, kw), dtype)
        self.b = np.zeros(out_ch, dtype=dtype)

    def _unfold_shapes(self, x):
        """(padded input, ``cols2`` shape, output shape) for the images ``x``."""
        n, c, h, w = x.shape
        s, p = self.stride, self.pad
        oh, ow = out_len(h, self.kh, s, p), out_len(w, self.kw, s, p)
        xp = x
        if p:  # np.pad's steps; its own set-up took longer than they did on 4 images
            xp = np.empty((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
            xp[:, :, p : p + h, p : p + w] = x
            xp[:, :, :p] = xp[:, :, p + h :] = 0
            xp[:, :, p : p + h, :p] = xp[:, :, p : p + h, p + w :] = 0
        return xp, (n, c * self.kh * self.kw, oh * ow), (n, self.out_ch, oh, ow)

    def _unfold(self, xp, cols2):
        """Unfold the padded images ``xp`` into ``cols2`` (n, c * kh * kw,
        oh * ow)."""
        s = self.stride
        oh, ow = out_len(xp.shape[2], self.kh, s), out_len(xp.shape[3], self.kw, s)
        cols = cols2.reshape(-1, self.in_ch, self.kh, self.kw, oh, ow)
        for i in range(self.kh):
            for j in range(self.kw):
                cols[:, :, i, j] = xp[:, :, i : i + s * oh : s, j : j + s * ow : s]

    def _kernel(self, xp, cols2, out):
        """Convolve the padded images ``xp`` into ``out`` (n, out_ch,
        oh * ow), unfolding them into ``cols2`` first."""
        self._unfold(xp, cols2)
        np.matmul(self.w.reshape(self.out_ch, -1), cols2, out=out)
        out += self.b[:, None]

    def _infer_slice(self, x, out=None):
        xp, cols_shape, out_shape = self._unfold_shapes(x)
        cols2 = np.empty(cols_shape, dtype=x.dtype)
        if out is None:
            out = np.empty(out_shape, dtype=np.result_type(self.w, x))
        self._kernel(xp, cols2, out.reshape(cols_shape[0], self.out_ch, -1))
        return out.reshape(out_shape)

    def forward(self, x, train=False):
        xp, cols_shape, out_shape = self._unfold_shapes(x)
        n = len(x)
        cols2 = np.empty(cols_shape, dtype=x.dtype)
        out = np.empty((n, self.out_ch, cols_shape[2]), dtype=np.result_type(self.w, x))
        _split(lambda part: self._kernel(xp[part], cols2[part], out[part]), n)
        if train:
            self._saved = (xp, x.shape)
        return out.reshape(out_shape)

    def backward(self, dout, input_grad=True):
        """Fill dW and db and return dX; with ``input_grad=False`` (the
        lowest parameter layer of a network) skip dX and return None."""
        xp, (n, c, h, w) = self._take_saved()
        s, p = self.stride, self.pad
        oh, ow = dout.shape[2:]
        dout2 = dout.reshape(n, self.out_ch, oh * ow)
        wm = self.w.reshape(self.out_ch, -1)
        dw_each = np.empty((n, *wm.shape), dtype=np.result_type(dout, xp))
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dout.dtype) if input_grad else None

        def run(part):
            xs = xp[part]
            cols2 = np.empty((len(xs), wm.shape[1], oh * ow), dtype=xs.dtype)
            self._unfold(xs, cols2)
            np.matmul(dout2[part], cols2.transpose(0, 2, 1), out=dw_each[part])
            if not input_grad:
                return
            dcols = np.matmul(wm.T, dout2[part]).reshape(-1, c, self.kh, self.kw, oh, ow)
            dx = dxp[part]
            for i in range(self.kh):
                for j in range(self.kw):
                    dx[:, :, i : i + s * oh : s, j : j + s * ow : s] += dcols[:, :, i, j]

        _split(run, n)
        self.dw = dw_each.sum(axis=0).reshape(self.w.shape)
        self.db = dout.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        return dxp[:, :, p : p + h, p : p + w] if p else dxp


class Relu(_Layer):
    """max(x, 0); a training forward keeps only the x > 0 mask.

    Only input with spatial axes goes through ``_split``. On a 2-D batch
    of fully-connected activations the hand-off costs more than the
    work: an 8-row forward took 0.041 ms split and 0.002 ms inline.
    """

    @staticmethod
    def _run(run, x):
        if x.ndim > 2:
            _split(run, len(x))
        else:
            run(slice(None))

    @staticmethod
    def _kernel(x, out, mask=None):
        np.maximum(x, 0, out=out)
        if mask is not None:
            np.greater(x, 0, out=mask)

    def _infer_slice(self, x, out=None):
        out = np.empty_like(x) if out is None else out.reshape(x.shape)
        self._kernel(x, out)
        return out

    def forward(self, x, train=False):
        out = np.empty_like(x)
        mask = np.empty(x.shape, dtype=bool) if train else None

        def run(part):
            self._kernel(x[part], out[part], None if mask is None else mask[part])

        self._run(run, x)
        if train:
            self._saved = mask
        return out

    def backward(self, dout):
        mask = self._take_saved()
        dx = np.empty_like(dout)

        def run(part):
            np.multiply(dout[part], mask[part], out=dx[part])

        self._run(run, dout)
        return dx


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

    def _kernel(self, x, out):
        first, *rest = self._views(*out.shape[2:])
        np.copyto(out, x[first])
        for view in rest:
            np.maximum(out, x[view], out=out)

    def _out_shape(self, x):
        n, c, h, w = x.shape
        return n, c, out_len(h, self.k, self.stride), out_len(w, self.k, self.stride)

    def _infer_slice(self, x, out=None):
        shape = self._out_shape(x)
        out = np.empty(shape, dtype=x.dtype) if out is None else out.reshape(shape)
        self._kernel(x, out)
        return out

    def forward(self, x, train=False):
        out = np.empty(self._out_shape(x), dtype=x.dtype)
        _split(lambda part: self._kernel(x[part], out[part]), len(x))
        if train:
            self._saved = (x, out)
        return out

    def backward(self, dout):
        x, out = self._take_saved()
        views = self._views(*out.shape[2:])
        dx = np.zeros(x.shape, dtype=dout.dtype)

        def run(part):
            xs, outs, douts, dxs = x[part], out[part], dout[part], dx[part]
            unclaimed = np.ones(outs.shape, dtype=bool)
            hit = np.empty(outs.shape, dtype=bool)
            for view in views:
                np.equal(xs[view], outs, out=hit)
                hit &= unclaimed
                unclaimed ^= hit
                dxs[view] += douts * hit

        _split(run, len(x))
        return dx


class Flatten(_Layer):
    def forward(self, x, train=False):
        if train:
            self._saved = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # -1 fails on zero rows

    def backward(self, dout):
        return dout.reshape(self._take_saved())


class FullyConnected(_Weighted):
    def __init__(self, n_in, n_out, rng, dtype):
        self.n_in, self.n_out = n_in, n_out
        self.w = _glorot(rng, n_in, n_out, (n_in, n_out), dtype)
        self.b = np.zeros(n_out, dtype=dtype)

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
