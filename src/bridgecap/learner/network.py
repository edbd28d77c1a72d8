"""Architecture descriptors and the network object built from them.

A descriptor is data: an input shape, an ordered list of layer specs,
the class labels the head predicts, and the colour mode its tensors are
prepared with. One checker, ``config.check``, rejects its wrong types and
unknown keys. Validation then propagates shapes through the stack once,
so a bad wiring fails at construction and names the offending layer.

``_OPS`` is the one description of the layer ops. For each op it gives
the layer class and the integer sizes a spec may hold beside the op,
each with its default: None when the spec must give it, a number, the
name of an earlier size it copies, or ``_INPUT`` when the layer's input
fixes it. ``normalize_descriptor`` checks a spec against that and fills
every size, and ``_build_layers`` passes the filled sizes to the class
as keywords, adding the generator and dtype for a class with weights.
"""

import math
from dataclasses import dataclass

import numpy as np

from .._records import plain
from ..config import check
from ..errors import ConfigError, DomainError
from ..imaging import COLOUR_MODES, pixels_to_tensor
from . import layers as L

_DESCRIPTOR_SHAPE = {"input_shape": [int], "layers": [dict], "class_labels": [str],
                     "colour_mode": str}
# Op -> (layer class, {size: default}); the module docstring reads a default.
_INPUT = object()
_OPS = {
    "conv": (L.Conv, {"kh": 3, "kw": "kh", "in_ch": _INPUT, "out_ch": None, "stride": 1,
                      "pad": 0}),
    "relu": (L.Relu, {}),
    "maxpool": (L.MaxPool, {"k": None, "stride": "k"}),
    "flatten": (L.Flatten, {}),
    "fc": (L.FullyConnected, {"n_in": _INPUT, "n_out": None}),
    "softmax": (L.Softmax, {}),
}


@dataclass(frozen=True)
class ArchitectureDescriptor:
    input_shape: tuple[int, ...]
    layers: tuple[dict, ...]
    class_labels: tuple[str, ...]
    colour_mode: str = "rgb"

    @property
    def num_classes(self) -> int:
        return len(self.class_labels)

    def image_size(self) -> tuple[int, int]:
        """(height, width) of the image input; DomainError for a network
        whose input is not a (3, height, width) image, such as a
        checkpoint whose input is a flat vector, since no image can be
        loaded for it."""
        if len(self.input_shape) != 3 or self.input_shape[0] != 3:
            raise DomainError(
                f"network input {self.input_shape} is not a (3, height, width) image"
            )
        return self.input_shape[1:]

    def param_shapes(self) -> list[tuple[int, ...]]:
        """The shapes of ``Network(self).parameters()``. The layers they
        are read from hold arrays of a zero-byte dtype, so sizes that no
        memory could hold, as a forged checkpoint may give, cost nothing."""
        return [p.shape for layer in _build_layers(self, None, np.dtype("V0"))
                for p in layer.params]


def _build_layers(descriptor, rng, dtype) -> list:
    """The layers of a normalized descriptor, their weights drawn from
    ``rng`` in layer order or, with ``rng`` None, left uninitialised;
    a ``relu`` followed by a ``maxpool`` comes after it (see ``Network``)."""
    layers = []
    for spec in descriptor.layers:
        cls, sizes = _OPS[spec["op"]]
        args = {key: spec[key] for key in sizes}
        if issubclass(cls, L._Weighted):
            args.update(rng=rng, dtype=dtype)
        if cls is L.MaxPool and layers and isinstance(layers[-1], L.Relu):
            layers.insert(-1, cls(**args))
        else:
            layers.append(cls(**args))
    return layers


def normalize_descriptor(desc) -> ArchitectureDescriptor:
    """``desc``, a descriptor or its plain JSON form, with every size of
    every layer filled as ``_OPS`` gives it. ``config.check`` alone rejects a
    wrong type or a key nothing reads; then required fields, sizes >= 1
    (pad >= 0), a given in_ch or n_in, the shapes, the colour mode and a
    softmax head as wide as the class labels are checked: ConfigError."""
    d = plain(desc)
    check(d, _DESCRIPTOR_SHAPE, "descriptor")
    for key in ("input_shape", "layers", "class_labels"):
        if key not in d:
            raise ConfigError(f"descriptor: missing field {key!r}")
    colour_mode = d.get("colour_mode", "rgb")
    if colour_mode not in COLOUR_MODES:
        raise ConfigError(f"unknown colour mode {colour_mode!r} (have {COLOUR_MODES})")
    shape = tuple(d["input_shape"])
    if len(shape) not in (1, 3) or min(shape) < 1:
        raise ConfigError(f"input_shape must be 1 or 3 integers >= 1, got {shape!r}")
    normalized = []
    for idx, spec in enumerate(d["layers"]):
        op = spec.get("op")
        where = f"layer {idx} ({op})"
        if op not in _OPS:
            raise ConfigError(f"{where}: unknown op (have {tuple(_OPS)})")
        sizes = _OPS[op][1]
        spec_types = {"op": str, **dict.fromkeys(sizes, int)}
        check(spec, spec_types, where)
        for key, default in sizes.items():
            if key in spec or default is _INPUT:
                continue
            if default is None:
                raise ConfigError(f"{where}: missing field {key!r}")
            spec[key] = spec[default] if isinstance(default, str) else default
        for key, value in spec.items():
            least = 0 if key == "pad" else 1
            if key != "op" and value < least:
                raise ConfigError(f"{where}: {key} must be an integer >= {least}, got {value!r}")
        if op in ("conv", "maxpool") and len(shape) != 3:
            raise ConfigError(f"{where}: needs (c, h, w) input, has {shape}")
        if op in ("fc", "softmax") and len(shape) != 1:
            raise ConfigError(f"{where}: needs flat input, has {shape}")
        for key, default in sizes.items():
            if default is _INPUT and spec.setdefault(key, shape[0]) != shape[0]:
                raise ConfigError(f"{where}: {key} is {spec[key]}, not its input's {shape[0]}")
        check(spec, spec_types, where)  # an n_in a flatten fixed may pass an int64
        if op == "conv":
            c, h, w = shape
            oh = L.out_len(h, spec["kh"], spec["stride"], spec["pad"])
            ow = L.out_len(w, spec["kw"], spec["stride"], spec["pad"])
            if oh < 1 or ow < 1:
                raise ConfigError(f"{where}: output collapses to {oh}x{ow}")
            shape = (spec["out_ch"], oh, ow)
        elif op == "maxpool":
            k, s = spec["k"], spec["stride"]
            c, h, w = shape
            if h < k or w < k:
                raise ConfigError(f"{where}: window {k} exceeds input {h}x{w}")
            shape = (c, L.out_len(h, k, s), L.out_len(w, k, s))
        elif op == "flatten":
            shape = (math.prod(shape),)
        elif op == "fc":
            shape = (spec["n_out"],)
        normalized.append(spec)

    if not normalized or normalized[-1]["op"] != "softmax":
        raise ConfigError("descriptor must end with a softmax layer")
    labels = tuple(d["class_labels"])
    if shape != (len(labels),):
        raise ConfigError(f"head width {shape} does not match {len(labels)} class labels")
    return ArchitectureDescriptor(tuple(d["input_shape"]), tuple(normalized), labels, colour_mode)


def micro_cnn(class_labels, input_shape=(3, 64, 64), colour_mode="rgb") -> ArchitectureDescriptor:
    """Small reference net: two conv/relu/pool blocks, one hidden fc.
    3x64x64 input gives conv16 -> pool -> conv32 -> pool -> fc128 -> fc K."""
    return normalize_descriptor(
        ArchitectureDescriptor(
            input_shape=tuple(input_shape),
            layers=(
                {"op": "conv", "kh": 3, "kw": 3, "out_ch": 16, "stride": 1, "pad": 1},
                {"op": "relu"},
                {"op": "maxpool", "k": 2, "stride": 2},
                {"op": "conv", "kh": 3, "kw": 3, "out_ch": 32, "stride": 1, "pad": 1},
                {"op": "relu"},
                {"op": "maxpool", "k": 2, "stride": 2},
                {"op": "flatten"},
                {"op": "fc", "n_out": 128},
                {"op": "relu"},
                {"op": "fc", "n_out": len(tuple(class_labels))},
                {"op": "softmax"},
            ),
            class_labels=tuple(str(c) for c in class_labels),
            colour_mode=colour_mode,
        )
    )


def network_from_checkpoint(ckpt) -> "Network":
    """The float32 network a checkpoint describes, carrying its weights."""
    return Network(ckpt.descriptor, weights=ckpt.weights)


class Network:
    """A stack of layers instantiated from a descriptor.

    Deterministic: weights come from one seeded generator consumed in
    layer order, or are copied from ``weights`` (in ``parameters`` order),
    which draws nothing. Its methods and every layer ``forward`` and
    ``backward`` run on the calling thread; layers may hand per-image
    slices to helper threads, which changes no output byte (see
    ``layers``). ``dtype`` is float32 for training and checkpoints;
    gradient-check tests build float64 instances.

    A uint8 input to any method is pixels (``imaging.load_batch``): it is
    scaled to [0, 1] in ``dtype`` by ``imaging.pixels_to_tensor`` on the
    calling thread, so a caller can hold a whole image set as uint8 and
    only the batch being forwarded, or the group ``predict_proba`` holds,
    exists as floats. Any other input is cast to ``dtype``.

    ``forward`` and ``logits`` are inference: no layer keeps anything
    after them. Only ``loss_and_grads`` runs layers in training mode,
    and its backward pass consumes what they saved. It starts training
    mode at the lowest layer with parameters and stops the backward pass
    there, since no caller reads a gradient below it.

    ReLU and max pooling commute, so ``_build_layers`` builds each
    ``relu -> maxpool`` pair of the descriptor as ``maxpool -> relu``,
    and the ReLU runs on the pooled cells, a quarter of them for a 2x2
    pool. The outputs and the parameter gradients keep their bytes; only
    the pair's own input gradient can read +0.0 where the descriptor's
    order gives -0.0, and the conv below sums it into the same bytes.
    So ``layers`` can differ in order from ``descriptor.layers``, while
    the descriptor, ``micro_cnn`` and the checkpoint keep the order
    given. Neither layer has parameters, so the parameter order,
    ``param_shapes`` and the indices ``_first_param`` and ``_trunk_end``
    are those of the descriptor's order.

    ``train.predict_proba`` infers through ``_trunk_features`` and
    ``_head`` instead of ``forward``. The trunk, the leading conv, relu
    and maxpool layers and the flatten after them, runs over a group of
    chunks through ``layers.begin_trunk``, whose slices call only the
    layers' private kernels. The head, every layer after the trunk, runs
    its ``forward`` over each chunk. Each chunk's probabilities are the
    bytes ``forward`` gives for it.
    """

    def __init__(self, descriptor: ArchitectureDescriptor, seed: int = 0, dtype=np.float32,
                 weights=None):
        descriptor = normalize_descriptor(descriptor)
        self.descriptor = descriptor
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed) if weights is None else None
        self.layers = _build_layers(descriptor, rng, self.dtype)
        self._first_param = next(
            (i for i, layer in enumerate(self.layers) if layer.params), len(self.layers) - 1
        )
        # The trunk: the leading conv, relu and maxpool layers and the
        # flatten after them, or nothing if no flatten follows them.
        ops = [spec["op"] for spec in descriptor.layers]
        lead = next(i for i, op in enumerate(ops) if op not in ("conv", "relu", "maxpool"))
        self._trunk_end = lead + 1 if ops[lead] == "flatten" else 0
        # Past the trunk every layer is flat, and only an fc changes the
        # width, so the trunk's width is the next fc's input width or
        # else the head's.
        fc = next((s for s in descriptor.layers[self._trunk_end :] if s["op"] == "fc"), None)
        self._trunk_width = fc["n_in"] if fc else descriptor.num_classes
        if weights is not None:
            self.set_weights(weights)

    # perfbench/tests/check_bench.py expects the benchmark tracer to
    # find the constructor under this name as well.
    from_checkpoint = staticmethod(network_from_checkpoint)

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def get_weights(self) -> list[np.ndarray]:
        return [arr.copy() for arr in self.parameters()]

    def set_weights(self, weights) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise DomainError(f"expected {len(params)} arrays, got {len(weights)}")
        for target, source in zip(params, weights):
            if target.shape != source.shape:
                raise DomainError(f"weight shape {source.shape} != {target.shape}")
            target[...] = np.asarray(source, dtype=self.dtype)

    # -- computation --------------------------------------------------------

    def _check_input(self, x):
        x = np.asarray(x)
        if x.shape[1:] != self.descriptor.input_shape:
            raise DomainError(
                f"input layer: tensor shape {x.shape[1:]} does not match "
                f"declared input {self.descriptor.input_shape}"
            )
        if x.dtype == np.uint8:
            return pixels_to_tensor(x, self.dtype)
        return x.astype(self.dtype, copy=False)

    def _infer(self, x, layers):
        out = self._check_input(x)
        for layer in layers:
            out = layer.forward(out)
        return out

    def forward(self, x) -> np.ndarray:
        """Class probability rows (each sums to 1)."""
        return self._infer(x, self.layers)

    def _trunk_features(self, groups):
        """Yield the trunk's output for each group of chunks in turn.
        Each chunk is checked and scaled on its own and a group's chunks
        are stacked. While the caller works on one group's output, the
        helper threads already run the next group's trunk."""
        pending = None
        for group in groups:
            x = [self._check_input(chunk) for chunk in group]
            x = x[0] if len(x) == 1 else np.concatenate(x)
            if not self._trunk_end:
                yield x
                continue
            out = np.empty((len(x), self._trunk_width), dtype=self.dtype)
            finish = L.begin_trunk(self.layers[: self._trunk_end], x, out)
            try:
                if pending is not None:
                    yield pending
            finally:
                finish()
            pending = out
        if pending is not None:
            yield pending

    def _head(self, features):
        """The layers after the trunk over ``features``, as ``forward``
        runs them."""
        for layer in self.layers[self._trunk_end :]:
            features = layer.forward(features)
        return features

    def logits(self, x) -> np.ndarray:
        return self._infer(x, self.layers[:-1])

    def loss_and_grads(self, x, y) -> tuple[float, np.ndarray]:
        """Mean softmax cross-entropy over the batch plus its gradients.

        Populates each parameter layer's gradient buffers and returns
        (loss, predicted labels). The softmax/cross-entropy pair is
        differentiated jointly: dlogits = (p - onehot) / batch.
        """
        trained = self.layers[self._first_param : -1]
        z = self._infer(x, self.layers[: self._first_param])
        for layer in trained:
            z = layer.forward(z, train=True)
        n = z.shape[0]
        z_shift = z - z.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(z_shift).sum(axis=1))
        y = np.asarray(y, dtype=np.int64)
        loss = float(np.mean(logsumexp - z_shift[np.arange(n), y], dtype=np.float64))

        probs = np.exp(z_shift - logsumexp[:, None])
        dz = probs
        dz[np.arange(n), y] -= 1.0
        dz = (dz / n).astype(self.dtype)
        for layer in reversed(trained[1:]):
            dz = layer.backward(dz)
        if trained:
            trained[0].backward(dz, input_grad=False)
        return loss, z.argmax(axis=1)
