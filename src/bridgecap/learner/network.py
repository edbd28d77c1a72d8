"""Architecture descriptors and the network object built from them.

A descriptor is data: an input shape, an ordered list of layer specs,
the class labels the head predicts, and the colour mode its tensors are
prepared with. Validation propagates shapes through the stack once, so
a bad wiring fails at construction and names the offending layer.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError, DomainError
from ..imaging import COLOUR_MODES
from . import layers as L

_LAYER_OPS = ("conv", "relu", "maxpool", "flatten", "fc", "softmax")


@dataclass(frozen=True)
class ArchitectureDescriptor:
    input_shape: tuple[int, ...]
    layers: tuple[dict, ...]
    class_labels: tuple[str, ...]
    colour_mode: str = "rgb"

    def to_dict(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "layers": [dict(spec) for spec in self.layers],
            "class_labels": list(self.class_labels),
            "colour_mode": self.colour_mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArchitectureDescriptor":
        return normalize_descriptor(
            cls(
                input_shape=tuple(d["input_shape"]),
                layers=tuple(d["layers"]),
                class_labels=tuple(d["class_labels"]),
                colour_mode=d.get("colour_mode", "rgb"),
            )
        )

    @property
    def num_classes(self) -> int:
        return len(self.class_labels)

    def param_shapes(self) -> list[tuple[int, ...]]:
        shapes = []
        for spec in self.layers:
            if spec["op"] == "conv":
                shapes.append((spec["out_ch"], spec["in_ch"], spec["kh"], spec["kw"]))
                shapes.append((spec["out_ch"],))
            elif spec["op"] == "fc":
                shapes.append((spec["n_in"], spec["n_out"]))
                shapes.append((spec["n_out"],))
        return shapes


def _check_sizes(spec, where, least):
    """``least`` maps each size field to its smallest allowed integer."""
    for key, low in least.items():
        value = spec[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ConfigError(f"{where}: {key} must be an integer >= {low}, got {value!r}")


def normalize_descriptor(desc: ArchitectureDescriptor) -> ArchitectureDescriptor:
    """Fill derived fields (conv in_ch, fc n_in) and verify the stack:
    shapes must compose, the final layer must be softmax over a head as
    wide as the class-label list, and the colour mode must be one of
    ``imaging.COLOUR_MODES``."""
    if desc.colour_mode not in COLOUR_MODES:
        raise ConfigError(f"unknown colour mode {desc.colour_mode!r} (have {COLOUR_MODES})")
    shape = tuple(int(s) for s in desc.input_shape)
    if len(shape) not in (1, 3) or any(s < 1 for s in shape):
        raise ConfigError(f"bad input shape {shape}")
    normalized = []
    for idx, raw in enumerate(desc.layers):
        spec = dict(raw)
        op = spec.get("op")
        where = f"layer {idx} ({op})"
        try:
            if op == "conv":
                if len(shape) != 3:
                    raise ConfigError(f"{where}: needs (c, h, w) input, has {shape}")
                spec.setdefault("kh", spec.pop("kernel", 3))
                spec.setdefault("kw", spec["kh"])
                spec.setdefault("stride", 1)
                spec.setdefault("pad", 0)
                _check_sizes(spec, where, {"kh": 1, "kw": 1, "stride": 1, "out_ch": 1, "pad": 0})
                spec["in_ch"] = shape[0]
                c, h, w = shape
                oh = (h + 2 * spec["pad"] - spec["kh"]) // spec["stride"] + 1
                ow = (w + 2 * spec["pad"] - spec["kw"]) // spec["stride"] + 1
                if oh < 1 or ow < 1:
                    raise ConfigError(f"{where}: output collapses to {oh}x{ow}")
                shape = (int(spec["out_ch"]), oh, ow)
            elif op == "relu":
                pass
            elif op == "maxpool":
                if len(shape) != 3:
                    raise ConfigError(f"{where}: needs (c, h, w) input, has {shape}")
                spec.setdefault("stride", spec.get("k", 2))
                _check_sizes(spec, where, {"k": 1, "stride": 1})
                k, s = spec["k"], spec["stride"]
                c, h, w = shape
                if h < k or w < k:
                    raise ConfigError(f"{where}: window {k} exceeds input {h}x{w}")
                shape = (c, (h - k) // s + 1, (w - k) // s + 1)
            elif op == "flatten":
                shape = (int(np.prod(shape)),)
            elif op == "fc":
                if len(shape) != 1:
                    raise ConfigError(f"{where}: needs flat input, has {shape}")
                spec["n_in"] = shape[0]
                spec["n_out"] = int(spec.get("n_out", spec.pop("out", 0)))
                if spec["n_out"] < 1:
                    raise ConfigError(f"{where}: missing output width")
                shape = (spec["n_out"],)
            elif op == "softmax":
                if len(shape) != 1:
                    raise ConfigError(f"{where}: needs flat input, has {shape}")
            else:
                raise ConfigError(f"{where}: unknown op (have {_LAYER_OPS})")
        except KeyError as exc:
            raise ConfigError(f"{where}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: bad field: {exc}") from exc
        normalized.append(spec)

    if not normalized or normalized[-1]["op"] != "softmax":
        raise ConfigError("descriptor must end with a softmax layer")
    if shape != (len(desc.class_labels),):
        raise ConfigError(
            f"head width {shape} does not match {len(desc.class_labels)} class labels"
        )
    return replace(desc, input_shape=tuple(int(s) for s in desc.input_shape),
                   layers=tuple(normalized), class_labels=tuple(desc.class_labels))


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


def linear_head(n_features, class_labels) -> ArchitectureDescriptor:
    """Single linear layer + softmax over fixed feature vectors."""
    return normalize_descriptor(
        ArchitectureDescriptor(
            input_shape=(int(n_features),),
            layers=(
                {"op": "fc", "n_out": len(tuple(class_labels))},
                {"op": "softmax"},
            ),
            class_labels=tuple(str(c) for c in class_labels),
        )
    )


def network_from_checkpoint(ckpt, dtype=np.float32) -> "Network":
    """The network a checkpoint describes, carrying its weights."""
    net = Network(ckpt.descriptor, seed=0, dtype=dtype)
    net.set_weights(ckpt.weights)
    return net


class Network:
    """A stack of layers instantiated from a descriptor.

    Single-threaded and deterministic: weights come from one seeded
    generator consumed in layer order. ``dtype`` is float32 for training
    and checkpoints; gradient-check tests build float64 instances.

    ``forward`` and ``logits`` are inference: no layer keeps anything
    after them. Only ``loss_and_grads`` runs layers in training mode,
    and its backward pass consumes what they saved. It starts training
    mode at the lowest layer with parameters and stops the backward pass
    there, since no caller reads a gradient below it.
    """

    def __init__(self, descriptor: ArchitectureDescriptor, seed: int = 0, dtype=np.float32):
        descriptor = normalize_descriptor(descriptor)
        self.descriptor = descriptor
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.layers = []
        for spec in descriptor.layers:
            op = spec["op"]
            if op == "conv":
                self.layers.append(
                    L.Conv(
                        spec["kh"], spec["kw"], spec["in_ch"], spec["out_ch"],
                        spec["stride"], spec["pad"], rng, self.dtype,
                    )
                )
            elif op == "relu":
                self.layers.append(L.Relu())
            elif op == "maxpool":
                self.layers.append(L.MaxPool(spec["k"], spec["stride"]))
            elif op == "flatten":
                self.layers.append(L.Flatten())
            elif op == "fc":
                self.layers.append(L.FullyConnected(spec["n_in"], spec["n_out"], rng, self.dtype))
            else:
                self.layers.append(L.Softmax())
        self._first_param = next(
            (i for i, layer in enumerate(self.layers) if layer.params), len(self.layers) - 1
        )

    # perfbench/tests/check_bench.py expects the benchmark tracer to
    # find the constructor under this name as well.
    from_checkpoint = staticmethod(network_from_checkpoint)

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend(arr for _, arr in layer.params)
        return out

    def gradients(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend(layer.grads())
        return out

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
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.descriptor.input_shape:
            raise DomainError(
                f"input layer: tensor shape {x.shape[1:]} does not match "
                f"declared input {self.descriptor.input_shape}"
            )
        return x

    def _infer(self, x, layers):
        out = self._check_input(x)
        for layer in layers:
            out = layer.forward(out)
        return out

    def forward(self, x) -> np.ndarray:
        """Class probability rows (each sums to 1)."""
        return self._infer(x, self.layers)

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
