"""In-memory span tracer that wraps bridgecap from outside the package.

``Tracer.install()`` replaces each traced callable at every place it is
looked up: module globals (``cli`` binds ``train``, ``predict``,
``load_checkpoint`` ... through ``from .learner import``), the
``bridgecap.learner`` re-exports, the ``Network.from_checkpoint``
staticmethod, the ``Network`` methods, the ``forward``/``backward``
methods of the ``learner.layers`` classes and the CLI parser's
``parse_args``. ``Tracer.restore()`` puts every original back. Nothing
under ``src/`` is edited.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``counts`` holds counters read
at the same boundary (bytes decoded, rows rejected, FLOPs ...). Spans stay
in a list until the caller writes them out once.
"""

import functools
import inspect
import sys
import time

# Module -> layer name used as the span prefix.
LAYER_OF_MODULE = {
    "bridgecap.cli": "cli",
    "bridgecap.synth": "synth",
    "bridgecap.nbi": "nbi",
    "bridgecap.corpus": "corpus",
    "bridgecap.datasets": "datasets",
    "bridgecap.imaging": "imaging",
    "bridgecap.learner.train": "learner",
    "bridgecap.learner.network": "learner",
    "bridgecap.learner.checkpoint": "checkpoint",
    "bridgecap.evaluation": "evaluation",
    "bridgecap.report": "report",
}

# Called once per inventory row or dataset item. Their time stays in the
# caller's self time: a span per call would cost more than the call and
# would hold hundreds of thousands of spans on inventory_scale.
PER_ITEM_HELPERS = frozenset({
    "canonicalize", "is_valid_state_code", "bin_load_rating", "map_design_load",
    "record_to_dict", "record_from_dict", "labeled_to_dict", "labeled_from_dict",
    "class_rating_tons",
})

NETWORK_METHODS = ("forward", "logits", "loss_and_grads", "get_weights", "set_weights")

# learner.layers class -> short layer name in metric names.
LAYER_CLASSES = {
    "Conv": "conv", "Relu": "relu", "MaxPool": "maxpool",
    "Flatten": "flatten", "FullyConnected": "fc", "Softmax": "softmax",
}


def _conv_flops(layer, x_or_dout, backward):
    # Multiply-adds of one output element: in_ch * kh * kw. Backward
    # computes both dW and dX, each as large as the forward product.
    per_out = 2 * layer.in_ch * layer.kh * layer.kw
    return per_out * x_or_dout.size * (2 if backward else 1)


def _fc_flops(layer, x_or_dout, backward):
    return 2 * x_or_dout.shape[0] * layer.n_in * layer.n_out * (2 if backward else 1)


def _counter_table():
    """Span name -> fn(args, result) -> dict of counts."""

    def conv(backward):
        def count(args, result):
            tensor = args[1] if backward else result
            return {"flops": _conv_flops(args[0], tensor, backward)}
        return count

    def fc(backward):
        return lambda args, result: {"flops": _fc_flops(args[0], args[1], backward)}

    return {
        "imaging.decode_pnm": lambda a, r: {"bytes": len(a[0])},
        "nbi.parse_nbi": lambda a, r: {"parsed": r[1].parsed_rows, "rejected": r[1].reject_count},
        "corpus.join_labels": lambda a, r: {
            "matched": r[1].matched_images, "unmatched": r[1].unmatched_images},
        "learner.fit": lambda a, r: {
            "epochs": r.history["stopped_epoch"], "best_epoch": r.history["best_epoch"]},
        "learner.Network.forward": lambda a, r: {"images": len(a[1])},
        "checkpoint.checkpoint_to_bytes": lambda a, r: {"bytes": len(r)},
        "layers.conv.fwd": conv(False),
        "layers.conv.bwd": conv(True),
        "layers.fc.fwd": fc(False),
        "layers.fc.bwd": fc(True),
    }


_INHERITED = object()  # marks a patched attribute the owner did not define


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []  # (owner, attribute, original value)
        self._counters = _counter_table()

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name):
        tracer, clock, spans, open_ = self, time.perf_counter, self.spans, self._open
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if counter is not None:
                rec[4] = counter(args, result)
            return result

        traced.__bench_tracer__ = tracer
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        # An inherited attribute is shadowed, and deleted again on restore.
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public bridgecap function, Network method and layer
        forward/backward at each place it is looked up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from bridgecap import cli  # loads every module the CLI can reach
        from bridgecap.learner import layers, network

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "bridgecap" or n.startswith("bridgecap.")]
        targets = {}  # function -> span name
        for mod in modules:
            layer = LAYER_OF_MODULE.get(mod.__name__)
            if layer is None:
                continue
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in PER_ITEM_HELPERS):
                    targets[value] = f"{layer}.{value.__name__}"
        wrappers = {fn: self.wrap(fn, name) for fn, name in targets.items()}

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])

        # Argument parsing is cli.main's own work; its span leaves
        # cli.main's self time to dispatch alone.
        self._patch(cli._Parser, "parse_args",
                    self.wrap(cli._Parser.parse_args, "cli.parse_args"))
        cls = network.Network
        for attr, value in list(vars(cls).items()):
            if isinstance(value, staticmethod) and value.__func__ in wrappers:
                self._patch(cls, attr, staticmethod(wrappers[value.__func__]))
        for meth in NETWORK_METHODS:
            self._patch(cls, meth, self.wrap(vars(cls)[meth], f"learner.Network.{meth}"))
        for cls_name, short in LAYER_CLASSES.items():
            layer_cls = getattr(layers, cls_name)
            for meth, tag in (("forward", "fwd"), ("backward", "bwd")):
                self._patch(layer_cls, meth,
                            self.wrap(vars(layer_cls)[meth], f"layers.{short}.{tag}"))
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


# --- analysis ---------------------------------------------------------------

def self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def self_by_layer(spans):
    """Self seconds per layer prefix (``layers.conv.fwd`` -> ``layers``)."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def attributed_seconds(spans):
    """Wall time covered by the children of top-level spans: the part of
    a stage's ``cli.main`` that some traced function below it accounts
    for. Whatever ``cli.main`` does itself, or calls untraced, is left
    out."""
    return sum(end - start for _, start, end, parent, _ in spans
               if parent >= 0 and spans[parent][3] < 0)


def reindex(spans, delta):
    """Spans with parent indices moved by ``delta``: ``+len(other)`` to
    append them to another list, ``-first`` for the slice from ``first``
    (parents before the slice become -1)."""
    return [[n, s, e, p + delta if p >= 0 and p + delta >= 0 else -1, c]
            for n, s, e, p, c in spans]


def layer_metrics(spans):
    """Per-layer metric values from one traced repeat (set-up and stages).
    A layer the workload never calls reads 0."""
    total, calls, counts = {}, {}, {}
    for name, start, end, _, cnt in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (cnt or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(name, key):
        return counts.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    fit_ids = {i for i, s in enumerate(spans) if s[0] == "learner.fit"}
    steps_in_fit = sum(s[2] - s[1] for s in spans
                       if s[0] == "learner.Network.loss_and_grads" and s[3] in fit_ids)
    val_in_fit = sum(s[2] - s[1] for s in spans
                     if s[0] == "learner.evaluate" and s[3] in fit_ids)
    epochs = c("learner.fit", "epochs")
    own = self_by_layer(spans)

    m = {
        "learner.fit_s": t("learner.fit"),
        "learner.epochs": epochs,
        "learner.batches": n("learner.Network.loss_and_grads"),
        "learner.step_ms": 1e3 * ratio(t("learner.Network.loss_and_grads"),
                                       n("learner.Network.loss_and_grads")),
        "learner.update_s": t("learner.fit") - steps_in_fit - val_in_fit,
        "learner.val_eval_s": val_in_fit,
        "learner.wasted_epoch_share": ratio(epochs - c("learner.fit", "best_epoch"), epochs),
    }
    for short in LAYER_CLASSES.values():
        m[f"layers.{short}.fwd_ms"] = 1e3 * ratio(t(f"layers.{short}.fwd"),
                                                  n(f"layers.{short}.fwd"))
        if short != "softmax":
            m[f"layers.{short}.bwd_ms"] = 1e3 * ratio(t(f"layers.{short}.bwd"),
                                                      n(f"layers.{short}.bwd"))
    for short in ("conv", "fc"):
        flops = c(f"layers.{short}.fwd", "flops") + c(f"layers.{short}.bwd", "flops")
        secs = t(f"layers.{short}.fwd") + t(f"layers.{short}.bwd")
        m[f"layers.{short}.gflop_per_s"] = ratio(flops, secs) / 1e9
    m.update({
        "learner.predict_proba_s": t("learner.predict_proba"),
        "learner.forward_calls": n("learner.Network.forward"),
        "learner.images_forwarded": c("learner.Network.forward", "images"),
        "learner.images_per_forward_call": ratio(c("learner.Network.forward", "images"),
                                                 n("learner.Network.forward")),
        "imaging.load_image_s": t("imaging.load_image"),
        "imaging.images_decoded": n("imaging.decode_pnm"),
        "imaging.bytes_decoded": c("imaging.decode_pnm", "bytes"),
        "imaging.resize_bilinear_s": t("imaging.resize_bilinear"),
        "imaging.to_tensor_s": t("imaging.to_tensor"),
        "nbi.parse_nbi_s": t("nbi.parse_nbi"),
        "nbi.rows_parsed": c("nbi.parse_nbi", "parsed"),
        "nbi.rows_rejected": c("nbi.parse_nbi", "rejected"),
        "nbi.reject_share": ratio(c("nbi.parse_nbi", "rejected"),
                                  c("nbi.parse_nbi", "parsed") + c("nbi.parse_nbi", "rejected")),
        "nbi.records_to_ndjson_s": t("nbi.records_to_ndjson"),
        "nbi.records_from_ndjson_s": t("nbi.records_from_ndjson"),
        "corpus.read_manifest_s": t("corpus.read_manifest"),
        "corpus.join_labels_s": t("corpus.join_labels"),
        "corpus.match_share": ratio(c("corpus.join_labels", "matched"),
                                    c("corpus.join_labels", "matched")
                                    + c("corpus.join_labels", "unmatched")),
        "corpus.labeled_to_ndjson_s": t("corpus.labeled_to_ndjson"),
        "corpus.labeled_from_ndjson_s": t("corpus.labeled_from_ndjson"),
        "corpus.tag_completion_s": t("corpus.tag_completion"),
        "datasets.build_variant_s": t("datasets.build_variant"),
        "datasets.write_split_csv_s": t("datasets.write_split_csv"),
        "datasets.read_split_csv_s": t("datasets.read_split_csv"),
        "synth.gen_corpus_s": t("synth.gen_corpus"),
        "checkpoint.save_s": t("checkpoint.save_checkpoint"),
        "checkpoint.load_s": t("checkpoint.load_checkpoint"),
        "checkpoint.bytes": c("checkpoint.checkpoint_to_bytes", "bytes"),
        "evaluation.s": own.get("evaluation", 0.0),
        "report.s": own.get("report", 0.0),
    })
    return m
