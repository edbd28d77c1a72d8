"""Subcommand front end wiring the pipeline stages together.

Every run writes its artifacts plus a run manifest (input digests, the
exact argument vector, seeds, package version) into the output
directory; replaying a manifest's argv against unchanged inputs
reproduces the artifacts byte for byte.

Exit codes: 0 success, 1 usage error, 2 input/format error, 3 internal
error.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, corpus, datasets, evaluation, imaging, nbi, report, synth
from .config import load_config, require_paths, resolve_output_dir
from .errors import BridgecapError, ConfigError, DomainError, FormatError
from .learner import (
    Network,
    TrainConfig,
    load_checkpoint,
    micro_cnn,
    network_from_checkpoint,
    predict,
    save_checkpoint,
    train,
    train_head_on_features,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_run_manifest(out_dir: Path, subcommand: str, argv, inputs, outputs, seeds=None):
    manifest = {
        "tool": "bridgecap",
        "version": __version__,
        "subcommand": subcommand,
        "argv": list(argv),
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
        "outputs": sorted(str(o) for o in outputs),
        "seeds": seeds or {},
    }
    _dump_json(manifest, out_dir / f"run_{subcommand.replace('-', '_')}.json")


def _load_profile(ref: str) -> nbi.ParseProfile:
    if ref and (ref.endswith(".json") or "/" in ref):
        require_paths(ref)
        cfg = json.loads(Path(ref).read_text())
        return nbi.profile_from_dict(cfg)
    return nbi.load_builtin_profile(ref)


# --- subcommands -------------------------------------------------------------

def cmd_synth_gen(args, argv) -> int:
    out_dir = resolve_output_dir(args.out, args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = synth.SynthSpec(
        classes=args.classes,
        images_per_class=args.per_class,
        seed=args.seed,
        image_size=args.size,
        noise=args.noise,
        jitter=args.jitter,
        partial_fraction=args.partial_fraction,
        images_per_bridge=args.images_per_bridge,
    )
    result = synth.gen_corpus(spec, out_dir)
    outputs = ["manifest.csv", "inventory.csv"] + list(result.image_paths)
    _write_run_manifest(out_dir, "synth-gen", argv, [], outputs, seeds={"synth": args.seed})
    print(f"synth-gen: wrote {len(result.image_paths)} images under {out_dir}")
    return 0


def cmd_nbi_parse(args, argv) -> int:
    require_paths(args.input)
    out_dir = resolve_output_dir(args.out, args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = _load_profile(args.profile)
    with open(args.input, "rb") as fh:
        records, stats = nbi.parse_nbi(fh, profile)
    (out_dir / "records.ndjson").write_text(nbi.records_to_ndjson(records))
    _dump_json(
        {"stats": asdict(stats), "rating_histogram": nbi.rating_histogram(records)},
        out_dir / "nbi_stats.json",
    )
    _write_run_manifest(out_dir, "nbi-parse", argv, [args.input],
                        ["records.ndjson", "nbi_stats.json"])
    print(
        f"nbi-parse: {stats.parsed_rows}/{stats.total_rows} rows parsed, "
        f"{stats.reject_count} rejected"
    )
    return 0


def cmd_corpus_match(args, argv) -> int:
    require_paths(args.manifest, args.records)
    out_dir = resolve_output_dir(args.out, args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.manifest) as fh:
        manifest = corpus.read_manifest(fh)
    records = nbi.records_from_ndjson(Path(args.records).read_text())
    labeled, join_report = corpus.join_labels(manifest, records)
    outputs = ["labeled.ndjson", "join_report.json", "corpus_stats.json"]
    if args.completion_model:
        require_paths(args.completion_model)
        ckpt = load_checkpoint(args.completion_model)
        labeled, tag_report = corpus.tag_completion(
            labeled, source="model", checkpoint=ckpt, image_root=args.image_root
        )
        _dump_json(asdict(tag_report), out_dir / "completion_tags.json")
        outputs.append("completion_tags.json")
    (out_dir / "labeled.ndjson").write_text(corpus.labeled_to_ndjson(labeled))
    _dump_json(asdict(join_report), out_dir / "join_report.json")
    _dump_json(corpus.corpus_stats(labeled), out_dir / "corpus_stats.json")
    inputs = [args.manifest, args.records] + ([args.completion_model] if args.completion_model else [])
    _write_run_manifest(out_dir, "corpus-match", argv, inputs, outputs)
    print(
        f"corpus-match: matched {join_report.matched_images}, "
        f"unmatched {join_report.unmatched_images}, labeled {len(labeled)}"
    )
    return 0


def _resolve_dataset_spec(args) -> datasets.DatasetSpec:
    preset = args.preset
    if preset.endswith(".json") or "/" in preset:
        require_paths(preset)
        cfg = json.loads(Path(preset).read_text())
        spec = datasets.spec_from_config(Path(preset).stem, cfg)
    else:
        spec = datasets.load_preset(preset)
    cfg_dataset = (args.config or {}).get("dataset", {})
    overrides = {}
    for field_name in ("seed", "colour", "group_split", "split_fraction", "stratified"):
        flag = getattr(args, field_name, None)
        if flag is not None:
            overrides[field_name] = flag
        elif field_name in cfg_dataset:
            overrides[field_name] = cfg_dataset[field_name]
    return replace(spec, **overrides) if overrides else spec


def cmd_dataset_build(args, argv) -> int:
    require_paths(args.corpus)
    out_dir = resolve_output_dir(args.out, args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    labeled = corpus.labeled_from_ndjson(Path(args.corpus).read_text())
    spec = _resolve_dataset_spec(args)
    result = datasets.build_variant(spec, labeled)
    (out_dir / "split.csv").write_text(datasets.write_split_csv(result.split))
    _dump_json(result.to_manifest_dict(), out_dir / "dataset_manifest.json")
    _write_run_manifest(
        out_dir, "dataset-build", argv, [args.corpus],
        ["split.csv", "dataset_manifest.json"], seeds={"dataset": result.spec.seed},
    )
    counts = " ".join(f"{k}:{v}" for k, v in result.class_counts.items())
    print(f"dataset-build {result.spec.name}: total {result.total} ({counts})")
    return 0


def _train_config_from(args) -> TrainConfig:
    cfg_train = (args.config or {}).get("train", {})

    def pick(flag_name, key, default):
        flag = getattr(args, flag_name)
        if flag is not None:
            return flag
        return cfg_train.get(key, default)

    return TrainConfig(
        learning_rate=pick("lr", "learning_rate", 0.01),
        momentum=pick("momentum", "momentum", 0.9),
        batch_size=pick("batch_size", "batch_size", 32),
        max_epochs=pick("max_epochs", "max_epochs", 20),
        patience=pick("patience", "patience", 3),
        min_delta=pick("min_delta", "min_delta", 1e-4),
        seed=pick("seed", "seed", 0),
    )


def cmd_train(args, argv) -> int:
    out_dir = resolve_output_dir(args.out, args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _train_config_from(args)

    if args.features:
        require_paths(args.features)
        ckpt = train_head_on_features(Path(args.features).read_text(), config=config)
        inputs = [args.features]
    else:
        require_paths(args.split)
        split = datasets.read_split_csv(Path(args.split).read_text())
        classes = sorted({i.cls for i in split.train} | {i.cls for i in split.test})
        labels = [str(c) for c in classes]
        colour = args.colour or "rgb"
        if args.dataset_manifest:
            require_paths(args.dataset_manifest)
            manifest = json.loads(Path(args.dataset_manifest).read_text())
            all_labels = manifest["class_labels"]
            labels = [all_labels[c - 1] for c in classes]
            colour = manifest["colour"]
            if args.colour is not None and args.colour != colour:
                raise UsageError(
                    f"--colour {args.colour} contradicts the dataset manifest's {colour!r}"
                )
        descriptor = micro_cnn(
            labels, input_shape=(3, args.size, args.size), colour_mode=colour
        )
        net = Network(descriptor, seed=config.seed)
        loader = imaging.make_loader(args.image_root, colour, descriptor.input_shape[1:])
        ckpt = train(net, split, config, loader)
        inputs = [args.split] + ([args.dataset_manifest] if args.dataset_manifest else [])

    save_checkpoint(ckpt, out_dir / "model.ckpt")
    _dump_json(ckpt.history, out_dir / "history.json")
    _write_run_manifest(out_dir, "train", argv, inputs, ["model.ckpt", "history.json"],
                        seeds={"train": config.seed})
    print(
        f"train: best epoch {ckpt.history['best_epoch']} "
        f"(val acc {max(ckpt.history['val_acc']):.4f}), "
        f"stopped after epoch {ckpt.history['stopped_epoch']}"
    )
    return 0


def cmd_evaluate(args, argv) -> int:
    require_paths(args.checkpoint, args.split)
    out_dir = resolve_output_dir(args.out, args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = load_checkpoint(args.checkpoint)
    net = network_from_checkpoint(ckpt)
    split = datasets.read_split_csv(Path(args.split).read_text())
    items = split.test if args.side == "test" else split.train
    if not items:
        raise DomainError(f"split has no {args.side} items")

    classes = sorted({i.cls for i in split.train} | {i.cls for i in split.test})
    if len(classes) != ckpt.descriptor.num_classes:
        raise DomainError(
            f"split has {len(classes)} classes, checkpoint head is "
            f"{ckpt.descriptor.num_classes} wide"
        )
    index = {cls: i for i, cls in enumerate(classes)}
    loader = imaging.make_loader(args.image_root, ckpt.descriptor.colour_mode,
                                 ckpt.descriptor.input_shape[1:])
    x = np.stack([loader(item.image_path) for item in items])
    truths = np.array([index[item.cls] for item in items])
    preds = predict(net, x)

    cm = evaluation.confusion(preds, truths, k=len(classes), labels=ckpt.class_labels)
    rep = evaluation.metrics(cm)
    dist = evaluation.error_distribution(cm)
    _dump_json(cm.to_dict(), out_dir / "confusion.json")
    _dump_json(rep.to_dict(), out_dir / "metrics.json")
    _dump_json(dist.to_dict(), out_dir / "error_distribution.json")
    _write_run_manifest(
        out_dir, "evaluate", argv, [args.checkpoint, args.split],
        ["confusion.json", "metrics.json", "error_distribution.json"],
    )
    print(f"evaluate: accuracy {rep.accuracy:.4f} on {cm.total} {args.side} images")
    return 0


def _load_levels(path) -> list[evaluation.BinarizationLevel]:
    raw = json.loads(Path(path).read_text())
    return [
        evaluation.BinarizationLevel(
            level=int(entry["level"]),
            threshold_tons=float(entry["threshold_tons"]),
            boundary=int(entry["boundary"]),
        )
        for entry in raw
    ]


def cmd_binarize(args, argv) -> int:
    require_paths(args.confusion)
    out_dir = resolve_output_dir(args.out, args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    cm = evaluation.ConfusionMatrix.from_dict(json.loads(Path(args.confusion).read_text()))
    if args.levels:
        require_paths(args.levels)
        levels = _load_levels(args.levels)
    else:
        levels = [lv for lv in evaluation.DEFAULT_LEVELS if lv.boundary <= cm.k - 1]
    reports = evaluation.binarize_all_levels(cm, levels)
    payload = [rep.to_dict() for rep in reports]
    _dump_json(payload, out_dir / "binarization.json")
    (out_dir / "binarization.csv").write_text(report.binarization_to_csv(payload))
    inputs = [args.confusion] + ([args.levels] if args.levels else [])
    _write_run_manifest(out_dir, "binarize", argv, inputs,
                        ["binarization.json", "binarization.csv"])
    for rep in reports:
        print(
            f"binarize level {rep.level.level} (<{rep.level.threshold_tons:g} t): "
            f"accuracy {rep.accuracy:.4f}"
        )
    return 0


def cmd_report(args, argv) -> int:
    if not (args.metrics or args.distribution or args.binarization):
        raise UsageError("report needs --metrics, --distribution, or --binarization")
    out_dir = resolve_output_dir(args.out, args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs, outputs = [], []
    if args.metrics:
        require_paths(args.metrics)
        metrics_dict = json.loads(Path(args.metrics).read_text())
        (out_dir / "metrics.csv").write_text(report.metrics_to_csv(metrics_dict))
        outputs.append("metrics.csv")
        if args.svg:
            (out_dir / "metrics.svg").write_text(report.metrics_chart_svg(metrics_dict))
            outputs.append("metrics.svg")
        inputs.append(args.metrics)
    if args.distribution:
        require_paths(args.distribution)
        dist_dict = json.loads(Path(args.distribution).read_text())
        (out_dir / "error_distribution.csv").write_text(report.distribution_to_csv(dist_dict))
        outputs.append("error_distribution.csv")
        if args.svg:
            (out_dir / "error_distribution.svg").write_text(
                report.distribution_chart_svg(dist_dict)
            )
            outputs.append("error_distribution.svg")
        inputs.append(args.distribution)
    if args.binarization:
        require_paths(args.binarization)
        reports = json.loads(Path(args.binarization).read_text())
        (out_dir / "binarization.csv").write_text(report.binarization_to_csv(reports))
        outputs.append("binarization.csv")
        if args.svg:
            (out_dir / "binarization.svg").write_text(report.binarization_chart_svg(reports))
            outputs.append("binarization.svg")
        inputs.append(args.binarization)
    _write_run_manifest(out_dir, "report", argv, inputs, outputs)
    print(f"report: wrote {', '.join(outputs)}")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="bridgecap", description=__doc__)
    parser.add_argument("--config", default=None, help="pipeline config JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic corpus")
    p.add_argument("--out", default=None)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--noise", type=int, default=18)
    p.add_argument("--jitter", type=int, default=2)
    p.add_argument("--partial-fraction", type=float, default=0.0)
    p.add_argument("--images-per-bridge", type=int, default=3)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("nbi-parse", help="parse an inventory file")
    p.add_argument("--input", required=True)
    p.add_argument("--profile", default="standard")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nbi_parse)

    p = sub.add_parser("corpus-match", help="join a manifest to inventory records")
    p.add_argument("--manifest", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--completion-model", default=None)
    p.add_argument("--image-root", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_corpus_match)

    p = sub.add_parser("dataset-build", help="build a dataset variant")
    p.add_argument("preset", help="preset name (LR1..LR11, DL1..DL18) or spec file")
    p.add_argument("--corpus", required=True, help="labeled.ndjson")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--colour", choices=imaging.COLOUR_MODES, default=None)
    p.add_argument("--group-split", dest="group_split", choices=datasets.GROUP_SPLITS,
                   default=None)
    p.add_argument("--split-fraction", dest="split_fraction", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dataset_build, stratified=None)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--split", default=None, help="split.csv")
    p.add_argument("--image-root", default=None)
    p.add_argument("--dataset-manifest", default=None)
    p.add_argument("--features", default=None, help="train a linear head on a feature CSV")
    p.add_argument("--colour", choices=imaging.COLOUR_MODES, default=None,
                   help="default: the dataset manifest's colour, else rgb")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--min-delta", dest="min_delta", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a split side")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--image-root", default=None)
    p.add_argument("--side", choices=("train", "test"), default="test")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("binarize", help="multiclass-to-binary threshold reports")
    p.add_argument("--confusion", required=True)
    p.add_argument("--levels", default=None, help="JSON list of threshold levels")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_binarize)

    p = sub.add_parser("report", help="emit CSV tables and SVG charts")
    p.add_argument("--metrics", default=None)
    p.add_argument("--distribution", default=None)
    p.add_argument("--binarization", default=None)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1

    if args.config is not None:
        try:
            args.config = load_config(args.config)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, FormatError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BridgecapError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
