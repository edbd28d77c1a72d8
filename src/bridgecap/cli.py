"""Subcommand front end wiring the pipeline stages together.

Every run writes its artifacts plus a run manifest, ``run_<cmd>.json``,
into the output directory: the exact argument vector, the seeds, the
package version, the names of the files the run wrote, and the SHA-256
of every file argument the run read, the ``--config`` file included.
The images under ``--image-root`` are not hashed yet. Replaying a
manifest's argv against unchanged inputs reproduces the artifacts byte
for byte.

Exit codes: 0 success, 1 usage error, 2 input/format error, 3 internal
error.
"""

import argparse
import gc
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, corpus, datasets, evaluation, imaging, nbi, report, synth
from ._records import dumps, plain
from .config import SECTIONS, check, load_config, read_json, resolve_output_dir
from .errors import BridgecapError, ConfigError, DomainError, FormatError
from .learner import (
    Network,
    TrainConfig,
    load_checkpoint,
    load_side,
    micro_cnn,
    network_from_checkpoint,
    predict,
    save_checkpoint,
    train,
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
    path.write_text(dumps(obj, path.name, indent=2) + "\n", encoding="utf-8")


class _Run:
    """One subcommand run: records the files it reads and writes, and
    writes the run manifest from those records."""

    def __init__(self, args, argv):
        self.subcommand = args.subcommand
        self.argv = list(argv)
        self.out_dir = resolve_output_dir(args.out, args.config)
        self.inputs = []
        self.outputs = []
        if args.config_file:
            self.input(args.config_file)

    def input(self, path):
        """Fail fast when ``path`` is missing; else record it for hashing."""
        if not Path(path).exists():
            raise ConfigError(f"referenced path does not exist: {path}")
        self.inputs.append(path)
        return path

    def output(self, name: str) -> Path:
        """Record ``name`` as written; its path in the output directory,
        which is created on first use."""
        if not self.outputs:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name

    def finish(self, seeds=None) -> None:
        """Write ``run_<cmd>.json``, once every output is written."""
        manifest = {
            "tool": "bridgecap",
            "version": __version__,
            "subcommand": self.subcommand,
            "argv": self.argv,
            "inputs": {str(p): _sha256(p) for p in self.inputs},
            "outputs": sorted(self.outputs),
            "seeds": seeds or {},
        }
        _dump_json(manifest, self.out_dir / f"run_{self.subcommand.replace('-', '_')}.json")


def _settings(args, section: str) -> dict:
    """Each key of a config section from its flag, else from the config
    file; a key set by neither is left out, so the dataclass default
    holds."""
    from_file = args.config.get(section, {})
    settings = {}
    for key in SECTIONS[section]:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
        elif key in from_file:
            settings[key] = from_file[key]
    return settings


def _is_file_ref(ref: str) -> bool:
    return ref.endswith(".json") or "/" in ref


# --- subcommands -------------------------------------------------------------

def cmd_synth_gen(args, argv) -> int:
    run = _Run(args, argv)
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
    result = synth.gen_corpus(spec, run.out_dir)
    for name in (result.manifest_path.name, result.inventory_path.name, *result.image_paths):
        run.output(name)
    run.finish(seeds={"synth": args.seed})
    print(f"synth-gen: wrote {len(result.image_paths)} images under {run.out_dir}")
    return 0


def cmd_nbi_parse(args, argv) -> int:
    run = _Run(args, argv)
    source = run.input(args.input)
    if _is_file_ref(args.profile):
        profile = nbi.profile_from_dict(read_json(run.input(args.profile), "profile"))
    else:
        profile = nbi.load_builtin_profile(args.profile)
    with open(source, encoding="latin-1", newline="\n") as fh:
        records, stats = nbi.parse_nbi(fh, profile)
    with open(run.output("records.ndjson"), "w", encoding="utf-8") as fh:
        nbi.records_to_ndjson(records, fh)
    _dump_json({"stats": stats, "rating_histogram": nbi.rating_histogram(records)},
               run.output("nbi_stats.json"))
    run.finish()
    print(
        f"nbi-parse: {stats.parsed_rows}/{stats.total_rows} rows parsed, "
        f"{stats.reject_count} rejected"
    )
    return 0


def cmd_corpus_match(args, argv) -> int:
    run = _Run(args, argv)
    # The records are indexed first; the manifest then flows row by row
    # from the open file through the join, so no manifest entry is held.
    with open(run.input(args.records), encoding="utf-8", newline="\n") as fh:
        records = nbi.records_from_ndjson(fh)
    with open(run.input(args.manifest), encoding="utf-8", newline="\n") as fh:
        labeled, join_report = corpus.join_labels(corpus.iter_manifest(fh), records)
    if args.completion_model:
        ckpt = load_checkpoint(run.input(args.completion_model))
        labeled, tag_report = corpus.tag_completion(labeled, ckpt, image_root=args.image_root)
        _dump_json(tag_report, run.output("completion_tags.json"))
    with open(run.output("labeled.ndjson"), "w", encoding="utf-8") as fh:
        corpus.labeled_to_ndjson(labeled, fh)
    _dump_json(join_report, run.output("join_report.json"))
    _dump_json(corpus.corpus_stats(labeled), run.output("corpus_stats.json"))
    run.finish()
    print(
        f"corpus-match: matched {join_report.matched_images}, "
        f"unmatched {join_report.unmatched_images}, labeled {len(labeled)}"
    )
    return 0


def cmd_dataset_build(args, argv) -> int:
    run = _Run(args, argv)
    with open(run.input(args.corpus), encoding="utf-8", newline="\n") as fh:
        labeled = corpus.labeled_from_ndjson(fh)
    if _is_file_ref(args.preset):
        spec_file = run.input(args.preset)
        spec = datasets.spec_from_config(Path(spec_file).stem, read_json(spec_file, "spec"))
    else:
        spec = datasets.load_preset(args.preset)
    result = datasets.build_variant(replace(spec, **_settings(args, "dataset")), labeled)
    with open(run.output("split.csv"), "w", encoding="utf-8", newline="\n") as fh:
        datasets.write_split_csv(result.split, fh)
    _dump_json(result.to_manifest_dict(), run.output("dataset_manifest.json"))
    run.finish(seeds={"dataset": result.spec.seed})
    counts = " ".join(f"{k}:{v}" for k, v in result.class_counts.items())
    print(f"dataset-build {result.spec.name}: total {result.total} ({counts})")
    return 0


def cmd_train(args, argv) -> int:
    run = _Run(args, argv)
    config = TrainConfig(**_settings(args, "train"))

    with open(run.input(args.split), encoding="utf-8", newline="\n") as fh:
        split = datasets.read_split_csv(fh)
    classes = split.classes
    labels = [str(c) for c in classes]
    colour = args.colour or "rgb"
    if args.dataset_manifest:
        where = f"dataset manifest {args.dataset_manifest}"
        manifest = read_json(run.input(args.dataset_manifest), "dataset manifest")
        check(manifest, dict, where)
        for key, shape in (("class_labels", [str]), ("colour", str)):
            if key not in manifest:
                raise ConfigError(f"{where}: missing field {key!r}")
            check(manifest[key], shape, f"{where}.{key}")
        all_labels, colour = manifest["class_labels"], manifest["colour"]
        outside = [c for c in classes if not 1 <= c <= len(all_labels)]
        if outside:
            raise FormatError(f"split classes {outside} are outside "
                              f"1..{len(all_labels)}, the classes of {where}")
        labels = [all_labels[c - 1] for c in classes]
        if args.colour is not None and args.colour != colour:
            raise UsageError(
                f"--colour {args.colour} contradicts the dataset manifest's {colour!r}"
            )
    descriptor = micro_cnn(labels, input_shape=(3, args.size, args.size), colour_mode=colour)
    ckpt = train(Network(descriptor, seed=config.seed), split, config, args.image_root)

    save_checkpoint(ckpt, run.output("model.ckpt"))
    _dump_json(ckpt.history, run.output("history.json"))
    run.finish(seeds={"train": config.seed})
    print(
        f"train: best epoch {ckpt.history['best_epoch']} "
        f"(val acc {max(ckpt.history['val_acc']):.4f}), "
        f"stopped after epoch {ckpt.history['stopped_epoch']}"
    )
    return 0


def cmd_evaluate(args, argv) -> int:
    run = _Run(args, argv)
    ckpt = load_checkpoint(run.input(args.checkpoint))
    net = network_from_checkpoint(ckpt)
    with open(run.input(args.split), encoding="utf-8", newline="\n") as fh:
        split = datasets.read_split_csv(fh)
    x, truths = load_side(ckpt.descriptor, split, args.side, args.image_root)
    preds = predict(net, x)

    cm = evaluation.confusion(preds, truths, k=ckpt.descriptor.num_classes,
                              labels=ckpt.class_labels)
    rep = evaluation.metrics(cm)
    dist = evaluation.error_distribution(cm)
    _dump_json(cm, run.output("confusion.json"))
    _dump_json(rep, run.output("metrics.json"))
    _dump_json(dist, run.output("error_distribution.json"))
    run.finish()
    print(f"evaluate: accuracy {rep.accuracy:.4f} on {cm.total} {args.side} images")
    return 0


_LEVELS_SHAPE = [{"level": int, "threshold_tons": float, "boundary": int}]


def _load_levels(path) -> list[evaluation.BinarizationLevel]:
    raw = read_json(path, "levels file")
    check(raw, _LEVELS_SHAPE, f"levels file {path}")
    if any(entry.keys() != _LEVELS_SHAPE[0].keys() for entry in raw):
        raise ConfigError(f"every level in {path} needs a level, threshold_tons and boundary")
    return [
        evaluation.BinarizationLevel(e["level"], float(e["threshold_tons"]), e["boundary"])
        for e in raw
    ]


def cmd_binarize(args, argv) -> int:
    run = _Run(args, argv)
    cm = evaluation.ConfusionMatrix.from_dict(
        read_json(run.input(args.confusion), "confusion matrix")
    )
    if args.levels:
        levels = _load_levels(run.input(args.levels))
    else:
        levels = [lv for lv in evaluation.DEFAULT_LEVELS if lv.boundary <= cm.k - 1]
    reports = [evaluation.binarize(cm, level) for level in levels]
    _dump_json(reports, run.output("binarization.json"))
    run.output("binarization.csv").write_text(report.binarization_to_csv(plain(reports)),
                                              encoding="utf-8")
    run.finish()
    for rep in reports:
        print(
            f"binarize level {rep.level} (<{rep.threshold_tons:g} t): "
            f"accuracy {rep.accuracy:.4f}"
        )
    return 0


# The documents ``evaluate`` and ``binarize`` write, as ``report`` reads them.
_REPORT_SHAPES = {
    "metrics": {"accuracy": float, "macro_precision": float, "macro_recall": float,
                "macro_f1": float, "total": int, "per_class": [
                    {"label": str, "precision": float, "recall": (float, None),
                     "f1": (float, None)}]},
    "error_distribution": {"mass": {str: float}, "total": int},
    "binarization": [{"level": int, "threshold_tons": float, "boundary": int,
                      "matrix": {"counts": [[int]], "labels": [str]}, "accuracy": float,
                      "precision": float, "recall": float, "f1": float, "positive": str}],
}


def cmd_report(args, argv) -> int:
    run = _Run(args, argv)
    rows = [
        (args.metrics, "metrics", report.metrics_to_csv, report.metrics_chart_svg),
        (args.distribution, "error_distribution", report.distribution_to_csv,
         report.distribution_chart_svg),
        (args.binarization, "binarization", report.binarization_to_csv,
         report.binarization_chart_svg),
    ]
    if not any(row[0] for row in rows):
        raise UsageError("report needs --metrics, --distribution, or --binarization")
    # Check and render every table before writing one, so a bad input writes nothing.
    rendered = []
    for path, stem, to_csv, to_svg in rows:
        if not path:
            continue
        what = stem.replace("_", " ")
        data = read_json(run.input(path), what)
        check(data, _REPORT_SHAPES[stem], f"{what} file {path}")
        try:
            rendered.append((f"{stem}.csv", to_csv(data)))
            if args.svg:
                rendered.append((f"{stem}.svg", to_svg(data)))
        # What a shape cannot say: a missing key, a binary matrix that is
        # not 2x2, and mass keys that are not distinct integers.
        except (KeyError, IndexError, ValueError) as exc:
            raise FormatError(
                f"{what} file {path} does not have the shape the report needs: "
                f"{type(exc).__name__} {exc}"
            ) from exc
    for name, text in rendered:
        run.output(name).write_text(text, encoding="utf-8")
    run.finish()
    print(f"report: wrote {', '.join(run.outputs)}")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="bridgecap", description=__doc__)
    parser.add_argument("--config", dest="config_file", default=None,
                        help="pipeline config JSON")
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
    p.set_defaults(func=cmd_dataset_build)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--split", required=True, help="split.csv")
    p.add_argument("--image-root", default=None)
    p.add_argument("--dataset-manifest", default=None)
    p.add_argument("--colour", choices=imaging.COLOUR_MODES, default=None,
                   help="default: the dataset manifest's colour, else rgb")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
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
    # The cyclic garbage collector is paused for the whole subcommand: its
    # records hold no reference cycles, so reference counting frees them,
    # and the collector would only rescan them again and again as they
    # pile up. Re-enabling it lets the next allocation start a collection
    # of whatever the caller holds, so it is the last thing main does.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if was_enabled:
            gc.enable()


def _main(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1

    try:
        args.config = load_config(args.config_file) if args.config_file else {}
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
