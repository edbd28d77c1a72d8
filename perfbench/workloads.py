"""The three workloads: set-up, CLI stages, output checks and digests.

Set-up writes every input from the workload seed through bridgecap's
public API; the stages only ever see the generated files. Checks compare
the stage outputs with values the set-up knows independently (rows
written, malformed rows injected, keys left unmatched, per-class counts
from the generated labels) or with each other (binarization against the
confusion matrix, completion flags against their probabilities).
"""

import bisect
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SPLIT_FRACTION = 0.8  # the presets' default stratified split
FIXTURE_SEED = 7  # fixed seed of the untrained ingest_infer checkpoints

# The two presets the workloads build, restated here as the oracle for
# expected class counts (src/bridgecap/data/presets.json).
DL1_PASSTHROUGH = (1, 2, 3, 4, 5, 6, 9, 10)
LR9_EDGES = (0.0, 10.0, 15.0, 20.0, 27.0, 36.0)
DL1_LABELS = ("H10", "H15", "H20", "HS15", "HS20", "HS20+mod", "HL93", "HS25")

_STATES = ("01", "06", "12", "17", "36", "48", "53")
_MALFORMED_KINDS = ("bad_state", "short_row", "zero_structure", "overlong_structure",
                    "implausible_rating")


@dataclass(frozen=True)
class Sizes:
    classes: int  # synthetic classes (train_pipeline, ingest_infer)
    per_class: int  # images per class
    train_px: int  # train_pipeline image side
    epochs: int
    batch: int
    ingest_px: int  # ingest_infer image side
    net_px: int  # input side of the ingest_infer checkpoints
    inventory_rows: int
    manifest_rows: int
    accuracy_floor: float  # train_pipeline test accuracy must reach this
    train_share_floor: float  # learner + layers self time over the traced train stage


FULL = Sizes(classes=4, per_class=150, train_px=64, epochs=3, batch=32, ingest_px=256,
             net_px=64, inventory_rows=50_000, manifest_rows=100_000, accuracy_floor=0.9,
             train_share_floor=0.9)
# For the benchmark's own tests: every code path, seconds instead of minutes.
TINY = Sizes(classes=2, per_class=12, train_px=16, epochs=1, batch=8, ingest_px=32,
             net_px=16, inventory_rows=500, manifest_rows=1000, accuracy_floor=0.0,
             train_share_floor=0.0)


def read_json(path):
    return json.loads(Path(path).read_text())


def _read_split(path):
    counts = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["side"], int(row["class"]))
            counts[key] = counts.get(key, 0) + 1
    return counts


def _expect(name, actual, expected):
    ok = actual == expected
    return name, ok, "" if ok else f"got {actual!r}, expected {expected!r}"


# --- checks shared by several workloads -------------------------------------

def check_nbi(out, rows, rejected, missing_rating=None):
    stats = read_json(out / "nbi" / "nbi_stats.json")["stats"]
    found = [
        _expect("nbi_rows_accounted", stats["parsed_rows"] + stats["reject_count"], rows),
        _expect("nbi_rows_rejected", stats["reject_count"], rejected),
    ]
    if missing_rating is not None:
        found.append(_expect("nbi_rows_missing_rating", stats["rows_missing_rating"],
                             missing_rating))
    return found


def check_join(out, matched, unmatched):
    rep = read_json(out / "match" / "join_report.json")
    return [_expect("join_matched", rep["matched_images"], matched),
            _expect("join_unmatched", rep["unmatched_images"], unmatched)]


def check_split(out_dir, class_counts):
    """split.csv agrees with dataset_manifest.json, and both agree with
    the per-class counts the set-up generated under the stratified
    floor(0.8 n) rule."""
    manifest = read_json(out_dir / "dataset_manifest.json")
    split = _read_split(out_dir / "split.csv")
    tag = out_dir.name
    train = {str(c): n for (side, c), n in sorted(split.items()) if side == "train"}
    test = {str(c): n for (side, c), n in sorted(split.items()) if side == "test"}
    expected = {str(c): n for c, n in sorted(class_counts.items()) if n}
    return [
        _expect(f"{tag}_split_train_vs_manifest", train, manifest["train_counts"]),
        _expect(f"{tag}_split_test_vs_manifest", test, manifest["test_counts"]),
        _expect(f"{tag}_class_counts", manifest["class_counts"], expected),
        _expect(f"{tag}_train_counts",
                manifest["train_counts"],
                {c: math.floor(SPLIT_FRACTION * n) for c, n in expected.items()}),
    ]


def check_evaluated(eval_dir, images):
    metrics = read_json(eval_dir / "metrics.json")
    confusion = read_json(eval_dir / "confusion.json")
    total = sum(map(sum, confusion["counts"]))
    return [_expect(f"{eval_dir.name}_metrics_total", metrics["total"], images),
            _expect(f"{eval_dir.name}_confusion_total", total, images)]


def check_binarization(confusion_path, binarization_path):
    counts = read_json(confusion_path)["counts"]
    reports = read_json(binarization_path)
    k = len(counts)
    total = sum(map(sum, counts))
    problems = []
    if [r["boundary"] for r in reports] != list(range(1, min(k, 6))):
        problems.append(f"boundaries {[r['boundary'] for r in reports]} for {k} classes")
    for rep in reports:
        b = rep["boundary"]
        tp = sum(counts[i][j] for i in range(b) for j in range(b))
        fn = sum(counts[i][j] for i in range(b) for j in range(b, k))
        fp = sum(counts[i][j] for i in range(b, k) for j in range(b))
        tn = total - tp - fn - fp
        if rep["matrix"]["counts"] != [[tp, fn], [fp, tn]]:
            problems.append(f"boundary {b}: matrix {rep['matrix']['counts']}")
        if rep["accuracy"] != (tp + tn) / total:
            problems.append(f"boundary {b}: accuracy {rep['accuracy']}")
    return [("binarization_matches_confusion", not problems, "; ".join(problems))]


def _synth_class_counts(sizes):
    # Synthetic class c carries design-load class c + 1; DL1 passes 1..4
    # through in order.
    return {DL1_PASSTHROUGH.index(c + 1) + 1: sizes.per_class for c in range(sizes.classes)}


def _synth_inventory_rows(sizes, images_per_bridge=3):
    return sizes.classes * math.ceil(sizes.per_class / images_per_bridge)


def _side_total(out_dir, side):
    return sum(read_json(out_dir / "dataset_manifest.json")[f"{side}_counts"].values())


# --- workloads ----------------------------------------------------------------

class TrainPipeline:
    """All eight CLI stages on a 4 x 150, 64-px synthetic corpus."""

    name = "train_pipeline"

    def setup(self, work, seed, sizes):
        work.mkdir(parents=True, exist_ok=True)
        return {}

    def stages(self, inputs, out, seed, sizes):
        corpus = out / "corpus"
        s = str(seed)
        return [
            ["synth_gen", ["synth-gen", "--out", str(corpus), "--classes", str(sizes.classes),
                           "--per-class", str(sizes.per_class), "--size", str(sizes.train_px),
                           "--seed", s]],
            ["nbi_parse", ["nbi-parse", "--input", str(corpus / "inventory.csv"),
                           "--out", str(out / "nbi")]],
            ["corpus_match", ["corpus-match", "--manifest", str(corpus / "manifest.csv"),
                              "--records", str(out / "nbi" / "records.ndjson"),
                              "--out", str(out / "match")]],
            ["dataset_build", ["dataset-build", "DL1", "--corpus",
                               str(out / "match" / "labeled.ndjson"), "--seed", s,
                               "--out", str(out / "dataset")]],
            # patience == max epochs, so early stopping cannot end the run.
            ["train", ["train", "--split", str(out / "dataset" / "split.csv"),
                       "--image-root", str(corpus),
                       "--dataset-manifest", str(out / "dataset" / "dataset_manifest.json"),
                       "--size", str(sizes.train_px), "--max-epochs", str(sizes.epochs),
                       "--patience", str(sizes.epochs), "--batch-size", str(sizes.batch),
                       "--seed", s, "--out", str(out / "train")]],
            ["evaluate", ["evaluate", "--checkpoint", str(out / "train" / "model.ckpt"),
                          "--split", str(out / "dataset" / "split.csv"),
                          "--image-root", str(corpus), "--side", "test",
                          "--out", str(out / "eval_test")]],
            ["binarize", ["binarize", "--confusion", str(out / "eval_test" / "confusion.json"),
                          "--out", str(out / "binarize")]],
            ["report", ["report", "--metrics", str(out / "eval_test" / "metrics.json"),
                        "--distribution", str(out / "eval_test" / "error_distribution.json"),
                        "--binarization", str(out / "binarize" / "binarization.json"),
                        "--svg", "--out", str(out / "report")]],
        ]

    def checks(self, inputs, out, sizes):
        images = sizes.classes * sizes.per_class
        accuracy = read_json(out / "eval_test" / "metrics.json")["accuracy"]
        return (
            check_nbi(out, _synth_inventory_rows(sizes), 0)
            + check_join(out, images, 0)
            + check_split(out / "dataset", _synth_class_counts(sizes))
            + check_evaluated(out / "eval_test", _side_total(out / "dataset", "test"))
            + [("accuracy_floor", accuracy >= sizes.accuracy_floor,
                f"accuracy {accuracy} < floor {sizes.accuracy_floor}")]
            + check_binarization(out / "eval_test" / "confusion.json",
                                 out / "binarize" / "binarization.json")
        )

    def digests(self, inputs, out):
        return {
            "model.ckpt": out / "train" / "model.ckpt",
            "metrics.json": out / "eval_test" / "metrics.json",
            "records.ndjson": out / "nbi" / "records.ndjson",
            "labeled.ndjson": out / "match" / "labeled.ndjson",
            "split.csv": out / "dataset" / "split.csv",
        }

    def headline(self, inputs, out, seconds):
        epochs = read_json(out / "train" / "history.json")["stopped_epoch"]
        evaluated = read_json(out / "eval_test" / "metrics.json")["total"]
        return {
            "train_images_per_s": _side_total(out / "dataset", "train") * epochs
            / seconds["train"],
            "accuracy": read_json(out / "eval_test" / "metrics.json")["accuracy"],
            "classify_images_per_s": evaluated / seconds["evaluate"],
        }


class IngestInfer:
    """Tag, build and score a 256-px corpus with untrained fixture
    checkpoints: decoding, resizing and forward passes, no backward."""

    name = "ingest_infer"

    def setup(self, work, seed, sizes):
        from bridgecap import synth
        from bridgecap.learner import Network, make_checkpoint, micro_cnn, save_checkpoint

        corpus = work / "corpus"
        synth.gen_corpus(
            synth.SynthSpec(classes=sizes.classes, images_per_class=sizes.per_class,
                            seed=seed, image_size=sizes.ingest_px, partial_fraction=0.3),
            corpus,
        )
        shape = (3, sizes.net_px, sizes.net_px)
        fixtures = {
            "completion.ckpt": micro_cnn(("complete", "partial"), input_shape=shape),
            "model.ckpt": micro_cnn(DL1_LABELS[:sizes.classes], input_shape=shape),
        }
        for file_name, descriptor in fixtures.items():
            net = Network(descriptor, seed=FIXTURE_SEED)
            save_checkpoint(make_checkpoint(net), work / file_name)
        return {"corpus": corpus, "completion": work / "completion.ckpt",
                "model": work / "model.ckpt"}

    def stages(self, inputs, out, seed, sizes):
        corpus = inputs["corpus"]
        split = str(out / "dataset" / "split.csv")

        def evaluate(side):
            return ["evaluate", ["evaluate", "--checkpoint", str(inputs["model"]),
                                 "--split", split, "--image-root", str(corpus),
                                 "--side", side, "--out", str(out / f"eval_{side}")]]

        return [
            ["nbi_parse", ["nbi-parse", "--input", str(corpus / "inventory.csv"),
                           "--out", str(out / "nbi")]],
            ["corpus_match", ["corpus-match", "--manifest", str(corpus / "manifest.csv"),
                              "--records", str(out / "nbi" / "records.ndjson"),
                              "--completion-model", str(inputs["completion"]),
                              "--image-root", str(corpus), "--out", str(out / "match")]],
            ["dataset_build", ["dataset-build", "DL1", "--corpus",
                               str(out / "match" / "labeled.ndjson"), "--seed", str(seed),
                               "--out", str(out / "dataset")]],
            evaluate("train"),
            evaluate("test"),
        ]

    def checks(self, inputs, out, sizes):
        images = sizes.classes * sizes.per_class
        tags = read_json(out / "match" / "completion_tags.json")
        flags = {}
        for line in (out / "match" / "labeled.ndjson").read_text().splitlines():
            rec = json.loads(line)
            flags[rec["image_path"]] = rec["completion"]
        wrong = [p for p, prob in tags["probabilities"]
                 if flags.get(p) != ("complete" if prob >= 0.5 else "partial")]
        return (
            check_nbi(out, _synth_inventory_rows(sizes), 0)
            + check_join(out, images, 0)
            + [_expect("completion_tagged", tags["tagged"], images),
               _expect("completion_rejects", tags["rejects"], []),
               ("completion_flags_match_probabilities", not wrong,
                f"{len(wrong)} flags disagree, first {wrong[:1]}")]
            + check_split(out / "dataset", _synth_class_counts(sizes))
            + check_evaluated(out / "eval_train", _side_total(out / "dataset", "train"))
            + check_evaluated(out / "eval_test", _side_total(out / "dataset", "test"))
        )

    def digests(self, inputs, out):
        return {
            "completion.ckpt": inputs["completion"],
            "model.ckpt": inputs["model"],
            "metrics.json": out / "eval_test" / "metrics.json",
            "metrics_train.json": out / "eval_train" / "metrics.json",
            "records.ndjson": out / "nbi" / "records.ndjson",
            "labeled.ndjson": out / "match" / "labeled.ndjson",
            "split.csv": out / "dataset" / "split.csv",
        }

    def headline(self, inputs, out, seconds):
        tagged = read_json(out / "match" / "completion_tags.json")["tagged"]
        evaluated = sum(read_json(out / side / "metrics.json")["total"]
                        for side in ("eval_train", "eval_test"))
        return {"classify_images_per_s":
                (tagged + evaluated) / (seconds["corpus_match"] + seconds["evaluate"])}


class InventoryScale:
    """A 50k-row inventory with 2% malformed rows joined to a 100k-row
    manifest with 5% unmatched keys, then two dataset variants."""

    name = "inventory_scale"

    def setup(self, work, seed, sizes):
        from bridgecap import corpus, nbi

        work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        n_rows = sizes.inventory_rows
        per_kind = n_rows // 250  # 5 kinds x 0.4% = 2% malformed
        bad = rng.sample(range(n_rows), per_kind * len(_MALFORMED_KINDS))
        kind_of = {row: _MALFORMED_KINDS[i // per_kind] for i, row in enumerate(bad)}

        records, joinable, short_rows = [], [], []
        for i in range(n_rows):
            kind = kind_of.get(i)
            state = rng.choice(_STATES)
            structure = f" 000{i:07d}B "
            code = rng.randint(1, 12)
            rating = round(rng.uniform(0.0, 60.0), 1)
            if kind == "bad_state":
                state = "X" + state[1]
            elif kind == "zero_structure":
                structure = "00000"
            elif kind == "overlong_structure":
                structure = f"{i:016d}"
            elif kind == "implausible_rating":
                rating = 999.0  # parsed as "no rating", not rejected
            elif kind == "short_row":
                short_rows.append(i)
            records.append(nbi.NbiRecord(state=state, structure_raw=structure,
                                         structure=structure.strip(), load_rating_tons=rating,
                                         raw_design_code=str(code)))
            if kind in (None, "implausible_rating"):
                joinable.append((state, structure, code,
                                 None if kind == "implausible_rating" else rating))

        lines = nbi.write_delimited(records).split("\n")
        for i in short_rows:
            lines[i + 1] = ",".join(lines[i + 1].split(",")[:2])
        (work / "inventory.csv").write_text("\n".join(lines))

        n_unmatched = sizes.manifest_rows // 20
        unmatched = set(rng.sample(range(sizes.manifest_rows), n_unmatched))
        entries = []
        dl1 = {}
        lr9 = {}
        for j in range(sizes.manifest_rows):
            completion = rng.choice(("complete", "partial"))
            if j in unmatched:
                state, structure = rng.choice(_STATES), f"N{j:07d}"
            else:
                state, structure, code, rating = joinable[rng.randrange(len(joinable))]
                if code in DL1_PASSTHROUGH:
                    cls = DL1_PASSTHROUGH.index(code) + 1
                    dl1[cls] = dl1.get(cls, 0) + 1
                if rating is not None:
                    cls = bisect.bisect_right(LR9_EDGES, rating)
                    lr9[cls] = lr9.get(cls, 0) + 1
            entries.append(corpus.ManifestEntry(
                image_path=f"img/{j:06d}.jpg", bridge_local_id=str(j), state=state,
                structure_raw=structure, completion=completion))
        (work / "manifest.csv").write_text(corpus.write_manifest(entries))
        return {"inventory": work / "inventory.csv", "manifest": work / "manifest.csv",
                "rejected": per_kind * 4, "missing_rating": per_kind,
                "unmatched": n_unmatched, "dl1": dl1, "lr9": lr9}

    def stages(self, inputs, out, seed, sizes):
        labeled = str(out / "match" / "labeled.ndjson")

        def build(preset):
            return ["dataset_build", ["dataset-build", preset, "--corpus", labeled,
                                      "--seed", str(seed), "--out", str(out / preset.lower())]]

        return [
            ["nbi_parse", ["nbi-parse", "--input", str(inputs["inventory"]),
                           "--out", str(out / "nbi")]],
            ["corpus_match", ["corpus-match", "--manifest", str(inputs["manifest"]),
                              "--records", str(out / "nbi" / "records.ndjson"),
                              "--out", str(out / "match")]],
            build("LR9"),
            build("DL1"),
        ]

    def checks(self, inputs, out, sizes):
        return (
            check_nbi(out, sizes.inventory_rows, inputs["rejected"], inputs["missing_rating"])
            + check_join(out, sizes.manifest_rows - inputs["unmatched"], inputs["unmatched"])
            + check_split(out / "lr9", inputs["lr9"])
            + check_split(out / "dl1", inputs["dl1"])
        )

    def digests(self, inputs, out):
        return {
            "records.ndjson": out / "nbi" / "records.ndjson",
            "labeled.ndjson": out / "match" / "labeled.ndjson",
            "split.csv": out / "dl1" / "split.csv",
            "split_lr9.csv": out / "lr9" / "split.csv",
        }

    def headline(self, inputs, out, seconds):
        return {}


WORKLOADS = {w.name: w for w in (TrainPipeline(), IngestInfer(), InventoryScale())}


def inventory_rows(out):
    """Rows the nbi-parse stage read, parsed plus rejected."""
    stats = read_json(out / "nbi" / "nbi_stats.json")["stats"]
    return stats["parsed_rows"] + stats["reject_count"]
