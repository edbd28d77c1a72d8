import copy
import gc
import hashlib
import json
import re
import struct
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bridgecap import config, synth
from bridgecap.cli import main
from bridgecap.errors import BridgecapError, ConfigError, InvariantError
from helpers import (
    BAD_DESCRIPTORS,
    BAD_SIZES,
    CHECKPOINT,
    INVENTORIES,
    damaged,
    fixed_width_line,
    set_field,
)


def run(*argv):
    return main(list(argv))


# One valid input of each kind ``report`` reads, as evaluate and binarize
# write them.
REPORT_INPUTS = {
    "--metrics": {
        "accuracy": 0.5, "macro_precision": 0.5, "macro_recall": 0.5, "macro_f1": 0.5,
        "per_class": [{"label": "a", "precision": 0.5, "recall": None, "f1": None}],
        "total": 4,
    },
    "--distribution": {"mass": {"-1": 0.25, "0": 0.5, "1": 0.25}, "total": 4},
    "--binarization": [{
        "level": 1, "threshold_tons": 10.0, "boundary": 1,
        "matrix": {"counts": [[1, 0], [1, 2]], "labels": ["<= class 1", "> class 1"]},
        "accuracy": 0.75, "precision": 0.5, "recall": 1.0, "f1": 0.6666666666666666,
        "positive": "lower than threshold",
    }],
}


def missing_image_split(tmp_path):
    """``train`` arguments for a split whose images do not exist: the run
    resolves its config section, then exits 2 before the first epoch, so
    no learning rate can diverge."""
    split = tmp_path / "missing_images.csv"
    split.write_text("image_path,class,side\ngone_a.pnm,1,train\ngone_b.pnm,2,test\n")
    return ["--split", str(split), "--image-root", str(tmp_path)]


def evaluate_forged_checkpoint(tmp_path, forge) -> int:
    """The exit code of ``evaluate`` on a 2-class 4x4 checkpoint whose
    metadata ``forge`` edited in place: unedited, the run exits 0."""
    from bridgecap.learner import Network, checkpoint_to_bytes, make_checkpoint, micro_cnn

    data = checkpoint_to_bytes(make_checkpoint(
        Network(micro_cnn(["a", "b"], input_shape=(3, 4, 4)))))
    (meta_len,) = struct.unpack_from("<Q", data, 8)
    meta = json.loads(data[16 : 16 + meta_len])
    forge(meta)
    raw = json.dumps(meta).encode()
    return evaluate_checkpoint_bytes(
        tmp_path, data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + meta_len :])


def evaluate_checkpoint_bytes(tmp_path, data) -> int:
    """The exit code of ``evaluate`` on the checkpoint bytes ``data`` and
    a split of two 4x4 test images, classes 1 and 2."""
    import numpy as np

    from bridgecap.imaging import encode_pnm

    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(data)
    (tmp_path / "x.pnm").write_bytes(encode_pnm(np.zeros((4, 4, 3), np.uint8)))
    split = tmp_path / "split.csv"
    split.write_text("image_path,class,side\nx.pnm,1,test\nx.pnm,2,test\n")
    return run("evaluate", "--checkpoint", str(ckpt), "--split", str(split),
               "--image-root", str(tmp_path), "--out", str(tmp_path / "e"))


@pytest.fixture()
def small_corpus(tmp_path):
    """synth-gen + nbi-parse + corpus-match chained through the CLI."""
    root = tmp_path / "corpus"
    assert run(
        "synth-gen", "--out", str(root), "--classes", "3", "--per-class", "12",
        "--seed", "5", "--size", "16", "--partial-fraction", "0.25",
    ) == 0
    assert run(
        "nbi-parse", "--input", str(root / "inventory.csv"),
        "--profile", "standard", "--out", str(root / "nbi"),
    ) == 0
    assert run(
        "corpus-match", "--manifest", str(root / "manifest.csv"),
        "--records", str(root / "nbi" / "records.ndjson"),
        "--out", str(root / "joined"),
    ) == 0
    return root


@pytest.fixture()
def dl1_split(tmp_path):
    """``train`` arguments for a DL1 split of a 3-class corpus of six
    16-px images per class: four of each class train, two test."""
    root = tmp_path / "dl1"
    assert run("synth-gen", "--out", str(root), "--classes", "3", "--per-class", "6",
               "--seed", "5", "--size", "16") == 0
    assert run("nbi-parse", "--input", str(root / "inventory.csv"),
               "--out", str(root / "nbi")) == 0
    assert run("corpus-match", "--manifest", str(root / "manifest.csv"),
               "--records", str(root / "nbi" / "records.ndjson"),
               "--out", str(root / "joined")) == 0
    assert run("dataset-build", "DL1", "--corpus", str(root / "joined" / "labeled.ndjson"),
               "--out", str(root / "data")) == 0
    return ["--split", str(root / "data" / "split.csv"), "--image-root", str(root),
            "--size", "16"]


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run("no-such-command") == 1
        assert run("nbi-parse") == 1  # missing required --input

    def test_missing_input_is_2(self, tmp_path):
        assert run("nbi-parse", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path)) == 2

    def test_bad_config_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # An unknown key, then each key nothing reads: all are rejected.
        for doc in (
            {"despite": "everything"},
            {"nbi_profile": "standard"},
            {"paths": {"nbi_file": "x"}},
            {"paths": {"manifest": "x"}},
            {"paths": {"image_root": "x"}},
            {"dataset": {"preset": "LR5"}},
            {"dataset": {"completion_filter": "any"}},
            {"train": {"colour": "rgb"}},
            {"train": {"image_size": 64}},
            {"report": {"svg": True}},
        ):
            cfg.write_text(json.dumps(doc))
            assert run("--config", str(cfg), "synth-gen", "--out", str(tmp_path / "o")) == 2, doc

    def test_truncated_records_is_2(self, small_corpus, tmp_path):
        text = (small_corpus / "nbi" / "records.ndjson").read_text()
        cut = tmp_path / "records.ndjson"
        cut.write_text(text[: len(text) // 2])
        assert run(
            "corpus-match", "--manifest", str(small_corpus / "manifest.csv"),
            "--records", str(cut), "--out", str(tmp_path / "j"),
        ) == 2

    def test_truncated_checkpoint_is_2(self, tmp_path):
        from bridgecap.learner import Network, checkpoint_to_bytes, make_checkpoint, micro_cnn

        net = Network(micro_cnn(["a", "b"], input_shape=(3, 4, 4)))
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(checkpoint_to_bytes(make_checkpoint(net))[:12])
        split = tmp_path / "split.csv"
        split.write_text("")
        assert run(
            "evaluate", "--checkpoint", str(ckpt), "--split", str(split),
            "--image-root", str(tmp_path), "--out", str(tmp_path / "e"),
        ) == 2

    @pytest.mark.parametrize("forge", [
        lambda meta: meta["layers"][0].update(stide=2),
        lambda meta: meta.update(bogus=1),
    ], ids=["layer_key", "descriptor_key"])
    def test_unknown_checkpoint_key_is_2(self, tmp_path, capsys, forge):
        assert evaluate_forged_checkpoint(tmp_path, forge) == 2
        assert re.search(r"error: unknown [^\n]+ keys: \['", capsys.readouterr().err)

    @pytest.mark.parametrize("path, value, message", BAD_SIZES)
    def test_checkpoint_size_that_is_not_an_integer_is_2(self, tmp_path, capsys, path, value,
                                                         message):
        assert evaluate_forged_checkpoint(
            tmp_path, lambda meta: set_field(meta, path, value)) == 2
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("path, value, message", BAD_DESCRIPTORS)
    def test_malformed_checkpoint_descriptor_is_2(self, tmp_path, capsys, path, value, message):
        assert evaluate_forged_checkpoint(
            tmp_path, lambda meta: set_field(meta, path, value)) == 2
        assert re.search(message, capsys.readouterr().err)

    def test_split_wider_than_the_head_is_2_before_any_image_is_read(self, tmp_path, capsys):
        from bridgecap.learner import Network, make_checkpoint, micro_cnn, save_checkpoint

        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(make_checkpoint(Network(micro_cnn(["a", "b"], input_shape=(3, 4, 4)))),
                        ckpt)
        split = tmp_path / "split.csv"
        split.write_text("image_path,class,side\nx.pnm,1,test\nx.pnm,2,test\nx.pnm,3,test\n")
        assert run("evaluate", "--checkpoint", str(ckpt), "--split", str(split),
                   "--image-root", str(tmp_path / "nowhere"), "--out", str(tmp_path / "e")) == 2
        assert "split has 3 classes but the model head is 2 wide" in capsys.readouterr().err

    @pytest.mark.parametrize("side, other", [("test", "train"), ("train", "test")])
    def test_train_on_a_split_with_an_empty_side_is_2_before_any_epoch(
            self, tmp_path, capsys, monkeypatch, side, other):
        import importlib

        import numpy as np

        from bridgecap.imaging import encode_pnm

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran")

        # The package's ``train`` is the function; its module holds ``fit``.
        monkeypatch.setattr(importlib.import_module("bridgecap.learner.train"), "fit", no_fit)
        (tmp_path / "x.pnm").write_bytes(encode_pnm(np.zeros((4, 4, 3), np.uint8)))
        split = tmp_path / "split.csv"
        split.write_text(f"image_path,class,side\nx.pnm,1,{other}\nx.pnm,2,{other}\n")
        out = tmp_path / "m"
        assert run("train", "--split", str(split), "--image-root", str(tmp_path),
                   "--size", "4", "--max-epochs", "1", "--out", str(out)) == 2
        assert f"split has no {side} items" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("flags", [
        ["--lr", "nan"], ["--lr", "inf"], ["--lr", "1e400"],
        ["--min-delta", "nan", "--patience", "2", "--max-epochs", "4"],
    ], ids=["lr-nan", "lr-inf", "lr-overflow", "min-delta-nan"])
    def test_non_finite_training_setting_is_2_before_any_image_is_read(
            self, tmp_path, capsys, monkeypatch, flags):
        import importlib

        def no_images(*args, **kwargs):
            raise AssertionError("an image was read")

        monkeypatch.setattr(importlib.import_module("bridgecap.learner.train"), "load_batch",
                            no_images)
        split = tmp_path / "split.csv"
        split.write_text("image_path,class,side\nx.pnm,1,train\nx.pnm,2,test\n")
        out = tmp_path / "m"
        assert run("train", "--split", str(split), "--image-root", str(tmp_path),
                   "--size", "4", *flags, "--out", str(out)) == 2
        assert re.search(r"error: [^\n]* finite and >=? 0", capsys.readouterr().err)
        assert not (out / "model.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("epochs", ["1", "3"])
    def test_weights_that_diverge_in_the_last_step_are_3(self, dl1_split, tmp_path, capsys,
                                                          epochs):
        # One batch an epoch: its update makes every weight non-finite, so
        # the first validation pass is the first to see it. 3e38 is
        # finite in float32; a larger rate is rejected before any epoch.
        out = tmp_path / "m"
        assert run("train", *dl1_split, "--lr", "3e38", "--max-epochs", epochs,
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "non-finite validation loss nan at epoch 1; lr=3e+38 momentum=0.9" in err
        assert not (out / "model.ckpt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lr, as_float32", [("1e-50", "0.0"), ("1e300", "inf")])
    def test_learning_rate_float32_cannot_hold_is_2(self, dl1_split, tmp_path, capsys,
                                                      lr, as_float32):
        out = tmp_path / "m"
        assert run("train", *dl1_split, "--lr", lr, "--max-epochs", "2", "--patience", "2",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: learning rate {float(lr)} is {as_float32} in float32" in err
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--noise", "256"], "noise must be at most 255"),
        (["--noise", "3000000000000000000000"], "noise must be at most 255"),
        (["--jitter", "3000000000000000000000"], "jitter must be at most the image size 8"),
        (["--jitter", "17", "--size", "16"], "jitter must be at most the image size 16"),
    ], ids=["noise-256", "noise-huge", "jitter-huge", "jitter-over-size"])
    def test_synth_noise_or_jitter_out_of_range_is_2_and_writes_nothing(
            self, tmp_path, capsys, flags, message):
        out = tmp_path / "s"
        assert run("synth-gen", "--classes", "2", "--per-class", "2", "--size", "8", *flags,
                   "--out", str(out)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "corpus-match"])
    def test_feature_head_checkpoint_is_2(self, small_corpus, tmp_path, capsys, command):
        from bridgecap.learner import Network, make_checkpoint, save_checkpoint
        from helpers import linear_head

        ckpt = tmp_path / "head.ckpt"
        save_checkpoint(make_checkpoint(Network(linear_head(4, ["complete", "partial"]))), ckpt)
        split = tmp_path / "split.csv"
        split.write_text("image_path,class,side\nnone.pnm,1,test\nnone.pnm,2,test\n")
        argv = {
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--split", str(split)],
            "corpus-match": ["corpus-match", "--manifest", str(small_corpus / "manifest.csv"),
                             "--records", str(small_corpus / "nbi" / "records.ndjson"),
                             "--completion-model", str(ckpt)],
        }[command]
        # The image root does not exist: reading any image would fail
        # with a different message.
        assert run(*argv, "--image-root", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "o")) == 2
        assert "network input (4,) is not a (3, height, width) image" in capsys.readouterr().err

    def test_records_error_is_reported_before_manifest_error(self, small_corpus, tmp_path,
                                                             capsys):
        records = tmp_path / "records.ndjson"
        records.write_text("{\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("image_path,state\n")
        assert run("corpus-match", "--manifest", str(manifest), "--records", str(records),
                   "--out", str(tmp_path / "j")) == 2
        assert "error: line 1: not valid JSON" in capsys.readouterr().err

    def test_unknown_preset_is_2(self, small_corpus, tmp_path):
        assert run(
            "dataset-build", "DL99",
            "--corpus", str(small_corpus / "joined" / "labeled.ndjson"),
            "--out", str(tmp_path / "d"),
        ) == 2
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("levels", [
        '[{"level": 1, "boundary": 1}]',
        "level 1 at 10 t",
    ], ids=["missing_threshold", "not_json"])
    def test_malformed_levels_is_2(self, tmp_path, levels):
        cm = tmp_path / "confusion.json"
        cm.write_text(json.dumps({"labels": ["a", "b"], "counts": [[3, 1], [0, 4]]}))
        path = tmp_path / "levels.json"
        path.write_text(levels)
        assert run(
            "binarize", "--confusion", str(cm), "--levels", str(path),
            "--out", str(tmp_path / "b"),
        ) == 2

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "load_rating", "labels": ["low", "high"]}, "edges"),
        ({"kind": "design_load", "drop": [1]}, "passthrough"),
    ], ids=["no_edges", "no_passthrough"])
    def test_spec_missing_required_key_is_2(self, tmp_path, capsys, spec, key):
        corpus = tmp_path / "labeled.ndjson"
        corpus.write_text("")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run(
            "dataset-build", str(path), "--corpus", str(corpus), "--out", str(tmp_path / "d"),
        ) == 2
        assert f"is missing required key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["class_labels", "colour"])
    def test_dataset_manifest_missing_key_is_2(self, small_corpus, tmp_path, key):
        data = tmp_path / "ds"
        assert run(
            "dataset-build", "LR5",
            "--corpus", str(small_corpus / "joined" / "labeled.ndjson"),
            "--seed", "3", "--out", str(data),
        ) == 0
        manifest = json.loads((data / "dataset_manifest.json").read_text())
        del manifest[key]
        (data / "dataset_manifest.json").write_text(json.dumps(manifest))
        assert run(
            "train", "--split", str(data / "split.csv"), "--image-root", str(small_corpus),
            "--dataset-manifest", str(data / "dataset_manifest.json"),
            "--size", "16", "--max-epochs", "1", "--out", str(tmp_path / "m"),
        ) == 2

    def test_overflowing_number_in_dataset_manifest_is_2(self, small_corpus, tmp_path, capsys):
        # train checks no "total", which once read as inf and trained.
        data = tmp_path / "ds"
        assert run(
            "dataset-build", "LR5",
            "--corpus", str(small_corpus / "joined" / "labeled.ndjson"),
            "--seed", "3", "--out", str(data),
        ) == 0
        manifest = data / "dataset_manifest.json"
        text, count = re.subn(r'"total": \d+', '"total": 1e999', manifest.read_text())
        assert count == 1
        manifest.write_text(text)
        assert run(
            "train", "--split", str(data / "split.csv"), "--image-root", str(small_corpus),
            "--dataset-manifest", str(manifest),
            "--size", "16", "--max-epochs", "1", "--out", str(tmp_path / "m"),
        ) == 2
        assert (f"error: dataset manifest {manifest}: not valid JSON "
                "(1e999 overflows a double)\n") in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("layout", [
        None,
        [{"start": 0, "length": 2}],
        [{"name": "state", "length": 2}],
        [{"name": "state", "start": 0}],
    ], ids=["no_layout", "no_name", "no_start", "no_length"])
    def test_fixed_width_profile_missing_key_is_2(self, tmp_path, layout):
        fmt = {"kind": "fixed_width"}
        if layout is not None:
            fmt["layout"] = layout
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(
            {"format": fmt, "columns": {"state": "state", "structure": "structure"}}
        ))
        inventory = tmp_path / "inventory.txt"
        inventory.write_text("01S1\n")
        assert run(
            "nbi-parse", "--input", str(inventory), "--profile", str(profile),
            "--out", str(tmp_path / "n"),
        ) == 2

    @pytest.mark.parametrize("doc", [
        {"train": {"batch_size": "32"}},
        {"train": {"max_epochs": 2.5}},
        {"train": {"learning_rate": None}},
        {"train": []},
        {"dataset": {"split_fraction": "0.8"}},
        {"dataset": {"seed": "x"}},
        {"paths": {"output_dir": 5}},
    ], ids=["int_as_string", "int_as_float", "float_as_null", "section_as_list",
            "float_as_string", "seed_as_string", "path_as_int"])
    def test_config_value_of_wrong_type_is_2(self, small_corpus, tmp_path, monkeypatch, doc):
        monkeypatch.chdir(tmp_path)  # synth-gen without --out writes to the working directory
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = {
            "train": ["train", *missing_image_split(tmp_path), "--out", str(tmp_path / "o")],
            "dataset": ["dataset-build", "LR5", "--out", str(tmp_path / "o"),
                        "--corpus", str(small_corpus / "joined" / "labeled.ndjson")],
            "paths": ["synth-gen", "--classes", "2", "--per-class", "3", "--size", "8"],
        }[next(iter(doc))]
        assert run("--config", str(cfg), *argv) == 2

    @pytest.mark.parametrize("row", ["a.pnm,1", "a.pnm,x,test", "a.pnm,1,val"],
                             ids=["two_fields", "non_integer_class", "unknown_side"])
    def test_malformed_split_row_is_2(self, tmp_path, row):
        split = tmp_path / "split.csv"
        split.write_text(f"image_path,class,side\n{row}\n")
        assert run(
            "train", "--split", str(split), "--image-root", str(tmp_path),
            "--out", str(tmp_path / "m"),
        ) == 2

    def test_confusion_without_counts_is_2(self, tmp_path):
        cm = tmp_path / "confusion.json"
        cm.write_text(json.dumps({"labels": ["a", "b"]}))
        assert run("binarize", "--confusion", str(cm), "--out", str(tmp_path / "b")) == 2

    def test_confusion_without_labels_is_2(self, tmp_path, capsys):
        cm = tmp_path / "confusion.json"
        cm.write_text(json.dumps({"labels": [], "counts": [[3, 1], [0, 2]]}))
        assert run("binarize", "--confusion", str(cm), "--out", str(tmp_path / "b")) == 2
        assert "error: 0 labels for 2 classes" in capsys.readouterr().err

    def test_profile_format_not_object_is_2(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(
            {"format": "csv", "columns": {"state": "state", "structure": "structure"}}
        ))
        inventory = tmp_path / "inventory.csv"
        inventory.write_text("state,structure\n01,S1\n")
        assert run(
            "nbi-parse", "--input", str(inventory), "--profile", str(profile),
            "--out", str(tmp_path / "n"),
        ) == 2

    @pytest.mark.parametrize("metrics, distribution", [
        ({"accuracy": 0.5, "macro_precision": 0.5, "macro_recall": 0.5, "macro_f1": 0.5,
          "per_class": [], "total": 4}, None),
        ({"accuracy": 0.5, "per_class": []}, {"mass": {"0": 1.0}}),
    ], ids=["missing_distribution", "metrics_without_macro_precision"])
    def test_report_bad_input_is_2_and_writes_nothing(self, tmp_path, metrics, distribution):
        (tmp_path / "metrics.json").write_text(json.dumps(metrics))
        if distribution is not None:
            (tmp_path / "error_distribution.json").write_text(json.dumps(distribution))
        out = tmp_path / "rep"
        assert run(
            "report", "--metrics", str(tmp_path / "metrics.json"),
            "--distribution", str(tmp_path / "error_distribution.json"),
            "--svg", "--out", str(out),
        ) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, path, value, message", [
        ("--metrics", ("accuracy",), True, r"metrics file \S+\.accuracy must be float"),
        ("--metrics", ("per_class", 0, "label"), ["a"],
         r"metrics file \S+\.per_class\[0\]\.label must be str"),
        ("--distribution", ("mass",), {"01": 0.5, "1": 0.25, "-1": 0.25},
         r"mass keys \['-1', '01', '1'\] are not distinct integers"),
        ("--binarization", (0, "level"), "<b>x</b>",
         r"binarization file \S+\[0\]\.level must be int"),
    ], ids=["accuracy_bool", "label_list", "mass_keys_not_distinct", "level_markup"])
    def test_report_input_of_the_wrong_shape_is_2(self, tmp_path, capsys, flag, path, value,
                                                  message):
        doc = copy.deepcopy(REPORT_INPUTS[flag])
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc))
        assert run("report", flag, str(src), "--svg", "--out", str(tmp_path / "good")) == 0
        set_field(doc, path, value)
        src.write_text(json.dumps(doc))
        assert run("report", flag, str(src), "--svg", "--out", str(tmp_path / "rep")) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "rep").exists()

    def test_train_without_split_or_features_is_1(self, tmp_path):
        assert run("train", "--out", str(tmp_path / "m")) == 1
        assert not (tmp_path / "m").exists()

    def test_train_features_flag_is_1(self, tmp_path, capsys):
        argv = ["train", *missing_image_split(tmp_path), "--out", str(tmp_path / "m")]
        assert run(*argv, "--features", "x") == 1
        assert "unrecognized arguments: --features x" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_help_is_0(self, capsys):
        assert run("--help") == 0
        assert "bridgecap" in capsys.readouterr().out

    def test_module_entry_point_help_is_0(self):
        import subprocess
        import sys
        from pathlib import Path

        import bridgecap

        src = str(Path(bridgecap.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-m", "bridgecap", "--help"],
                              capture_output=True, text=True, cwd=src, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "bridgecap" in proc.stdout

    def test_non_ascii_label_round_trips_under_an_ascii_locale(self, tmp_path):
        # The POSIX locale without UTF-8 mode makes the default text
        # encoding ASCII; every JSON, CSV and SVG file is still UTF-8.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import bridgecap

        metrics = tmp_path / "metrics.json"
        doc = {**REPORT_INPUTS["--metrics"], "per_class": [
            {"label": "été", "precision": 0.5, "recall": 0.5, "f1": 0.5}]}
        metrics.write_bytes(json.dumps(doc, ensure_ascii=False).encode())
        out = tmp_path / "out"
        env = {**os.environ, "LC_ALL": "POSIX", "PYTHONUTF8": "0"}
        env.pop("PYTHONIOENCODING", None)
        proc = subprocess.run(
            [sys.executable, "-m", "bridgecap", "report", "--metrics", str(metrics),
             "--out", str(out)],
            capture_output=True, cwd=Path(bridgecap.__file__).parents[1], env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "été".encode() in (out / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_truncated_image_is_2_and_named(self, small_corpus, tmp_path, capsys, command):
        from bridgecap.learner import Network, make_checkpoint, micro_cnn, save_checkpoint

        images = sorted(p.name for p in (small_corpus / "images").glob("*.pnm"))[:4]
        bad = small_corpus / "images" / images[2]
        bad.write_bytes(bad.read_bytes()[:-3])
        split = tmp_path / "split.csv"
        split.write_text("image_path,class,side\n" + "".join(
            f"images/{name},{1 + i % 2},{side}\n"
            for i, name in enumerate(images) for side in ("train", "test")
        ))
        if command == "evaluate":
            ckpt = tmp_path / "model.ckpt"
            net = Network(micro_cnn(["1", "2"], input_shape=(3, 8, 8)), seed=0)
            save_checkpoint(make_checkpoint(net), ckpt)
            argv = ["evaluate", "--checkpoint", str(ckpt)]
        else:
            argv = ["train", "--size", "8", "--max-epochs", "1"]
        capsys.readouterr()
        assert run(*argv, "--split", str(split), "--image-root", str(small_corpus),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "payload length mismatch" in err

    @pytest.mark.parametrize("value", ['"abc"', "true", "NaN", "Infinity", "1e400"])
    def test_labeled_rating_not_a_finite_number_is_2(self, small_corpus, tmp_path, value):
        lines = (small_corpus / "joined" / "labeled.ndjson").read_text().splitlines()
        lines[-1] = re.sub(r'"load_rating_tons":[^,}]+', f'"load_rating_tons":{value}', lines[-1])
        labeled = tmp_path / "labeled.ndjson"
        labeled.write_text("\n".join(lines) + "\n")
        assert run("dataset-build", "LR5", "--corpus", str(labeled),
                   "--out", str(tmp_path / "d")) == 2

    def test_unreadable_inventory_row_is_rejected(self, tmp_path):
        inventory = tmp_path / "inventory.csv"
        inventory.write_bytes(b"state,structure,design_load_code,load_rating_tons\n"
                              b"01,1\r2,3,4\n02,S5,3,12.5\n")
        assert run("nbi-parse", "--input", str(inventory), "--out", str(tmp_path / "n")) == 0
        stats = json.loads((tmp_path / "n" / "nbi_stats.json").read_text())["stats"]
        assert (stats["parsed_rows"], stats["reject_count"]) == (1, 1)

    @settings(derandomize=True, deadline=None, database=None, max_examples=30,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.parametrize("profile", sorted(INVENTORIES))
    def test_damaged_inventory_is_0_or_2(self, tmp_path, capsys, profile, data):
        inventory = tmp_path / "inventory"
        inventory.write_bytes(data.draw(damaged(INVENTORIES[profile])))
        code = run("nbi-parse", "--input", str(inventory), "--profile", profile,
                   "--out", str(tmp_path / "n"))
        assert code in (0, 2), capsys.readouterr().err

    @settings(derandomize=True, deadline=None, database=None, max_examples=30,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_checkpoint_is_2(self, tmp_path, capsys, data):
        from bridgecap.learner import checkpoint_from_bytes

        ckpt = data.draw(damaged(CHECKPOINT))
        try:
            checkpoint_from_bytes(ckpt)
            codes = (0, 2)  # a flipped weight or label still decodes
        except BridgecapError:
            codes = (2,)
        assert evaluate_checkpoint_bytes(tmp_path, ckpt) in codes, capsys.readouterr().err

    @settings(derandomize=True, deadline=None, database=None, max_examples=30,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_manifest_is_0_or_2(self, small_corpus, tmp_path, capsys, data):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(data.draw(damaged((small_corpus / "manifest.csv").read_bytes())))
        code = run("corpus-match", "--manifest", str(manifest),
                   "--records", str(small_corpus / "nbi" / "records.ndjson"),
                   "--out", str(tmp_path / "j"))
        assert code in (0, 2), capsys.readouterr().err

    @pytest.mark.parametrize("byte", [b"\x85", b"\x0c"])
    def test_fixed_width_lines_end_only_at_newline(self, tmp_path, byte):
        inventory = tmp_path / "inventory.txt"
        inventory.write_bytes(b"".join([
            b"01 0000S7" + byte + b"02     50362\r\n",
            fixed_width_line("06", "S703", "1", "0100").encode() + b"\r\n",
        ]))
        assert run("nbi-parse", "--input", str(inventory), "--profile", "fixed_width_demo",
                   "--out", str(tmp_path / "n")) == 0
        stats = json.loads((tmp_path / "n" / "nbi_stats.json").read_text())["stats"]
        assert (stats["parsed_rows"], stats["reject_count"]) == (2, 0)

    @pytest.mark.parametrize("stage", ["corpus-match", "train"])
    def test_cr_only_line_ends_are_2(self, tmp_path, capsys, stage):
        # A line ends only at \n, so a classic-Mac file is one line with a
        # bare \r in an unquoted field.
        source = tmp_path / "in.csv"
        if stage == "corpus-match":
            source.write_bytes(b"image_path,bridge_local_id,state,structure\ra.pnm,0,01,S1\r")
            (tmp_path / "records.ndjson").write_text("")
            argv = ["--manifest", str(source), "--records", str(tmp_path / "records.ndjson")]
            what = "manifest"
        else:
            source.write_bytes(b"image_path,class,side\ra.pnm,1,train\rb.pnm,2,test\r")
            argv = ["--split", str(source), "--image-root", str(tmp_path)]
            what = "split-manifest"
        assert run(stage, *argv, "--out", str(tmp_path / "o")) == 2
        assert f"{what} line 1: new-line character seen in unquoted field\n" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("end, code", [("\n", 0), ("\r\n", 0), ("\r", 2)])
    def test_ndjson_line_ends_only_at_newline(self, tmp_path, capsys, end, code):
        # A raw U+2028, as json.dumps(..., ensure_ascii=False) writes it,
        # stays in its line; a bare \r ends none.
        line = json.dumps({"state": "01", "structure": "S1", "structure_raw": "S\u20281"},
                          ensure_ascii=False)
        records = tmp_path / "records.ndjson"
        records.write_bytes(f"{line}{end}{line}{end}".encode())
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("image_path,bridge_local_id,state,structure\na.pnm,0,01,S1\n")
        assert run("corpus-match", "--manifest", str(manifest), "--records", str(records),
                   "--out", str(tmp_path / "j")) == code
        out = capsys.readouterr()
        if code:
            assert "error: line 1: not valid JSON (Extra data)\n" in out.err
        else:
            assert "corpus-match: matched 1, unmatched 0" in out.out

    @pytest.mark.parametrize("document", ["manifest", "split", "labeled", "records"])
    def test_bytes_that_are_not_utf8_are_2(self, tmp_path, capsys, document):
        # The bad byte sits past the first block the text file decodes.
        source = tmp_path / "in"
        records = tmp_path / "records.ndjson"
        records.write_text("")
        manifest = [b"image_path,bridge_local_id,state,structure\n"]
        manifest += [b"a%d.pnm,0,01,S1\n" % i for i in range(1000)]
        if document == "manifest":
            source.write_bytes(b"".join([*manifest, b"\xff.pnm,0,01,S1\n"]))
            argv = ["corpus-match", "--manifest", str(source), "--records", str(records)]
            where = "manifest line 1002"
        elif document == "split":
            rows = [b"a%d.pnm,%d,train\n" % (i, i % 2 + 1) for i in range(1000)]
            source.write_bytes(b"".join([b"image_path,class,side\n", *rows, b"\xff,1,test\n"]))
            argv = ["train", "--split", str(source), "--image-root", str(tmp_path)]
            where = "split-manifest line 1002"
        elif document == "labeled":
            source.write_bytes(b"\n" * 20_000 + b'{"image_path": "\xff"}\n')
            argv = ["dataset-build", "LR5", "--corpus", str(source)]
            where = f"{source} line 20001"
        else:
            records.write_bytes(b"\n" * 20_000 + b'{"state": "\xff"}\n')
            source.write_bytes(b"".join(manifest))
            argv = ["corpus-match", "--manifest", str(source), "--records", str(records)]
            where = f"{records} line 20001"
        assert run(*argv, "--out", str(tmp_path / "o")) == 2
        assert f"error: {where}: not utf-8 text (invalid start byte)\n" in (
            capsys.readouterr().err)


class TestConfig:
    @pytest.mark.parametrize("value, kind", [
        (2**63 - 1, int), (-(2**63 - 1), int), (sys.float_info.max, float),
        (-sys.float_info.max, float),
    ])
    def test_the_largest_numbers_are_accepted(self, value, kind):
        config.check(value, kind, "x")

    @pytest.mark.parametrize("value", [2**63, -(2**63 + 1)])
    def test_an_int_beyond_int64_is_rejected(self, value):
        with pytest.raises(ConfigError, match=f"x must be int, got {value}"):
            config.check(value, int, "x")

    def test_output_dir_precedence(self, monkeypatch):
        cfg = {"paths": {"output_dir": "from_config"}}
        monkeypatch.delenv(config.OUTPUT_DIR_ENV, raising=False)
        assert config.resolve_output_dir(None, {}) == Path(".")
        assert config.resolve_output_dir(None, cfg) == Path("from_config")
        monkeypatch.setenv(config.OUTPUT_DIR_ENV, "from_env")
        assert config.resolve_output_dir(None, cfg) == Path("from_env")
        assert config.resolve_output_dir("from_flag", cfg) == Path("from_flag")


class TestCarriageReturns:
    def test_corpus_match_keeps_them_in_image_paths(self, tmp_path):
        inventory = tmp_path / "inventory.csv"
        inventory.write_text("state,structure,design_load_code,load_rating_tons\n01,S1,3,12.5\n")
        assert run("nbi-parse", "--input", str(inventory), "--out", str(tmp_path / "n")) == 0
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"image_path,bridge_local_id,state,structure\n"
                             b'"a\rb.pnm",0,01,S1\n"c\r\nd.pnm",1,01,S1\n')
        assert run("corpus-match", "--manifest", str(manifest),
                   "--records", str(tmp_path / "n" / "records.ndjson"),
                   "--out", str(tmp_path / "j")) == 0
        lines = (tmp_path / "j" / "labeled.ndjson").read_text().splitlines()
        assert [json.loads(line)["image_path"] for line in lines] == ["a\rb.pnm", "c\r\nd.pnm"]


class TestCyclicGc:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_restores_the_collector_state(self, tmp_path, monkeypatch, enabled):
        during = []

        def gen_corpus(spec, out_dir):
            during.append(gc.isenabled())
            raise InvariantError("stop")

        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run("synth-gen", "--out", str(tmp_path / "s"), "--classes", "2",
                       "--per-class", "2", "--size", "8") == 0
            assert gc.isenabled() is enabled
            assert run("nbi-parse", "--input", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "n")) == 2
            assert gc.isenabled() is enabled
            monkeypatch.setattr(synth, "gen_corpus", gen_corpus)
            assert run("synth-gen", "--out", str(tmp_path / "t")) == 3
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert during == [False]


# One valid document of each kind the CLI reads as input.
DOCUMENTS = {
    "config": {
        "paths": {"output_dir": "unused"},  # every run passes --out
        "dataset": {"seed": 3, "colour": "rgb", "group_split": "image_level",
                    "split_fraction": 0.75, "stratified": True},
        "train": {"learning_rate": 0.01, "momentum": 0.9, "batch_size": 4, "max_epochs": 1,
                  "patience": 1, "min_delta": 0.0, "seed": 1},
    },
    "spec": {
        "kind": "load_rating", "edges": [0, 15, 30], "labels": ["low", "mid", "high"],
        "caps": {"1": 10}, "min_class_size": 2, "completion": "any", "seed": 3,
        "colour": "rgb", "group_split": "image_level", "split_fraction": 0.75,
        "stratified": True,
    },
    "design_load_spec": {
        "kind": "design_load", "passthrough": [1, 2, 3], "merge_groups": [[4, 5]],
        "drop": [6, 7, 8, 9, 10, 11, 12], "labels": ["H10", "H15", "H20", "heavier"],
    },
    "profile": {
        "name": "csv", "format": {"kind": "delimited", "separator": ",", "has_header": True},
        "columns": {"state": "state", "structure": "structure",
                    "design_load": "design_load_code", "rating": "load_rating_tons"},
        "design_code_map": {"1": 1, "2": 2, "3": 3}, "rating_divisor": 1,
    },
    "fixed_width_profile": {
        "format": {"kind": "fixed_width", "layout": [
            {"name": "state", "start": 0, "length": 2},
            {"name": "structure", "start": 3, "length": 12},
        ]},
        "columns": {"state": "state", "structure": "structure"},
    },
    "levels": [{"level": 1, "threshold_tons": 10.0, "boundary": 1},
               {"level": 2, "threshold_tons": 15.0, "boundary": 2}],
    "confusion": {"labels": ["a", "b", "c"], "counts": [[3, 1, 0], [0, 4, 1], [1, 0, 5]]},
}


def _with(kind, value, *path):
    """DOCUMENTS[kind] with ``value`` at the key ``path``."""
    doc = copy.deepcopy(DOCUMENTS[kind])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _key_paths(doc, prefix=()):
    """The path of every object key in ``doc``, through lists."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield (*prefix, key)
            yield from _key_paths(value, (*prefix, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _key_paths(value, (*prefix, i))


@pytest.fixture()
def read_document(small_corpus, tmp_path):
    """``read(kind, doc)`` writes ``doc`` (a JSON value, or JSON text) to a
    file and returns the exit codes of the runs that read it as the
    document the last word of ``kind`` names."""
    labeled = str(small_corpus / "joined" / "labeled.ndjson")
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(DOCUMENTS["confusion"]))
    split = missing_image_split(tmp_path)

    def read(kind, doc):
        path = tmp_path / f"{kind}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        runs = {
            "config": [["--config", str(path), "dataset-build", "LR5", "--corpus", labeled],
                       ["--config", str(path), "train", *split]],
            "spec": [["dataset-build", str(path), "--corpus", labeled]],
            "profile": [["nbi-parse", "--input", str(small_corpus / "inventory.csv"),
                         "--profile", str(path)]],
            "levels": [["binarize", "--confusion", str(matrix), "--levels", str(path)]],
            "confusion": [["binarize", "--confusion", str(path)]],
        }[kind.split("_")[-1]]
        return [run(*argv, "--out", str(tmp_path / "out")) for argv in runs]

    return read


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)


class TestDocumentShapes:
    def test_every_document_is_valid(self, read_document):
        for kind, doc in DOCUMENTS.items():
            assert read_document(kind, doc)[0] == 0, kind

    @pytest.mark.parametrize("kind, doc", [
        ("profile", _with("profile", 5, "columns")),
        ("profile", _with("profile", {"1": "x"}, "design_code_map")),
        ("profile", _with("profile", [1], "design_code_map")),
        ("profile", _with("profile", "x", "rating_divisor")),
        ("profile", _with("profile", 0, "rating_divisor")),
        ("profile", _with("profile", 5, "format", "separator")),
        ("profile", _with("profile", "", "format", "separator")),
        ("profile", _with("profile", "no", "format", "has_header")),
        ("profile", _with("profile", 5, "name")),
        ("spec", _with("spec", "x", "seed")),
        ("spec", _with("spec", {"a": 1}, "caps")),
        ("spec", _with("spec", "3", "min_class_size")),
        ("spec", _with("spec", [0, "x"], "edges")),
        ("design_load_spec", _with("design_load_spec", 5, "passthrough")),
        ("design_load_spec", _with("design_load_spec", [5], "merge_groups")),
        ("design_load_spec", _with("design_load_spec", 4, "drop")),
        ("spec", _with("spec", "015", "edges")),
        ("spec", _with("spec", "0.5", "split_fraction")),
        ("spec", _with("spec", "no", "stratified")),
        ("spec", _with("spec", "abc", "labels")),
        ("design_load_spec", _with("design_load_spec", "123", "passthrough")),
        ("design_load_spec", _with("design_load_spec", [1, 2, "3"], "passthrough")),
        ("spec", _with("spec", "3", "seed")),
        ("spec", _with("spec", -1, "seed")),
        ("spec", '{"kind": "load_rating", "edges": [0, NaN]}'),
        ("spec", '{"kind": "load_rating", "edges": [0, 15, Infinity]}'),
        ("spec", '{"kind": "load_rating", "edges": [0, 15, 1e999]}'),
        ("levels", '[{"level": 1, "threshold_tons": -1e999, "boundary": 1}]'),
        ("levels", [{"level": 1, "threshold_tons": "10", "boundary": 1}]),
        ("levels", [{"level": 1.7, "threshold_tons": 10.0, "boundary": True}]),
        ("confusion", _with("confusion", "abc", "labels")),
        ("confusion", _with("confusion", [1, 2, 3], "labels")),
        ("confusion", _with("confusion", [[3, 1.5, 0], [0, 4, 1], [1, 0, 5]], "counts")),
        ("confusion", _with("confusion", [[3, True, 0], [0, 4, 1], [1, 0, 5]], "counts")),
        ("config", '{"train": {"learning_rate": NaN}}'),
        ("config", '{"train": {"min_delta": Infinity}}'),
        ("config", {"dataset": {"seed": -1}}),
        ("config", "[" * 100_000),
        ("design_load_spec", _with("design_load_spec", 1000, "min_class_size")),
        ("spec", {**DOCUMENTS["spec"], "stratified": False, "group_split": "bridge_level"}),
        ("config", {"dataset": {"stratified": False, "group_split": "bridge_level"}}),
    ], ids=[
        "profile_columns_int", "profile_code_map_value_str", "profile_code_map_list",
        "profile_divisor_str", "profile_divisor_zero", "profile_separator_int",
        "profile_separator_empty", "profile_has_header_str", "profile_name_int",
        "spec_seed_str", "spec_caps_key_not_class", "spec_min_class_size_str",
        "spec_edge_str", "spec_passthrough_int", "spec_merge_group_int", "spec_drop_int",
        "spec_edges_str", "spec_split_fraction_str", "spec_stratified_str",
        "spec_labels_str", "spec_passthrough_str", "spec_passthrough_item_str",
        "spec_seed_numeric_str", "spec_seed_negative", "spec_edge_nan", "spec_edge_infinity",
        "spec_edge_overflow", "levels_threshold_overflow",
        "levels_threshold_str", "levels_level_float_boundary_bool",
        "confusion_labels_str", "confusion_labels_int", "confusion_count_float",
        "confusion_count_bool",
        "config_learning_rate_nan", "config_min_delta_infinity", "config_seed_negative",
        "config_nested_deep", "design_load_spec_min_class_size",
        "spec_unstratified_bridge_level", "config_unstratified_bridge_level",
    ])
    def test_malformed_document_is_2(self, read_document, kind, doc):
        assert set(read_document(kind, doc)) == {2}

    def test_bridge_level_flag_on_unstratified_config_is_2(self, small_corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": {"stratified": False}}))
        argv = ["--config", str(cfg), "dataset-build", "DL1",
                "--corpus", str(small_corpus / "joined" / "labeled.ndjson")]
        assert run(*argv, "--out", str(tmp_path / "plain")) == 0
        assert run(*argv, "--group-split", "bridge_level", "--out", str(tmp_path / "b")) == 2
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("argv", [
        ["dataset-build", "LR5", "--seed", "-1"],
        ["train", "--seed", "-1"],
        ["synth-gen", "--seed", "-1"],
        ["synth-gen", "--noise", "-1"],
        ["synth-gen", "--jitter", "-1"],
    ], ids=["dataset_build_seed", "train_seed", "synth_seed", "synth_noise", "synth_jitter"])
    def test_negative_seed_or_amplitude_flag_is_2(self, small_corpus, tmp_path, argv):
        inputs = {
            "dataset-build": ["--corpus", str(small_corpus / "joined" / "labeled.ndjson")],
            "train": [*missing_image_split(tmp_path), "--max-epochs", "1"],
            "synth-gen": ["--classes", "2", "--per-class", "2", "--size", "8"],
        }[argv[0]]
        assert run(*argv, *inputs, "--out", str(tmp_path / "out")) == 2

    @PROPERTY
    @given(swap=st.sampled_from([(kind, path) for kind, doc in DOCUMENTS.items()
                                 for path in _key_paths(doc)]),
           value=JSON_VALUES)
    def test_any_value_at_any_key_is_0_or_2(self, read_document, swap, value):
        kind, path = swap
        assert set(read_document(kind, _with(kind, value, *path))) <= {0, 2}


class TestArtifacts:
    def test_join_report_full_match(self, small_corpus):
        report = json.loads((small_corpus / "joined" / "join_report.json").read_text())
        assert report["unmatched_images"] == 0
        assert report["matched_images"] == 36
        stats = json.loads((small_corpus / "joined" / "corpus_stats.json").read_text())
        assert stats["all"]["total"] == 36
        assert stats["all"]["partial"] == 9

    def test_nbi_stats_schema(self, small_corpus):
        payload = json.loads((small_corpus / "nbi" / "nbi_stats.json").read_text())
        stats = payload["stats"]
        assert stats["parsed_rows"] + stats["reject_count"] == stats["total_rows"]
        assert sum(payload["rating_histogram"].values()) == stats["parsed_rows"]

    def test_run_manifests_written(self, small_corpus):
        manifest = json.loads((small_corpus / "run_synth_gen.json").read_text())
        assert manifest["subcommand"] == "synth-gen"
        assert manifest["argv"][0] == "synth-gen"
        manifest = json.loads((small_corpus / "nbi" / "run_nbi_parse.json").read_text())
        assert str(small_corpus / "inventory.csv") in manifest["inputs"]


@pytest.fixture()
def stage_argv(small_corpus, tmp_path):
    """Subcommand -> argv without ``--out`` for all eight stages. The
    stages after corpus-match read a chain run under ``tmp_path/chain``;
    corpus-match also tags completion with an untrained 2-class model."""
    from bridgecap.learner import Network, make_checkpoint, micro_cnn, save_checkpoint

    chain = tmp_path / "chain"
    chain.mkdir()
    completion = chain / "completion.ckpt"
    save_checkpoint(make_checkpoint(
        Network(micro_cnn(["complete", "partial"], input_shape=(3, 16, 16)))
    ), completion)
    argv = {
        "synth-gen": ["synth-gen", "--classes", "2", "--per-class", "3", "--size", "8"],
        "nbi-parse": ["nbi-parse", "--input", str(small_corpus / "inventory.csv")],
        "corpus-match": ["corpus-match", "--manifest", str(small_corpus / "manifest.csv"),
                         "--records", str(small_corpus / "nbi" / "records.ndjson"),
                         "--completion-model", str(completion),
                         "--image-root", str(small_corpus)],
        "dataset-build": ["dataset-build", "LR5", "--seed", "3",
                          "--corpus", str(small_corpus / "joined" / "labeled.ndjson")],
        "train": ["train", "--split", str(chain / "dataset-build" / "split.csv"),
                  "--image-root", str(small_corpus),
                  "--dataset-manifest", str(chain / "dataset-build" / "dataset_manifest.json"),
                  "--size", "16", "--max-epochs", "1", "--seed", "1"],
        "evaluate": ["evaluate", "--checkpoint", str(chain / "train" / "model.ckpt"),
                     "--split", str(chain / "dataset-build" / "split.csv"),
                     "--image-root", str(small_corpus)],
        "binarize": ["binarize", "--confusion", str(chain / "evaluate" / "confusion.json")],
        "report": ["report", "--metrics", str(chain / "evaluate" / "metrics.json"),
                   "--distribution", str(chain / "evaluate" / "error_distribution.json"),
                   "--binarization", str(chain / "binarize" / "binarization.json"), "--svg"],
    }
    for name in ("dataset-build", "train", "evaluate", "binarize"):
        assert run(*argv[name], "--out", str(chain / name)) == 0
    return argv


def _manifest(out, subcommand):
    return json.loads((out / f"run_{subcommand.replace('-', '_')}.json").read_text())


class TestRunManifest:
    @pytest.mark.parametrize("subcommand", [
        "synth-gen", "nbi-parse", "corpus-match", "dataset-build",
        "train", "evaluate", "binarize", "report",
    ])
    def test_outputs_are_the_files_written(self, stage_argv, tmp_path, subcommand):
        out = tmp_path / "out"
        assert run(*stage_argv[subcommand], "--out", str(out)) == 0
        manifest_name = f"run_{subcommand.replace('-', '_')}.json"
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert set(_manifest(out, subcommand)["outputs"]) == written - {manifest_name}

    @pytest.mark.parametrize("kind", ["profile", "spec", "config"])
    def test_file_arguments_are_hashed(self, small_corpus, tmp_path, kind):
        from importlib.resources import files

        def builtin(table, name):
            return json.loads(files("bridgecap.data").joinpath(table).read_text())[name]

        path = tmp_path / f"{kind}.json"
        out = tmp_path / "out"
        labeled = str(small_corpus / "joined" / "labeled.ndjson")
        if kind == "profile":
            path.write_text(json.dumps(builtin("nbi_profiles.json", "standard")))
            argv = ["nbi-parse", "--input", str(small_corpus / "inventory.csv"),
                    "--profile", str(path)]
        elif kind == "spec":
            path.write_text(json.dumps(builtin("presets.json", "LR5")))
            argv = ["dataset-build", str(path), "--corpus", labeled]
        else:
            path.write_text(json.dumps({"dataset": {"seed": 3}}))
            argv = ["--config", str(path), "dataset-build", "LR5", "--corpus", labeled]
        assert run(*argv, "--out", str(out)) == 0
        manifest = _manifest(out, argv[2] if kind == "config" else argv[0])
        assert manifest["inputs"][str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()


class TestPipeline:
    def test_full_chain(self, small_corpus, tmp_path):
        data = tmp_path / "ds"
        assert run(
            "dataset-build", "LR5",
            "--corpus", str(small_corpus / "joined" / "labeled.ndjson"),
            "--seed", "3", "--out", str(data),
        ) == 0
        manifest = json.loads((data / "dataset_manifest.json").read_text())
        assert manifest["class_counts"] == {"1": 12, "2": 12, "3": 12}

        model = tmp_path / "model"
        assert run(
            "train", "--split", str(data / "split.csv"),
            "--image-root", str(small_corpus),
            "--dataset-manifest", str(data / "dataset_manifest.json"),
            "--size", "16", "--max-epochs", "2", "--seed", "1",
            "--out", str(model),
        ) == 0
        assert (model / "model.ckpt").exists()

        scores = tmp_path / "scores"
        assert run(
            "evaluate", "--checkpoint", str(model / "model.ckpt"),
            "--split", str(data / "split.csv"),
            "--image-root", str(small_corpus), "--out", str(scores),
        ) == 0
        metrics = json.loads((scores / "metrics.json").read_text())
        assert metrics["total"] == 9  # 3 test images per class

        bins = tmp_path / "bins"
        assert run(
            "binarize", "--confusion", str(scores / "confusion.json"),
            "--out", str(bins),
        ) == 0
        reports = json.loads((bins / "binarization.json").read_text())
        assert [r["level"] for r in reports] == [1, 2]  # boundaries valid for K=3
        assert all(r["accuracy"] >= metrics["accuracy"] for r in reports)

        out = tmp_path / "report"
        assert run(
            "report", "--metrics", str(scores / "metrics.json"),
            "--distribution", str(scores / "error_distribution.json"),
            "--binarization", str(bins / "binarization.json"),
            "--svg", "--out", str(out),
        ) == 0
        svg = (out / "metrics.svg").read_text()
        assert svg.startswith("<svg") and "accuracy" in svg
        assert (out / "error_distribution.csv").exists()
        assert (out / "binarization.svg").exists()

    def test_report_without_svg_flag(self, small_corpus, tmp_path):
        metrics = {
            "accuracy": 0.5, "macro_precision": 0.5, "macro_recall": 0.5,
            "macro_f1": 0.5, "per_class": [], "total": 4,
        }
        src = tmp_path / "metrics.json"
        src.write_text(json.dumps(metrics))
        out = tmp_path / "rep"
        assert run("report", "--metrics", str(src), "--out", str(out)) == 0
        assert (out / "metrics.csv").exists()
        assert not (out / "metrics.svg").exists()

    def test_grayscale_training_runs(self, small_corpus, tmp_path):
        data = tmp_path / "ds"
        assert run(
            "dataset-build", "LR5",
            "--corpus", str(small_corpus / "joined" / "labeled.ndjson"),
            "--seed", "3", "--colour", "grayscale", "--out", str(data),
        ) == 0
        model = tmp_path / "model"
        assert run(
            "train", "--split", str(data / "split.csv"),
            "--image-root", str(small_corpus), "--colour", "grayscale",
            "--size", "16", "--max-epochs", "1", "--out", str(model),
        ) == 0

    def test_train_takes_colour_from_dataset_manifest(self, small_corpus, tmp_path):
        from bridgecap.learner import load_checkpoint

        data = tmp_path / "ds"
        assert run(
            "dataset-build", "LR5",
            "--corpus", str(small_corpus / "joined" / "labeled.ndjson"),
            "--seed", "3", "--colour", "grayscale", "--out", str(data),
        ) == 0
        train = ["train", "--split", str(data / "split.csv"),
                 "--image-root", str(small_corpus),
                 "--dataset-manifest", str(data / "dataset_manifest.json"),
                 "--size", "16", "--max-epochs", "1"]
        assert run(*train, "--out", str(tmp_path / "m")) == 0
        ckpt = load_checkpoint(tmp_path / "m" / "model.ckpt")
        assert ckpt.descriptor.colour_mode == "grayscale"
        assert run(*train, "--colour", "rgb", "--out", str(tmp_path / "m2")) == 1
        assert not (tmp_path / "m2").exists()

    @pytest.mark.parametrize("edit", ["class_zero", "labels_str"])
    def test_dataset_manifest_that_does_not_label_the_split_is_2(self, small_corpus, tmp_path,
                                                                 capsys, edit):
        # Each edit used to train a network under the wrong labels.
        data = tmp_path / "ds"
        assert run(
            "dataset-build", "LR5",
            "--corpus", str(small_corpus / "joined" / "labeled.ndjson"),
            "--seed", "3", "--out", str(data),
        ) == 0
        split, manifest = data / "split.csv", data / "dataset_manifest.json"
        if edit == "class_zero":
            header, *rows = split.read_text().splitlines()
            rows = [re.sub(r",(\d+),", lambda m: f",{int(m[1]) - 1},", row) for row in rows]
            split.write_text("\n".join([header, *rows]) + "\n")
            message = ("split classes [0] are outside 1..3, "
                       f"the classes of dataset manifest {manifest}\n")
        else:
            manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                            "class_labels": "xyz"}))
            message = f"dataset manifest {manifest}.class_labels must be a list, got \"xyz\""
        assert run(
            "train", "--split", str(split), "--image-root", str(small_corpus),
            "--dataset-manifest", str(manifest), "--size", "16", "--max-epochs", "1",
            "--out", str(tmp_path / "m"),
        ) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


class TestDeterminism:
    def test_rerun_from_manifest_reproduces_bytes(self, small_corpus, tmp_path):
        data = tmp_path / "ds"
        argv = [
            "dataset-build", "LR5",
            "--corpus", str(small_corpus / "joined" / "labeled.ndjson"),
            "--seed", "3", "--out", str(data),
        ]
        assert run(*argv) == 0
        first = (data / "split.csv").read_bytes()
        manifest = json.loads((data / "run_dataset_build.json").read_text())
        assert run(*manifest["argv"]) == 0
        assert (data / "split.csv").read_bytes() == first

    def test_replay_train_manifest_reproduces_checkpoint(self, stage_argv, tmp_path):
        first = tmp_path / "first"
        assert run(*stage_argv["train"], "--out", str(first)) == 0
        argv = _manifest(first, "train")["argv"]
        replay = tmp_path / "replay"
        argv[argv.index("--out") + 1] = str(replay)
        assert run(*argv) == 0
        assert (replay / "model.ckpt").read_bytes() == (first / "model.ckpt").read_bytes()
        assert _manifest(replay, "train")["inputs"] == _manifest(first, "train")["inputs"]

    def test_dataset_build_without_seed_uses_seed_0(self, small_corpus, tmp_path):
        corpus = str(small_corpus / "joined" / "labeled.ndjson")
        assert run("dataset-build", "DL1", "--corpus", corpus, "--out", str(tmp_path / "a")) == 0
        assert run("dataset-build", "DL1", "--corpus", corpus, "--seed", "0",
                   "--out", str(tmp_path / "b")) == 0
        for name in ("split.csv", "dataset_manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_env_var_output_dir(self, small_corpus, tmp_path, monkeypatch):
        out = tmp_path / "env_out"
        monkeypatch.setenv("BRIDGECAP_OUT", str(out))
        assert run(
            "nbi-parse", "--input", str(small_corpus / "inventory.csv"),
        ) == 0
        assert (out / "records.ndjson").exists()


class TestImageMemory:
    """Decoded images are held once, as uint8 pixels. Between n and 2n
    32-px images, the peak traced memory of ``tag_completion`` and of
    ``evaluate`` grows by less than one float32 tensor per image. Held
    as float32 tensors in a list plus their ``np.stack`` copy, the
    images made it grow by two."""

    N = 256
    SIDE = 32
    TENSOR_BYTES = 3 * SIDE * SIDE * 4

    @pytest.fixture()
    def images(self, tmp_path):
        import numpy as np

        from bridgecap.imaging import encode_pnm

        rng = np.random.default_rng(12)
        paths = []
        for i in range(2 * self.N):
            pixels = rng.integers(0, 256, (self.SIDE, self.SIDE, 3)).astype(np.uint8)
            (tmp_path / f"i{i}.pnm").write_bytes(encode_pnm(pixels))
            paths.append(f"i{i}.pnm")
        return paths

    def checkpoint(self, labels):
        from bridgecap.learner import Network, make_checkpoint, micro_cnn

        descriptor = micro_cnn(labels, input_shape=(3, self.SIDE, self.SIDE))
        return make_checkpoint(Network(descriptor, seed=0))

    def growth(self, peak_of):
        """Peak traced bytes of ``peak_of(2N)`` minus those of
        ``peak_of(N)``, after one call to settle lazy set-up."""
        peaks = []
        for n in (2, self.N, 2 * self.N):
            tracemalloc.start()
            try:
                peak_of(n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks[2] - peaks[1]

    def test_tag_completion(self, images, tmp_path):
        from bridgecap.corpus import LabeledImage, tag_completion

        ckpt = self.checkpoint(["complete", "partial"])

        def tag(n):
            labeled = [LabeledImage(path, "01", f"S{i}", design_load_class=1)
                       for i, path in enumerate(images[:n])]
            tagged, report = tag_completion(labeled, ckpt, image_root=tmp_path)
            assert report.tagged == n

        assert self.growth(tag) < self.N * self.TENSOR_BYTES

    def test_evaluate(self, images, tmp_path):
        from bridgecap.learner import save_checkpoint

        save_checkpoint(self.checkpoint(["1", "2"]), tmp_path / "model.ckpt")

        def evaluate(n):
            rows = "".join(f"{path},{1 + i % 2},test\n" for i, path in enumerate(images[:n]))
            (tmp_path / "split.csv").write_text("image_path,class,side\n" + rows)
            assert run("evaluate", "--checkpoint", str(tmp_path / "model.ckpt"),
                       "--split", str(tmp_path / "split.csv"), "--image-root", str(tmp_path),
                       "--out", str(tmp_path / f"eval{n}")) == 0

        assert self.growth(evaluate) < self.N * self.TENSOR_BYTES


class TestRecordMemory:
    """The record stages hold records, not files. ``corpus-match`` reads
    the manifest row by row into the join and writes ``labeled.ndjson``
    block by block; ``dataset-build`` reads the corpus in blocks and
    writes ``split.csv`` block by block; the record classes have slots.
    From N to 2N manifest rows (two images per bridge, every image
    labeled), the peak traced memory of each stage through ``cli.main``
    grows by less than ``BYTES_PER_ROW`` per added row. Holding every
    manifest entry, every file's text and its lines, and records with an
    instance dict, it grew by about 1130 and 780 bytes a row."""

    N = 8000  # the ndjson files span more than one read block
    BYTES_PER_ROW = 600

    @pytest.fixture()
    def inputs(self, tmp_path):
        from bridgecap import corpus, nbi

        def write(n):
            d = tmp_path / str(n)
            d.mkdir()
            records = [nbi.NbiRecord("01", f"S{i}", f"S{i}", 1 + i % 6, 5.0 + i % 40)
                       for i in range(n // 2)]
            (d / "records.ndjson").write_text(nbi.records_to_ndjson(records))
            (d / "manifest.csv").write_text(corpus.write_manifest(
                corpus.ManifestEntry(f"images/bridge_{j // 2:06d}/img_{j:07d}.pnm",
                                     str(j // 2), "01", f"S{j // 2}", "complete")
                for j in range(n)
            ))
            return d

        return {n: write(n) for n in (200, self.N, 2 * self.N)}

    def growth(self, inputs, stage):
        """Per added row, the peak traced bytes of ``stage(dir)`` at 2N
        rows minus those at N, after one small run to settle lazy set-up."""
        peaks = {}
        for n, d in inputs.items():
            tracemalloc.start()
            try:
                stage(d)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return (peaks[2 * self.N] - peaks[self.N]) / self.N

    def test_corpus_match(self, inputs):
        def match(d):
            assert run("corpus-match", "--manifest", str(d / "manifest.csv"),
                       "--records", str(d / "records.ndjson"), "--out", str(d / "m")) == 0

        assert self.growth(inputs, match) < self.BYTES_PER_ROW

    def test_dataset_build(self, inputs):
        for d in inputs.values():
            assert run("corpus-match", "--manifest", str(d / "manifest.csv"),
                       "--records", str(d / "records.ndjson"), "--out", str(d / "m")) == 0

        def build(d):
            assert run("dataset-build", "LR9", "--corpus", str(d / "m" / "labeled.ndjson"),
                       "--out", str(d / "b")) == 0

        assert self.growth(inputs, build) < self.BYTES_PER_ROW
