import json

import pytest

from bridgecap.cli import main


def run(*argv):
    return main(list(argv))


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

    def test_unknown_preset_is_2(self, small_corpus, tmp_path):
        assert run(
            "dataset-build", "DL99",
            "--corpus", str(small_corpus / "joined" / "labeled.ndjson"),
            "--out", str(tmp_path / "d"),
        ) == 2

    def test_help_is_0(self, capsys):
        assert run("--help") == 0
        assert "bridgecap" in capsys.readouterr().out


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
        assert not (tmp_path / "m2" / "model.ckpt").exists()


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

    def test_env_var_output_dir(self, small_corpus, tmp_path, monkeypatch):
        out = tmp_path / "env_out"
        monkeypatch.setenv("BRIDGECAP_OUT", str(out))
        assert run(
            "nbi-parse", "--input", str(small_corpus / "inventory.csv"),
        ) == 0
        assert (out / "records.ndjson").exists()
