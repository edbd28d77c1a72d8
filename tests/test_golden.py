"""Golden digests: the SHA-256 of every artifact that no BLAS call
touches, against a committed table, so a change that moves one output
byte fails here, not only in a benchmark run on two checkouts.

Pinned: ``synth-gen``, ``nbi-parse``, ``corpus-match`` and
``dataset-build DL1`` on 3 x 6 images of 16 px; ``binarize`` and
``report --svg`` on the confusion, metrics and distribution files under
``data/golden``; and the bytes of an untrained ``micro_cnn`` checkpoint
with a fixed history. The run manifests (``run_*.json``) hold temporary
paths and are left out.

A trained checkpoint and the ``evaluate`` outputs go through BLAS, whose
kernels differ between builds, thread counts and CPUs. ``BLAS_GOLDEN``
pins them per environment and head width: ``train`` for 2 epochs on the
DL1 split above, whose head is 3 wide, then ``evaluate --side test``; and
the same on the DL1 split of 6 x 6 images, whose design classes 1-6 give
a 6-wide head, a width at which an image's probabilities were seen to
depend on the other images of its chunk. An environment is named by the
fields of the benchmark's environment record that decide those bytes
(``perfbench/run.py``: NumPy, BLAS build, BLAS threads, nproc) and by
the SIMD extensions NumPy found on the CPU, since both NumPy and a
DYNAMIC_ARCH OpenBLAS pick kernels by them, and by the core (kernel set)
OpenBLAS picked, which ``OPENBLAS_CORETYPE`` overrides.

The BLAS tests run the pipeline once per core in ``CORES``, each in a
subprocess (this file run as a script) with ``OPENBLAS_CORETYPE`` set, so
one CPU checks the bytes of four kernel sets. Each run is compared with
the row of the environment it reports. A core the CPU cannot run, or an
environment the table has no row for, is skipped by name once the other
cores are compared.

A change that moves an artifact on purpose updates ``GOLDEN`` or
``BLAS_GOLDEN`` (the failing assertion shows the new digests) and names
each moved artifact and the reason in CHANGES.md.
"""

import ctypes
import glob
import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bridgecap.cli import main
from bridgecap.learner import Network, checkpoint_to_bytes, make_checkpoint, micro_cnn

DATA = Path(__file__).parent / "data" / "golden"
ROOT = Path(__file__).resolve().parents[1]

HISTORY = {"best_epoch": 2, "stopped_epoch": 2, "train_acc": [0.5, 0.625],
           "train_loss": [1.25, 0.875], "val_acc": [0.25, 0.75], "val_loss": [1.5, 1.0]}

# Taken from the bytes of the commit before this table was added.
GOLDEN = {
    "binarize/binarization.csv": "6cbc264939830a565f6e6246991c22f5f1e71f2c83cec99cf2ffeed8954a48df",
    "binarize/binarization.json": "2b9cf06f21deb02def560e1dfa370ae2f9a99f9289cdb9d4e2528479458e650a",
    "dataset/dataset_manifest.json": "9fec74e1314a3e45b4e2ff34382d246ee8edd7f71d0066bc78d12f86bc7cc127",
    "dataset/split.csv": "4225f6de53730e67131c29c9864c0f810aa86de3be82c501e4961be47626de93",
    "match/corpus_stats.json": "9281bba4e0ab59353def963472b39a965823d0bd1b31c517fa3c0515dad73d1c",
    "match/join_report.json": "978f3978e9a59a078e44cddca50658b1b4964b2d600c9651913f08ad856d168b",
    "match/labeled.ndjson": "c5c30ba75d0d812fbc70a052234991577b861988f12915e82cdc05cb433dd4cd",
    "nbi/nbi_stats.json": "c171634839c60ca2b7073b118d508a7eaf673fedf1d774674024700b09b89027",
    "nbi/records.ndjson": "e60174dc0b63d0ee0b1a0fd76d99f0e586d309e4ae9cf6ff56a9fe145c548790",
    "report/binarization.csv": "6cbc264939830a565f6e6246991c22f5f1e71f2c83cec99cf2ffeed8954a48df",
    "report/binarization.svg": "24acc0679dd0ad21ea32f0db7f408e476d3e00acfd1dea639194ea71987b1feb",
    "report/error_distribution.csv": "589660ae1326432487101b6b82116576d76225c6cc0d263cfbcde8bef72f98a7",
    "report/error_distribution.svg": "2fe806102e9201a68ad6cd492a26d03be33f709bf256b2556e6bdb1a0bdfda22",
    "report/metrics.csv": "8b3db1f6f9a745d987ee230bd0dbb0314daf13e9ca3192ebf43c43bc0e9a7722",
    "report/metrics.svg": "b307ede4f44ddf38f230a1844e79ea0a7baa7787dd23f87902aaadcc460b371f",
    "synth/images/c0_0000.pnm": "84772ad1e8d2f4832f479a6abfb4bae7c2a1a6301d67d2ef6d2b1a4781bbe391",
    "synth/images/c0_0001.pnm": "f87448b4f2d25228b9f6bd744b2ceaa744da2355d77e64ac63c609a06b098a33",
    "synth/images/c0_0002.pnm": "df1c3937a46cb776fa50e89b8bc6118970f9bce20c374c59bbbefae174639408",
    "synth/images/c0_0003.pnm": "e4130e40f351cea1eb2e17a2818f61c7ef7de12e50bf29ad632b93f107d3642b",
    "synth/images/c0_0004.pnm": "aec66272adc1c819292a43fb66ff062e42b78a3e3c6767891f790dd99e7d26e2",
    "synth/images/c0_0005.pnm": "8c36827bef7996237b048268c046886a8e30963412111dc1aa064b4abb5143f5",
    "synth/images/c1_0000.pnm": "33e1ab1560703470edd75ba0b9578892df185fcf20ae5e91918b6b54d591c7d6",
    "synth/images/c1_0001.pnm": "29635f92d5e1235a805738560deda7f3ae365aeb9948521c6ad6ddf1dc18d76e",
    "synth/images/c1_0002.pnm": "43e6ce02f2b2457067381dfe09f65d5ce63e472837d2d449e0079c6aab49f751",
    "synth/images/c1_0003.pnm": "fc6ba4cfe096c51973364e64d167b94b14d08beacf02b1dafefa3b5e9be93166",
    "synth/images/c1_0004.pnm": "1feed09b63ccb1129c16cb7658ac30feafcc6db0d8edd76f7cf8a1fc227e83e1",
    "synth/images/c1_0005.pnm": "0b0ff85bbbf52dc0b88e0e842a915e0eba24585032bfeaf70266fc6144b99774",
    "synth/images/c2_0000.pnm": "fd2f4912cac9128dbb4c7abbd03e50b5c8ab4627ffbec4880f5e87711f33de43",
    "synth/images/c2_0001.pnm": "9192c77ec76a62d0ff24498c09e1ed07665fd438e914c38b4c78e30d3e65b977",
    "synth/images/c2_0002.pnm": "ff68a1e426c6f7597ce44ac974732545460462713d4a7a8e51b9bf95b5558623",
    "synth/images/c2_0003.pnm": "6cf7d558a71020fb459b578080de871047e5fbb3424feac3aecb7de7a4c623ee",
    "synth/images/c2_0004.pnm": "a45ebd22c3fd5b9165832ce76023f215e423e1b861b606ac5aca317c4a8c8ab1",
    "synth/images/c2_0005.pnm": "12a87eb466406bc49fc32a00a26d568ea1d69c32f6aa968b9a64a9378d47fca8",
    "synth/inventory.csv": "2d603973470a22bbb06e4dd5596486899a36fcb97abf0c86ddde85a85afdb74b",
    "synth/manifest.csv": "010f0791cb2c257cec7ee68acc4622e35eca7c0cfa18ebb9ad85d8573105951b",
    "untrained.ckpt": "1f109b6e42265a17456b39af77b5427ced4d417e12cb41676e1f92a53414c0aa",
}


# A 2-vCPU Xeon's evaluate outputs, the same under every core below.
_EVALUATE = {
    3: {
        "evaluate/confusion.json":
            "a8f0f66e6315553d551dd076827a0c3e611c2dec0781fce1892b009a0657bceb",
        "evaluate/error_distribution.json":
            "e712379bdc52581f8f36f982100ccd2aac049f0321b3843deb39914eb5d76881",
        "evaluate/metrics.json":
            "fd2aca23090bef4c24fa655b21fa4ec5716a749dc1a973e16a03e90760d760be",
    },
    6: {
        "evaluate/confusion.json":
            "7418c61db628daf645adf342613f7ac2b340d705bf376def3d67ef26615b5f37",
        "evaluate/error_distribution.json":
            "03c917170e9fb872870910274c8426bc49c1b6ebc2cb49b219b988efdaeef629",
        "evaluate/metrics.json":
            "8d646080dbadfee1409dd8f531e8186a84dffe22b8df0932e88549feb75ec2cc",
    },
}
# The same Xeon's train outputs per OpenBLAS core, keyed by the name the
# getter reports, at one and at two BLAS threads alike. SkylakeX (the core
# OpenBLAS picks here) was taken from the bytes of the commit before the
# table was added, the other cores from the commit before they were added.
_TRAIN = {
    "SkylakeX": {
        3: {
            "train/history.json":
                "8a6d8c5d01ed1100a694d642ff03f1a2e40c640433ecb0b26a4bbfb203a297a0",
            "train/model.ckpt": "df59c1c7d154c217254f0fa334ede864616d784fcb1d1d28bf7e0aef10ebe04a",
        },
        6: {
            "train/history.json":
                "e5924c560edde9c3237b5e39930fa7b82455588d9fbd8203b32f15575d403b07",
            "train/model.ckpt": "3f5da6008009fdf7ccd0ca88949bdbf0c4d1a51e002b4091bbd9dcb5c026ddcb",
        },
    },
    "Haswell": {
        3: {
            "train/history.json":
                "446aa7512dae73ef562469fdaed6af9bab79f3a368da35acd14d5b492deaa010",
            "train/model.ckpt": "92bceeae6e0fddc16f6ab39adbcf94bf9a59ffd142a279cd8e6bb4c418d52200",
        },
        6: {
            "train/history.json":
                "dc2b5c20f5e649494f434a96e75837eb701f04c3307346e1393366f3b46819fd",
            "train/model.ckpt": "e1b34bc1a4205c06645f4a604c38b1d05eef1f50b1bb7ccdc9f3edb4b8de83c9",
        },
    },
    "Sandybridge": {
        3: {
            "train/history.json":
                "0134dabbc85e794d28507d1545cf18482ee1b7a6921b3fc3bf5c93b0b4a0a218",
            "train/model.ckpt": "a777b555943e0dca4f108d15e0d63726a85c2ff6d5aeaf50302287bf400eeaa0",
        },
        6: {
            "train/history.json":
                "ec95531306a48ba824acb68156931d447ba5725da063d2a51f4dde540b516f9e",
            "train/model.ckpt": "bf0f1b267bb6dc5da867d6dc41056d9b39f07440657bf8c5e847a2112f57a999",
        },
    },
    "Katmai": {
        3: {
            "train/history.json":
                "0ed0ee0a898bf901fa9fd227236142f2d471dc5ef15b55ff41f358b4e75618b0",
            "train/model.ckpt": "3b99776acb64c4e20a01767329ce3d95e2b12c7a4a80b54aa40da492d0e66e21",
        },
        6: {
            "train/history.json":
                "56eb0f7d504518c14a8137ec4938d3b6bc2ae321ef4985492eca0b5071242451",
            "train/model.ckpt": "fa97e1215a7f5a5981a82b759e1cf7f23d203ac9237032fc721558df9e4af386",
        },
    },
}
# Environment (see ``environment``) -> head width -> artifact -> SHA-256.
BLAS_GOLDEN = {
    (f"numpy 2.4.6, scipy-openblas 0.3.31.188.0, {threads} BLAS threads, nproc 2, "
     f"SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, core {core}"):
        {width: {**_EVALUATE[width], **train[width]} for width in (3, 6)}
    for core, train in _TRAIN.items() for threads in (1, 2)
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_stages(stages) -> None:
    for argv in stages:
        assert main(argv) == 0, argv


def corpus_stages(out: Path, classes: int) -> list[list[str]]:
    """``synth-gen`` of ``classes`` x 6 images of 16 px through
    ``dataset-build DL1``, each stage writing under ``out``."""
    synth = out / "synth"
    return [
        ["synth-gen", "--classes", str(classes), "--per-class", "6", "--size", "16",
         "--seed", "3", "--partial-fraction", "0.25", "--out", str(synth)],
        ["nbi-parse", "--input", str(synth / "inventory.csv"), "--out", str(out / "nbi")],
        ["corpus-match", "--manifest", str(synth / "manifest.csv"),
         "--records", str(out / "nbi" / "records.ndjson"), "--out", str(out / "match")],
        ["dataset-build", "DL1", "--corpus", str(out / "match" / "labeled.ndjson"),
         "--seed", "3", "--out", str(out / "dataset")],
    ]


def artifact_digests(out: Path) -> dict[str, str]:
    """Output path -> SHA-256 of each pinned artifact, the stages run
    under ``out``."""
    run_stages([
        *corpus_stages(out, 3),
        ["binarize", "--confusion", str(DATA / "confusion.json"), "--out", str(out / "binarize")],
        ["report", "--metrics", str(DATA / "metrics.json"),
         "--distribution", str(DATA / "error_distribution.json"),
         "--binarization", str(out / "binarize" / "binarization.json"), "--svg",
         "--out", str(out / "report")],
    ])
    digests = {path.relative_to(out).as_posix(): _sha256(path.read_bytes())
               for path in sorted(out.rglob("*"))
               if path.is_file() and not path.name.startswith("run_")}
    net = Network(micro_cnn(["H10", "H15", "H20"], input_shape=(3, 16, 16)), seed=0)
    digests["untrained.ckpt"] = _sha256(checkpoint_to_bytes(make_checkpoint(net, HISTORY)))
    return digests


def test_artifacts_match_the_golden_table(tmp_path):
    assert artifact_digests(tmp_path) == GOLDEN


def openblas_core() -> str:
    """The kernel set (core) the bundled OpenBLAS picked, found as
    ``perfbench/run.py::blas_threads`` finds its getter; ``unknown``
    without one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def environment() -> str:
    """This process's BLAS environment, as ``BLAS_GOLDEN`` names one."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    record = bench.environment(ROOT, None)
    try:
        simd = " ".join(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    except (TypeError, KeyError):
        simd = "unknown"
    return (f"numpy {record['numpy']}, {record['blas']}, {record['blas_threads']} BLAS threads, "
            f"nproc {record['nproc']}, SIMD {simd}, core {openblas_core()}")


def blas_digests(out: Path, classes: int) -> dict[str, str]:
    """Output path -> SHA-256 of each artifact ``train`` and ``evaluate``
    write, on the DL1 split of ``classes`` x 6 images built under ``out``."""
    run_stages(corpus_stages(out / "corpus", classes))
    dataset = out / "corpus" / "dataset"
    split = ["--split", str(dataset / "split.csv"), "--image-root", str(out / "corpus" / "synth")]
    run_stages([
        ["train", *split, "--dataset-manifest", str(dataset / "dataset_manifest.json"),
         "--size", "16", "--max-epochs", "2", "--batch-size", "4", "--seed", "1",
         "--out", str(out / "train")],
        ["evaluate", "--checkpoint", str(out / "train" / "model.ckpt"), *split,
         "--side", "test", "--out", str(out / "evaluate")],
    ])
    return {path.relative_to(out).as_posix(): _sha256(path.read_bytes())
            for stage in ("train", "evaluate") for path in sorted((out / stage).iterdir())
            if not path.name.startswith("run_")}


# The OpenBLAS cores the BLAS tests force, one subprocess each. The
# getter reports Prescott as Katmai, and a row is keyed by what it reports.
CORES = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")


@pytest.fixture(scope="module")
def core_runs(tmp_path_factory):
    """Core -> the environment and the digests of both head widths that
    its subprocess reports, or why it gave none."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]))
    procs = {core: subprocess.Popen(
        [sys.executable, __file__, str(tmp_path_factory.mktemp(core))],
        env=dict(env, OPENBLAS_CORETYPE=core), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True) for core in CORES}
    runs = {}
    try:
        for core, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            if proc.returncode < 0:  # SIGILL: the CPU lacks the core's instructions
                signame = signal.Signals(-proc.returncode).name
                runs[core] = f"core {core} cannot run here ({signame})"
            else:
                assert proc.returncode == 0, err
                runs[core] = json.loads(out.splitlines()[-1])
    finally:  # a run that failed or timed out leaves none behind
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return runs


def check_blas_digests(core_runs, classes: int) -> None:
    skipped = []
    for core, run in core_runs.items():
        if isinstance(run, str):
            skipped.append(run)
        elif run["environment"] not in BLAS_GOLDEN:
            skipped.append(f"no golden BLAS digests for {run['environment']}")
        else:
            assert run["digests"][str(classes)] == BLAS_GOLDEN[run["environment"]][classes], core
    if skipped:
        pytest.skip("; ".join(skipped))


def test_blas_artifacts_match_the_table_for_this_environment(core_runs):
    check_blas_digests(core_runs, 3)


def test_six_class_blas_artifacts_match_the_table_for_this_environment(core_runs):
    check_blas_digests(core_runs, 6)


if __name__ == "__main__":
    # One core's run for ``core_runs``: the stages write under argv[1],
    # and the last line printed is the environment and the digests.
    OUT = Path(sys.argv[1])
    print(json.dumps({"environment": environment(),
                      "digests": {n: blas_digests(OUT / str(n), n) for n in (3, 6)}}))
