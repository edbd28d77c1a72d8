"""bridgecap benchmark: three workloads through ``bridgecap.cli.main``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload train_pipeline --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the working directory; without
it the command exits 2 and prints no result. Inputs are generated from
``--seed`` under ``.bench_work/`` and removed at the end. The run repeats
set-up + stages until ``--seconds`` have passed (at least twice untraced,
once per pair when tracing) and reports medians over the repeats.
Stages run serially in one child process per repeat
(``perfbench/worker.py``) with one BLAS thread: on a shared 2-CPU host,
two threads trained no faster and spread three times wider.

Workloads (why each was chosen)
-------------------------------
``train_pipeline``
    All eight stages, ``synth-gen`` through ``report --svg``, on 4 classes
    x 150 images at 64 px: preset DL1, 3 epochs (patience 3, so early
    stopping cannot fire), batch 32. ROADMAP's reference pipeline; the
    training forward and backward passes take over 90% of it, so learner
    changes show here and inventory changes do not.
``ingest_infer``
    Set-up writes 4 x 150 images at 256 px (30% partial crops) and two
    untrained, fixed-seed ``micro_cnn`` checkpoints. Timed: ``nbi-parse``,
    ``corpus-match --completion-model`` (decode, 256->64 resize and a
    batch-1 forward per image), ``dataset-build DL1`` and ``evaluate`` on
    the train and test sides (batched forward). Imaging and inference
    with no backward pass: a training speed-up that slows inference
    shows here.
``inventory_scale``
    Set-up writes a 50k-row inventory (2% malformed: bad state code,
    short row, all-zero structure number, overlong structure number,
    implausible rating) and a 100k-row manifest (5% without a match).
    Timed: ``nbi-parse``, ``corpus-match``, ``dataset-build LR9`` and
    ``dataset-build DL1``. No images and no learner, so any learner-only
    change must leave it unmoved.

End-to-end metrics (``--trace 0``; bounds in BENCHMARK.json)
-----------------------------------------------------------
``wall_s`` (s, lower)
    Seconds of the workload's timed CLI stages, summed.
``setup_s`` (s, lower)
    Input generation and fixture checkpoints, plus the stage process's
    import of bridgecap (work moved to import time shows here).
``peak_rss_mb`` (MB, lower)
    Peak resident memory of the process that ran only the stages.

The output line also carries ``attempted`` and ``failed``: operations are
stages (a nonzero exit fails), output checks and digest comparisons, so
``failed_share`` = failed / attempted and must be 0. The workload
throughputs and ``accuracy`` are printed as ``metric`` lines on every run
and reported with the per-layer metrics; they are not bounded end-to-end
metrics because each exists on one workload only and a bounded metric must
be reported, non-zero, by every workload:

``train_images_per_s`` (images/s, higher; train_pipeline)
    Train images x epochs run / ``train`` stage seconds.
``accuracy`` (share, higher; train_pipeline)
    Test accuracy from ``metrics.json``; a floor check guards it.
``classify_images_per_s`` (images/s, higher; ingest_infer, train_pipeline)
    Images tagged plus images evaluated / seconds of those stages.
``inventory_rows_per_s`` (rows/s, higher; every workload, headline of
    inventory_scale)
    Inventory rows (parsed plus rejected) / ``wall_s``.

Per-layer metrics (``--trace 1``) and what they should move
-----------------------------------------------------------
Each repeat runs the stages untraced, then traced (``perfbench/spans.py``
wraps the public functions of every module from outside the package; a
span records name, start, end, parent and counters). Set-up is traced
too. A layer a workload never calls reads 0.

- ``cli.<stage>_s`` (synth_gen, nbi_parse, corpus_match, dataset_build,
  train, evaluate, binarize, report), from the untraced run: ``wall_s``
  of whichever workload runs the stage.
- ``learner.fit_s``, ``learner.epochs``, ``learner.batches``,
  ``learner.step_ms`` (one ``loss_and_grads``), ``learner.update_s`` (fit
  minus steps minus validation), ``learner.val_eval_s``,
  ``learner.wasted_epoch_share`` ((epochs - best epoch) / epochs):
  ``train_images_per_s`` and ``wall_s`` on train_pipeline; no change on
  the other two.
- ``layers.<op>.fwd_ms`` / ``layers.<op>.bwd_ms`` (ms per call) and
  ``layers.{conv,fc}.gflop_per_s`` (FLOPs counted from the shapes):
  ``train_images_per_s`` on train_pipeline (batch 32); the ``fwd`` ones
  ``classify_images_per_s`` on ingest_infer (batch 1 and <= 256).
- ``learner.predict_proba_s``, ``learner.forward_calls``,
  ``learner.images_forwarded``, ``learner.images_per_forward_call``:
  ``classify_images_per_s`` on ingest_infer.
- ``imaging.load_image_s``, ``imaging.images_decoded``,
  ``imaging.bytes_decoded``, ``imaging.resize_bilinear_s``,
  ``imaging.to_tensor_s``: ``classify_images_per_s`` on ingest_infer
  (256->64); a small share of train_pipeline (64->64).
- ``nbi.parse_nbi_s``, ``nbi.rows_parsed``, ``nbi.rows_rejected``,
  ``nbi.reject_share``, ``nbi.records_to_ndjson_s``,
  ``nbi.records_from_ndjson_s``: ``inventory_rows_per_s`` on
  inventory_scale.
- ``corpus.read_manifest_s``, ``corpus.join_labels_s``,
  ``corpus.match_share``, ``corpus.labeled_to_ndjson_s``,
  ``corpus.labeled_from_ndjson_s``: ``inventory_rows_per_s`` on
  inventory_scale; ``corpus.tag_completion_s``:
  ``classify_images_per_s`` on ingest_infer.
- ``datasets.build_variant_s``, ``datasets.write_split_csv_s``:
  ``inventory_rows_per_s`` on inventory_scale; ``datasets.read_split_csv_s``
  (``train`` and ``evaluate`` read the split): ``wall_s`` on
  train_pipeline and ingest_infer.
- ``synth.gen_corpus_s``: ``wall_s`` on train_pipeline, ``setup_s`` on
  ingest_infer.
- ``checkpoint.save_s``, ``checkpoint.load_s``, ``checkpoint.bytes``,
  ``evaluation.s``, ``report.s`` (the last two are module self times):
  small everywhere; they guard ``wall_s`` on train_pipeline.
- ``trace_overhead_s``: traced ``wall_s`` minus untraced ``wall_s``, both
  medians; it reads negative when run-to-run noise exceeds the overhead.

Output
------
``metric <name> <value> <unit>`` lines, then ``record <json>`` with the
environment (Python, NumPy, BLAS library and threads, nproc, git
revision, null outside a git checkout), per-stage seconds, failed
checks, the SHA-256 of the workload's artifacts (``model.ckpt``,
``metrics.json``, ``records.ndjson``, ``labeled.ndjson``, ``split.csv``;
every repeat of a seed must reproduce them) and, when tracing, self
seconds per layer per stage, the share of each stage that spans below
``cli.main`` cover, and the share of the ``train`` stage that learner
and layers self time take (at full scale it must reach 0.9 of the traced
stage, or the run counts a failure). The last line is the
JSON result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_UNTRACED_REPEATS = 2  # the digest comparison needs a second repeat
WORKER_TIMEOUT_S = 150
BLAS_THREADS = 1  # at most nproc; see the module docstring
HEADLINE = ("train_images_per_s", "accuracy", "classify_images_per_s", "inventory_rows_per_s")


def nproc():
    return len(os.sched_getaffinity(0))


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def environment(root, threads):
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    revision = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(numpy) or threads,
        "nproc": nproc(),
        "git_revision": revision,
    }


def blas_threads(numpy):
    """Thread count OpenBLAS reports, when NumPy bundles OpenBLAS."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# --- one repeat ----------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def run_worker(root, work, stages, trace, tag):
    job = {"src": str(root / "src"), "stages": stages, "trace": trace,
           "log": str(work / f"{tag}.log"), "result": str(work / f"{tag}.result.json")}
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              cwd=root, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(Path(job["result"]).read_text()), ""


def stage_seconds(result):
    seconds = {}
    for st in result["stages"]:
        seconds[st["stage"]] = seconds.get(st["stage"], 0.0) + st["seconds"]
    return seconds


def judge(workload, inputs, out, result, error, stages, sizes, tally):
    """Count each stage and each output check; return the digests, or
    None when the run could not be checked."""
    if result is None:
        for stage, _ in stages:
            tally.add(f"stage {stage}", False, error)
        return None
    for st in result["stages"]:
        tally.add(f"stage {st['stage']}", st["exit"] == 0, f"exit {st['exit']}")
    try:
        for name, ok, detail in workload.checks(inputs, out, sizes):
            tally.add(name, ok, detail)
        return {label: sha256(path) for label, path in workload.digests(inputs, out).items()}
    except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        tally.add("outputs readable", False, f"{type(exc).__name__}: {exc}")
        return None


def run_repeat(root, workload, seed, sizes, work, trace, tally):
    from spans import Tracer, attributed_seconds, layer_metrics, reindex, self_by_layer

    with Tracer() if trace else contextlib.nullcontext() as setup_tracer:
        t0 = time.perf_counter()
        inputs = workload.setup(work / "in", seed, sizes)
        setup_gen_s = time.perf_counter() - t0

    out = work / "plain"
    stages = workload.stages(inputs, out, seed, sizes)
    result, error = run_worker(root, work, stages, False, "plain")
    digests = judge(workload, inputs, out, result, error, stages, sizes, tally)
    rep = {"digests": digests}
    if result is not None:
        seconds = stage_seconds(result)
        rep.update(
            stage_s=seconds,
            wall_s=sum(seconds.values()),
            setup_s=setup_gen_s + result["import_s"],
            peak_rss_mb=result["peak_rss_mb"],
        )
        if digests is not None:
            from workloads import inventory_rows

            rep["headline"] = dict(workload.headline(inputs, out, seconds),
                                   inventory_rows_per_s=inventory_rows(out) / rep["wall_s"])

    if trace:
        traced_out = work / "traced"
        traced_stages = workload.stages(inputs, traced_out, seed, sizes)
        traced, error = run_worker(root, work, traced_stages, True, "traced")
        traced_digests = judge(workload, inputs, traced_out, traced, error, traced_stages,
                               sizes, tally)
        tally.add("tracing leaves outputs unchanged",
                  digests is not None and traced_digests == digests,
                  "digests differ between the untraced and the traced run")
        if traced is not None:
            spans = traced["spans"]
            rep["layers"] = layer_metrics(
                setup_tracer.spans + reindex(spans, len(setup_tracer.spans)))
            rep["traced_stage_s"] = stage_seconds(traced)
            rep["traced_wall_s"] = sum(rep["traced_stage_s"].values())
            by_stage, coverage = {}, {}
            for st in traced["stages"]:
                first, last = st["spans"]
                part = reindex(spans[first:last], -first)
                own = by_stage.setdefault(st["stage"], {})
                for layer, secs in self_by_layer(part).items():
                    own[layer] = own.get(layer, 0.0) + secs
                coverage[st["stage"]] = min(coverage.get(st["stage"], 1.0),
                                            attributed_seconds(part) / st["seconds"])
            rep["stage_self_s"] = by_stage
            rep["coverage"] = coverage
    return rep


# --- aggregation -----------------------------------------------------------------

def median_of(repeats, key):
    values = [r[key] for r in repeats if key in r]
    return statistics.median(values) if values else None


def median_dict(dicts):
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in sorted(keys)}


def median_dict_nested(dicts):
    stages = {k for d in dicts for k in d}
    return {s: median_dict([d.get(s, {}) for d in dicts]) for s in sorted(stages)}


def train_shares(repeats):
    """Share of the ``train`` stage that learner and layers self time
    account for: over the traced stage of the same repeat (the check), and
    over the untraced ``cli.train_s`` (which adds the noise between two
    processes). Medians over repeats; None without a train stage."""
    traced = [r for r in repeats if "train" in r.get("stage_self_s", {})]
    if not traced:
        return None, None
    own = [r["stage_self_s"]["train"].get("learner", 0.0)
           + r["stage_self_s"]["train"].get("layers", 0.0) for r in traced]
    return (statistics.median(o / r["traced_stage_s"]["train"] for o, r in zip(own, traced)),
            statistics.median(own) / statistics.median(r["stage_s"]["train"] for r in traced))


def load_spec(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(root, workload, seed, seconds, trace, sizes, run_dir):
    tally = Tally()
    repeats = []
    start = time.perf_counter()
    min_repeats = 1 if trace else MIN_UNTRACED_REPEATS
    while len(repeats) < min_repeats or time.perf_counter() - start < seconds:
        work = run_dir / f"r{len(repeats)}"
        try:
            repeats.append(run_repeat(root, workload, seed, sizes, work, trace, tally))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    first = repeats[0]["digests"]
    for k, rep in enumerate(repeats[1:], start=1):
        tally.add(f"repeat {k} reproduces repeat 0 digests",
                  first is not None and rep["digests"] == first,
                  "artifact digests differ between repeats of one seed")
    return repeats, tally


def summarize(repeats, trace, e2e_units, layer_units):
    """Metric values for the result line, and the headline figures."""
    ok = [r for r in repeats if "wall_s" in r]
    headline = median_dict([r["headline"] for r in ok if "headline" in r]) if ok else {}
    if not trace:
        values = {name: median_of(ok, name) for name in e2e_units}
        return values, headline
    values = median_dict([r["layers"] for r in ok if "layers" in r])
    stage_s = median_dict([r["stage_s"] for r in ok])
    for name in layer_units:
        if name.startswith("cli."):
            values[name] = stage_s.get(name[len("cli."):-len("_s")], 0.0)
    values.update({name: headline.get(name, 0.0) for name in HEADLINE})
    traced = [r for r in ok if "traced_wall_s" in r]
    if traced:
        values["trace_overhead_s"] = (median_of(traced, "traced_wall_s")
                                      - median_of(traced, "wall_s"))
    return {name: values.get(name) for name in layer_units}, headline


def main(argv=None):
    parser = argparse.ArgumentParser(description="bridgecap benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bridgecap" / "__init__.py").is_file():
        print(f"error: no bridgecap package under {root / 'src'}", file=sys.stderr)
        return 2
    threads = BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(root / "src"))
    from workloads import FULL, TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = load_spec(root)
    sizes = TINY if args.scale == "tiny" else FULL
    trace = bool(args.trace)

    run_dir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        repeats, tally = measure(root, WORKLOADS[args.workload], args.seed, args.seconds,
                                 trace, sizes, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    share, untraced_share = train_shares(repeats)
    if share is not None:
        tally.add("learner and layers account for the train stage",
                  share >= sizes.train_share_floor,
                  f"{share:.3f} of the traced train stage < {sizes.train_share_floor}")
    values, headline = summarize(repeats, trace, e2e_units, layer_units)
    units = layer_units if trace else e2e_units
    missing = sorted(name for name, v in values.items() if v is None)
    if missing:
        tally.add("every metric measured", False, f"missing {missing}")
    shown = dict(values) if trace else dict(values, **headline)
    for name, value in shown.items():
        if value is not None:
            print(f"metric {name} {value!r} {units.get(name) or layer_units[name]}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": trace, "scale": args.scale,
        "repeats": len(repeats),
        "environment": environment(root, threads),
        "stage_s": [r.get("stage_s") for r in repeats],
        "digests": repeats[0]["digests"],
        "failures": tally.failures,
    }
    if trace:
        record["stage_self_s"] = median_dict_nested([r["stage_self_s"] for r in repeats
                                                     if "stage_self_s" in r])
        record["coverage"] = {
            stage: min(r["coverage"][stage] for r in repeats if "coverage" in r)
            for stage in (repeats[0].get("coverage") or {})}
        record["train_share"] = {"traced_train_s": share, "untraced_train_s": untraced_share}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": 0.0 if v is None else v, "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
