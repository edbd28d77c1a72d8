"""Stage process: runs one workload's CLI stages and nothing else.

Usage: ``python3 perfbench/worker.py JOB.json`` where the job holds
``src`` (the package root to import), ``stages`` (a list of
``[stage, argv]``), ``trace`` (bool), ``log`` and ``result`` paths. Each
stage goes through ``bridgecap.cli.main``. The result file gets the
import time, each stage's exit code and seconds, the process's peak
resident memory and, when tracing, the spans with each stage's slice.
Running only the stages here keeps set-up out of ``peak_rss_mb``.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from bridgecap import cli

    import_s = time.perf_counter() - _T0
    from spans import Tracer

    stages = []
    with Tracer() if job["trace"] else contextlib.nullcontext() as tracer, \
            open(job["log"], "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        for stage, argv in job["stages"]:
            first = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
            last = len(tracer.spans) if tracer else 0
            stages.append({"stage": stage, "exit": code, "seconds": seconds,
                           "spans": [first, last]})
    result = {
        "import_s": import_s,
        "stages": stages,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else [],
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
