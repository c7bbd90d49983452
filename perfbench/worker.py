"""Timed loop of one workload, run in a process of its own.

``python3 perfbench/worker.py SPEC RESULT`` reads a JSON spec written by
``run.py``, imports kindex from the spec's source directory and calls
``kindex.cli.main(argv)`` in this process, capturing stdout. One job runs
the spec's command list once; after each job the scale command runs once
on the quarter-size input. Jobs repeat until ``seconds`` have passed and
at least ``min_jobs`` have run. With tracing on, every second job runs
traced. The result JSON holds each command's exit code, wall time and
output digest, the text of each distinct output and the peak resident
memory of this process.
"""

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback


def run_command(main, argv):
    """(exit code, wall seconds, stdout) of one in-process CLI call. An
    exception escaping ``main`` is a failed command: exit code -1, with the
    traceback as its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:
            code = -1
            out.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import kindex.cli

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, spec["bench"])
        from tracing import Tracer
        tracer = Tracer()

    outputs: dict[str, str] = {}

    def record(argv, main=kindex.cli.main):
        code, elapsed, text = run_command(main, argv)
        digest = hashlib.sha1(text.encode()).hexdigest()
        outputs.setdefault(digest, text)
        return [code, elapsed, digest]

    extras = [record(argv) for argv in spec["extra_commands"]]
    record(spec["scale_command"])  # warm-up, not timed

    jobs = []
    layers = []
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if len(jobs) >= 2 and (elapsed >= 3 * spec["seconds"] or (
                len(jobs) >= spec["min_jobs"] and elapsed >= spec["seconds"])):
            break
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            tracer.begin_job(len(jobs))
            with tracer.installed():
                commands = [record(argv, lambda a: tracer.run_main(kindex.cli.main, a))
                            for argv in spec["commands"]]
            layers.append(tracer.end_job(
                sum(len(outputs[c[2]].encode()) for c in commands)))
        else:
            commands = [record(argv) for argv in spec["commands"]]
        jobs.append({"traced": traced, "commands": commands,
                     "scale": record(spec["scale_command"])})

    result = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
        "extras": extras,
        "outputs": outputs,
    }
    if tracer is not None:
        job_s = {t: statistics.median(sum(c[1] for c in j["commands"])
                                      for j in jobs if j["traced"] is t)
                 for t in (False, True)}
        result["layers"] = layers
        result["trace_overhead_s"] = job_s[True] - job_s[False]
        result["violations"] = tracer.violations
        tracer.write(spec["trace_file"])
    return result


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
