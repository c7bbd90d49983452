"""Seeded end-to-end benchmark of the kindex CLI.

    python3 perfbench/run.py --workload corpus-authors --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout. The inputs are generated from ``--seed``
(``gen.py``); the timed loop runs in a child process (``worker.py``) that
calls ``kindex.cli.main`` in-process, one workload at a time; every
distinct output is then checked against values recomputed from the
generator's records (``checker.py``). The last line of stdout is one JSON
object: ``correct``, ``attempted`` and ``failed`` jobs, and ``metrics``,
which holds the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of a traced run (``tracing.py``) with ``--trace 1``. The exit code
is 0 when every output checked out, 1 when some did not and 2 when the
benchmark could not run.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import gen  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# Each set-up (generate and write every input) is repeated this many times
# and the median is reported, so that set-up time is steady enough to gate.
SETUP_REPEATS = 5
# job_tail_s is the highest percentile with at least this many jobs beyond it.
TAIL_BEYOND = 10
# A run keeps going past --seconds until it has this many jobs.
MIN_JOBS = TAIL_BEYOND + 2
# Authors and summary rows whose values are checked on full-size inputs.
CHECK_SAMPLE = 64
CHILD_TIMEOUT_S = 150
# Run in a fresh interpreter; prints the seconds taken by ``import kindex.cli``.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import kindex.cli; "
                "print(time.perf_counter() - start)")

END_TO_END = {
    "job_p50_s": "s",
    "job_tail_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "scaling_exp": "1",
}


@dataclass(frozen=True)
class Workload:
    """Commands of one job, with ``{input}``, ``{author}`` placeholders.

    ``scale`` is the first command again on an input a quarter the size
    (``{small}``); ``extra`` commands run once, untimed, for checking.
    """

    kind: str
    size: int
    commands: tuple[tuple[str, ...], ...]
    scale: tuple[str, ...]
    extra: tuple[tuple[str, ...], ...] = ()


# Why these three: corpus-authors is dominated by filtering and role
# profiles (bulk pass plus point lookup); corpus-scan by the corpus parser,
# with filtering bypassed; summary-rank by the summary parser and Decimal
# cell formatting, with no corpus at all. corpus-authors is the smallest
# corpus whose quarter-size pair still shows the quadratic cost clearly
# (slope about 1.9); the other sizes keep a job near one second on a
# 2-core machine, so a 25 s run has about 20 jobs.
WORKLOADS = {
    "corpus-authors": Workload(
        kind="corpus", size=1800,
        commands=(("metrics", "--corpus", "{input}"),
                  ("metrics", "--corpus", "{input}", "--author", "{author}")),
        scale=("metrics", "--corpus", "{small}")),
    "corpus-scan": Workload(
        kind="corpus", size=8000,
        commands=(("validate", "{input}"),
                  ("yearly", "{input}"),
                  ("yearly", "{input}", "--format", "plotdata")),
        scale=("validate", "{small}")),
    "summary-rank": Workload(
        kind="summary", size=20000,
        commands=(("metrics", "--summary", "{input}"),
                  ("rank", "--summary", "{input}", "--key", "k_display"),
                  ("correlate", "{input}", "--x", "H", "--y", "FA", "--format", "plotdata")),
        scale=("metrics", "--summary", "{small}"),
        extra=(("correlate", "{input}", "--x", "H", "--y", "FA"),)),
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong output)."""


def make_inputs(workload: Workload, seed: int, work: Path) -> dict[str, object]:
    """Generate and write the full and quarter-size inputs into the new
    directory ``work``; returns path -> records. (Rewriting an existing file
    instead can wait for the file system to flush the old contents.)"""
    work.mkdir()
    make = gen.make_corpus if workload.kind == "corpus" else gen.make_summary
    suffix = "txt" if workload.kind == "corpus" else "tsv"
    inputs = {}
    for label, size in (("input", workload.size), ("small", workload.size // 4)):
        data = make(seed, size)
        path = work / f"{label}.{suffix}"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data.text())
        inputs[str(path)] = data
    return inputs


class OutputCheck:
    """Checks one command's stdout against the generator's records."""

    def __init__(self, inputs: dict[str, object], seed: int):
        self.inputs = inputs
        self.seed = seed
        self._truth = {}

    def truth(self, path, compute):
        if path not in self._truth:
            self._truth[path] = compute(self.inputs[path])
        return self._truth[path]

    def sample(self, path, ids) -> list[str]:
        """Every id on the quarter-size input, a seeded sample otherwise."""
        if Path(path).stem == "small":
            return sorted(ids)
        return checker.sample(ids, CHECK_SAMPLE, self.seed, Path(path).name)

    def __call__(self, argv: list[str], text: str) -> list[str]:
        command = argv[0]
        path = next(a for a in argv if a in self.inputs)
        data = self.inputs[path]
        if command == "validate":
            return checker.check_validate(text, data)
        if command == "yearly":
            truth = self.truth(path, checker.yearly_truth)
            plot = "plotdata" in argv
            return (checker.check_yearly_plot if plot else checker.check_yearly)(text, truth)
        if command == "metrics" and "--corpus" in argv:
            truth = self.truth(path, checker.corpus_truth)
            if "--author" in argv:
                return checker.check_author_metrics(text, truth, argv[argv.index("--author") + 1])
            return checker.check_corpus_metrics(text, truth, self.sample(path, truth))
        ids = self.sample(path, [row.author_id for row in data.rows])
        if command == "metrics":
            return checker.check_summary_metrics(text, data, ids)
        if command == "rank":
            return checker.check_rank(text, data, ids)
        if command == "correlate":
            plot = "plotdata" in argv
            return (checker.check_correlate_plot if plot else checker.check_correlate_r)(text, data)
        raise BenchError(f"no checker for {argv}")


def _fill(template, paths: dict[str, str], author: str) -> list[str]:
    return [part.format(author=author, **paths) for part in template]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile of ``values``
    that has at least TAIL_BEYOND values above it."""
    ordered = sorted(values)
    k = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered) - k


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    if not (ROOT / "src" / "kindex" / "cli.py").is_file():
        raise BenchError(f"no kindex sources under {ROOT / 'src'}; run from a checkout")
    workload = WORKLOADS[name]
    out_dir = BENCH / "out"
    work = out_dir / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []  # (generate and write, import) per repetition
        for rep in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            inputs = make_inputs(workload, seed, work / f"setup{rep}")
            setup_times.append((time.perf_counter() - start, _import_seconds()))
        big, small = list(inputs)
        paths = {"input": big, "small": small}
        author = ""
        if workload.kind == "corpus":
            authors = sorted({a for p in inputs[big].pubs for a in p.authors})
            author = random.Random(f"author:{seed}").choice(authors)
        spec = {
            "src": str(ROOT / "src"),
            "bench": str(BENCH),
            "trace": trace,
            "seconds": seconds,
            "min_jobs": MIN_JOBS,
            "commands": [_fill(c, paths, author) for c in workload.commands],
            "scale_command": _fill(workload.scale, paths, author),
            "extra_commands": [_fill(c, paths, author) for c in workload.extra],
            "trace_file": str(out_dir / f"trace-{name}-seed{seed}.jsonl"),
        }
        result = _run_child(spec, work, seed)
        return _report(name, seed, spec, inputs, setup_times, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _import_seconds() -> float:
    try:
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, timeout=60, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"cannot import kindex: {exc}") from None
    return float(probe.stdout)


def _run_child(spec: dict, work: Path, seed: int) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # A hash seed derived from --seed makes set and dict layouts, and so
    # timings, repeat for the same inputs.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4294967296))
    try:
        child = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
            env=env, timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {CHILD_TIMEOUT_S} s") from None
    if child.returncode != 0:
        raise BenchError(f"worker exited {child.returncode}: {child.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _report(name, seed, spec, inputs, setup_times, result):
    check = OutputCheck(inputs, seed)
    outputs = result["outputs"]

    def verify(argv, code, digest) -> list[str]:
        label = " ".join(Path(a).name if a in inputs else a for a in argv)
        if code != 0:
            return [f"{label}: exit {code}"]
        try:
            found = check(argv, outputs[digest])
        except (ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output ({exc!r})"]
        return [f"{label}: {p}" for p in found[:5]]

    problems: list[str] = []
    for argv, (code, _, digest) in zip(spec["extra_commands"], result["extras"]):
        problems += verify(argv, code, digest)

    # Outputs are deterministic: each command's first output is checked, and
    # a job passes when every command exits 0 and prints exactly that.
    jobs = result["jobs"]
    argvs = spec["commands"] + [spec["scale_command"]]
    reference = jobs[0]["commands"] + [jobs[0]["scale"]]
    passed = []
    for argv, (code, _, digest) in zip(argvs, reference):
        found = verify(argv, code, digest)
        passed.append(not found)
        problems += found
    failed = 0
    for job in jobs:
        runs = job["commands"] + [job["scale"]]
        if not all(ok and code == 0 and digest == ref[2]
                   for (code, _, digest), ref, ok in zip(runs, reference, passed)):
            failed += 1
    problems += result.get("violations", [])[:5]

    if spec["trace"]:
        metrics, notes = _layer_metrics(result, problems), []
        units = LAYER_METRICS
    else:
        metrics, notes = _end_to_end_metrics(spec, inputs, setup_times, result)
        units = END_TO_END
    correct = failed == 0 and not problems
    lines = [f"{name} seed={seed}: {len(jobs)} jobs, {failed} failed, correct={correct}"]
    lines += [f"  problem: {p}" for p in problems[:10]]
    lines.append(f"  fail_ratio {failed / len(jobs):.4f} ({failed}/{len(jobs)} jobs)")
    lines += notes
    lines += [f"  {key:<34} {value:>16.6g} {units[key]}" for key, value in metrics.items()]
    return {
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, lines


def _layer_metrics(result: dict, problems: list[str]) -> dict[str, float]:
    """Median times over the traced jobs; counts, which must be equal in
    every traced job."""
    layers = result["layers"]
    metrics = {}
    for key, unit in LAYER_METRICS.items():
        if key == "trace.overhead_s":
            metrics[key] = result["trace_overhead_s"]
        elif unit in ("count", "bytes"):
            values = {layer[key] for layer in layers}
            if len(values) != 1:
                problems.append(f"count {key} differs between jobs: {sorted(values)}")
            metrics[key] = layers[0][key]
        else:
            metrics[key] = statistics.median(layer[key] for layer in layers)
    return metrics


def _end_to_end_metrics(spec, inputs, setup_times, result) -> tuple[dict[str, float], list[str]]:
    jobs = result["jobs"]
    job_s = [sum(c[1] for c in j["commands"]) for j in jobs]
    tail_s, tail_pct, beyond = tail(job_s)
    records = {path: data.records for path, data in inputs.items()}
    job_records = sum(records[next(a for a in argv if a in records)]
                      for argv in spec["commands"])
    big_s = statistics.median(j["commands"][0][1] for j in jobs)
    small_s = statistics.median(j["scale"][1] for j in jobs)
    generate_s = statistics.median(g for g, _ in setup_times)
    import_s = statistics.median(i for _, i in setup_times)
    notes = [f"  job_tail_s is p{tail_pct:.0f}, with {beyond} of {len(jobs)} jobs beyond it",
             f"  setup: generate and write {generate_s:.4f} s, import kindex "
             f"{import_s:.4f} s (medians of {len(setup_times)})"]
    return {
        "job_p50_s": statistics.median(job_s),
        "job_tail_s": tail_s,
        "records_per_s": job_records * len(jobs) / sum(job_s),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(g + i for g, i in setup_times),
        "scaling_exp": math.log(big_s / small_s) / math.log(4),
    }, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="kindex CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
