"""Benchmark weilfield's experiment harness, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src/`` tree and the workloads are built from ``configs/`` (see
``workloads.py``).  The seed becomes the config's ``seed``.  BLAS and OpenMP
threads are capped at the number of usable cores, and all load comes from
this one process.

Each iteration is one ``experiments.run(config, outdir)`` call with its
outputs written, the path the CLI takes.  An iteration that raises or has
a failing verdict is a failed attempt and is never timed.  Iterations
repeat until another one would pass ``--seconds``.

--trace 0 reports the end-to-end metrics:
    wall_s       median time of a passing iteration
    setup_s      median time from a fresh interpreter to a validated
                 ExperimentConfig (import, parse, validate), over several
                 interpreters started at even intervals through the run
    peak_rss_mb  peak resident memory of this process
    pass_share   passing iterations over attempted ones
--trace 1 spends half the time untraced and half with every layer's public
functions wrapped (``spans.py``), and reports the per-layer metrics as
medians over the traced iterations, plus ``trace.overhead_s``: traced run
time minus untraced median wall time.  On workloads with known work
(``workloads.expected_counts``) the traced counts are compared with the
expected ones and the comparison is printed.

The second-to-last line of output is a JSON record of the run: environment,
source line count, sample counts, verdict values and failures.  The last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 11
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What a CLI call pays before any experiment work: a fresh interpreter
# importing the package and validating a config document.
SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from weilfield.harness import ExperimentConfig\n"
    "ExperimentConfig.from_json(sys.argv[2])\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def prepare() -> int:
    """Cap native threads and put the checkout's package first; returns nproc."""
    if not os.path.isfile(os.path.join(SRC, "weilfield", "__init__.py")):
        raise BenchError(f"no weilfield package under {SRC}")
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        raise BenchError(f"no configs directory under {ROOT}")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import weilfield

    if not os.path.abspath(weilfield.__file__).startswith(SRC + os.sep):
        raise BenchError(f"weilfield was imported from {weilfield.__file__}, not {SRC}")
    return nproc


@dataclass
class Iterations:
    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    layers: list[dict] = field(default_factory=list)


def run_iterations(config, outdir: str, seconds: float, tracer=None,
                   between=None) -> Iterations:
    """Call run(config, outdir) until another call would pass `seconds`.

    between(elapsed), if given, is called after each call, untimed.
    """
    from weilfield.harness import experiments

    out = Iterations()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            report = experiments.run(config, outdir)
        except Exception as exc:  # a raising run is a failed attempt
            report = None
            out.failures.append(f"{type(exc).__name__}: {exc}")
        took = time.perf_counter() - t0
        if report is not None:
            out.verdicts = {v.name: {"value": v.value, "tolerance": v.tolerance,
                                     "passed": v.passed} for v in report.verdicts}
            if report.all_passed():
                out.times.append(took)
                if tracer is not None:
                    out.layers.append(tracer.metrics())
            else:
                out.failures.append("; ".join(report.summary_lines()))
        if between is not None:
            between(time.perf_counter() - start)
        if time.perf_counter() - start + took > seconds:
            return out


class SetupProbes:
    """Wall times of fresh interpreters importing weilfield and validating doc.

    The probes are spread evenly over `seconds` of a run, so that a run's
    figure does not hang on one short stretch of the host's speed.
    """

    def __init__(self, doc: dict, count: int, seconds: float):
        self.cmd = [sys.executable, "-c", SETUP_PROBE, SRC, json.dumps(doc)]
        self.count = count
        self.interval = seconds / count
        self.times: list[float] = []
        subprocess.run(self.cmd, check=True)  # untimed: compiles the bytecode once

    def catch_up(self, elapsed: float) -> None:
        """Start the probes whose turn has come `elapsed` seconds into the run."""
        while len(self.times) < self.count and len(self.times) * self.interval <= elapsed:
            t0 = time.perf_counter()
            subprocess.run(self.cmd, check=True)
            self.times.append(time.perf_counter() - t0)

    def finish(self) -> list[float]:
        self.catch_up(float("inf"))
        return self.times


def sample_summary(samples: list[float]) -> dict:
    """Sample count, median, maximum and the samples."""
    return {"n": len(samples), "median": statistics.median(samples),
            "max": max(samples), "samples": samples}


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def environment(nproc: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def benchmark(name: str, seed: int, seconds: float, trace: bool, *,
              toy: bool = False, setup_probes: int = SETUP_PROBES
              ) -> tuple[dict, dict]:
    """Run one workload; returns (result, record).  Call prepare() first.

    toy runs the workload at its toy size (the self-check's setting).
    """
    from weilfield.harness import ExperimentConfig, experiments

    doc = workloads.config_doc(ROOT, name, seed, toy=toy)
    config = ExperimentConfig.from_dict(doc)
    record: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "toy": toy, "src_lines": src_lines()}
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        # warm the interpreter on the same code paths at toy size, untimed
        experiments.run(ExperimentConfig.from_dict(
            workloads.config_doc(ROOT, name, seed, toy=True)), outdir)
        if trace:
            runs, metrics = _traced(config, outdir, seconds, record)
        else:
            probes = SetupProbes(doc, setup_probes, seconds)
            runs = run_iterations(config, outdir, seconds, between=probes.catch_up)
            setup = probes.finish()
            metrics = {}
            if runs.times:
                metrics = {
                    "wall_s": (statistics.median(runs.times), "s"),
                    "setup_s": (statistics.median(setup), "s"),
                    "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                    / 1024.0, "MB"),
                    "pass_share": (len(runs.times) / runs.attempted, "share"),
                }
                record["wall_s"] = sample_summary(runs.times)
            record["setup_s"] = setup
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    record["verdicts"] = runs.verdicts
    record["failures"] = runs.failures
    record["failed_share"] = len(runs.failures) / runs.attempted
    result = {
        "correct": not runs.failures,
        "attempted": runs.attempted,
        "failed": len(runs.failures),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return result, record


def _traced(config, outdir: str, seconds: float, record: dict
            ) -> tuple[Iterations, dict]:
    """Untraced iterations for half the time, then traced ones; per-layer metrics."""
    import spans

    start = time.perf_counter()
    plain = run_iterations(config, outdir, seconds / 2)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_iterations(config, outdir,
                                seconds - (time.perf_counter() - start), tracer)
    runs = Iterations(times=plain.times + traced.times,
                      attempted=plain.attempted + traced.attempted,
                      failures=plain.failures + traced.failures,
                      verdicts=traced.verdicts or plain.verdicts)
    if not (plain.times and traced.layers):
        return runs, {}
    metrics = {key: (statistics.median([m[key][0] for m in traced.layers]), unit)
               for key, (_, unit) in traced.layers[0].items()}
    metrics["trace.overhead_s"] = (metrics["harness.run.total_s"][0]
                                   - statistics.median(plain.times), "s")
    record["untraced_wall_s"] = sample_summary(plain.times)
    record["traced_iterations"] = len(traced.layers)
    expected = workloads.expected_counts(record["workload"], config.raw)
    record["expected_counts"] = {
        key: {"expected": want, "measured": metrics[key][0],
              "holds": metrics[key][0] == want}
        for key, want in expected.items()
    }
    return runs, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        nproc = prepare()
        result, record = benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["env"] = environment(nproc)
    print(json.dumps(record))
    if not result["metrics"]:
        print("error: no iteration passed, so nothing was timed", file=sys.stderr)
        return 1
    for key, check in record.get("expected_counts", {}).items():
        if not check["holds"]:
            print(f"note: {key} = {check['measured']}, the forward-mode "
                  f"algorithm gives {check['expected']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
