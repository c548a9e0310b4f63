"""One benchmark run: set up inputs, time passes of CLI commands, check
the outputs outside the timed region, and assemble the result.

Untraced runs correct their set-up and pass times for host contention
with :mod:`hostprobe`; traced runs report raw times."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from amrforge import cli

import hostprobe
import tracing
from workloads import WORKLOADS

# Set-up runs at least this often and this long; its median is setup_s.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass
class Pass:
    start: float
    end: float
    digest: str
    errors: list[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_pass(workload, seed: int, workdir: Path, documents: int) -> Pass:
    """Run the workload's CLI commands once, in this process, timed together."""
    errors = []
    start = time.perf_counter()
    for argv in workload.commands(seed, workdir, documents):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                status = cli.run(argv)
        except Exception:  # a crash fails this pass's documents, not the run
            status = traceback.format_exc(limit=-3)
        if status != 0:
            errors.append(f"{argv[0]} exited {status}: {stderr.getvalue().strip()}")
    end = time.perf_counter()
    return Pass(start, end, _digest(workdir, workload.outputs), errors)


def _digest(workdir: Path, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        path = workdir / name
        digest.update(name.encode() + b"\0")
        digest.update(path.read_bytes() if path.exists() else b"\0missing\0")
    return digest.hexdigest()


def _measure(workload, seed, seconds, workdir, documents) -> list[Pass]:
    """Repeat passes while one more typical pass still fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, workdir, documents))
        typical = statistics.median(p.seconds for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 documents: int | None = None) -> tuple[dict, dict]:
    """Returns (report, result): the report records inputs, passes and
    failure reasons; the result is the line the benchmark prints last."""
    workload = WORKLOADS[name]
    documents = documents or workload.documents
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    probe = hostprobe.HostProbe()
    try:
        with nullcontext() if trace else probe:
            setup = []
            setup_start = time.perf_counter()
            while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
                start = time.perf_counter()
                inputs = workload.write_inputs(seed, workdir, documents)
                setup.append(time.perf_counter() - start)
            setup_end = time.perf_counter()
            if trace:
                # Untraced passes on both sides of the traced one, so a drift
                # in machine speed does not read as tracing overhead.
                passes = [run_pass(workload, seed, workdir, documents)]
                with tracing.traced() as tracer:
                    passes.append(run_pass(workload, seed, workdir, documents))
                passes.append(run_pass(workload, seed, workdir, documents))
            else:
                passes = _measure(workload, seed, seconds, workdir, documents)
        start = time.perf_counter()
        check = workload.check(seed, workdir, documents)
        check_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for done in passes:
        if done.errors:
            check.fail_all("; ".join(done.errors))
    if len({done.digest for done in passes}) > 1:
        check.fail_all("outputs differ between passes of one run")

    host = {}
    if trace:
        metrics = tracer.layer_metrics(documents)
        before, traced, after = passes
        untraced_s = (before.seconds + after.seconds) / 2
        metrics["trace.slowdown"] = (traced.seconds / untraced_s, "ratio")
        metrics["fail_rate"] = (len(check.failed) / documents, "ratio")
        tracer.write(WORK_DIR / f"spans-{name}-seed{seed}.jsonl")
    else:
        setup_factor = (probe.corrected(setup_start, setup_end)
                        / (setup_end - setup_start))
        pass_seconds = [probe.corrected(p.start, p.end) for p in passes]
        host = {"setup_factor": setup_factor, "corrected_pass_s": pass_seconds,
                **probe.summary()}
        metrics = {
            "setup_s": (statistics.median(setup) * setup_factor, "s"),
            "docs_per_s": (documents / statistics.median(pass_seconds), "docs/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "smatch_f1": (check.smatch_f1, "ratio"),
        }
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "inputs": inputs.summary(),
        "setup_s": setup,
        "pass_s": [done.seconds for done in passes],
        "host_probe": host,
        "check_s": check_s,
        "digest": passes[-1].digest,
        "failures": check.reasons,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    result = {
        "correct": not check.failed,
        "attempted": documents,
        "failed": len(check.failed),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return report, result
