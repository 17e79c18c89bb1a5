#!/usr/bin/env python3
"""Run one corrhist benchmark workload and print its metrics.

    python3 perfbench/run.py --workload history-long --seed 77 --seconds 30 --trace 0

Untraced (``--trace 0``): set up the corpus several times, then run the
four commands as subprocesses in a closed loop (one client) until
``--seconds`` have passed, checking every output.  Prints the end-to-end
metrics, each time rescaled to the machine's reference speed by a
calibration loop timed before and after it (see ``calibrate``).
Traced (``--trace 1``): the same set-up and commands, run in-process
with spans around every public corrhist function, plus probes; prints
the per-layer metrics.  The last stdout line is one JSON object.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Set-up repeats: at least this many, and until this much time has passed,
# so that short set-ups are sampled across more of the machine's noise.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
COMMAND_TIMEOUT_S = 60.0
# No new pass starts after this much of the run, so that it ends well
# within the 180 s a run may take.
PASS_BUDGET_S = 100.0

# A shared host runs this process at speeds that differ by up to 1.8x,
# in phases that last from about a second to tens of seconds, so raw wall
# times of two runs cannot be compared.  Every timed step is therefore bracketed by a fixed
# pure-Python loop, and its wall time is reported as
# ``wall * CALIBRATION_REF_S / mean(loop before, loop after)``: the time
# the step would take at the speed the loop has in CALIBRATION_REF_S.
# The reference is the loop's median on a two-vCPU Intel Xeon VM
# (Python 3.11), so reported times there read as typical wall times.
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_REF_S = 0.085


def calibrate() -> float:
    """Wall seconds of a fixed integer loop: the machine's current speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - started


def rescale(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference speed, from the calibrations around it."""
    return wall * CALIBRATION_REF_S * 2 / (before + after)


class Run:
    """State of one benchmark run: inputs, tallies and problems found."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = WORK / workload.name
        self.out = self.work / "out"
        self.results = WORK / "results"
        self.corpus = None
        self.passes = 0
        self._pass_started = 0.0
        self.samples: dict[str, list[float]] = {}
        self.raw_walls: dict[str, list[float]] = {}
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, int | float] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def tally(self, ok: bool, problems: Sequence[str] = ()) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.problems.extend(problems)

    def note_counts(self, counts: dict) -> None:
        """Counts must repeat exactly; flag any that changed within the run."""
        for name, value in counts.items():
            if name in self.counts and self.counts[name] != value:
                self.problems.append(
                    f"count {name} changed within the run: {self.counts[name]} -> {value}"
                )
            self.counts[name] = value

    def may_start_pass(self, passes: int, measure_started: float, seconds: float) -> bool:
        """True for the first pass, then while another pass as long as the
        last one still ends within ``seconds``."""
        now = time.perf_counter()
        if passes == 0:
            self._pass_started = now
            return True
        last = now - self._pass_started
        self._pass_started = now
        if now - self.started > PASS_BUDGET_S:
            return False
        return now - measure_started + last <= seconds

    def calibrate(self) -> float:
        seconds = calibrate()
        self.calibrations.append(seconds)
        return seconds

    def set_up(self, tracer=None):
        """Set the corpus up repeatedly; returns the last corpus and the
        rescaled times."""
        from workloads import set_up

        walls: list[float] = []
        times: list[float] = []
        corpus = None
        directory = self.work / "corpus"
        before = self.calibrate()
        while len(walls) < SETUP_REPEATS or sum(walls) < SETUP_SECONDS:
            corpus = None  # free the previous corpus before building the next
            shutil.rmtree(directory, ignore_errors=True)
            traced = tracer.trace(f"{self.workload.name}/setup") if tracer else nullcontext()
            started = time.perf_counter()
            with traced:
                corpus = set_up(self.workload, self.seed, directory)
            walls.append(time.perf_counter() - started)
            after = self.calibrate()
            times.append(rescale(walls[-1], before, after))
            before = after
        self.raw_walls["setup"] = walls
        return corpus, times

    def run_command(self, argv: list[str]) -> tuple[float, int, int]:
        """Run ``corrhist`` with ``argv``; returns wall seconds, peak RSS KiB, exit code."""
        self.work.mkdir(parents=True, exist_ok=True)
        with open(self.work / "stderr.log", "ab") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "corrhist.cli", *argv],
                stdout=subprocess.DEVNULL, stderr=log, env=self.env, cwd=ROOT,
            )
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode

    def run_pass(self, corpus, expected) -> tuple[dict[str, float], int]:
        """Run the four commands as subprocesses, then check their outputs;
        returns their rescaled times and the peak RSS KiB.

        One calibration lies between two commands and serves both, so the
        checks wait until the pass has ended.
        """
        from workloads import COMMANDS, check_output, command_argv

        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        times: dict[str, float] = {}
        codes: dict[str, int] = {}
        peak = 0
        before = self.calibrate()
        for command in COMMANDS:
            wall, rss, codes[command] = self.run_command(
                command_argv(command, corpus, self.out))
            after = self.calibrate()
            self.raw_walls.setdefault(command, []).append(wall)
            times[command] = rescale(wall, before, after)
            peak = max(peak, rss)
            before = after
        for command, code in codes.items():
            self.tally(code == 0, [] if code == 0 else [f"{command}: exit code {code}"])
            problems, counts = check_output(command, self.out, expected)
            self.tally(not problems, problems)
            self.note_counts(counts)
        return times, peak


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _check_counts_across_runs(run: Run, src_digest: str) -> None:
    """Compare this run's counts with earlier runs on the same inputs and code."""
    path = WORK / "counts.json"
    registry = json.loads(path.read_text()) if path.exists() else {}
    config = run.workload.config(run.seed)
    inputs = hashlib.sha256(repr(config).encode()).hexdigest()
    key = f"{run.workload.name}/{run.seed}/{inputs[:16]}/{src_digest[:16]}"
    seen = registry.setdefault(key, {})
    for name, value in run.counts.items():
        if name in seen and seen[name] != value:
            run.problems.append(
                f"count {name} was {seen[name]} in an earlier run of this seed, now {value}"
            )
        seen[name] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(registry, indent=1, sort_keys=True))


def measure_untraced(run: Run) -> dict[str, tuple[float, str]]:
    from workloads import COMMANDS, expected_outputs

    corpus, setup_times = run.set_up()
    expected = expected_outputs(run.workload, corpus, run.work)
    run.corpus = corpus
    times: dict[str, list[float]] = {c: [] for c in COMMANDS}
    totals: list[float] = []
    peaks_kib: list[int] = []
    measure_started = time.perf_counter()
    while run.may_start_pass(len(totals), measure_started, run.seconds):
        pass_times, pass_peak = run.run_pass(corpus, expected)
        for command, seconds in pass_times.items():
            times[command].append(seconds)
        totals.append(sum(pass_times.values()))
        peaks_kib.append(pass_peak)
    run.passes = len(totals)
    run.samples = {**times, "total": totals, "setup": setup_times,
                   "peak_rss_mib": [kib / 1024 for kib in peaks_kib]}
    metrics = {
        f"{command.replace('-', '_')}_s": (statistics.median(values), "s")
        for command, values in times.items()
    }
    metrics["total_s"] = (statistics.median(totals), "s")
    metrics["peak_rss_mib"] = (statistics.median(peaks_kib) / 1024, "MiB")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="corpus seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to run command passes (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corrhist" / "__init__.py").is_file():
        print(f"perfbench: no corrhist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    seed = workload.seed if args.seed is None else args.seed
    run = Run(workload, seed, args.seconds)
    load_before = os.getloadavg()[0]
    try:
        if args.trace:
            from traced import measure_traced

            metrics = measure_traced(run)
        else:
            metrics = measure_untraced(run)
    finally:
        shutil.rmtree(run.work / "corpus", ignore_errors=True)
        shutil.rmtree(run.out, ignore_errors=True)

    src_digest = _src_digest()
    _check_counts_across_runs(run, src_digest)
    corpus = run.corpus
    meta = {
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": workload.held_out_seed,
        "persons": workload.persons,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": run.passes,
        "samples_s": run.samples,
        "raw_wall_median_s": {name: statistics.median(walls)
                              for name, walls in run.raw_walls.items()},
        "calibration_ref_s": CALIBRATION_REF_S,
        "calibration_s": {
            "median": statistics.median(run.calibrations),
            "min": min(run.calibrations),
            "max": max(run.calibrations),
            "count": len(run.calibrations),
        },
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_before,
        "loadavg_1m_end": os.getloadavg()[0],
        "git_commit": _git_commit(),
        "src_sha256": src_digest,
        "corpus_mb": corpus.disk_bytes / 1e6,
        "input_mb": corpus.input_bytes / 1e6,
        "snapshots": len(corpus.history.snapshots),
        "records": sum(len(s.profiles) + len(s.documents) for s in corpus.history.snapshots),
        "counts": run.counts,
        "problems": run.problems,
    }
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    run.results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    (run.results / f"{stem}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1, sort_keys=True)
    )
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:14.6f} {unit}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
