"""Self-tests of the benchmark: smoke runs, span nesting, output checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corrhist.cli  # noqa: E402
from run import CALIBRATION_REF_S, Run, rescale  # noqa: E402
from workloads import (  # noqa: E402
    COMMANDS,
    WORKLOADS,
    check_output,
    command_argv,
    expected_outputs,
    set_up,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# One pass per run at the workloads' own sizes.
ONE_PASS = ["--seed", "5", "--seconds", "0"]
RESULTS = ROOT / ".perfbench-work" / "results"


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_benchmark_json_names_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_one_pass_reports_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace), *ONE_PASS)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 8
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == 0
        check_spans_nest(workload, RESULTS / f"{workload}-seed5-spans.jsonl")


def check_spans_nest(workload: str, path: Path) -> None:
    spans = {s["id"]: s for s in map(json.loads, path.read_text().splitlines())}
    roots = [s for s in spans.values() if s["name"] == "cli.main"]
    assert {s["trace"] for s in roots} == {f"{workload}/{c}" for c in COMMANDS}
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["parent"] is None:
            continue
        parent = spans[span["parent"]]
        assert parent["trace"] == span["trace"]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    # Every command's spans hang off its cli.main span.
    for span in spans.values():
        top = span
        while top["parent"] is not None:
            top = spans[top["parent"]]
        if span["trace"].rsplit("/", 1)[1] in COMMANDS:
            assert top["name"] == "cli.main"


def test_no_result_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "history-long", "--trace", "0", *ONE_PASS, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt_extract(out: Path) -> None:
    path = out / "extract"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def _corrupt_case_collection(out: Path) -> None:
    graph = sorted((out / "case-collection").glob("*-after.xml"))[0]
    graph.write_bytes(graph.read_bytes().replace(b' primary="true"', b"", 1))


def _corrupt_blocking(out: Path) -> None:
    with open(out / "blocking", "a") as f:
        f.write("extra\t0\n")


def _corrupt_embedded(out: Path) -> None:
    path = out / "embedded" / "annotations.xml"
    path.write_bytes(path.read_bytes() + b"\n")


CORRUPT = {
    "extract": _corrupt_extract,
    "case-collection": _corrupt_case_collection,
    "blocking": _corrupt_blocking,
    "embedded": _corrupt_embedded,
}


@pytest.fixture(scope="module")
def one_pass_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("one-pass")
    workload = WORKLOADS["cases-dense"]
    corpus = set_up(workload, 5, work / "corpus")
    expected = expected_outputs(workload, corpus, work)
    out = work / "out"
    out.mkdir()
    for command in COMMANDS:
        assert corrhist.cli.main(command_argv(command, corpus, out)) == 0
    return out, expected


@pytest.mark.parametrize("command", COMMANDS)
def test_a_corrupted_output_is_counted_as_failed(command, one_pass_outputs, tmp_path):
    out, expected = one_pass_outputs
    problems, counts = check_output(command, out, expected)
    assert problems == []
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    CORRUPT[command](copy)
    problems, counts = check_output(command, copy, expected)
    assert problems and counts == {}

    run = Run(WORKLOADS["cases-dense"], 5, 0)
    run.tally(not problems, problems)
    assert (run.attempted, run.failed) == (1, 1)


def test_rescale_maps_wall_time_to_the_reference_speed():
    ref = CALIBRATION_REF_S
    assert rescale(1.5, ref, ref) == pytest.approx(1.5)
    # At half the reference speed the loop takes twice as long.
    assert rescale(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert rescale(2.0, ref, 3 * ref) == pytest.approx(1.0)


def test_readme_keeps_the_published_figures():
    reference = pytest.importorskip("corrhist.reference")
    readme = (BENCH / "README.md").read_text()
    figures = [
        *reference.CASE_COLLECTION_COUNTS.values(),
        *(n for row in reference.EMBEDDED_CORRECTION_COUNTS.values() for n in row.values()),
    ]
    for n in figures:
        assert f" {n} |" in readme
    for rates in reference.BLOCKING_HIT_RATES.values():
        assert " | ".join(f"{r:.2f}" for r in rates) in readme
