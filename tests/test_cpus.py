"""One helper beside its caller (``corrhist._cpus._beside``): the caller on
the first CPU of its mask, the helper on the second, and the mask back
however the block ends.  A platform without affinity calls places nothing
and still gets every byte."""

import os

import pytest

from corrhist import _cpus, casegraph
from corrhist.casegraph import build_case_collection
from corrhist.cli import main
from corrhist.extract import extract_corrections
from corrhist.synth import GeneratorConfig, generate

from test_casegraph import PINNED_COLLECTION_SHA256, collection_digests, counted_forks
from test_early_gzip import (  # noqa: F401  (``series`` is a fixture)
    PINNED_EMBEDDED_SHA256, digests, embedded, noted_encodings, series, threads,
)


def placements(monkeypatch):
    """Note each placement this process asks for in the returned list."""
    asked = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: asked.append(list(cpus)))
    return asked


def test_the_caller_and_its_helper_each_get_a_cpu_and_the_mask_comes_back(monkeypatch):
    asked = placements(monkeypatch)
    with _cpus._beside([3, 5, 7]) as move:
        assert asked == [[3]]
        move()
        assert asked == [[3], [5]]
    assert asked == [[3], [5], [3, 5, 7]]


def test_the_mask_comes_back_when_the_block_fails(monkeypatch):
    asked = placements(monkeypatch)
    with pytest.raises(KeyError):
        with _cpus._beside([3, 5]):
            raise KeyError("fails")
    assert asked == [[3], [3, 5]]


@pytest.mark.parametrize("cpu_count, helpers", [(2, 1), (None, 0)], ids=["two-cpus", "unknown"])
def test_a_platform_without_affinity_calls(series, tmp_path, monkeypatch, cpu_count, helpers):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert _cpus._cpu_mask() == list(range(cpu_count or 1))
    with _cpus._beside([0, 1]) as move:
        move()

    built = tmp_path / "built.txt"
    build = casegraph._case_graphs

    def noted(*args):
        # A forked worker inherits this patch and appends to the same file.
        with open(built, "a") as f:
            f.write(f"{os.getpid()}\n")
        return build(*args)

    monkeypatch.setattr(casegraph, "_case_graphs", noted)
    forks = counted_forks(monkeypatch)
    history, _log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
    cases = extract_corrections(history)
    build_case_collection(cases, history, tmp_path / "collection")
    assert collection_digests(tmp_path / "collection") == PINNED_COLLECTION_SHA256
    assert len(forks) == helpers
    # Each case was built once, so no worker failed and no case was redone.
    pids = built.read_text().split()
    assert len(pids) == len(cases)
    assert len(set(pids)) == 1 + helpers

    encoded = noted_encodings(monkeypatch)
    assert main(embedded(series, tmp_path / "embedded")) == 0
    assert digests(tmp_path / "embedded") == PINNED_EMBEDDED_SHA256
    assert threads(encoded) == (["thread"] if helpers else ["main"])
