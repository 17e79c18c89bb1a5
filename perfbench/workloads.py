"""Workloads, corpus set-up, expected outputs and output checks.

Every workload runs the same four commands a curator would run on a
snapshot directory, one after another: ``extract``, ``case-collection``,
``blocking`` and ``embedded`` from the first to the last observation.  The
workloads differ in the corpus, which stresses different layers.
"""

from __future__ import annotations

import gzip
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from corrhist.blocking import blocking_report_lines, name_pairs
from corrhist.casegraph import parse_case_graph
from corrhist.embedded import build_embedded_collection, parse_annotations_file
from corrhist.extract import CorrectionCase, CorrectionKind, extract_corrections
from corrhist.model import History
from corrhist.snapshot_io import snapshot_filename, write_snapshot
from corrhist import synth
from corrhist.synth import GeneratorConfig, GroundTruthLog, default_dates

# Detection threads for every command: the closed loop has one client on a
# two-core box.  Fixed, so that a workload means the same on any machine.
PARALLEL = 2

COMMANDS = ("extract", "case-collection", "blocking", "embedded")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    held_out_seed: int
    persons: int
    observations: int
    # merges, splits, distributes, renames, new publications per interval
    plan: tuple[int, int, int, int, int]
    exclusive_profiles: bool
    # Indent every record line and gzip each file: valid XML that misses
    # the canonical fast path, as a dump written by another tool would.
    foreign: bool
    why: str

    def config(self, seed: int) -> GeneratorConfig:
        merges, splits, distributes, renames, new_pubs = self.plan
        return GeneratorConfig(
            seed=seed,
            n_persons=self.persons,
            n_documents=5 * self.persons,
            observation_dates=default_dates(self.observations),
            merges=merges,
            splits=splits,
            distributes=distributes,
            renames=renames,
            new_publications=new_pubs,
            exclusive_profiles=self.exclusive_profiles,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="history-long",
            seed=77,
            held_out_seed=177,
            persons=1500,
            observations=10,
            plan=(2, 1, 1, 1, 2),
            exclusive_profiles=True,
            foreign=False,
            why="ten canonical snapshots with few edits each: loading and its "
            "cross-file line reuse dominate every command",
        ),
        Workload(
            name="cases-dense",
            seed=78,
            held_out_seed=178,
            persons=1000,
            observations=3,
            plan=(50, 25, 25, 6, 12),
            exclusive_profiles=True,
            foreign=False,
            why="three snapshots with many corrections: per-case graph building "
            "and serialization dominate case-collection, loading is small",
        ),
        Workload(
            name="foreign-gz",
            seed=79,
            held_out_seed=179,
            persons=1000,
            observations=4,
            plan=(8, 4, 4, 4, 6),
            exclusive_profiles=False,
            foreign=True,
            why="indented, gzipped snapshots with overlapping edits: every file "
            "takes the expat fallback, so fast-path changes must not move it",
        ),
    )
}


@dataclass
class Corpus:
    directory: Path
    history: History
    log: GroundTruthLog
    dates: tuple[str, ...]
    canonical_bytes: int  # what the snapshot writer produced
    input_bytes: int  # what the loader decompresses and parses
    disk_bytes: int  # snapshot files as stored


def set_up(workload: Workload, seed: int, directory: Path) -> Corpus:
    """Generate the corpus into ``directory`` (which must not exist).

    The generator is called through its module, so a traced run sees it.
    """
    config = workload.config(seed)
    history, log = synth.generate(config)
    synth.write_generated(history, log, directory)
    snapshots = sorted(directory.glob("snapshot-*.xml"))
    canonical = sum(p.stat().st_size for p in snapshots)
    input_bytes = canonical
    if workload.foreign:
        input_bytes = sum(_foreignize(p) for p in snapshots)
    disk = sum(p.stat().st_size for p in directory.glob("snapshot-*"))
    return Corpus(directory, history, log, config.observation_dates,
                  canonical, input_bytes, disk)


def _foreignize(path: Path) -> int:
    """Indent record lines by two spaces and replace the file by its gzip."""
    lines = path.read_bytes().split(b"\n")
    body = [b"  " + line if line.startswith((b"<document", b"<profile")) else line
            for line in lines]
    data = b"\n".join(body)
    gz = path.with_name(path.name + ".gz")
    gz.write_bytes(gzip.compress(data, compresslevel=6, mtime=0))
    path.unlink()
    return len(data)


def command_argv(command: str, corpus: Corpus, out: Path) -> list[str]:
    argv = [command, "--snapshots", str(corpus.directory),
            "--parallel", str(PARALLEL), "--quiet"]
    if command == "embedded":
        argv += ["--t1", corpus.dates[0], "--t2", corpus.dates[-1], "--compress"]
    return argv + ["--out", str(out / command)]


# ---------------------------------------------------------------------------
# Expected outputs


@dataclass
class Expected:
    extract_rows: Counter
    case_rows: Counter
    blocking_lines: list[str]
    embedded_files: dict[str, bytes]
    embedded_snapshot: tuple[str, bytes]


def oracle_cases(corpus: Corpus) -> list[CorrectionCase]:
    """The logged corrections as cases, read off the generated snapshots.

    This is the acceptance-1 oracle: with exclusive profiles every logged
    merge, split and distribute is one case with exactly these profile and
    mention sets.
    """
    cases = []
    for record in corpus.log.corrections():
        t1 = corpus.dates[record.interval]
        t2 = corpus.dates[record.interval + 1]
        before, after = corpus.history.at(t1), corpus.history.at(t2)
        sources = {p: before.mentions_of(p) for p in record.edit.profiles
                   if before.mentions_of(p)}
        targets = {p: after.mentions_of(p) for p in record.edit.profiles
                   if after.mentions_of(p)}
        cases.append(CorrectionCase(CorrectionKind(record.edit.kind.value), t1, t2,
                                    sources, targets, chained_from=("oracle",)))
    return cases


def expected_outputs(workload: Workload, corpus: Corpus, scratch: Path) -> Expected:
    """What every command must produce, computed in-process and untimed.

    Exclusive-profile corpora are checked against the generator's log.
    With overlapping edits the log no longer maps one-to-one onto cases,
    so the library's own result on the in-memory corpus is the reference.
    """
    if workload.exclusive_profiles:
        cases = oracle_cases(corpus)
    else:
        cases = extract_corrections(corpus.history)
    merges = [c for c in cases if c.kind is CorrectionKind.MERGE]
    distributes = [c for c in cases if c.kind is CorrectionKind.DISTRIBUTE]
    blocking = list(blocking_report_lines([
        ("merge", name_pairs(merges)),
        ("distribute", name_pairs(distributes)),
        ("all", name_pairs(cases)),
    ]))

    ref = scratch / "embedded-reference"
    shutil.rmtree(ref, ignore_errors=True)
    build_embedded_collection(corpus.history, corpus.dates[0], corpus.dates[-1], ref,
                              compress=True)
    embedded_files = {name: (ref / name).read_bytes()
                      for name in ("annotations.xml", "manifest.tsv")}
    shutil.rmtree(ref)
    first = corpus.history.snapshots[0]
    return Expected(
        extract_rows=Counter(_summary_row(c) for c in cases),
        case_rows=Counter(_case_row(c.kind.value, c.t_before, c.t_after,
                                    c.source_profiles, c.target_profiles)
                          for c in cases),
        blocking_lines=blocking,
        embedded_files=embedded_files,
        embedded_snapshot=(snapshot_filename(first.time, compress=True),
                           write_snapshot(first)),
    )


def _summary_row(case: CorrectionCase) -> tuple[str, ...]:
    return (case.kind.value, case.t_before, case.t_after,
            str(len(case.profiles)), str(case.mention_count()))


def _case_row(kind, t_before, t_after, sources, targets) -> tuple:
    return (kind, t_before, t_after, frozenset(sources), frozenset(targets))


# ---------------------------------------------------------------------------
# Output checks.  Each returns (problems, counts); counts feed the per-layer
# metrics and must repeat exactly across passes and runs of one seed.


def check_output(command: str, out: Path, expected: Expected) -> tuple[list[str], dict]:
    checker = _CHECKS[command]
    try:
        return checker(out / command, expected)
    except Exception as exc:  # a broken output must count as a failure, not abort
        return [f"{command}: {type(exc).__name__}: {exc}"], {}


def _check_extract(path: Path, expected: Expected) -> tuple[list[str], dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "kind\tt_before\tt_after\tprofiles\tmentions":
        return ["extract: missing or wrong TSV header"], {}
    got = Counter(tuple(line.split("\t")) for line in lines[1:])
    if got != expected.extract_rows:
        return [_diff("extract rows", got, expected.extract_rows)], {}
    return [], {}


def _check_case_collection(path: Path, expected: Expected) -> tuple[list[str], dict]:
    manifest = (path / "cases.tsv").read_text(encoding="utf-8").splitlines()
    if not manifest or not manifest[0].startswith("case_id\tkind\t"):
        return ["case-collection: missing or wrong manifest header"], {}
    rows = Counter()
    nodes = edges = 0
    for line in manifest[1:]:
        _case_id, kind, t_before, t_after, before_name, after_name = line.split("\t")
        before = parse_case_graph((path / before_name).read_bytes())
        after = parse_case_graph((path / after_name).read_bytes())
        rows[_case_row(kind, t_before, t_after, before.primary_ids, after.primary_ids)] += 1
        nodes += len(before.nodes) + len(after.nodes)
        edges += len(before.edges) + len(after.edges)
    if rows != expected.case_rows:
        return [_diff("case-collection cases", rows, expected.case_rows)], {}
    files = [p for p in path.iterdir() if p.is_file()]
    return [], {
        "casegraph.files": len(files),
        "casegraph.bytes_written": sum(p.stat().st_size for p in files),
        "casegraph.nodes": nodes,
        "casegraph.edges": edges,
    }


def _check_blocking(path: Path, expected: Expected) -> tuple[list[str], dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines != expected.blocking_lines:
        return ["blocking: report differs from the expected hit rates"], {}
    all_row = next(line for line in lines if line.startswith("all\t"))
    return [], {"blocking.pairs": int(all_row.split("\t")[1])}


def _check_embedded(path: Path, expected: Expected) -> tuple[list[str], dict]:
    problems = []
    for name, data in expected.embedded_files.items():
        if (path / name).read_bytes() != data:
            problems.append(f"embedded: {name} differs from the library's result")
    snapshot_name, snapshot_bytes = expected.embedded_snapshot
    if gzip.decompress((path / snapshot_name).read_bytes()) != snapshot_bytes:
        problems.append(f"embedded: {snapshot_name} does not decompress to the t1 snapshot")
    if problems:
        return problems, {}
    _t1, _t2, annotations = parse_annotations_file((path / "annotations.xml").read_bytes())
    return [], {
        "embedded.annotations": len(annotations),
        "embedded.bytes_written": sum(p.stat().st_size for p in path.iterdir()),
    }


def _diff(what: str, got: Counter, want: Counter) -> str:
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    return f"{what}: {missing} expected rows missing, {extra} unexpected rows"


_CHECKS = {
    "extract": _check_extract,
    "case-collection": _check_case_collection,
    "blocking": _check_blocking,
    "embedded": _check_embedded,
}
