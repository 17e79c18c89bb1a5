"""The traced run and the per-layer metrics derived from its spans.

Commands run in-process through ``corrhist.cli.main`` with the same argv
as the untraced loop, one trace id (``<workload>/<command>``) per command.
Each traced call is paired with an untraced in-process call of the same
command, which gives the tracing overhead.
Probes that the commands cannot show on their own (first-file parse,
single-worker extraction, per-case graph building) run under
``<workload>/probe``.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import time
from contextlib import nullcontext

import corrhist.cli
from corrhist import casegraph, extract, snapshot_io
from tracing import Tracer, instrument
from workloads import COMMANDS, check_output, command_argv, expected_outputs

STARTUP_REPEATS = 5
PROBE_REPEATS = 3
# build_case_graphs timings in the probe: enough for ten beyond the p90.
CASE_GRAPH_SAMPLES = 100


class Spans:
    """Parent/child index over recorded spans."""

    def __init__(self, spans: list[dict]):
        self.children: dict[int | None, list[dict]] = {}
        for span in spans:
            self.children.setdefault(span["parent"], []).append(span)

    def roots(self, trace: str, name: str) -> list[dict]:
        """Top-level spans of ``trace`` named ``name``."""
        return [s for s in self.children.get(None, [])
                if s["trace"] == trace and s["name"] == name]

    def below(self, spans: dict | list[dict], name: str) -> list[dict]:
        """Descendants of a span (or of each span in a list) named ``name``."""
        found = []
        todo = [c for s in ([spans] if isinstance(spans, dict) else spans)
                for c in self.children.get(s["id"], [])]
        while todo:
            child = todo.pop()
            if child["name"] == name:
                found.append(child)
            todo.extend(self.children.get(child["id"], []))
        return sorted(found, key=lambda s: s["start"])

    def self_time(self, span: dict, names: set[str] | None = None) -> float:
        """Span duration minus the union of its children's intervals
        (only children named in ``names``, when given)."""
        intervals = sorted(
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in self.children.get(span["id"], [])
            if names is None or c["name"] in names
        )
        covered = 0.0
        reach = span["start"]
        for start, end in intervals:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return dur(span) - covered


def dur(span: dict) -> float:
    return span["end"] - span["start"]


def total(spans: list[dict]) -> float:
    return sum(dur(s) for s in spans)


def measure_traced(run) -> dict[str, tuple[float, str]]:
    tracer = Tracer()
    name = run.workload.name
    with instrument(tracer):
        corpus, _setup_times = run.set_up(tracer)
        run.corpus = corpus
        expected = expected_outputs(run.workload, corpus, run.work)
        startup = statistics.median(
            run.run_command(["--version"])[0] for _ in range(STARTUP_REPEATS)
        )
        roots: list[dict[str, dict]] = []
        untraced: dict[str, list[float]] = {c: [] for c in COMMANDS}
        started = time.perf_counter()
        while run.may_start_pass(len(roots), started, run.seconds):
            pass_roots, walls = _traced_pass(run, tracer, corpus, expected, len(roots))
            roots.append(pass_roots)
            for command, wall in walls.items():
                untraced[command].append(wall)
        run.passes = len(roots)
        run.samples = untraced

        with tracer.trace(f"{name}/probe"):
            probe = _probe(run, corpus)

    tracer.write_jsonl(run.results / f"{name}-seed{run.seed}-spans.jsonl")
    spans = Spans(tracer.spans)
    run.note_counts(probe["counts"])
    return _metrics(run, corpus, spans, roots, untraced, startup, probe, expected)


def _traced_pass(run, tracer: Tracer, corpus, expected, index: int):
    """Run each command in-process twice, untraced and traced, in an order
    that alternates between passes; returns the traced ``cli.main`` spans
    and the untraced wall times."""
    roots: dict[str, dict | None] = {}
    walls: dict[str, float] = {}
    for command in COMMANDS:
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            shutil.rmtree(run.out / command, ignore_errors=True)
            run.out.mkdir(parents=True, exist_ok=True)
            argv = command_argv(command, corpus, run.out)
            # Without an active trace every wrapper passes the call through.
            context = tracer.trace(f"{run.workload.name}/{command}") if traced else nullcontext()
            # Collect the previous call's garbage first, so that neither call
            # of a pair pays for it.
            gc.collect()
            started = time.perf_counter()
            with context:
                try:
                    code = corrhist.cli.main(argv)
                except Exception as exc:  # count it and go on, as a failed subprocess would
                    code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
            run.tally(code == 0, [] if code == 0 else [f"{command}: exit {code}"])
            if traced:
                # cli.main's span closes last, so it is the newest one.
                roots[command] = tracer.spans[-1] if code == 0 else None
            else:
                walls[command] = wall
            problems, counts = check_output(command, run.out, expected)
            run.tally(not problems, problems)
            run.note_counts(counts)
    return roots, walls


def _probe(run, corpus) -> dict:
    """What the commands cannot show on their own, through traced entry points."""
    history = snapshot_io.load_history(corpus.directory)
    first = snapshot_io.discover_snapshot_files(corpus.directory)[0].path
    for _ in range(PROBE_REPEATS):
        snapshot_io.parse_snapshot(first)
    for _ in range(PROBE_REPEATS):
        cases = extract.extract_corrections(history, max_workers=1)
    pairs = list(zip(history.snapshots, history.snapshots[1:]))
    groups = sum(len(extract.raw_groups_between(a, b)) for a, b in pairs)
    sample = random.Random(run.seed).sample(cases, min(len(cases), CASE_GRAPH_SAMPLES))
    for i in range(CASE_GRAPH_SAMPLES):
        casegraph.build_case_graphs(sample[i % len(sample)], history)

    later = history.snapshots[1:]
    shared = 0
    for prev, snap in pairs:
        shared += sum(1 for k, p in snap.profiles.items() if prev.profiles.get(k) is p)
        shared += sum(1 for k, d in snap.documents.items() if prev.documents.get(k) is d)
    later_records = sum(len(s.profiles) + len(s.documents) for s in later)
    kinds = {kind.value: 0 for kind in extract.CorrectionKind}
    for case in cases:
        kinds[case.kind.value] += 1
    counts = {
        "snapshot_io.records": sum(len(s.profiles) + len(s.documents)
                                   for s in history.snapshots),
        "snapshot_io.shared_records_ratio": shared / later_records,
        "extract.changed_profiles": sum(_changed_profiles(a, b) for a, b in pairs),
        "extract.groups": groups,
        **{f"extract.cases.{kind}": n for kind, n in kinds.items()},
        "extract.chain_len_max": max((len(c.chained_from) for c in cases), default=0),
    }
    return {"files": len(history.snapshots), "counts": counts}


def _changed_profiles(s1, s2) -> int:
    """Profiles whose mention-key set differs between two snapshots."""
    changed = 0
    for pid in set(s1.profiles) | set(s2.profiles):
        a = {m.key for m in s1.mentions_of(pid)}
        b = {m.key for m in s2.mentions_of(pid)}
        changed += a != b
    return changed


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _metrics(run, corpus, spans: Spans, roots, untraced, startup, probe, expected):
    name = run.workload.name
    setups = spans.roots(f"{name}/setup", "synth.generate")
    writes = spans.roots(f"{name}/setup", "synth.write_generated")

    def probe_roots(function: str) -> list[dict]:
        return spans.roots(f"{name}/probe", function)

    per_pass: dict[str, list[float]] = {}

    def add(metric: str, value: float) -> None:
        per_pass.setdefault(metric, []).append(value)

    loads = []
    n_cases = sum(expected.case_rows.values())
    for index, pass_roots in enumerate(roots):
        if any(r is None for r in pass_roots.values()):
            continue
        add("cli.self_s", sum(spans.self_time(r) for r in pass_roots.values()))
        for command, root in pass_roots.items():
            # The traced cli.main span against its pass's untraced call.
            add(f"trace.overhead_s.{command}", dur(root) - untraced[command][index])
            loads += [dur(s) for s in spans.below(root, "snapshot_io.load_history")]

        ext = spans.below(pass_roots["extract"], "extract.extract_corrections")
        add("extract.extract_corrections_s", total(ext))
        add("extract.raw_groups_s", total(spans.below(ext, "extract.raw_groups_between")))
        add("extract.chain_s", total(spans.below(ext, "extract.chain_corrections")))

        cc_root = pass_roots["case-collection"]
        bcc = spans.below(cc_root, "casegraph.build_case_collection")
        add("casegraph.build_case_collection_s", total(bcc))
        add("casegraph.serialize_s", total(spans.below(bcc, "casegraph.serialize_case_graph")))
        add("casegraph.self_s", sum(spans.self_time(s) for s in bcc))
        add("casegraph.case_ms", total(bcc) / max(n_cases, 1) * 1000)
        add("share.load_of_case_collection",
            total(spans.below(cc_root, "snapshot_io.load_history")) / dur(cc_root))
        add("share.casegraph_of_case_collection", total(bcc) / dur(cc_root))

        emb_root = pass_roots["embedded"]
        emb = spans.below(emb_root, "embedded.build_embedded_collection")
        add("embedded.build_embedded_collection_s", total(emb))
        add("embedded.self_s", sum(spans.self_time(
            s, {"extract.extract_corrections", "snapshot_io.write_snapshot_to"}) for s in emb))
        add("share.load_of_embedded",
            total(spans.below(emb_root, "snapshot_io.load_history")) / dur(emb_root))

        blk_root = pass_roots["blocking"]
        add("blocking.name_pairs_s", total(spans.below(blk_root, "blocking.name_pairs")))
        add("blocking.report_s", total(spans.below(blk_root, "blocking.blocking_report_lines")))

    load_s = _median(loads)
    first_s = _median([dur(s) for s in probe_roots("snapshot_io.parse_snapshot")])
    write_s = _median([total(spans.below(w, "snapshot_io.write_snapshot_to")) for w in writes])
    graph_ms = [dur(s) * 1000 for s in probe_roots("casegraph.build_case_graphs")] or [0.0, 0.0]
    counts = run.counts

    metrics = {
        "synth.generate_s": (_median([dur(s) for s in setups]), "s"),
        "synth.write_generated_s": (_median([dur(s) for s in writes]), "s"),
        "synth.corpus_mb": (corpus.disk_bytes / 1e6, "MB"),
        "cli.startup_s": (startup, "s"),
        "snapshot_io.load_history_s": (load_s, "s"),
        "snapshot_io.load_mb_per_s": (corpus.input_bytes / 1e6 / load_s if load_s else 0.0, "MB/s"),
        "snapshot_io.parse_first_s": (first_s, "s"),
        "snapshot_io.later_file_s": ((load_s - first_s) / max(probe["files"] - 1, 1), "s"),
        "snapshot_io.input_mb": (corpus.input_bytes / 1e6, "MB"),
        "snapshot_io.write_snapshot_s": (write_s, "s"),
        "snapshot_io.write_mb_per_s": (corpus.canonical_bytes / 1e6 / write_s if write_s else 0.0,
                                       "MB/s"),
        "extract.pool_w1_s": (_median([dur(s) for s in probe_roots("extract.extract_corrections")]),
                              "s"),
        "casegraph.build_case_graphs_ms.p50": (statistics.median(graph_ms), "ms"),
        "casegraph.build_case_graphs_ms.p90": (statistics.quantiles(graph_ms, n=10)[8], "ms"),
        "fail_ratio": (run.failed / max(run.attempted, 1), "ratio"),
    }
    units = {"share.": "ratio", "casegraph.case_ms": "ms"}
    for metric, values in per_pass.items():
        unit = next((u for prefix, u in units.items() if metric.startswith(prefix)), "s")
        metrics[metric] = (statistics.median(values), unit)
    for metric, value in counts.items():
        metrics[metric] = (value, "ratio" if metric.endswith("_ratio") else "count")
    return dict(sorted(metrics.items()))
