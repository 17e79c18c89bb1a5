"""Acceptance suite: seven end-to-end guarantees, one verdict line each.

Every test announces `acceptance N (name): PASS/FAIL` past the capture
machinery, so a full run reads as a checklist.  Bounds are pinned inline:
wall-clock budgets in seconds, the memory budget in KiB of resident set,
everything else exact equality.  The scale check is marked `stress` and
takes several minutes; deselect with `-m "not stress"` for quick runs.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from corrhist import _cpus
from corrhist.blocking import (
    ALL_VARIANTS,
    BlockingVariant,
    CaseMode,
    KeyScheme,
    blocking_key,
    hit_rate,
)
from corrhist.casegraph import (
    NodeLabel,
    build_case_graphs,
    parse_case_graph,
    serialize_case_graph,
)
from corrhist.embedded import (
    annotation_from_case,
    parse_annotation,
    serialize_annotation,
)
from corrhist.extract import CorrectionKind, extract_corrections
from corrhist.snapshot_io import discover_snapshot_files, parse_snapshot, write_snapshot
from corrhist.synth import GeneratorConfig, default_dates, generate

from conftest import hist, snap
from test_casegraph import recount_side
from test_extract import groups_of


@pytest.fixture
def tick(capfd):
    @contextmanager
    def announce(number, name):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capfd.disabled():
                print(f"acceptance {number} ({name}): {verdict}", flush=True)

    return announce


@contextmanager
def emptied_afterwards(directory):
    """Delete everything in ``directory`` when the block ends, however it
    ends, so a large corpus does not outlive its test."""
    try:
        yield
    finally:
        for path in Path(directory).iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink()


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def test_oracle_equivalence_on_randomized_plans(tick):
    # 50 generated worlds at desk scale; every logged correction must come
    # back with exactly the profile and mention sets the snapshots show,
    # nothing extra, within the per-world time budget.
    with tick(1, "oracle equivalence on randomized plans"):
        rng = random.Random(190_501)
        recovered = 0
        for _ in range(50):
            config = GeneratorConfig(
                seed=rng.randrange(2**32),
                n_persons=1000,
                n_documents=5000,
                observation_dates=default_dates(
                    rng.randint(2, 6), start=f"20{rng.randint(10, 19)}-01-15"
                ),
                merges=rng.randint(0, 10),
                splits=rng.randint(0, 6),
                distributes=rng.randint(0, 6),
                renames=rng.randint(0, 4),
                new_publications=rng.randint(0, 6),
            )
            started = time.monotonic()
            history, log = generate(config)
            cases = extract_corrections(history)
            elapsed = time.monotonic() - started

            expected = []
            for r in log.corrections():
                t1 = config.observation_dates[r.interval]
                t2 = config.observation_dates[r.interval + 1]
                before, after = history.at(t1), history.at(t2)
                sources = {}
                targets = {}
                for pid in r.edit.profiles:
                    held = before.mentions_of(pid)
                    if held:
                        sources[pid] = held
                    held = after.mentions_of(pid)
                    if held:
                        targets[pid] = held
                expected.append((r.edit.kind.value, t1, t2, sources, targets))
            got = [
                (c.kind.value, c.t_before, c.t_after,
                 c.source_profiles, c.target_profiles)
                for c in cases
            ]

            def order(entry):
                return (entry[1], entry[0], sorted(entry[3]))

            assert sorted(got, key=order) == sorted(expected, key=order)
            assert elapsed < 10.0
            recovered += len(expected)
        assert recovered > 500


def random_partition(rng, slots):
    """Assign most slots to random profiles; slot 0 keeps it nonempty."""
    profile_count = rng.randint(1, len(slots))
    table = {}
    for index, (doc, pos) in enumerate(slots):
        if index and rng.random() < 0.08:
            continue
        pid = f"p{rng.randrange(profile_count)}"
        table.setdefault(pid, []).append((doc, pos, f"N{pos}"))
    return table


def coarsen(rng, table):
    """Union whole profiles into fewer buckets (a guaranteed merge shape)."""
    pids = sorted(table)
    bucket_count = rng.randint(1, max(1, len(pids) - 1))
    merged = {}
    for pid in pids:
        merged.setdefault(f"q{rng.randrange(bucket_count)}", []).extend(table[pid])
    return merged


def test_merge_split_duality_under_time_reversal(tick):
    with tick(2, "merge/split duality under time reversal"):
        rng = random.Random(271_828)
        t1, t2 = "2019-01-01", "2019-02-01"
        detections = 0
        for trial in range(100):
            slots = [
                (f"d{i}", pos)
                for i in range(rng.randint(1, 7))
                for pos in range(rng.randint(1, 3))
            ]
            # Half the trials coarsen the finest partition, so proper groups
            # are plentiful; the rest rearrange freely and mostly test
            # silence.
            if trial % 2:
                first = {
                    f"p{i}": [(doc, pos, f"N{pos}")]
                    for i, (doc, pos) in enumerate(slots)
                }
                second = coarsen(rng, first)
            else:
                first = random_partition(rng, slots)
                second = random_partition(rng, slots)
            forward = hist(snap(t1, first), snap(t2, second))
            backward = hist(snap(t1, second), snap(t2, first))

            merges = {
                (g.sources, g.targets)
                for g in groups_of(CorrectionKind.MERGE, forward, t1, t2)
            }
            splits = {
                (g.sources, g.targets)
                for g in groups_of(CorrectionKind.SPLIT, backward, t1, t2)
            }
            assert {(tgt, src) for src, tgt in merges} == splits

            splits_fwd = {
                (g.sources, g.targets)
                for g in groups_of(CorrectionKind.SPLIT, forward, t1, t2)
            }
            merges_bwd = {
                (g.sources, g.targets)
                for g in groups_of(CorrectionKind.MERGE, backward, t1, t2)
            }
            assert {(tgt, src) for src, tgt in splits_fwd} == merges_bwd
            detections += len(merges) + len(splits_fwd)
        assert detections > 100


def test_chaining_across_an_intermediate_observation(tick):
    with tick(3, "chaining across an intermediate observation"):
        t0, t1, t2 = "2020-01-01", "2020-02-01", "2020-03-01"
        s0 = snap(t0, {
            "p1": [("d1", 0, "A")],
            "p2": [("d2", 0, "B")],
            "p3": [("d3", 0, "C")],
        })
        s1 = snap(t1, {
            "p1": [("d1", 0, "A"), ("d2", 0, "B")],
            "p3": [("d3", 0, "C")],
        })
        s2 = snap(t2, {
            "p1": [("d1", 0, "A"), ("d2", 0, "B"), ("d3", 0, "C")],
        })

        chained = extract_corrections(hist(s0, s1, s2))
        assert len(chained) == 1
        case = chained[0]
        assert case.kind is CorrectionKind.MERGE
        assert (case.t_before, case.t_after) == (t0, t2)
        assert case.profiles == frozenset({"p1", "p2", "p3"})
        assert set(case.target_profiles) == {"p1"}
        assert len(case.chained_from) == 2

        groups = groups_of(CorrectionKind.MERGE, hist(s0, s2), t0, t2)
        assert len(groups) == 1
        assert groups[0].sources == frozenset({"p1", "p2", "p3"})
        assert groups[0].targets == frozenset({"p1"})
        flat = extract_corrections(hist(s0, s2))
        assert len(flat) == 1
        assert len(flat[0].chained_from) == 1
        assert flat[0].profiles == frozenset({"p1", "p2", "p3"})


def test_round_trips_and_byte_determinism(tick, tmp_path):
    with tick(4, "serialization round-trips and byte determinism"):
        rng = random.Random(314_159)
        snapshots = []
        graphs = []
        annotations = []
        while min(len(snapshots), len(graphs), len(annotations)) < 100:
            config = GeneratorConfig(
                seed=rng.randrange(2**32),
                n_persons=70,
                n_documents=320,
                observation_dates=default_dates(
                    rng.randint(3, 5), start=f"20{rng.randint(10, 24)}-03-01"
                ),
            )
            history, _log = generate(config)
            snapshots.extend(history.snapshots)
            for case in extract_corrections(history):
                before, after = build_case_graphs(case, history)
                graphs.extend((before, after))
                annotations.append(
                    annotation_from_case(case, f"a{len(annotations)}")
                )

        for s in snapshots[:100]:
            data = write_snapshot(s)
            parsed = parse_snapshot(data)
            assert (parsed.time, parsed.profiles, parsed.documents) \
                == (s.time, s.profiles, s.documents)
            assert write_snapshot(parsed) == data
        for g in graphs[:100]:
            data = serialize_case_graph(g)
            assert parse_case_graph(data) == g
            assert serialize_case_graph(parse_case_graph(data)) == data
        for a in annotations[:100]:
            data = serialize_annotation(a)
            assert parse_annotation(data) == a
            assert serialize_annotation(parse_annotation(data)) == data

        # Bytes must not depend on the interpreter run or the worker count:
        # drive the CLI in fresh processes under different hash seeds, and
        # build the case collection on every usable CPU and on one.
        env_a = dict(os.environ, PYTHONHASHSEED="0")
        env_b = dict(os.environ, PYTHONHASHSEED="42")

        def cli(env, *args, one_cpu=False):
            result = subprocess.run(
                [sys.executable, *launcher(one_cpu), *map(str, args)],
                env=env,
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode()
            return result.stdout

        plan = ("--seed", "9", "--persons", "200", "--documents", "900",
                "--observations", "4")
        corpus_a, corpus_b = tmp_path / "corpus-a", tmp_path / "corpus-b"
        cli(env_a, "generate", *plan, "--quiet", "--out", corpus_a)
        cli(env_b, "generate", *plan, "--quiet", "--out", corpus_b)
        assert tree_bytes(corpus_a) == tree_bytes(corpus_b)

        col_a, col_b = tmp_path / "col-a", tmp_path / "col-b"
        cli(env_a, "case-collection", "--snapshots", corpus_a,
            "--quiet", "--out", col_a)
        cli(env_b, "case-collection", "--snapshots", corpus_a,
            "--quiet", "--out", col_b, one_cpu=True)
        assert tree_bytes(col_a) == tree_bytes(col_b)

        first, last = default_dates(4)[0], default_dates(4)[-1]
        emb_a, emb_b = tmp_path / "emb-a", tmp_path / "emb-b"
        cli(env_a, "embedded", "--snapshots", corpus_a, "--t1", first,
            "--t2", last, "--parallel", "1", "--quiet", "--out", emb_a)
        cli(env_b, "embedded", "--snapshots", corpus_a, "--t1", first,
            "--t2", last, "--parallel", "3", "--quiet", "--out", emb_b)
        assert tree_bytes(emb_a) == tree_bytes(emb_b)

        summary_a = cli(env_a, "extract", "--snapshots", corpus_a,
                        "--parallel", "1", "--quiet")
        summary_b = cli(env_b, "extract", "--snapshots", corpus_a,
                        "--parallel", "4", "--quiet")
        assert summary_a == summary_b


def test_blocking_keys_and_coarsening_monotonicity(tick):
    with tick(5, "blocking keys and coarsening monotonicity"):
        last_consider = BlockingVariant(KeyScheme.LAST_ONLY, CaseMode.CONSIDER)
        init_consider = BlockingVariant(KeyScheme.INITIAL_LAST, CaseMode.CONSIDER)
        init_ignore = BlockingVariant(KeyScheme.INITIAL_LAST, CaseMode.IGNORE)
        assert blocking_key("John Doe", last_consider) == "Doe"
        assert blocking_key("John A. Doe", init_consider) == "J. Doe"
        assert blocking_key("Wei Wang 0050", init_ignore) == "w. wang"

        rng = random.Random(602_214)
        firsts = ["John", "JOHN", "j.", "Jane", "Ann", "ann", "Wei", "W.", "Bo"]
        middles = ["", "", "A.", "van", "Maria", "k."]
        lasts = ["Doe", "DOE", "Wang", "wang", "Lee", "O'Hara", "Nguyen"]

        def random_name():
            parts = [rng.choice(firsts)]
            middle = rng.choice(middles)
            if middle:
                parts.append(middle)
            parts.append(rng.choice(lasts))
            if rng.random() < 0.3:
                parts.append(f"{rng.randrange(10000):04d}")
            return " ".join(parts)

        violations = 0
        for _ in range(1000):
            pairs = [
                (random_name(), random_name())
                for _ in range(rng.randint(1, 20))
            ]
            rates = {v: hit_rate(pairs, v) for v in ALL_VARIANTS}
            for mode in CaseMode:
                coarse = rates[BlockingVariant(KeyScheme.LAST_ONLY, mode)]
                fine = rates[BlockingVariant(KeyScheme.INITIAL_LAST, mode)]
                if coarse < fine:
                    violations += 1
            for scheme in KeyScheme:
                folded = rates[BlockingVariant(scheme, CaseMode.IGNORE)]
                exact = rates[BlockingVariant(scheme, CaseMode.CONSIDER)]
                if folded < exact:
                    violations += 1
        assert violations == 0


def recount_venue_nodes(graph, history):
    """Venue nodes must be exactly the venues of included documents, each
    resolved from the latest observation that still carries the document."""
    included = {n.node_id for n in graph.nodes if n.label is NodeLabel.DOCUMENT}
    expected = set()
    for doc in included:
        for snapshot in reversed(history.snapshots):
            record = snapshot.documents.get(doc)
            if record is not None:
                if record.venue_key is not None:
                    expected.add(record.venue_key)
                break
    got = {n.node_id for n in graph.nodes if n.label is NodeLabel.VENUE}
    assert got == expected


def test_case_graph_recount_from_raw_snapshots(tick):
    with tick(6, "case-graph recount from raw snapshots"):
        history, _log = generate(GeneratorConfig(
            seed=41,
            n_persons=400,
            n_documents=1800,
            observation_dates=default_dates(9),
            merges=3,
            splits=2,
            distributes=2,
        ))
        cases = extract_corrections(history)
        assert len(cases) >= 50
        for case in cases[:50]:
            before, after = build_case_graphs(case, history)
            for graph, primaries in (
                (before, case.source_profiles),
                (after, case.target_profiles),
            ):
                recount_side(graph, case, history, primaries)
                recount_venue_nodes(graph, history)


# The CLI's program.  With ``one_cpu`` it runs on one of the CPUs this
# process may use, so that a case collection builds every graph in one
# process.  With a ``worker_log`` path, each forked case graph worker appends
# the KiB it holds privately (the Private_* lines of its smaps_rollup) just
# before it exits: ru_maxrss is a per-process peak and counts none of them.
_CLI = """\
import os
if {one_cpu} and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
if {worker_log!r}:
    _exit, command = os._exit, os.getpid()

    def logged_exit(status):
        try:
            if os.getpid() != command:
                with open("/proc/self/smaps_rollup") as f:
                    kib = sum(int(line.split()[1])
                              for line in f if line.startswith("Private_"))
                with open({worker_log!r}, "a") as log:
                    log.write("%d\\n" % kib)
        finally:
            _exit(status)

    os._exit = logged_exit
from corrhist.cli import run
run()
"""


def launcher(one_cpu=False, worker_log=None):
    """Interpreter arguments that run the CLI, on one CPU or on all."""
    if worker_log is not None:
        worker_log = str(worker_log)
    return ["-c", _CLI.format(one_cpu=one_cpu, worker_log=worker_log)]


_DRIVER = """\
import json, resource, subprocess, sys, time
spec = json.load(sys.stdin)
sink = open(spec["stdout"], "wb") if spec["stdout"] else subprocess.DEVNULL
started = time.monotonic()
proc = subprocess.run(
    [sys.executable, *spec["launcher"], *spec["args"]],
    stdout=sink, stderr=subprocess.DEVNULL,
)
elapsed = time.monotonic() - started
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
json.dump({"returncode": proc.returncode, "seconds": elapsed,
           "maxrss_kib": usage.ru_maxrss}, sys.stdout)
"""


def run_measured(args, stdout=None, hash_seed="0", one_cpu=False, worker_log=None):
    """One CLI command in a dedicated interpreter whose only child it is,
    so RUSAGE_CHILDREN reports that command's peak RSS alone."""
    request = json.dumps({
        "launcher": launcher(one_cpu, worker_log),
        "args": [str(a) for a in args],
        "stdout": str(stdout) if stdout else None,
    })
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER],
        input=request,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["returncode"] == 0, report
    return report


def coarse_cases(path):
    """The cases an ``extract`` output lists, as a multiset of (kind,
    t_before, t_after, number of profiles)."""
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    return Counter((kind, t0, t1, int(n)) for kind, t0, t1, n, _mentions in rows)


def coarse_corrections(corpus):
    """The merges, splits and distributes of a generated corpus's
    ``ground-truth.tsv``, as ``coarse_cases`` counts cases: an edit of
    interval i runs from observation i to observation i + 1."""
    dates = [f.date for f in discover_snapshot_files(corpus)]
    kinds = {kind.value for kind in CorrectionKind}
    found = Counter()
    for line in (corpus / "ground-truth.tsv").read_text().splitlines()[1:]:
        interval, kind, profiles, _mentions = line.split("\t")
        if kind in kinds:
            i = int(interval)
            found[kind, dates[i], dates[i + 1], len(profiles.split(","))] += 1
    return found


@pytest.mark.stress
def test_scale_budget_and_worker_invariance(tick, tmp_path):
    # 100k persons, 500k documents, 20 observations: extraction plus
    # case-collection building must finish inside 300 s and 4 GiB, and the
    # outputs must not depend on the worker count or on string hash order
    # (the reruns use another PYTHONHASHSEED, so every set-based step of the
    # loader and the extractor iterates in a different order, and the
    # case-collection rerun runs on one CPU, so in one process).
    with tick(7, "scale budget and worker invariance"), emptied_afterwards(tmp_path):
        corpus = tmp_path / "corpus"
        run_measured([
            "generate", "--seed", "77", "--persons", "100000",
            "--documents", "500000", "--observations", "20",
            "--merges", "8", "--splits", "4", "--distributes", "4",
            "--renames", "4", "--new-publications", "6",
            "--quiet", "--out", corpus,
        ])

        cases_single = tmp_path / "cases-single.tsv"
        extract = run_measured([
            "extract", "--snapshots", corpus, "--parallel", "1",
            "--quiet", "--out", cases_single,
        ])
        worker_log = tmp_path / "worker-private-kib.txt"
        collection = run_measured([
            "case-collection", "--snapshots", corpus,
            "--quiet", "--out", tmp_path / "collection-all-cpus",
        ], worker_log=worker_log)
        # The forked case graph workers hold pages of their own beside the
        # command's peak; the budget covers them all.
        workers_kib = [int(kib) for kib in worker_log.read_text().split()] \
            if worker_log.exists() else []
        assert len(workers_kib) == (len(_cpus._cpu_mask()) >= 2)
        assert extract["seconds"] + collection["seconds"] < 300.0
        assert extract["maxrss_kib"] < 4 * 1024 * 1024
        assert collection["maxrss_kib"] + sum(workers_kib) < 4 * 1024 * 1024

        cases_pooled = tmp_path / "cases-pooled.tsv"
        run_measured([
            "extract", "--snapshots", corpus, "--parallel", "4",
            "--quiet", "--out", cases_pooled,
        ], hash_seed="42")
        assert cases_single.read_bytes() == cases_pooled.read_bytes()
        # The cases are the corpus's logged corrections, at coarse grain.
        assert coarse_cases(cases_single) == coarse_corrections(corpus)
        run_measured([
            "case-collection", "--snapshots", corpus,
            "--quiet", "--out", tmp_path / "collection-one-cpu",
        ], hash_seed="42", one_cpu=True)
        assert tree_bytes(tmp_path / "collection-all-cpus") \
            == tree_bytes(tmp_path / "collection-one-cpu")
