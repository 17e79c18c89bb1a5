import gc
import gzip
import io
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from corrhist import snapshot_io
from corrhist.blocking import blocking_report_lines, name_pairs
from corrhist.casegraph import parse_case_graph, serialize_case_graph
from corrhist.cli import main
from corrhist.errors import FormatError, IntegrityError
from corrhist.extract import CorrectionKind, extract_corrections
from corrhist.model import DocumentRecord
from corrhist.snapshot_io import load_history, snapshot_filename, write_snapshot_to

from conftest import snap
from test_acceptance import tree_bytes


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(
        [
            "generate", "--seed", "3", "--persons", "60", "--documents", "260",
            "--observations", "3", "--quiet", "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestExitCodes:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("corrhist ")

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["extract"]) == 2

    def test_missing_snapshot_dir(self, capsys):
        assert main(["extract", "--snapshots", "/no/such/dir"]) == 1
        assert "corrhist: error:" in capsys.readouterr().err

    def test_bad_generate_plan(self, tmp_path, capsys):
        code = main(
            [
                "generate", "--dates", "2020-02-01,2020-01-01",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "strictly increase" in capsys.readouterr().err

    def test_unknown_embedded_time(self, corpus, tmp_path, capsys):
        code = main(
            [
                "embedded", "--snapshots", str(corpus),
                "--t1", "1999-01-01", "--t2", "2015-02-01",
                "--out", str(tmp_path / "emb"),
            ]
        )
        assert code == 1


class TestGenerate:
    def test_layout(self, corpus):
        names = sorted(p.name for p in corpus.iterdir())
        assert names == [
            "ground-truth.tsv",
            "snapshot-2015-01-01.xml",
            "snapshot-2015-02-01.xml",
            "snapshot-2015-03-01.xml",
        ]

    def test_log_ignored_by_discovery(self, corpus):
        history = load_history(corpus)
        assert history.times() == ("2015-01-01", "2015-02-01", "2015-03-01")

    def test_progress_goes_to_stderr(self, tmp_path, capsys):
        code = main(
            [
                "generate", "--seed", "1", "--persons", "20", "--documents", "90",
                "--observations", "2", "--merges", "1", "--splits", "0",
                "--distributes", "0", "--renames", "0", "--new-publications", "0",
                "--out", str(tmp_path / "g"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "ground truth" in captured.err

    def test_refuses_a_directory_holding_another_series(self, tmp_path, capsys):
        # A second, shorter series written over the first would leave two of
        # the first one's snapshots behind, and loading the directory would
        # read both series as one history.
        out = tmp_path / "g"
        argv = ["generate", "--quiet", "--persons", "30", "--documents", "150",
                "--out", str(out)]
        files = lambda: {p.name: p.read_bytes() for p in out.iterdir()}  # noqa: E731
        assert main(argv + ["--observations", "4"]) == 0
        first = files()
        assert main(argv + ["--seed", "2", "--observations", "2"]) == 1
        assert "snapshot-2015-03-01.xml belongs to no snapshot" in capsys.readouterr().err
        assert files() == first
        # The other compression of the same dates is another series too.
        assert main(argv + ["--observations", "4", "--compress"]) == 1
        assert "snapshot-2015-01-01.xml belongs to no snapshot" in capsys.readouterr().err
        assert files() == first
        # The same plan again overwrites its own files.
        assert main(argv + ["--observations", "4"]) == 0
        assert files() == first


class TestExtract:
    def test_stdout_default(self, corpus, capsys):
        assert main(["extract", "--snapshots", str(corpus), "--quiet"]) == 0
        out = capsys.readouterr().out
        header, *rows = out.splitlines()
        assert header == "kind\tt_before\tt_after\tprofiles\tmentions"
        assert rows

    def test_parallel_output_is_identical(self, corpus, tmp_path):
        one = tmp_path / "one.tsv"
        three = tmp_path / "three.tsv"
        assert main(
            ["extract", "--snapshots", str(corpus), "--quiet", "--out", str(one)]
        ) == 0
        assert main(
            [
                "extract", "--snapshots", str(corpus), "--quiet",
                "--parallel", "3", "--out", str(three),
            ]
        ) == 0
        assert one.read_bytes() == three.read_bytes()

    def test_quiet_suppresses_progress(self, corpus, tmp_path, capsys):
        out = tmp_path / "cases.tsv"
        main(["extract", "--snapshots", str(corpus), "--out", str(out)])
        assert capsys.readouterr().err != ""
        main(["extract", "--snapshots", str(corpus), "--quiet", "--out", str(out)])
        assert capsys.readouterr().err == ""


class TestStats:
    def test_columns_add_up(self, corpus, capsys):
        assert main(["stats", "--snapshots", str(corpus), "--quiet"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "time\tprofiles\tdocuments\tmentions"
        history = load_history(corpus)
        assert len(lines) == 1 + len(history.snapshots)
        for line, snap in zip(lines[1:], history.snapshots):
            time, profiles, documents, mentions = line.split("\t")
            assert time == snap.time
            assert int(profiles) == len(snap.profiles)
            assert int(documents) == len(snap.documents)
            assert int(mentions) == sum(
                len(p.mentions) for p in snap.profiles.values()
            )


class TestBlocking:
    def test_report_shape(self, corpus, capsys):
        assert main(["blocking", "--snapshots", str(corpus), "--quiet"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("subset\tpairs\t")
        assert [line.split("\t")[0] for line in lines[1:]] == [
            "merge", "distribute", "all",
        ]
        merge_pairs = int(lines[1].split("\t")[1])
        all_pairs = int(lines[3].split("\t")[1])
        assert 0 < merge_pairs <= all_pairs

    @pytest.mark.parametrize("keep_suffix", [False, True])
    def test_report_is_the_library_report(self, corpus, capsys, keep_suffix):
        cases = extract_corrections(load_history(corpus))
        merge = name_pairs([c for c in cases if c.kind is CorrectionKind.MERGE])
        distribute = name_pairs([c for c in cases if c.kind is CorrectionKind.DISTRIBUTE])
        rows = [("merge", merge), ("distribute", distribute), ("all", name_pairs(cases))]
        expected = blocking_report_lines(rows, strip_suffix=not keep_suffix)
        argv = ["blocking", "--snapshots", str(corpus), "--quiet"]
        assert main(argv + ["--keep-suffix"] * keep_suffix) == 0
        assert capsys.readouterr().out.splitlines() == list(expected)


class TestCollections:
    def test_case_collection_layout(self, corpus, tmp_path):
        out = tmp_path / "col"
        code = main(
            [
                "case-collection", "--snapshots", str(corpus), "--quiet",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = (out / "cases.tsv").read_text(encoding="utf-8").splitlines()
        assert manifest[0] == "case_id\tkind\tt_before\tt_after\tbefore_file\tafter_file"
        assert len(manifest) > 1
        first = manifest[1].split("\t")
        graph = parse_case_graph((out / first[4]).read_bytes())
        graph.validate()

    def test_a_document_key_may_equal_a_profile_id(self, tmp_path):
        # Profile p2 merges into profile a, which holds a mention of document a.
        series = tmp_path / "series"
        series.mkdir()
        docs = {key: DocumentRecord(key, authors=("Ann",)) for key in ("a", "b")}
        for time, profiles in [
            ("2015-01-01", {"a": [("a", 0, "Ann")], "p2": [("b", 0, "Ann")]}),
            ("2015-02-01", {"a": [("a", 0, "Ann"), ("b", 0, "Ann")]}),
        ]:
            write_snapshot_to(snap(time, profiles, docs), series / snapshot_filename(time))
        out = tmp_path / "col"
        argv = ["case-collection", "--snapshots", str(series), "--quiet", "--out", str(out)]
        assert main(argv) == 0
        primaries = []
        for name in ("merge-2015-01-01-1-before.xml", "merge-2015-01-01-1-after.xml"):
            data = (out / name).read_bytes()
            assert b'<node label="DOCUMENT" id="a"/>' in data
            primaries.append(re.findall(rb'<node label="(\w+)" id="(\w+)" primary="true"', data))
            assert serialize_case_graph(parse_case_graph(data)) == data
        assert primaries == [[(b"PERSON", b"a"), (b"PERSON", b"p2")], [(b"PERSON", b"a")]]

    def test_embedded_layout(self, corpus, tmp_path, capsys):
        out = tmp_path / "emb"
        code = main(
            [
                "embedded", "--snapshots", str(corpus),
                "--t1", "2015-01-01", "--t2", "2015-02-01",
                "--out", str(out),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "annotations.xml", "manifest.tsv", "snapshot-2015-01-01.xml",
        ]
        assert "embedded collection" in capsys.readouterr().err

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "compress"])
    def test_embedded_refuses_an_out_directory_holding_another_series(
        self, corpus, tmp_path, capsys, compress
    ):
        # Written into its own --snapshots directory, the export would sit
        # beside the other snapshots, and the next command would load them
        # all as one history.
        series = shutil.copytree(corpus, tmp_path / "series")
        before = tree_bytes(series)
        argv = ["embedded", "--snapshots", str(series), "--t1", "2015-01-01",
                "--t2", "2015-02-01", "--quiet"] + ["--compress"] * compress
        assert main(argv + ["--out", str(series)]) == 1
        stray = series / ("snapshot-2015-01-01.xml" if compress else "snapshot-2015-02-01.xml")
        assert capsys.readouterr().err == (
            f"corrhist: error: {stray} belongs to no snapshot of this series; "
            "writing here would mix two series\n"
        )
        assert tree_bytes(series) == before
        # A directory holding only this export's files is written again.
        for _ in range(2):
            assert main(argv + ["--out", str(tmp_path / "emb")]) == 0


@pytest.mark.parametrize("damage", ["truncated", "corrupt-deflate"])
def test_bad_gzip_is_a_format_error(tmp_path, capsys, damage):
    data = gzip.compress(b'<snapshot date="2017-01-01" version="1"/>', mtime=0)
    if damage == "truncated":
        data = data[: len(data) // 2]
    else:
        # A reserved block type in the first deflate header byte.
        data = data[:10] + bytes([data[10] | 0b110]) + data[11:]
    path = tmp_path / "snapshot-2017-01-01.xml.gz"
    path.write_bytes(data)
    with pytest.raises(FormatError, match="snapshot-2017-01-01.xml.gz"):
        load_history(tmp_path)
    assert main(["stats", "--snapshots", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrhist: error: corrupt gzip stream")
    assert "snapshot-2017-01-01.xml.gz" in err


def test_two_files_of_one_date_are_refused_by_name(tmp_path, capsys):
    data = b'<snapshot date="2017-01-01" version="1"/>'
    (tmp_path / "snapshot-2017-01-01.xml.gz").write_bytes(gzip.compress(data, mtime=0))
    (tmp_path / "snapshot-2017-01-01.xml").write_bytes(data)
    assert [f.path.name for f in snapshot_io.discover_snapshot_files(tmp_path)] == [
        "snapshot-2017-01-01.xml", "snapshot-2017-01-01.xml.gz"
    ]
    message = (
        "snapshot dates must strictly increase: snapshot-2017-01-01.xml "
        "then snapshot-2017-01-01.xml.gz"
    )
    with pytest.raises(IntegrityError) as err:
        load_history(tmp_path)
    assert str(err.value) == message
    assert main(["extract", "--snapshots", str(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"corrhist: error: {message}\n"


def test_an_empty_document_or_venue_key_stops_extract_with_the_file_name(tmp_path, capsys):
    # Refused where the file is read, by name, not first by the case graphs.
    docs = ['<document pkey=""><author>A</author></document>',
            '<document pkey="d1"><venue key="">X</venue><author>B</author></document>']
    for date, profiles in [
        ("2017-01-01", '<profile authorid="p1"><signature pkey="" pos="0" surface="A"/></profile>\n'
                       '<profile authorid="p2"><signature pkey="d1" pos="0" surface="B"/></profile>'),
        ("2017-02-01", '<profile authorid="p1"><signature pkey="" pos="0" surface="A"/>'
                       '<signature pkey="d1" pos="0" surface="B"/></profile>'),
    ]:
        (tmp_path / snapshot_filename(date)).write_text(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<snapshot date="{date}" version="1">\n' + "\n".join(docs) + f"\n{profiles}\n</snapshot>\n"
        )
    assert main(["extract", "--snapshots", str(tmp_path), "--quiet"]) == 1
    first = tmp_path / snapshot_filename("2017-01-01")
    assert capsys.readouterr().err == f"corrhist: error: document key must be non-empty ({first})\n"


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter; what it prints, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_extract_imports_only_the_layers_it_runs(corpus, tmp_path):
    loaded = run_python(
        "import json, sys\n"
        "from corrhist.cli import main\n"
        "assert main(['extract', '--snapshots', sys.argv[1], '--out', sys.argv[2], '--quiet']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        corpus, tmp_path / "cases.tsv",
    )
    assert "corrhist.snapshot_io" in loaded and "corrhist.extract" in loaded
    unused = ["corrhist.synth", "corrhist.casegraph", "corrhist.embedded", "corrhist.blocking",
              "xml.etree"]
    assert [name for name in unused if name in loaded] == []
    assert (tmp_path / "cases.tsv").read_text().startswith("kind\t")


@pytest.mark.parametrize(
    "argv",
    [["blocking"], ["blocking", "--keep-suffix"], ["stats"]],
    ids=["blocking", "blocking-keep-suffix", "stats"],
)
def test_output_does_not_depend_on_the_hash_seed(corpus, argv):
    # Set and dict orders of strings change with the hash seed.
    outputs = []
    for seed in ("0", "42"):
        proc = subprocess.run(
            [sys.executable, "-m", "corrhist.cli", *argv, "--snapshots", str(corpus), "--quiet"],
            env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") > 1


def test_star_import_binds_each_name_to_its_modules_object():
    # Every module of the package that holds a public name holds the very
    # object ``from corrhist import *`` bound.
    mismatched = run_python(
        "import json, pkgutil, importlib\n"
        "from corrhist import *\n"
        "import corrhist\n"
        "found = {name: globals()[name] for name in corrhist.__all__}\n"
        "modules = [importlib.import_module(f'corrhist.{m.name}')\n"
        "           for m in pkgutil.iter_modules(corrhist.__path__)]\n"
        "holders = {name: [vars(m)[name] for m in modules if name in vars(m)] for name in found}\n"
        "print(json.dumps([name for name, value in found.items()\n"
        "                  if not holders[name] or any(v is not value for v in holders[name])]))\n"
    )
    assert mismatched == []


# The two ways the program starts: ``python -m corrhist.cli``, and what the
# installed ``corrhist`` script runs.
LAUNCHERS = {
    "module": ["-m", "corrhist.cli"],
    "script": ["-c", "from corrhist.cli import run; run()"],
}


@pytest.fixture(params=list(LAUNCHERS.values()), ids=list(LAUNCHERS))
def run_cli(request):
    """Runs the program with ``args`` through one launcher; stdout and
    stderr as bytes, unless ``kwargs`` send them elsewhere.  Its stdout is
    block-buffered, as it is by default, so what it writes is flushed at its
    exit."""

    def run(*args, **kwargs):
        kwargs.setdefault("stdout", subprocess.PIPE)
        kwargs.setdefault("stderr", subprocess.PIPE)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run(
            [sys.executable, *request.param, *map(str, args)], env=env, timeout=120, **kwargs
        )

    return run


def test_the_corrhist_script_is_the_program():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["corrhist"] == "corrhist.cli:run"


class TestProcessExit:
    """Run as a program, by either launcher, corrhist ends without freeing
    what it loaded.  What it writes, and the status it ends with, are still
    those of a normal exit."""

    def test_stdout_through_a_pipe_is_the_out_file(self, corpus, tmp_path, run_cli):
        out = tmp_path / "cases.tsv"
        assert run_cli("extract", "--snapshots", corpus, "--quiet", "--out", out).returncode == 0
        piped = run_cli("extract", "--snapshots", corpus, "--quiet")
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert piped.stdout.startswith(b"kind\t")
        assert piped.stdout == out.read_bytes()

    def test_missing_snapshot_dir(self, capsys, run_cli):
        proc = run_cli("extract", "--snapshots", "/no/such/dir")
        assert main(["extract", "--snapshots", "/no/such/dir"]) == 1
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"corrhist: error:")
        assert proc.stderr.decode() == capsys.readouterr().err

    def test_usage_error(self, run_cli):
        proc = run_cli("extract")
        assert proc.returncode == 2
        assert b"usage: corrhist extract" in proc.stderr

    @pytest.mark.parametrize("argv", [["extract"], ["stats"], ["blocking"]])
    def test_a_reader_that_closed_stdout_never_sees_success(self, corpus, argv, run_cli):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_cli(*argv, "--snapshots", corpus, "--quiet", stdout=write)
        finally:
            os.close(write)
        assert proc.returncode != 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["case-collection"],
            ["embedded", "--t1", "2015-01-01", "--t2", "2015-02-01", "--compress"],
        ],
        ids=["case-collection", "embedded-compress"],
    )
    def test_output_files_are_complete(self, corpus, tmp_path, argv, run_cli):
        argv = [*argv, "--snapshots", str(corpus), "--quiet", "--out"]
        assert run_cli(*argv, tmp_path / "process").returncode == 0
        assert main([*argv, str(tmp_path / "in-process")]) == 0
        written = tree_bytes(tmp_path / "process")
        assert written and written == tree_bytes(tmp_path / "in-process")
        for name, data in written.items():
            if name.endswith(".gz"):
                snapshot_io.parse_snapshot(gzip.decompress(data))


@pytest.mark.parametrize("state", ["on", "off", "frozen"])
def test_main_leaves_the_collector_as_it_found_it(corpus, tmp_path, monkeypatch, state):
    """In process, ``main`` keeps automatic collection off while the command
    runs, after the load too, and frees the history before it returns the
    collector to its state; a caller that froze objects itself keeps them
    frozen."""
    loaded, collecting = [], []

    def load(source):
        history = load_history(source)
        loaded.append(weakref.ref(history))
        return history

    def extract(history, **kwargs):
        collecting.append(gc.isenabled())
        return extract_corrections(history, **kwargs)

    monkeypatch.setattr(snapshot_io, "load_history", load)
    monkeypatch.setattr("corrhist.extract.extract_corrections", extract)
    # pytest's capture of stderr would free objects the caller froze.
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    clean = ["extract", "--snapshots", str(corpus), "--quiet", "--out", str(tmp_path / "c.tsv")]
    runs = [
        (clean, 0),
        # Fails after the load, and during it.
        (["embedded", "--snapshots", str(corpus), "--t1", "1999-01-01", "--t2", "2015-02-01",
          "--quiet", "--out", str(tmp_path / "e")], 1),
        (["stats", "--snapshots", str(tmp_path / "none"), "--quiet"], 1),
    ]
    was = gc.isenabled()
    (gc.disable if state == "off" else gc.enable)()
    if state == "frozen":
        gc.freeze()
    try:
        before = (gc.isenabled(), gc.get_freeze_count())
        for argv, code in runs + [(clean, 0)] * 10:
            assert main(argv) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == before
            assert [ref() for ref in loaded] == [None] * len(loaded)
    finally:
        gc.unfreeze()
        (gc.enable if was else gc.disable)()
    assert len(loaded) == 12
    assert collecting == [False] * 11
