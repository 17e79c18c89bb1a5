"""``embedded --compress`` may gzip its t1 file on a second CPU while the
series loads (``snapshot_io._early_gzip``).  The loader hands the t1 file's
bytes over, and plain ones are deflated at once.  Once t1 is loaded, its
snapshot is rendered once: the member of the bytes is kept if the render is
those very bytes, and otherwise, always for a gzipped file, the thread
deflates the render.  Either way the export is the member of that very
snapshot.  Neither the files, nor the errors, nor the caller's threads and
CPU mask may show whether it did."""

import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from corrhist import _cpus, casegraph, snapshot_io
from corrhist.cli import main
from corrhist.errors import FormatError
from corrhist.snapshot_io import write_history
from corrhist.synth import GeneratorConfig, default_dates, generate

from test_acceptance import launcher, tree_bytes
from test_casegraph import use_cpus

T1, T2 = "2015-01-01", "2015-03-01"
CONFIG = GeneratorConfig(seed=27, n_persons=800, n_documents=4000, observation_dates=default_dates(3))

# Every file ``embedded --compress`` writes for CONFIG's series, as the
# writer wrote them when each gzip went through ``gzip.GzipFile``.
PINNED_EMBEDDED_SHA256 = {
    "annotations.xml": "6c6e903d94f50522210fece40d437c9fdb048f22d5d3f9e9fc363be9dedee61f",
    "manifest.tsv": "57aeb464138fb11468d64c31623054fbbe8058b743953062f798ea37d4e83e71",
    "snapshot-2015-01-01.xml.gz": "2c8ee8084e7f6047b0ea870b4968ed01bbf126a10b8b4f0a62bfe62ae50db345",
}


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    """CONFIG's series, canonical and uncompressed.  Its t1 file holds more
    than 4096 lines, so a render is gzipped in two chunks and the early
    member in one."""
    directory = tmp_path_factory.mktemp("series")
    history, _log = generate(CONFIG)
    write_history(history, directory)
    return directory


@pytest.fixture(scope="module")
def gz_series(tmp_path_factory):
    """CONFIG's series as ``write_history(compress=True)`` writes it."""
    directory = tmp_path_factory.mktemp("gz-series")
    history, _log = generate(CONFIG)
    write_history(history, directory, compress=True)
    return directory


@pytest.fixture(scope="module")
def indented_series(series, tmp_path_factory):
    """CONFIG's series with every record line indented by two spaces and
    each file gzipped, as perfbench's ``_foreignize`` makes one: expat
    reads every file."""
    directory = tmp_path_factory.mktemp("indented-series")
    for path in sorted(series.iterdir()):
        lines = path.read_bytes().split(b"\n")
        body = [b"  " + line if line.startswith((b"<document", b"<profile")) else line
                for line in lines]
        data = gzip.compress(b"\n".join(body), compresslevel=6, mtime=0)
        (directory / (path.name + ".gz")).write_bytes(data)
    return directory


@pytest.fixture
def copy(series, tmp_path):
    """A copy of the series that a test may damage."""
    return shutil.copytree(series, tmp_path / "series")


@pytest.fixture
def gz_copy(gz_series, tmp_path):
    """A copy of the gzipped series that a test may damage."""
    return shutil.copytree(gz_series, tmp_path / "gz-series")


def embedded(snapshots, out, t1=T1, t2=T2):
    return ["embedded", "--snapshots", str(snapshots), "--t1", t1, "--t2", t2,
            "--compress", "--quiet", "--out", str(out)]


def digests(directory):
    return {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(directory).items()}


@pytest.fixture
def encoded(monkeypatch):
    """Let the early gzip start its thread whatever CPUs this host has,
    and note each gzip encoding (``noted_encodings``)."""
    use_cpus(monkeypatch, 2, snapshot_io)
    return noted_encodings(monkeypatch)


def noted_encodings(monkeypatch):
    """Each gzip encoding notes in the returned list the thread that ran it,
    ``"thread"`` or ``"main"``, and that thread's CPU mask."""
    calls = []
    encode = snapshot_io._gzip_member

    def noted(chunks):
        main_thread = threading.current_thread() is threading.main_thread()
        calls.append(("main" if main_thread else "thread", cpu_mask()))
        return encode(chunks)

    monkeypatch.setattr(snapshot_io, "_gzip_member", noted)
    return calls


def cpu_mask():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def threads(calls):
    return [thread for thread, _mask in calls]


def test_placement_has_one_home():
    # Both helpers read the mask, and are placed, through ``_cpus`` alone.
    for name in ("_cpu_mask", "_beside"):
        assert getattr(casegraph, name) is getattr(_cpus, name) is getattr(snapshot_io, name)
    for module in (casegraph, snapshot_io):
        assert not hasattr(module, "_run_on")


@pytest.mark.parametrize("one_cpu", [False, True], ids=["every-cpu", "one-cpu"])
def test_the_program_writes_the_pinned_files(series, tmp_path, one_cpu):
    proc = subprocess.run([sys.executable, *launcher(one_cpu), *embedded(series, tmp_path)],
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert digests(tmp_path) == PINNED_EMBEDDED_SHA256


def test_the_early_member_is_the_file(series, tmp_path, encoded, monkeypatch):
    taken = []
    take = snapshot_io._EarlyGzip.take

    def noted(self):
        taken.append(self)
        return take(self)

    monkeypatch.setattr(snapshot_io._EarlyGzip, "take", noted)
    assert main(embedded(series, tmp_path)) == 0
    assert digests(tmp_path) == PINNED_EMBEDDED_SHA256
    # Only the thread encoded: the render was those bytes.
    assert threads(encoded) == ["thread"]
    # Neither the bytes nor the member outlived the write.
    [early] = taken
    assert (early.data, early.member) == (None, None)


@pytest.mark.parametrize("one_cpu", [False, True], ids=["thread", "one-cpu"])
def test_the_loader_reads_a_plain_t1_from_the_bytes_read_ahead(series, tmp_path, monkeypatch,
                                                               one_cpu):
    use_cpus(monkeypatch, 1 if one_cpu else 2, snapshot_io)
    reads, sources = [], []
    read_bytes, read = Path.read_bytes, snapshot_io._Reader.read

    def noted_read_bytes(self):
        reads.append((self, read_bytes(self)))
        return reads[-1][1]

    def noted(self, source, source_name):
        sources.append(source)
        return read(self, source, source_name)

    monkeypatch.setattr(Path, "read_bytes", noted_read_bytes)
    monkeypatch.setattr(snapshot_io._Reader, "read", noted)
    assert main(embedded(series, tmp_path)) == 0
    # Each file, t1 too, is read from disk once, and the reader reads it from
    # those very bytes, which a thread deflates where there is one.
    assert [path for path, _data in reads] == sorted(series.iterdir())
    assert len(sources) == len(reads)
    assert all(source is data for source, (_path, data) in zip(sources, reads))
    assert digests(tmp_path) == PINNED_EMBEDDED_SHA256


@pytest.mark.parametrize("edit", ["out-of-order", "indented"])
def test_a_t1_file_unlike_its_render_gets_the_gzip_of_the_render(copy, tmp_path, encoded, edit):
    path = copy / "snapshot-2015-01-01.xml"
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines[2].startswith(b"<document") and lines[3].startswith(b"<document")
    if edit == "out-of-order":
        # Canonical records, but not in the order the writer writes them.
        lines[2], lines[3] = lines[3], lines[2]
    else:
        # One indented line sends the file to expat.
        lines[2] = b"  " + lines[2]
    path.write_bytes(b"".join(lines))
    assert main(embedded(copy, tmp_path / "out")) == 0
    # The snapshot is the same, so the files are those of the series itself.
    assert digests(tmp_path / "out") == PINNED_EMBEDDED_SHA256
    # The bytes, then the render, both on the helper's CPU: this thread
    # never deflates while a thread runs.
    helper = {snapshot_io._cpu_mask()[1]} if hasattr(os, "sched_setaffinity") else None
    assert encoded == [("thread", helper)] * 2


def test_a_refused_placement_changes_nothing(series, tmp_path, encoded, monkeypatch):
    asked = []

    def refuse(pid, cpus):
        asked.append(sorted(set(cpus)))
        raise OSError("placement refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    mask = cpu_mask()
    assert main(embedded(series, tmp_path)) == 0
    assert digests(tmp_path) == PINNED_EMBEDDED_SHA256
    assert threads(encoded) == ["thread"]
    assert cpu_mask() == mask
    cpus = snapshot_io._cpu_mask()
    # The thread, this thread, and this thread's whole mask again.
    assert sorted(asked) == sorted([cpus[1:2], cpus[:1], sorted(set(cpus))])


def test_the_thread_and_its_caller_each_run_on_a_cpu_of_their_own(series, tmp_path, encoded,
                                                                  monkeypatch):
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")
    cpus = sorted(os.sched_getaffinity(0))
    loading = []
    load = snapshot_io.load_history

    def noted(directory):
        loading.append(cpu_mask())
        return load(directory)

    monkeypatch.setattr(snapshot_io, "load_history", noted)
    assert main(embedded(series, tmp_path)) == 0
    assert encoded == [("thread", {cpus[1]})]
    assert loading == [{cpus[0]}]
    assert cpu_mask() == set(cpus)


GZIPPED = pytest.mark.parametrize("kind", ["gz_series", "indented_series"],
                                  ids=["gz", "indented"])


@GZIPPED
@pytest.mark.parametrize("one_cpu", [False, True], ids=["every-cpu", "one-cpu"])
def test_the_program_writes_the_pinned_files_from_a_gzipped_series(request, tmp_path, kind,
                                                                    one_cpu):
    snapshots = request.getfixturevalue(kind)
    proc = subprocess.run([sys.executable, *launcher(one_cpu), *embedded(snapshots, tmp_path)],
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert digests(tmp_path) == PINNED_EMBEDDED_SHA256


@GZIPPED
@pytest.mark.parametrize("one_cpu", [False, True], ids=["thread", "one-cpu"])
def test_a_gzipped_t1_is_deflated_once_where_it_runs(request, tmp_path, monkeypatch, kind,
                                                     one_cpu):
    snapshots = request.getfixturevalue(kind)
    use_cpus(monkeypatch, 1 if one_cpu else 2, snapshot_io)
    encoded = noted_encodings(monkeypatch)
    assert main(embedded(snapshots, tmp_path)) == 0
    assert digests(tmp_path) == PINNED_EMBEDDED_SHA256
    assert threads(encoded) == (["main"] if one_cpu else ["thread"])


@pytest.mark.parametrize("kind", ["series", "gz_series", "indented_series"],
                         ids=["plain", "gz", "indented"])
def test_the_member_of_a_gzipped_t1_is_the_render_of_that_very_snapshot(request, tmp_path,
                                                                         encoded, monkeypatch,
                                                                         kind):
    snapshots = request.getfixturevalue(kind)
    loading, loaded, held, rendered, taken = [], [], [], [], []
    load, lines, take = snapshot_io.load_history, snapshot_io._Series.lines, snapshot_io._EarlyGzip.take

    def noted_load(directory):
        loading.append(True)
        loaded.append(load(directory))
        loading.clear()
        held.append(snapshot_io._EARLY.get().data)
        return loaded[-1]

    def noted_lines(self, snapshot):
        rendered.append((snapshot, bool(loading)))
        return lines(self, snapshot)

    def noted_take(self):
        taken.append(self)
        return take(self)

    monkeypatch.setattr(snapshot_io, "load_history", noted_load)
    monkeypatch.setattr(snapshot_io._Series, "lines", noted_lines)
    monkeypatch.setattr(snapshot_io._EarlyGzip, "take", noted_take)
    assert main(embedded(snapshots, tmp_path)) == 0
    assert digests(tmp_path) == PINNED_EMBEDDED_SHA256
    assert threads(encoded) == ["thread"]
    # Rendered once, while loading, and the write took that member as it was.
    [history] = loaded
    [(snapshot, while_loading)] = rendered
    assert snapshot is history.at(T1) and while_loading
    # The load let go of the bytes it handed over.
    assert held == [None]
    [early] = taken
    assert (early.data, early.snapshot, early.member) == (None, None, None)


@GZIPPED
def test_a_gzipped_t1_is_deflated_beside_the_loader(request, tmp_path, encoded, monkeypatch,
                                                    kind):
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")
    snapshots = request.getfixturevalue(kind)
    cpus = sorted(os.sched_getaffinity(0))
    loading = []
    load = snapshot_io.load_history

    def noted(directory):
        loading.append(cpu_mask())
        return load(directory)

    monkeypatch.setattr(snapshot_io, "load_history", noted)
    assert main(embedded(snapshots, tmp_path)) == 0
    assert encoded == [("thread", {cpus[1]})]
    assert loading == [{cpus[0]}]
    assert cpu_mask() == set(cpus)


def test_the_snapshot_directory_is_listed_once(series, tmp_path, encoded, monkeypatch):
    listed = []
    discover = snapshot_io.discover_snapshot_files

    def noted(directory):
        listed.append(directory)
        return discover(directory)

    monkeypatch.setattr(snapshot_io, "discover_snapshot_files", noted)
    assert main(embedded(series, tmp_path)) == 0
    assert threads(encoded) == ["thread"]
    assert listed == [str(series)]


@pytest.mark.parametrize("kind", ["series", "gz_series"], ids=["plain", "gz"])
def test_a_t1_between_other_dates_gets_the_thread_too(request, tmp_path, encoded, kind):
    snapshots = request.getfixturevalue(kind)
    t1 = "2015-02-01"
    alone = subprocess.run(
        [sys.executable, *launcher(True), *embedded(snapshots, tmp_path / "alone", t1)],
        capture_output=True, timeout=120,
    )
    assert (alone.returncode, alone.stderr) == (0, b"")
    assert main(embedded(snapshots, tmp_path / "out", t1)) == 0
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "alone")
    assert threads(encoded) == ["thread"]


def _corrupt_later_file(snapshots, monkeypatch):
    [path] = snapshots.glob("snapshot-2015-02-01.xml*")
    path.write_bytes(path.read_bytes()[:-100])


def _fail_the_render(snapshots, monkeypatch):
    def fail(self, snapshot):
        raise FormatError("cannot render")

    monkeypatch.setattr(snapshot_io._Series, "lines", fail)


@pytest.mark.parametrize(
    "kind, damage, started",
    [
        ("copy", None, True),
        ("copy", _corrupt_later_file, True),
        ("copy", _fail_the_render, True),
        ("copy", "unknown-t1", False),
        ("gz_copy", None, True),
        ("gz_copy", _corrupt_later_file, True),
        # A gzipped t1 is rendered once it is loaded, and a render that
        # fails there starts nothing.
        ("gz_copy", _fail_the_render, False),
        ("gz_copy", "unknown-t1", False),
        ("gz_copy", "t1-after-t2", True),
    ],
    ids=["success", "load-error", "render-error", "unknown-t1", "gz-success", "gz-load-error",
         "gz-render-error", "gz-unknown-t1", "gz-t1-after-t2"],
)
def test_main_leaves_no_thread_and_gives_the_mask_back(request, tmp_path, encoded, monkeypatch,
                                                       capsys, kind, damage, started):
    snapshots = request.getfixturevalue(kind)
    t1, t2 = T1, T2
    if damage == "unknown-t1":
        t1 = "1999-01-01"
    elif damage == "t1-after-t2":
        t1, t2 = "2015-02-01", T1
    elif damage is not None:
        damage(snapshots, monkeypatch)
    out = tmp_path / "out"

    def run():
        code = main(embedded(snapshots, out, t1, t2))
        return code, capsys.readouterr().err, sorted(p.name for p in out.glob("snapshot-*"))

    # The same command on one CPU, which starts no thread.
    use_cpus(monkeypatch, 1, snapshot_io)
    alone = run()
    shutil.rmtree(out, ignore_errors=True)
    use_cpus(monkeypatch, 2, snapshot_io)
    encoded.clear()
    before = (threading.active_count(), cpu_mask())
    code, message, written = run()
    assert (threading.active_count(), cpu_mask()) == before
    assert code == (0 if damage is None else 1)
    assert ("thread" in threads(encoded)) == started
    # The same exit status, the same error message, the same export.
    assert (code, message, written) == alone
    if damage is not None:
        assert written == []


@pytest.mark.parametrize(
    "kind, compress, one_cpu",
    [("gz", True, False), ("plain", False, False), ("plain", True, True), ("plain", True, False)],
    ids=["gz-series", "no-compress", "one-cpu", "two-cpus"],
)
def test_threading_is_imported_only_when_a_thread_starts(series, tmp_path, kind, compress,
                                                          one_cpu):
    snapshots = series
    if kind == "gz":
        snapshots = tmp_path / "gz"
        history, _log = generate(GeneratorConfig(seed=3, n_persons=60, n_documents=260,
                                                 observation_dates=default_dates(3)))
        write_history(history, snapshots, compress=True)
    argv = embedded(snapshots, tmp_path / "out")
    if not compress:
        argv.remove("--compress")
    # Without site, this interpreter imports threading only if the program does.
    code = (
        "import json, os, sys\n"
        "if sys.argv[1] == 'True' and hasattr(os, 'sched_setaffinity'):\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "assert 'threading' not in sys.modules\n"
        "from corrhist.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "print(json.dumps([code, 'threading' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(one_cpu), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # A gzipped t1 is deflated on the thread too, once it is loaded.
    threaded = compress and not one_cpu and len(_cpus._cpu_mask()) >= 2
    assert json.loads(proc.stdout) == [0, threaded]
