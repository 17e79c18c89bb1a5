import gzip

import pytest

from corrhist.casegraph import parse_case_graph
from corrhist.cli import main
from corrhist.errors import FormatError
from corrhist.snapshot_io import load_history


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
