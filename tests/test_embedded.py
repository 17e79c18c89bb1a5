import pytest

from corrhist.embedded import (
    EmbeddedAnnotation,
    annotation_from_case,
    build_embedded_collection,
    parse_annotation,
    parse_annotations_file,
    serialize_annotation,
    validate_annotations,
    write_annotations_file,
)
from corrhist.errors import FormatError, IntegrityError
from corrhist.extract import CorrectionKind, extract_corrections
from corrhist.model import History, Profile, Role, Signature, Snapshot
from corrhist.snapshot_io import parse_snapshot, snapshot_filename, write_snapshot
from corrhist.synth import GeneratorConfig, generate

from conftest import hist, snap

T0, T1, T2 = "2017-01-01", "2017-06-01", "2018-01-01"


def split_history():
    return hist(
        snap(T0, {"p1": [("doc1", 1, "B. Doe"), ("doc2", 0, "B. Doe")]}),
        snap(
            T1,
            {"p1": [("doc1", 1, "Bob A. Doe")], "p2": [("doc2", 0, "Bob B. Doe")]},
        ),
    )


def split_annotation():
    (case,) = extract_corrections(split_history())
    return annotation_from_case(case, "split-2017-01-01-1")


class TestAnnotation:
    def test_from_case_carries_both_states(self):
        a = split_annotation()
        a.check()
        assert a.kind is CorrectionKind.SPLIT
        assert a.t_before == T0 and a.t_after == T1
        assert set(a.source) == {"p1"}
        assert set(a.target) == {"p1", "p2"}
        # Surfaces come from the respective observations and may differ.
        assert {s.surface for s in a.source["p1"]} == {"B. Doe"}
        assert {s.surface for s in a.target["p1"]} == {"Bob A. Doe"}

    def test_serialized_shape(self):
        text = serialize_annotation(split_annotation()).decode("utf-8")
        assert text.startswith(
            '<case id="split-2017-01-01-1" kind="split" t_before="2017-01-01"'
            ' t_after="2017-06-01" coalesced="possible">\n'
        )
        assert "<source>\n" in text and "<target>\n" in text
        assert text.index("<source>") < text.index("<target>")
        assert '   <profile authorid="p1">\n' in text
        assert '      <signature pkey="doc1" pos="1" surface="B. Doe"/>\n' in text
        assert text.endswith("</case>\n")

    def test_round_trip(self):
        a = split_annotation()
        data = serialize_annotation(a)
        parsed = parse_annotation(data)
        assert parsed == a
        assert serialize_annotation(parsed) == data

    def test_editor_and_new_flags_round_trip(self):
        h = hist(
            snap(T0, {"p1": [("d1", 0, "E", Role.EDITOR), ("d2", 0, "E")]}),
            snap(
                T1,
                {
                    "p1": [("d1", 0, "E", Role.EDITOR)],
                    "p2": [("d2", 0, "E"), ("d3", 0, "E")],
                },
            ),
        )
        (case,) = extract_corrections(h)
        a = annotation_from_case(case, "split-x-1")
        text = serialize_annotation(a).decode("utf-8")
        assert 'role="editor"' in text
        assert 'new="true"' in text
        parsed = parse_annotation(serialize_annotation(a))
        assert parsed.new_mentions == frozenset({("d3", 0, Role.AUTHOR)})
        assert any(
            s.role is Role.EDITOR for s in parsed.source["p1"]
        )

    @pytest.mark.parametrize("pos", ["0_1", "\u0661", " 1", "+1", "1.0"])
    def test_signature_position_must_be_ascii_digits(self, pos):
        data = serialize_annotation(split_annotation())
        assert b' pos="1" ' in data
        with pytest.raises(FormatError, match="non-integer signature position"):
            parse_annotation(data.replace(b' pos="1" ', f' pos="{pos}" '.encode(), 1))

    def test_negative_position_is_refused_as_in_snapshots(self):
        data = serialize_annotation(split_annotation())
        with pytest.raises(FormatError, match="negative signature position -1"):
            parse_annotation(data.replace(b' pos="1" ', b' pos="-1" ', 1))

    def test_check_refuses_a_negative_position(self):
        a = EmbeddedAnnotation(
            "a1", CorrectionKind.SPLIT, T0, T1,
            source={"p1": (Signature("doc1", -1, "B. Doe"), Signature("doc2", 0, "B. Doe"))},
            target={"p1": (Signature("doc1", -1, "B. Doe"),),
                    "p2": (Signature("doc2", 0, "B. Doe"),)},
        )
        with pytest.raises(IntegrityError, match="negative signature position -1"):
            a.check()

    @pytest.mark.parametrize("after", [
        b'      <signature pkey="doc2" pos="0" surface="Bob B. Doe"/>\n',
        b'      <signature pkey="doc1" pos="1" surface="Bob A. Doe"/>\n',
    ], ids=["same-profile", "other-profile"])
    def test_a_mention_listed_twice_in_one_side_is_refused(self, after):
        data = serialize_annotation(split_annotation())
        assert data.count(after) == 1
        again = b'      <signature pkey="doc2" pos="0" surface="Bob Doe"/>\n'
        with pytest.raises(
            IntegrityError, match=r"mention \('doc2', 0, 'author'\) listed twice in target"
        ):
            parse_annotation(data.replace(after, after + again))

    def test_annotations_file_round_trip(self, tmp_path):
        a = split_annotation()
        path = write_annotations_file([a], T0, T1, tmp_path / "annotations.xml")
        t_before, t_after, parsed = parse_annotations_file(path.read_bytes())
        assert (t_before, t_after) == (T0, T1)
        assert parsed == [a]


class TestValidation:
    def test_clean_annotation_validates(self):
        h = split_history()
        a = split_annotation()
        assert validate_annotations(h.snapshots[0], [a]) == []

    def test_state_mismatch_rejected(self):
        h = split_history()
        a = split_annotation()
        moved = EmbeddedAnnotation(
            annotation_id=a.annotation_id,
            kind=a.kind,
            t_before=a.t_before,
            t_after=a.t_after,
            source={"p1": (Signature("doc1", 1, "B. Doe"),)},  # missing doc2
            target=a.target,
            new_mentions=a.new_mentions,
        )
        with pytest.raises(IntegrityError):
            validate_annotations(h.snapshots[0], [moved])

    def test_unknown_document_rejected(self):
        h = split_history()
        a = split_annotation()
        bad = EmbeddedAnnotation(
            annotation_id=a.annotation_id,
            kind=a.kind,
            t_before=a.t_before,
            t_after=a.t_after,
            source={
                "p1": (
                    Signature("doc1", 1, "B. Doe"),
                    Signature("ghost", 0, "B. Doe"),
                )
            },
            target=a.target,
            new_mentions=a.new_mentions,
        )
        with pytest.raises(IntegrityError):
            validate_annotations(h.snapshots[0], [bad])

    def test_dangling_reference_elsewhere_in_snapshot_rejected(self):
        # The annotation itself matches the snapshot; another profile does not.
        s0 = split_history().snapshots[0]
        ghost = Profile("p9", frozenset({Signature("ghost", 0, "X. Ghost")}))
        broken = Snapshot(s0.time, {**s0.profiles, "p9": ghost}, s0.documents)
        with pytest.raises(IntegrityError, match="ghost"):
            validate_annotations(broken, [split_annotation()])

    def test_degenerate_annotation_warns(self):
        h = hist(
            snap(T0, {"p1": [("d1", 0, "A")]}),
            snap(T1, {"p1": [("d1", 0, "A")]}),
        )
        same = {"p1": (Signature("d1", 0, "A"),)}
        a = EmbeddedAnnotation(
            annotation_id="distribute-x-1",
            kind=CorrectionKind.DISTRIBUTE,
            t_before=T0,
            t_after=T1,
            source=same,
            target=same,
            new_mentions=frozenset(),
        )
        warnings = validate_annotations(h.snapshots[0], [a])
        assert len(warnings) == 1


class TestCollection:
    def test_build_matches_direct_extraction(self, tmp_path):
        history, _log = generate(
            GeneratorConfig(seed=21, n_persons=150, n_documents=700)
        )
        t1 = history.snapshots[0].time
        t2 = history.snapshots[-1].time
        counts = build_embedded_collection(history, t1, t2, tmp_path)

        pair = History((history.at(t1), history.at(t2)))
        cases = extract_corrections(pair)
        assert counts["all"] == len(cases)
        for kind in CorrectionKind:
            assert counts[kind.value] == sum(
                1 for c in cases if c.kind is kind
            )

        snapshot_bytes = (tmp_path / snapshot_filename(t1)).read_bytes()
        assert snapshot_bytes == write_snapshot(history.at(t1))

        t_before, t_after, annotations = parse_annotations_file(
            (tmp_path / "annotations.xml").read_bytes()
        )
        assert (t_before, t_after) == (t1, t2)
        assert len(annotations) == len(cases)
        by_profiles = {
            frozenset(set(a.source) | set(a.target)): a.kind for a in annotations
        }
        for case in cases:
            assert by_profiles[case.profiles] is case.kind
        assert validate_annotations(parse_snapshot(snapshot_bytes), annotations) == []

        manifest = dict(
            line.split("\t", 1)
            for line in (tmp_path / "manifest.tsv").read_text().splitlines()[1:]
        )
        assert manifest["corrections_all"] == str(counts["all"])
        assert manifest["t_before"] == t1

    def test_intermediate_observations_are_ignored(self, tmp_path):
        # A correction that is undone before t2 must not appear.
        h = hist(
            snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}),
            snap(T1, {"A": [("d1", 0, "X"), ("d2", 0, "Y")]}),
            snap(T2, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}),
        )
        counts = build_embedded_collection(h, T0, T2, tmp_path)
        assert counts["all"] == 0

    def test_requires_ordered_pair(self, tmp_path):
        h = split_history()
        with pytest.raises(ValueError):
            build_embedded_collection(h, T1, T0, tmp_path)
