import pytest

from corrhist.errors import IntegrityError, UnknownTimeError
from corrhist.model import (
    DocumentRecord,
    History,
    Profile,
    Role,
    Signature,
    Snapshot,
    mentions_of,
    validate_date,
)
from corrhist.snapshot_io import parse_snapshot, write_snapshot

from conftest import hist, sig, snap


def test_validate_date_accepts_iso_days():
    validate_date("2017-01-01")
    validate_date("1999-12-31")


@pytest.mark.parametrize(
    "bad", ["2017-1-1", "2017/01/01", "20170101", "2017-13-01", "2017-02-30", ""]
)
def test_validate_date_rejects_malformed(bad):
    with pytest.raises(ValueError):
        validate_date(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "2015-01-01\n",
        "\u0662\u0660\u0661\u0665-\u0660\u0661-\u0660\u0661",  # Arabic-Indic digits
        "2015-01-\uff10\uff11",  # fullwidth digits
        " 2015-01-01",
    ],
)
def test_validate_date_takes_whole_ascii_dates_only(bad):
    with pytest.raises(ValueError, match="not an ISO date"):
        validate_date(bad)


def test_signature_key_ignores_surface():
    a = Signature("d1", 0, "J. Doe")
    b = Signature("d1", 0, "John Doe")
    assert a.key == b.key
    assert a != b


def test_author_and_editor_positions_are_independent():
    a = Signature("d1", 0, "X", Role.AUTHOR)
    e = Signature("d1", 0, "X", Role.EDITOR)
    assert a.key != e.key
    s = snap("2020-01-01", {"p1": [a, e]})
    assert len(s.profiles["p1"].mentions) == 2


@pytest.mark.parametrize(
    "profile, message",
    [
        (Profile("p1", frozenset()), "profile p1 has no signatures"),
        (Profile("", frozenset({sig("d1", 0, "A")})), "profile id must be non-empty"),
        (Profile("p1", frozenset({sig("d1", 0, " \t")})), "profile p1: blank surface on d1 pos 0"),
        (Profile("p1", frozenset({sig("d1", -1, "A")})), "profile p1: negative position"),
    ],
    ids=["empty-profile", "empty-id", "blank-surface", "negative-position"],
)
def test_snapshot_rejects_bad_profile(profile, message):
    s = Snapshot(
        "2020-01-01",
        {profile.profile_id: profile},
        {"d1": DocumentRecord("d1", authors=("A",))},
    )
    with pytest.raises(IntegrityError, match=message):
        s.validate()


def test_snapshot_rejects_shared_mention_across_profiles():
    s = Snapshot(
        "2020-01-01",
        {
            "p1": Profile("p1", frozenset({sig("d1", 0, "A")})),
            "p2": Profile("p2", frozenset({sig("d1", 0, "A v2")})),
        },
        {"d1": DocumentRecord("d1", authors=("A",))},
    )
    with pytest.raises(IntegrityError) as err:
        s.validate()
    assert "p1" in str(err.value) and "p2" in str(err.value)


def test_snapshot_rejects_unknown_document():
    s = Snapshot(
        "2020-01-01",
        {"p1": Profile("p1", frozenset({sig("dX", 0, "A")}))},
        {},
    )
    with pytest.raises(IntegrityError):
        s.validate()


def test_snapshot_rejects_position_out_of_range():
    s = Snapshot(
        "2020-01-01",
        {"p1": Profile("p1", frozenset({sig("d1", 3, "A")}))},
        {"d1": DocumentRecord("d1", authors=("A",))},
    )
    with pytest.raises(IntegrityError):
        s.validate()


@pytest.mark.parametrize(
    "record",
    [DocumentRecord("d1", venue_key="vX"), DocumentRecord("d1", venue_name="Venue X")],
    ids=["key-without-name", "name-without-key"],
)
def test_snapshot_rejects_a_venue_key_and_name_apart(record):
    # A key alone cannot be written, and a name alone would be lost.
    s = Snapshot("2020-01-01", {}, {"d1": record})
    with pytest.raises(IntegrityError, match="document d1: venue key .* both or neither"):
        s.validate()


@pytest.mark.parametrize(
    "record, message",
    [
        (DocumentRecord(""), "document key must be non-empty"),
        (DocumentRecord("d1", venue_key="", venue_name="X"), "document d1: venue key must be non-empty"),
    ],
    ids=["empty-document-key", "empty-venue-key"],
)
def test_snapshot_rejects_an_empty_key(record, message):
    s = Snapshot("2020-01-01", {}, {record.document_key: record})
    with pytest.raises(IntegrityError, match=message):
        s.validate()
    # The reader refuses the written file with the same message.
    with pytest.raises(IntegrityError, match=message):
        parse_snapshot(write_snapshot(s))


def test_snapshot_rejects_mismatched_map_keys():
    s = Snapshot(
        "2020-01-01",
        {"wrong": Profile("p1", frozenset({sig("d1", 0, "A")}))},
        {"d1": DocumentRecord("d1", authors=("A",))},
    )
    with pytest.raises(IntegrityError):
        s.validate()


def test_mentions_of_missing_profile_is_empty():
    s = snap("2020-01-01", {"p1": [("d1", 0, "A")]})
    assert s.mentions_of("ghost") == frozenset()
    assert s.mentions_of("p1")


def test_history_requires_increasing_times():
    s1 = snap("2020-01-01", {"p1": [("d1", 0, "A")]})
    s2 = snap("2020-02-01", {"p1": [("d1", 0, "A")]})
    h = hist(s1, s2)
    assert h.times() == ("2020-01-01", "2020-02-01")
    assert h.latest is s2
    with pytest.raises(ValueError):
        History((s2, s1))
    with pytest.raises(ValueError):
        History((s1, s1))


def test_changed_profiles_by_comparison():
    s1 = snap("2020-01-01", {
        "same": [("d1", 0, "A")], "moved": [("d2", 0, "B")],
        "renamed": [("d3", 0, "C")], "gone": [("d4", 0, "D")],
    })
    s2 = snap("2020-02-01", {
        "same": [("d1", 0, "A")], "moved": [("d2", 0, "B"), ("d4", 0, "D")],
        "renamed": [("d3", 0, "C. Doe")], "new": [("d5", 0, "E")],
    }, docs=s1.documents)
    # Equal records held as different objects are not changes; a surface
    # rewrite is.
    assert s1.profiles["same"] is not s2.profiles["same"]
    h = hist(s1, s2)
    assert h.changed_profiles(0) == {"moved", "renamed", "gone", "new"}
    assert hist(s1, Snapshot("2020-02-01", s1.profiles)).changed_profiles(0) == set()


def test_loaded_profile_changes_take_no_part_in_equality():
    s1 = snap("2020-01-01", {"p1": [("d1", 0, "A")]})
    s2 = snap("2020-02-01", {"p1": [("d1", 0, "A")]})
    given = History((s1, s2), (frozenset({"p9"}),))
    assert given.changed_profiles(0) == {"p9"}
    assert given == hist(s1, s2)
    with pytest.raises(ValueError, match="2 change sets for 1 intervals"):
        History((s1, s2), (frozenset(), frozenset()))


def test_history_at_unknown_time():
    h = hist(snap("2020-01-01", {"p1": [("d1", 0, "A")]}))
    assert h.at("2020-01-01").time == "2020-01-01"
    with pytest.raises(UnknownTimeError):
        h.at("1999-01-01")


def test_module_level_mentions_of():
    h = hist(snap("2020-01-01", {"p1": [("d1", 0, "A")]}))
    assert len(mentions_of(h, "p1", "2020-01-01")) == 1
    assert mentions_of(h, "nope", "2020-01-01") == frozenset()


def test_document_names_by_role():
    d = DocumentRecord("d1", authors=("A", "B"), editors=("E",))
    assert d.names(Role.AUTHOR) == ("A", "B")
    assert d.names(Role.EDITOR) == ("E",)
