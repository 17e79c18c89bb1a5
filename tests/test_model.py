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


def test_profile_check_rejects_empty_and_blank():
    with pytest.raises(IntegrityError):
        Profile("p1", frozenset()).check()
    with pytest.raises(IntegrityError):
        Profile("", frozenset({sig("d1", 0, "A")})).check()


def test_snapshot_rejects_shared_mention_across_profiles():
    s = Snapshot(
        "2020-01-01",
        {
            "p1": Profile("p1", frozenset({sig("d1", 0, "A")})),
            "p2": Profile("p2", frozenset({sig("d1", 0, "A v2")})),
        },
        {"d1": DocumentRecord("d1", authors=("A",))},
        {},
    )
    with pytest.raises(IntegrityError) as err:
        s.validate()
    assert "p1" in str(err.value) and "p2" in str(err.value)


def test_snapshot_rejects_unknown_document():
    s = Snapshot(
        "2020-01-01",
        {"p1": Profile("p1", frozenset({sig("dX", 0, "A")}))},
        {},
        {},
    )
    with pytest.raises(IntegrityError):
        s.validate()


def test_snapshot_rejects_position_out_of_range():
    s = Snapshot(
        "2020-01-01",
        {"p1": Profile("p1", frozenset({sig("d1", 3, "A")}))},
        {"d1": DocumentRecord("d1", authors=("A",))},
        {},
    )
    with pytest.raises(IntegrityError):
        s.validate()


def test_snapshot_rejects_unknown_venue():
    s = Snapshot(
        "2020-01-01",
        {},
        {"d1": DocumentRecord("d1", venue_key="vX")},
        {},
    )
    with pytest.raises(IntegrityError):
        s.validate()


def test_snapshot_rejects_mismatched_map_keys():
    s = Snapshot(
        "2020-01-01",
        {"wrong": Profile("p1", frozenset({sig("d1", 0, "A")}))},
        {"d1": DocumentRecord("d1", authors=("A",))},
        {},
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
