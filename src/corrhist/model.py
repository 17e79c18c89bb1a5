"""Domain model for profile histories.

A *mention* (signature) is one occurrence of a person name on a document:
document key, position in the author or editor list, and the printed surface
string.  A *profile* is a collection's interpretation grouping mentions it
believes belong to one person.  A *snapshot* is the full interpretation at one
observation date, and a *history* is an ordered sequence of snapshots.

All values are immutable after construction; snapshot equality is structural,
so two snapshots built from the same records in different insertion orders
compare equal.
"""

from __future__ import annotations

import datetime
import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from ._xml import unwritable
from .errors import IntegrityError, UnknownTimeError

# ASCII digits only (``\d`` takes any Unicode digit), matched whole (``$``
# also matches before a trailing newline).
_DATE_RE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def validate_date(value: str) -> str:
    """Check that ``value`` is an ISO-8601 calendar date and return it.

    Dates are kept as strings throughout; ISO encoding makes lexicographic
    order equal to chronological order.
    """
    if _DATE_RE.fullmatch(value) is None:
        raise ValueError(f"not an ISO date (YYYY-MM-DD): {value!r}")
    try:
        datetime.date(int(value[:4]), int(value[5:7]), int(value[8:10]))
    except ValueError:
        raise ValueError(f"impossible calendar date: {value!r}") from None
    return value


class Role(enum.Enum):
    """Whether a mention sits in a document's author list or editor list.

    The two roles are indexed independently: author position 0 and editor
    position 0 of the same document are distinct mentions.
    """

    AUTHOR = "author"
    EDITOR = "editor"


class Signature(NamedTuple):
    """One author/editor mention. Identity is (document_key, position, role);
    the surface string is mutable payload that corrections may rewrite."""

    document_key: str
    position: int
    surface: str
    role: Role = Role.AUTHOR

    @property
    def key(self) -> tuple[str, int, Role]:
        """The identity triple, without the surface."""
        return (self.document_key, self.position, self.role)

    def sort_key(self) -> tuple[str, int, bool]:
        # Authors before editors; ``role.value`` would run a Python property.
        return (self.document_key, self.position, self.role is Role.EDITOR)


@dataclass(frozen=True)
class Profile:
    """A profile and the mentions assigned to it at one observation.

    May be empty: empty profiles occur transiently around corrections.
    """

    profile_id: str
    mentions: frozenset[Signature] = frozenset()

    def check(self) -> None:
        if not self.profile_id:
            raise IntegrityError("profile id must be non-empty")
        if not self.mentions:
            raise IntegrityError(
                f"profile {self.profile_id} has no mentions; empty profiles "
                f"are represented by absence"
            )
        seen: set[tuple[str, int, Role]] = set()
        for m in self.mentions:
            if m.position < 0:
                raise IntegrityError(
                    f"profile {self.profile_id}: negative position in {m}"
                )
            if not m.surface.strip():
                raise IntegrityError(
                    f"profile {self.profile_id}: blank surface in {m}"
                )
            if m.key in seen:
                raise IntegrityError(
                    f"profile {self.profile_id}: duplicate mention {m.key}"
                )
            seen.add(m.key)


@dataclass(frozen=True)
class DocumentRecord:
    """Bibliographic metadata of one document.

    ``external_link`` is carried as an inert property; it is never resolved.
    """

    document_key: str
    title: str = ""
    year: int = 0
    venue_key: str | None = None
    authors: tuple[str, ...] = ()
    editors: tuple[str, ...] = ()
    external_link: str | None = None

    def names(self, role: Role) -> tuple[str, ...]:
        return self.authors if role is Role.AUTHOR else self.editors


@dataclass(frozen=True, eq=True)
class Snapshot:
    """The collection's state at one observation date.

    Maps are treated as immutable after construction.  ``validate`` checks
    the model invariants; it is not run automatically because snapshot
    construction sits in hot loops (parsing, synthetic edit application).
    """

    time: str
    profiles: dict[str, Profile] = field(default_factory=dict)
    documents: dict[str, DocumentRecord] = field(default_factory=dict)
    venues: dict[str, str] = field(default_factory=dict)

    def mentions_of(self, profile_id: str) -> frozenset[Signature]:
        """Mention set of a profile; empty if the profile is absent."""
        prof = self.profiles.get(profile_id)
        return prof.mentions if prof is not None else frozenset()

    def validate(self) -> None:
        """Raise IntegrityError on any invariant violation.

        Checks: per-profile and cross-profile mention uniqueness, document
        key resolution, position bounds against the document's name list for
        the matching role, venue key resolution, and that no string value
        holds a character XML 1.0 forbids (no writer could write it).
        """
        validate_date(self.time)
        _check_writable(*self.venues, *self.venues.values())
        owners: dict[tuple[str, int, Role], str] = {}
        for pid, prof in self.profiles.items():
            if pid != prof.profile_id:
                raise IntegrityError(
                    f"profile map key {pid!r} != profile id {prof.profile_id!r}"
                )
            prof.check()
            _check_writable(pid)
            for m in prof.mentions:
                _check_writable(m.document_key, m.surface)
                other = owners.get(m.key)
                if other is not None:
                    raise IntegrityError(
                        f"mention {m.key} interpreted by two profiles: "
                        f"{other} and {pid}"
                    )
                owners[m.key] = pid
                doc = self.documents.get(m.document_key)
                if doc is None:
                    raise IntegrityError(
                        f"profile {pid}: mention references unknown document "
                        f"{m.document_key!r}"
                    )
                names = doc.names(m.role)
                if m.position >= len(names):
                    raise IntegrityError(
                        f"profile {pid}: position {m.position} out of range for "
                        f"{m.role.value} list of {m.document_key} "
                        f"(length {len(names)})"
                    )
        for key, doc in self.documents.items():
            if key != doc.document_key:
                raise IntegrityError(
                    f"document map key {key!r} != record key {doc.document_key!r}"
                )
            if doc.venue_key is not None and doc.venue_key not in self.venues:
                raise IntegrityError(
                    f"document {key}: unresolved venue key {doc.venue_key!r}"
                )
            _check_writable(key, doc.title, *doc.authors, *doc.editors, doc.external_link or "")


def _check_writable(*values: str) -> None:
    for value in values:
        problem = unwritable(value)
        if problem is not None:
            raise IntegrityError(problem)


@dataclass(frozen=True)
class History:
    """An ordered sequence of snapshots with strictly increasing dates."""

    snapshots: tuple[Snapshot, ...]

    def __post_init__(self) -> None:
        if not self.snapshots:
            raise ValueError("a history needs at least one snapshot")
        times = [s.time for s in self.snapshots]
        for prev, cur in zip(times, times[1:]):
            if cur <= prev:
                raise ValueError(
                    f"snapshot dates must strictly increase: {prev} then {cur}"
                )

    def times(self) -> tuple[str, ...]:
        return tuple(s.time for s in self.snapshots)

    def at(self, time: str) -> Snapshot:
        """The snapshot observed at ``time``."""
        for snap in self.snapshots:
            if snap.time == time:
                return snap
        raise UnknownTimeError(
            f"no observation at {time}; observed dates: {', '.join(self.times())}"
        )

    @property
    def latest(self) -> Snapshot:
        return self.snapshots[-1]


def mentions_of(history: History, profile_id: str, time: str) -> frozenset[Signature]:
    """The set of mentions assigned to ``profile_id`` at observation ``time``.

    Absence means the empty interpretation.  Raises UnknownTimeError if
    ``time`` is not an observed date.
    """
    return history.at(time).mentions_of(profile_id)
