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

    # Members are singletons that compare by identity; ``Enum.__hash__``
    # would hash the name in Python code on every set or dict operation on
    # a mention key.
    __hash__ = object.__hash__


# A mention slot: document key, position and role.
MentionKey = tuple[str, int, Role]


class Signature(NamedTuple):
    """One author/editor mention. Identity is (document_key, position, role);
    the surface string is mutable payload that corrections may rewrite."""

    document_key: str
    position: int
    surface: str
    role: Role = Role.AUTHOR

    @property
    def key(self) -> MentionKey:
        """The identity triple, without the surface."""
        return (self.document_key, self.position, self.role)

    def sort_key(self) -> tuple[str, int, bool]:
        # Authors before editors; ``role.value`` would run a Python property.
        return (self.document_key, self.position, self.role is Role.EDITOR)


class Profile(NamedTuple):
    """A profile and the mentions assigned to it at one observation.

    May be empty: empty profiles occur transiently around corrections, but
    a valid snapshot holds none.
    """

    profile_id: str
    mentions: frozenset[Signature] = frozenset()


class DocumentRecord(NamedTuple):
    """Bibliographic metadata of one document: what its record line holds.

    ``venue_key`` and ``venue_name`` are both None or both set, as a
    ``<venue>`` element carries them.  ``external_link`` is carried as an
    inert property; it is never resolved.
    """

    document_key: str
    title: str = ""
    year: int = 0
    venue_key: str | None = None
    venue_name: str | None = None
    authors: tuple[str, ...] = ()
    editors: tuple[str, ...] = ()
    external_link: str | None = None

    def names(self, role: Role) -> tuple[str, ...]:
        return self.authors if role is Role.AUTHOR else self.editors


@dataclass(frozen=True, eq=True)
class Snapshot:
    """The collection's state at one observation date: its profiles and
    its documents, each document with the venue its record line names.

    Maps are treated as immutable after construction.  ``validate`` checks
    the model invariants with the rules the snapshot reader applies to a
    file; it is not run automatically because snapshot construction sits
    in hot loops (parsing, synthetic edit application).
    """

    time: str
    profiles: dict[str, Profile] = field(default_factory=dict)
    documents: dict[str, DocumentRecord] = field(default_factory=dict)

    def mentions_of(self, profile_id: str) -> frozenset[Signature]:
        """Mention set of a profile; empty if the profile is absent."""
        prof = self.profiles.get(profile_id)
        return prof.mentions if prof is not None else frozenset()

    def validate(self) -> None:
        """Raise IntegrityError on any invariant violation.

        Checks here only what a value can break and a file cannot: the date,
        each map key against its record's id, a venue key without a name or
        a name without a key, negative positions, and characters XML 1.0
        forbids (no writer could write them).  The records go through the
        reader's record builder in the order the writer puts them in a file,
        so every other rule is checked by the same code, with the same
        message, as when the written file is read back.
        """
        # ``snapshot_io`` imports this module, so the builder is imported here.
        from .snapshot_io import _Builder

        validate_date(self.time)
        build = _Builder(self.time, None, None)
        for key in sorted(self.documents):
            doc = self.documents[key]
            if key != doc.document_key:
                raise IntegrityError(
                    f"document map key {key!r} != record key {doc.document_key!r}"
                )
            if (doc.venue_key is None) != (doc.venue_name is None):
                raise IntegrityError(_unpaired_venue(doc))
            _check_writable(
                key, doc.title, doc.venue_key or "", doc.venue_name or "",
                *doc.authors, *doc.editors, doc.external_link or "",
            )
            build.document(doc)
        for pid in sorted(self.profiles):
            prof = self.profiles[pid]
            if pid != prof.profile_id:
                raise IntegrityError(
                    f"profile map key {pid!r} != profile id {prof.profile_id!r}"
                )
            _check_writable(pid)
            for m in prof.mentions:
                if m.position < 0:
                    raise IntegrityError(f"profile {pid}: negative position in {m}")
                _check_writable(m.document_key, m.surface)
            build.profile(prof, sorted(prof.mentions, key=Signature.sort_key))
        build.snapshot()


def _unpaired_venue(doc: DocumentRecord) -> str:
    """The refusal of a document whose venue key and venue name are not
    both set: a key alone cannot be written, and a name alone would be
    lost."""
    return (
        f"document {doc.document_key}: venue key {doc.venue_key!r} and venue name "
        f"{doc.venue_name!r}: both or neither must be set"
    )


def _check_writable(*values: str) -> None:
    for value in values:
        problem = unwritable(value)
        if problem is not None:
            raise IntegrityError(problem)


@dataclass(frozen=True)
class History:
    """An ordered sequence of snapshots with strictly increasing dates.

    ``profile_changes`` holds, for each interval between adjacent
    snapshots, the ids of the profiles whose record differs, as the loader
    found them while reading the files.  A history built in memory leaves
    it None, and ``changed_profiles`` computes each set by comparison.  It
    takes no part in equality: it follows from the snapshots.
    """

    snapshots: tuple[Snapshot, ...]
    profile_changes: tuple[frozenset[str], ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.snapshots:
            raise ValueError("a history needs at least one snapshot")
        times = [s.time for s in self.snapshots]
        for prev, cur in zip(times, times[1:]):
            if cur <= prev:
                raise ValueError(
                    f"snapshot dates must strictly increase: {prev} then {cur}"
                )
        changes = self.profile_changes
        if changes is not None and len(changes) != len(times) - 1:
            raise ValueError(
                f"{len(changes)} change sets for {len(times) - 1} intervals"
            )

    def changed_profiles(self, interval: int) -> frozenset[str]:
        """Ids of the profiles whose record differs between snapshot
        ``interval`` and the next one: added, removed, or holding other
        mentions, surface-only rewrites included.

        Profiles that are the same object in both snapshots (storage the
        loader or edit application shared) are skipped without comparison.
        """
        if self.profile_changes is not None:
            return self.profile_changes[interval]
        a = self.snapshots[interval].profiles
        b = self.snapshots[interval + 1].profiles
        return frozenset(
            pid for pid in a.keys() | b.keys()
            if (old := a.get(pid)) is not (new := b.get(pid)) and old != new
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
