"""Synthetic collection histories with injected defects and corrections.

The generator builds an initial world of persons, profiles, and documents,
seeds it with synonym defects (one person's mentions spread over two
profiles under name variants) and homonym defects (two persons pooled in
one profile), then applies a per-interval edit plan: merges correct the
synonym defects, splits correct the homonyms, distributes shuffle mentions
between surviving profiles, renames rewrite surfaces, and new publications
grow the collection.  Every edit is recorded in a ground-truth log, which
makes generated histories an oracle for the extraction pipeline.

All randomness comes from one seeded generator and is drawn in a fixed
order, so a config value determines the output bit-for-bit.

By default the profiles touched by edits are disjoint within an interval
and against the previous interval (``exclusive_profiles``).  Under dense
observation this guarantees that no two logged edits chain into one case,
so extraction output can be compared against the log one-to-one.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .errors import PlanError
from .model import (
    DocumentRecord,
    History,
    MentionKey,
    Profile,
    Role,
    Signature,
    Snapshot,
    validate_date,
)
from .snapshot_io import _collection_paused, write_history

# The share of surfaces that abbreviate the first name, and of persons who
# have a middle initial.
_ABBREVIATION_PROBABILITY = 0.35
_MIDDLE_NAME_PROBABILITY = 0.25

_FIRST_NAMES = (
    "Alice", "Anton", "Bao", "Bettina", "Carl", "Carmen", "Chen", "Daniel",
    "Diana", "Elena", "Emil", "Fatima", "Felix", "Gao", "Greta", "Hannah",
    "Hiroshi", "Igor", "Ines", "Jan", "Jing", "Jonas", "Karin", "Kurt",
    "Lena", "Liang", "Marta", "Miguel", "Nadia", "Niels", "Olga", "Pavel",
    "Ping", "Priya", "Rafael", "Rita", "Samuel", "Sara", "Stefan", "Tanja",
    "Tomas", "Ulrike", "Viktor", "Wei", "Xin", "Yusuf", "Zhen", "Zoe",
)

_LAST_NAMES = (
    "Abel", "Baumann", "Becker", "Bianchi", "Chen", "Costa", "Dietrich",
    "Eriksson", "Fischer", "Fontana", "Garcia", "Gruber", "Haas", "Hansen",
    "Hoffmann", "Huang", "Ivanov", "Jansen", "Keller", "Kim", "Klein",
    "Kovacs", "Krause", "Kumar", "Lang", "Larsen", "Lehmann", "Li", "Lindgren",
    "Liu", "Lopez", "Maier", "Marino", "Martin", "Meyer", "Moreau", "Nagy",
    "Novak", "Olsen", "Patel", "Peters", "Popov", "Richter", "Rossi", "Roux",
    "Santos", "Sato", "Schmid", "Schneider", "Silva", "Simon", "Sørensen",
    "Tanaka", "Torres", "Vogel", "Wagner", "Walter", "Wang", "Weber", "Winter",
    "Wolf", "Yamamoto", "Zhang", "Zhou",
)

_TITLE_HEADS = (
    "On the Structure of", "A Survey of", "Efficient", "Distributed",
    "Learning", "Towards Robust", "Incremental", "Scalable", "Approximate",
    "Adaptive",
)

_TITLE_TAILS = (
    "Query Processing", "Graph Partitioning", "Entity Resolution",
    "Stream Clustering", "Index Structures", "Schema Matching",
    "Record Linkage", "Data Cleaning", "Name Disambiguation",
    "Workload Prediction",
)

_VENUE_WORDS = (
    "Data Engineering", "Information Systems", "Digital Libraries",
    "Knowledge Discovery", "Web Science", "Database Theory",
    "Information Quality", "Metadata Management",
)


class EditKind(enum.Enum):
    MERGE = "merge"
    SPLIT = "split"
    DISTRIBUTE = "distribute"
    RENAME = "rename"
    NEW_PUBLICATION = "new_publication"


@dataclass(frozen=True)
class EditRecord:
    """One edit, with everything needed to apply it to a snapshot."""

    kind: EditKind
    profiles: tuple[str, ...]
    moves: tuple[tuple[MentionKey, str, str], ...] = ()
    surface_changes: tuple[tuple[MentionKey, str], ...] = ()
    new_document: DocumentRecord | None = None
    new_assignments: tuple[tuple[MentionKey, str], ...] = ()

    def mention_keys(self) -> tuple[MentionKey, ...]:
        """The mentions this edit moves, rewrites, or adds."""
        if self.moves:
            return tuple(k for k, _f, _t in self.moves)
        if self.surface_changes:
            return tuple(k for k, _s in self.surface_changes)
        return tuple(k for k, _p in self.new_assignments)


@dataclass(frozen=True)
class LoggedEdit:
    interval: int
    edit: EditRecord


@dataclass(frozen=True)
class GroundTruthLog:
    records: tuple[LoggedEdit, ...]

    def corrections(self) -> list[LoggedEdit]:
        """The logged edits that extraction is supposed to recover."""
        wanted = {EditKind.MERGE, EditKind.SPLIT, EditKind.DISTRIBUTE}
        return [r for r in self.records if r.edit.kind in wanted]

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.edit.kind.value] = out.get(r.edit.kind.value, 0) + 1
        return out


def ground_truth_lines(log: GroundTruthLog) -> Iterator[str]:
    """Tab-separated log: interval, kind, profiles, mentions."""
    yield "interval\tkind\tprofiles\tmentions"
    for r in log.records:
        mentions = ",".join(
            f"{doc}:{pos}:{role.value}" for doc, pos, role in r.edit.mention_keys()
        )
        yield (
            f"{r.interval}\t{r.edit.kind.value}"
            f"\t{','.join(r.edit.profiles)}\t{mentions}"
        )


def default_dates(count: int, start: str = "2015-01-01") -> tuple[str, ...]:
    """``count`` monthly observation dates starting at ``start``, on its day
    of the month; ValueError names the first such date that does not exist."""
    validate_date(start)
    year, month = int(start[:4]), int(start[5:7])
    day = start[8:10]
    out = []
    for i in range(count):
        total = (month - 1) + i
        out.append(validate_date(f"{year + total // 12:04d}-{total % 12 + 1:02d}-{day}"))
    return tuple(out)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    n_persons: int = 1000
    n_documents: int = 5000
    observation_dates: tuple[str, ...] = default_dates(4)
    merges: int = 2
    splits: int = 1
    distributes: int = 1
    renames: int = 1
    new_publications: int = 2
    exclusive_profiles: bool = True

    def check(self) -> None:
        if self.n_persons < 1 or self.n_documents < 1:
            raise PlanError("need at least one person and one document")
        if len(self.observation_dates) < 2:
            raise PlanError("need at least two observation dates")
        for date in self.observation_dates:
            validate_date(date)
        for prev, cur in zip(self.observation_dates, self.observation_dates[1:]):
            if cur <= prev:
                raise PlanError(
                    f"observation dates must strictly increase: {prev}, {cur}"
                )
        for name in ("merges", "splits", "distributes", "renames", "new_publications"):
            if getattr(self, name) < 0:
                raise PlanError(f"{name} must be non-negative")

    @property
    def intervals(self) -> int:
        return len(self.observation_dates) - 1


def apply_edit(snapshot: Snapshot, edit: EditRecord) -> Snapshot:
    """Apply one edit, preserving all snapshot invariants.

    Merge empties its source profiles into the survivor and drops them;
    split moves mentions to fresh profiles; distribute moves mentions
    between profiles that stay nonempty; rename rewrites surfaces in place;
    a new publication adds a document and assigns its mentions.  Infeasible
    edits (missing mentions, occupied fresh ids, a distribute that would
    empty a participant) raise PlanError.
    """
    profiles = dict(snapshot.profiles)
    documents = snapshot.documents

    if edit.kind in (EditKind.MERGE, EditKind.SPLIT, EditKind.DISTRIBUTE):
        if not edit.moves:
            raise PlanError(f"{edit.kind.value} edit without moves")
        staged: dict[str, set[Signature]] = {}

        def stage(pid: str) -> set[Signature]:
            if pid not in staged:
                prof = profiles.get(pid)
                staged[pid] = set(prof.mentions) if prof is not None else set()
                if prof is None and edit.kind is not EditKind.SPLIT:
                    if edit.kind is EditKind.DISTRIBUTE:
                        raise PlanError(
                            f"distribute participant {pid} does not exist"
                        )
            return staged[pid]

        for key, from_pid, to_pid in edit.moves:
            source = stage(from_pid)
            sig = next((m for m in source if m.key == key), None)
            if sig is None:
                raise PlanError(
                    f"mention {key} is not held by profile {from_pid}"
                )
            source.remove(sig)
            stage(to_pid).add(sig)

        if edit.kind is EditKind.DISTRIBUTE:
            for pid, mentions in staged.items():
                if not mentions:
                    raise PlanError(
                        f"distribute would leave profile {pid} empty"
                    )
        for pid, mentions in staged.items():
            if mentions:
                profiles[pid] = Profile(pid, frozenset(mentions))
            else:
                profiles.pop(pid, None)

    elif edit.kind is EditKind.RENAME:
        if len(edit.profiles) != 1:
            raise PlanError("rename edits touch exactly one profile")
        pid = edit.profiles[0]
        prof = profiles.get(pid)
        if prof is None:
            raise PlanError(f"rename target {pid} does not exist")
        new_surface = dict(edit.surface_changes)
        mentions = set()
        for m in prof.mentions:
            replacement = new_surface.pop(m.key, None)
            if replacement is not None:
                m = Signature(m.document_key, m.position, replacement, m.role)
            mentions.add(m)
        if new_surface:
            raise PlanError(
                f"rename refers to mentions profile {pid} does not hold: "
                f"{sorted(new_surface)}"
            )
        profiles[pid] = Profile(pid, frozenset(mentions))

    elif edit.kind is EditKind.NEW_PUBLICATION:
        doc = edit.new_document
        if doc is None:
            raise PlanError("new publication edit without a document")
        if doc.document_key in snapshot.documents:
            raise PlanError(f"document {doc.document_key} already exists")
        documents = dict(snapshot.documents)
        documents[doc.document_key] = doc
        added: dict[str, set[Signature]] = {}
        for (dkey, pos, role), pid in edit.new_assignments:
            if dkey != doc.document_key:
                raise PlanError(
                    f"new mention on {dkey} does not belong to the new "
                    f"document {doc.document_key}"
                )
            names = doc.names(role)
            if pos >= len(names):
                raise PlanError(
                    f"new mention position {pos} out of range on {dkey}"
                )
            added.setdefault(pid, set()).add(Signature(dkey, pos, names[pos], role))
        for pid, sigs in added.items():
            prof = profiles.get(pid)
            old = prof.mentions if prof is not None else frozenset()
            profiles[pid] = Profile(pid, old | sigs)

    else:  # pragma: no cover - enum is closed
        raise PlanError(f"unknown edit kind {edit.kind}")

    return Snapshot(snapshot.time, profiles, documents)


@dataclass
class _Person:
    index: int
    first: str
    middle: str | None
    last: str


class _Generator:
    def __init__(self, config: GeneratorConfig):
        config.check()
        self.config = config
        self.rng = random.Random(config.seed)
        self.profile_counter = 0
        self.doc_counter = 0
        # Person behind each initial mention; splits need it to tell the
        # pooled persons of a homonym profile apart.
        self._mention_person: dict[MentionKey, int] = {}

    def _new_profile_id(self) -> str:
        self.profile_counter += 1
        return f"p{self.profile_counter:06d}"

    def _new_doc_key(self) -> str:
        self.doc_counter += 1
        return f"d{self.doc_counter:07d}"

    def _surface(self, person: _Person, suffix: str) -> str:
        rng = self.rng
        if rng.random() < _ABBREVIATION_PROBABILITY:
            parts = [f"{person.first[0]}."]
        else:
            parts = [person.first]
        if person.middle is not None and rng.random() < 0.5:
            parts.append(f"{person.middle}.")
        parts.append(person.last)
        return " ".join(parts) + suffix

    def build(self) -> tuple[History, GroundTruthLog]:
        config = self.config
        rng = self.rng
        n_intervals = config.intervals
        total_merges = config.merges * n_intervals
        total_splits = config.splits * n_intervals
        if total_merges + 2 * total_splits > config.n_persons:
            raise PlanError(
                f"plan needs {total_merges} synonym and {total_splits} homonym "
                f"defects but only {config.n_persons} persons exist"
            )

        persons = [
            _Person(
                index=i,
                first=rng.choice(_FIRST_NAMES),
                middle=(
                    rng.choice("ABCDEFGHJKLMP")
                    if rng.random() < _MIDDLE_NAME_PROBABILITY
                    else None
                ),
                last=rng.choice(_LAST_NAMES),
            )
            for i in range(config.n_persons)
        ]

        # Defect layout: the first persons host the defects, the rest are
        # plain one-profile persons usable by distribute/rename/growth.
        synonym_persons = list(range(total_merges))
        homonym_pairs = [
            (total_merges + 2 * i, total_merges + 2 * i + 1)
            for i in range(total_splits)
        ]
        plain_persons = list(range(total_merges + 2 * total_splits, config.n_persons))

        person_profiles: dict[int, list[str]] = {}
        profile_suffix: dict[str, str] = {}
        requirements: list[tuple[str, int]] = []  # profile must hold a mention of person

        def add_profile(owners: list[int]) -> str:
            pid = self._new_profile_id()
            suffix = f" {rng.randint(1, 9):04d}" if rng.random() < 0.05 else ""
            profile_suffix[pid] = suffix
            for person in owners:
                person_profiles.setdefault(person, []).append(pid)
                requirements.append((pid, person))
            return pid

        merge_queue: list[tuple[str, str]] = []
        for person in synonym_persons:
            a = add_profile([person])
            b = add_profile([person])
            merge_queue.append((a, b))
        split_queue: list[tuple[str, int, int]] = []  # profile, person x, person y
        for x, y in homonym_pairs:
            pid = add_profile([x, y])
            split_queue.append((pid, x, y))
        plain_pool: list[str] = []
        plain_person_of: dict[str, int] = {}
        for person in plain_persons:
            pid = add_profile([person])
            plain_pool.append(pid)
            plain_person_of[pid] = person

        venue_count = max(3, config.n_documents // 200)
        venues = {
            f"v{i + 1:04d}": f"{rng.choice(('Journal of', 'Symposium on', 'Workshop on'))} "
            f"{rng.choice(_VENUE_WORDS)}"
            for i in range(venue_count)
        }
        venue_keys = sorted(venues)

        # Slot schedule for the initial documents, before owners are known.
        doc_shapes: list[tuple[str, int, int]] = []  # key, n_authors, n_editors
        slots: list[tuple[int, int, Role]] = []  # doc index, position, role
        for i in range(config.n_documents):
            key = self._new_doc_key()
            n_authors = rng.choices((1, 2, 3, 4, 5), weights=(20, 30, 25, 15, 10))[0]
            n_editors = rng.choice((1, 2)) if rng.random() < 0.1 else 0
            doc_shapes.append((key, n_authors, n_editors))
            for pos in range(n_authors):
                slots.append((i, pos, Role.AUTHOR))
            for pos in range(n_editors):
                slots.append((i, pos, Role.EDITOR))
        if len(slots) < len(requirements):
            raise PlanError(
                f"{len(requirements)} profile seats but only {len(slots)} "
                f"mention slots; raise n_documents"
            )

        # Every profile seat gets one guaranteed slot; leftovers go to
        # random persons.  The shuffle decides which slots are guaranteed.
        slot_order = list(range(len(slots)))
        rng.shuffle(slot_order)
        slot_person: list[int] = [0] * len(slots)
        slot_profile: list[str] = [""] * len(slots)
        for slot_idx, (profile, person) in zip(slot_order, requirements):
            slot_person[slot_idx] = person
            slot_profile[slot_idx] = profile
        for slot_idx in slot_order[len(requirements):]:
            person = rng.randrange(config.n_persons)
            slot_person[slot_idx] = person
            slot_profile[slot_idx] = rng.choice(person_profiles[person])

        profile_mentions: dict[str, set[Signature]] = {
            pid: set() for pid in profile_suffix
        }
        documents: dict[str, DocumentRecord] = {}
        cursor = 0
        for i, (key, n_authors, n_editors) in enumerate(doc_shapes):
            authors = []
            editors = []
            for pos in range(n_authors + n_editors):
                role = Role.AUTHOR if pos < n_authors else Role.EDITOR
                real_pos = pos if role is Role.AUTHOR else pos - n_authors
                person = persons[slot_person[cursor]]
                profile = slot_profile[cursor]
                surface = self._surface(person, profile_suffix[profile])
                (authors if role is Role.AUTHOR else editors).append(surface)
                sig = Signature(key, real_pos, surface, role)
                profile_mentions[profile].add(sig)
                self._mention_person[sig.key] = person.index
                cursor += 1
            # Arguments are evaluated, and so drawn, in order: title, year,
            # venue, then link.
            documents[key] = DocumentRecord(
                document_key=key,
                title=f"{rng.choice(_TITLE_HEADS)} {rng.choice(_TITLE_TAILS)}",
                year=rng.randint(1995, 2024),
                venue_key=(venue := rng.choice(venue_keys) if rng.random() < 0.9 else None),
                venue_name=venues[venue] if venue is not None else None,
                authors=tuple(authors),
                editors=tuple(editors),
                external_link=(
                    f"https://doi.example/{key}" if rng.random() < 0.3 else None
                ),
            )

        snapshot = Snapshot(
            config.observation_dates[0],
            {pid: Profile(pid, frozenset(ms)) for pid, ms in profile_mentions.items()},
            documents,
        )
        snapshots = [snapshot]
        records: list[LoggedEdit] = []
        touched_prev: set[str] = set()

        for interval in range(n_intervals):
            touched_now: set[str] = set()
            state = snapshot

            def blocked(pids: Sequence[str]) -> bool:
                if any(p in touched_now for p in pids):
                    return True
                return self.config.exclusive_profiles and any(
                    p in touched_prev for p in pids
                )

            def pick_plain(need_mentions: int) -> str:
                for _ in range(200):
                    pid = rng.choice(plain_pool)
                    if blocked([pid]):
                        continue
                    if len(state.mentions_of(pid)) >= need_mentions:
                        return pid
                raise PlanError(
                    f"interval {interval}: could not find an untouched profile "
                    f"with {need_mentions}+ mentions; plan too dense for the pool"
                )

            edits: list[EditRecord] = []

            for _ in range(config.merges):
                if not merge_queue:
                    raise PlanError("merge plan exceeds seeded synonym defects")
                a, b = merge_queue.pop(0)
                survivor, other = (
                    (a, b)
                    if (len(state.mentions_of(a)), b) > (len(state.mentions_of(b)), a)
                    else (b, a)
                )
                moves = tuple(
                    (m.key, other, survivor)
                    for m in sorted(state.mentions_of(other), key=Signature.sort_key)
                )
                edits.append(
                    EditRecord(EditKind.MERGE, tuple(sorted((a, b))), moves=moves)
                )
                touched_now.update((a, b))

            for _ in range(config.splits):
                if not split_queue:
                    raise PlanError("split plan exceeds seeded homonym defects")
                pid, _x, y = split_queue.pop(0)
                fresh = self._new_profile_id()
                moved = tuple(
                    (m.key, pid, fresh)
                    for m in sorted(state.mentions_of(pid), key=Signature.sort_key)
                    if self._mention_person.get(m.key) == y
                )
                if not moved or len(moved) == len(state.mentions_of(pid)):
                    raise PlanError(
                        f"homonym profile {pid} lost its second person; "
                        f"cannot split"
                    )
                edits.append(
                    EditRecord(EditKind.SPLIT, (pid, fresh), moves=moved)
                )
                touched_now.update((pid, fresh))

            for _ in range(config.distributes):
                donor = pick_plain(2)
                touched_now.add(donor)
                taker = pick_plain(1)
                touched_now.add(taker)
                donor_mentions = sorted(
                    state.mentions_of(donor), key=Signature.sort_key
                )
                n_take = rng.randint(1, len(donor_mentions) - 1)
                moves = [
                    (m.key, donor, taker) for m in donor_mentions[:n_take]
                ]
                taker_mentions = sorted(
                    state.mentions_of(taker), key=Signature.sort_key
                )
                if len(taker_mentions) >= 2 and rng.random() < 0.5:
                    moves.append((taker_mentions[0].key, taker, donor))
                edits.append(
                    EditRecord(
                        EditKind.DISTRIBUTE,
                        tuple(sorted((donor, taker))),
                        moves=tuple(moves),
                    )
                )

            for _ in range(config.renames):
                pid = pick_plain(1)
                touched_now.add(pid)
                person = persons[plain_person_of[pid]]
                new_surface = self._surface(person, profile_suffix[pid])
                changes = tuple(
                    (m.key, new_surface)
                    for m in sorted(state.mentions_of(pid), key=Signature.sort_key)
                )
                edits.append(
                    EditRecord(EditKind.RENAME, (pid,), surface_changes=changes)
                )

            for _ in range(config.new_publications):
                n_authors = rng.randint(1, 3)
                recipients = []
                for _a in range(n_authors):
                    if plain_pool and rng.random() >= 0.2:
                        pid = pick_plain(1)
                    else:
                        person = _Person(
                            index=len(persons),
                            first=rng.choice(_FIRST_NAMES),
                            middle=None,
                            last=rng.choice(_LAST_NAMES),
                        )
                        persons.append(person)
                        pid = add_profile([person.index])
                        plain_pool.append(pid)
                        plain_person_of[pid] = person.index
                    touched_now.add(pid)
                    recipients.append(pid)
                key = self._new_doc_key()
                authors = []
                assignments = []
                for pos, pid in enumerate(recipients):
                    person = persons[plain_person_of[pid]]
                    surface = self._surface(person, profile_suffix[pid])
                    authors.append(surface)
                    assignments.append(((key, pos, Role.AUTHOR), pid))
                doc = DocumentRecord(
                    document_key=key,
                    title=f"{rng.choice(_TITLE_HEADS)} {rng.choice(_TITLE_TAILS)}",
                    year=rng.randint(2015, 2024),
                    venue_key=(venue := rng.choice(venue_keys)),
                    venue_name=venues[venue],
                    authors=tuple(authors),
                    editors=(),
                )
                edits.append(
                    EditRecord(
                        EditKind.NEW_PUBLICATION,
                        tuple(sorted(set(recipients))),
                        new_document=doc,
                        new_assignments=tuple(assignments),
                    )
                )

            for edit in edits:
                state = apply_edit(state, edit)
                records.append(LoggedEdit(interval, edit))

            snapshot = Snapshot(
                config.observation_dates[interval + 1], state.profiles, state.documents
            )
            snapshots.append(snapshot)
            touched_prev = touched_now

        return History(tuple(snapshots)), GroundTruthLog(tuple(records))


def generate(config: GeneratorConfig) -> tuple[History, GroundTruthLog]:
    """Generate a history realizing the config's edit plan, plus its log.

    Like a read, generation makes many records and no reference cycle, so
    automatic cyclic collection is paused while it runs.
    """
    with _collection_paused():
        return _Generator(config).build()


def write_generated(
    history: History,
    log: GroundTruthLog,
    out_dir: str | Path,
    *,
    compress: bool = False,
) -> Path:
    """Write the snapshot files with ``write_history`` (which refuses a
    directory holding snapshot files of another series) and the
    ground-truth log; returns the log path.

    Consecutive generated snapshots share every record an edit left alone,
    so each later file renders only the records the edits of its interval
    touched.  Automatic cyclic collection is paused while it writes.
    """
    out = Path(out_dir)
    with _collection_paused():
        write_history(history, out, compress=compress)
        log_path = out / "ground-truth.tsv"
        with open(log_path, "w", encoding="utf-8") as f:
            for line in ground_truth_lines(log):
                f.write(line + "\n")
    return log_path
