"""Shared builders for compact snapshot construction in tests."""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Mapping

import pytest

from corrhist.model import (
    DocumentRecord,
    History,
    Profile,
    Role,
    Signature,
    Snapshot,
)

MentionSpec = tuple  # (doc, pos, surface) or (doc, pos, surface, role)

# pytest finds the package through ``pythonpath`` in pyproject.toml; the
# tests that run ``python -m corrhist.cli`` in a subprocess need it as well.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process behind, running or ended
    and not waited for."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    left = "a running child" if pid == 0 else f"child {pid} unreaped (status {status})"
    pytest.fail(f"the test left {left}")


def sig(doc: str, pos: int, surface: str, role: Role = Role.AUTHOR) -> Signature:
    return Signature(doc, pos, surface, role)


def _as_signature(spec) -> Signature:
    if isinstance(spec, Signature):
        return spec
    return Signature(*spec)


def auto_documents(
    profiles: Mapping[str, Iterable], docs: Mapping[str, DocumentRecord] | None = None
) -> dict[str, DocumentRecord]:
    """Documents just large enough to bind every mentioned position."""
    names: dict[str, dict[Role, dict[int, str]]] = defaultdict(
        lambda: {Role.AUTHOR: {}, Role.EDITOR: {}}
    )
    for specs in profiles.values():
        for spec in specs:
            s = _as_signature(spec)
            names[s.document_key][s.role][s.position] = s.surface
    out = dict(docs) if docs else {}
    for doc, by_role in names.items():
        if doc in out:
            continue
        authors = by_role[Role.AUTHOR]
        editors = by_role[Role.EDITOR]
        out[doc] = DocumentRecord(
            document_key=doc,
            title=f"Title of {doc}",
            year=2001,
            authors=tuple(
                authors.get(i, f"Filler A{i}")
                for i in range(max(authors, default=-1) + 1)
            ),
            editors=tuple(
                editors.get(i, f"Filler E{i}")
                for i in range(max(editors, default=-1) + 1)
            ),
        )
    return out


def snap(
    time: str,
    profiles: Mapping[str, Iterable],
    docs: Mapping[str, DocumentRecord] | None = None,
    venues: Mapping[str, str] | None = None,
) -> Snapshot:
    """A validated snapshot; ``venues`` names the venue of each document
    that has a venue key and no venue name."""
    built = {
        pid: Profile(pid, frozenset(_as_signature(s) for s in specs))
        for pid, specs in profiles.items()
    }
    documents = auto_documents(profiles, docs)
    if venues:
        documents = {
            key: doc._replace(venue_name=venues[doc.venue_key])
            if doc.venue_key in venues and doc.venue_name is None else doc
            for key, doc in documents.items()
        }
    snapshot = Snapshot(time, built, documents)
    snapshot.validate()
    return snapshot


def hist(*snapshots: Snapshot) -> History:
    return History(tuple(snapshots))
