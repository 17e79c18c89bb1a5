"""The embedded collection: a full snapshot plus defect annotations.

The collection pairs one complete export of the earlier observation with an
annotation file describing every correction detected against a later
observation.  Algorithms process the full collection and are scored on
finding the annotated defects.

Because the two observations are typically far apart, several real-world
corrections may have coalesced into one annotation; every annotation is
marked ``coalesced="possible"`` and the manifest repeats the caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence
from xml.etree import ElementTree as ET

from ._xml import escape_attr, parse_int
from .errors import FormatError, IntegrityError
from .extract import (
    CorrectionCase,
    CorrectionKind,
    MentionKey,
    assign_case_ids,
    extract_corrections,
)
from .model import History, Role, Signature, Snapshot
from .snapshot_io import snapshot_filename, write_snapshot_to


@dataclass(frozen=True)
class EmbeddedAnnotation:
    """One annotated defect: profile states before and after correction."""

    annotation_id: str
    kind: CorrectionKind
    t_before: str
    t_after: str
    source: dict[str, tuple[Signature, ...]]
    target: dict[str, tuple[Signature, ...]]
    new_mentions: frozenset[MentionKey] = frozenset()

    def check(self) -> None:
        if not self.source or not self.target:
            raise IntegrityError(
                f"annotation {self.annotation_id}: source and target must both "
                f"be nonempty"
            )
        for side_name, side in (("source", self.source), ("target", self.target)):
            for pid, sigs in side.items():
                if not sigs:
                    raise IntegrityError(
                        f"annotation {self.annotation_id}: empty {side_name} "
                        f"profile {pid}"
                    )
                if list(sigs) != sorted(sigs, key=Signature.sort_key):
                    raise IntegrityError(
                        f"annotation {self.annotation_id}: {side_name} profile "
                        f"{pid} signatures not sorted"
                    )


def annotation_from_case(case: CorrectionCase, annotation_id: str) -> EmbeddedAnnotation:
    return EmbeddedAnnotation(
        annotation_id=annotation_id,
        kind=case.kind,
        t_before=case.t_before,
        t_after=case.t_after,
        source={
            pid: tuple(sorted(sigs, key=Signature.sort_key))
            for pid, sigs in sorted(case.source_profiles.items())
        },
        target={
            pid: tuple(sorted(sigs, key=Signature.sort_key))
            for pid, sigs in sorted(case.target_profiles.items())
        },
        new_mentions=case.new_mentions,
    )


def _signature_line(
    sig: Signature, indent: str, new_mentions: frozenset[MentionKey]
) -> str:
    line = (
        f'{indent}<signature pkey="{escape_attr(sig.document_key)}"'
        f' pos="{sig.position}" surface="{escape_attr(sig.surface)}"'
    )
    if sig.role is Role.EDITOR:
        line += ' role="editor"'
    if sig.key in new_mentions:
        line += ' new="true"'
    return line + "/>\n"


def iter_annotation_xml(a: EmbeddedAnnotation) -> Iterator[str]:
    yield (
        f'<case id="{escape_attr(a.annotation_id)}" kind="{a.kind.value}"'
        f' t_before="{a.t_before}" t_after="{a.t_after}" coalesced="possible">\n'
    )
    for tag, side, flagged in (
        ("source", a.source, frozenset()),
        ("target", a.target, a.new_mentions),
    ):
        yield f"<{tag}>\n"
        for pid in sorted(side):
            yield f'   <profile authorid="{escape_attr(pid)}">\n'
            for sig in side[pid]:
                yield _signature_line(sig, "      ", flagged)
            yield "   </profile>\n"
        yield f"</{tag}>\n"
    yield "</case>\n"


def serialize_annotation(a: EmbeddedAnnotation) -> bytes:
    """Deterministic annotation bytes (profiles and signatures sorted)."""
    return "".join(iter_annotation_xml(a)).encode("utf-8")


def _parse_side(element: ET.Element) -> tuple[dict[str, tuple[Signature, ...]], set[MentionKey]]:
    side: dict[str, tuple[Signature, ...]] = {}
    flagged: set[MentionKey] = set()
    for prof in element:
        if prof.tag != "profile":
            raise FormatError(f"unexpected <{prof.tag}> under <{element.tag}>")
        pid = prof.get("authorid")
        if not pid:
            raise FormatError("profile without authorid")
        if pid in side:
            raise FormatError(f"duplicate profile {pid!r} in <{element.tag}>")
        sigs = []
        for sub in prof:
            if sub.tag != "signature":
                raise FormatError(f"unexpected <{sub.tag}> under <profile>")
            pkey = sub.get("pkey")
            pos_raw = sub.get("pos")
            surface = sub.get("surface")
            if pkey is None or pos_raw is None or surface is None:
                raise FormatError(
                    f"profile {pid}: signature needs pkey, pos, and surface"
                )
            try:
                pos = parse_int(pos_raw)
            except ValueError:
                raise FormatError(f"non-integer signature position {pos_raw!r}") from None
            role_raw = sub.get("role", "author")
            try:
                role = Role(role_raw)
            except ValueError:
                raise FormatError(f"unknown signature role {role_raw!r}") from None
            sig = Signature(pkey, pos, surface, role)
            sigs.append(sig)
            if sub.get("new") == "true":
                flagged.add(sig.key)
        side[pid] = tuple(sigs)
    return side, flagged


def parse_annotation(data: bytes) -> EmbeddedAnnotation:
    """Structural inverse of serialize_annotation."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise FormatError(f"malformed annotation XML: {exc}") from None
    return _annotation_from_element(root)


def _annotation_from_element(root: ET.Element) -> EmbeddedAnnotation:
    if root.tag != "case":
        raise FormatError(f"expected <case> root, got <{root.tag}>")
    annotation_id = root.get("id", "")
    kind_raw = root.get("kind")
    try:
        kind = CorrectionKind(kind_raw)
    except ValueError:
        raise FormatError(f"unknown case kind {kind_raw!r}") from None
    t_before = root.get("t_before")
    t_after = root.get("t_after")
    if not t_before or not t_after:
        raise FormatError("case needs t_before and t_after")
    source: dict[str, tuple[Signature, ...]] | None = None
    target: dict[str, tuple[Signature, ...]] | None = None
    flagged: set[MentionKey] = set()
    for child in root:
        if child.tag == "source":
            source, _ = _parse_side(child)
        elif child.tag == "target":
            target, flagged = _parse_side(child)
        else:
            raise FormatError(f"unexpected <{child.tag}> under <case>")
    if source is None or target is None:
        raise FormatError("case needs one <source> and one <target>")
    annotation = EmbeddedAnnotation(
        annotation_id=annotation_id,
        kind=kind,
        t_before=t_before,
        t_after=t_after,
        source=source,
        target=target,
        new_mentions=frozenset(flagged),
    )
    annotation.check()
    return annotation


def write_annotations_file(
    annotations: Sequence[EmbeddedAnnotation],
    t_before: str,
    t_after: str,
    path: str | Path,
) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        f.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        f.write(f'<annotations t_before="{t_before}" t_after="{t_after}">\n')
        for a in annotations:
            for fragment in iter_annotation_xml(a):
                f.write(fragment)
        f.write("</annotations>\n")
    return path


def parse_annotations_file(
    data: bytes,
) -> tuple[str, str, list[EmbeddedAnnotation]]:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise FormatError(f"malformed annotations XML: {exc}") from None
    if root.tag != "annotations":
        raise FormatError(f"expected <annotations> root, got <{root.tag}>")
    t_before = root.get("t_before", "")
    t_after = root.get("t_after", "")
    return t_before, t_after, [_annotation_from_element(c) for c in root]


def validate_annotations(
    snapshot: Snapshot, annotations: Sequence[EmbeddedAnnotation]
) -> list[str]:
    """Check annotations against the exported snapshot they embed into.

    Raises IntegrityError when the snapshot itself is invalid or a source
    profile's mentions differ from its state in the snapshot; returns
    human-readable warnings for degenerate but well-formed annotations
    (identical single-profile source/target).
    """
    snapshot.validate()
    warnings: list[str] = []
    for a in annotations:
        a.check()
        for pid, sigs in a.source.items():
            if snapshot.mentions_of(pid) != frozenset(sigs):
                raise IntegrityError(
                    f"annotation {a.annotation_id}: source profile {pid} does "
                    f"not match its state in the exported snapshot"
                )
        if (
            len(a.source) == 1
            and a.source.keys() == a.target.keys()
            and all(a.source[pid] == a.target[pid] for pid in a.source)
        ):
            warnings.append(
                f"annotation {a.annotation_id} is degenerate: source and "
                f"target are identical"
            )
    return warnings


def build_embedded_collection(
    history: History,
    t1: str,
    t2: str,
    out_dir: str | Path,
    *,
    compress: bool = False,
) -> dict[str, int]:
    """Write the embedded collection for the observation pair (t1, t2).

    Exports the full earlier snapshot, detects corrections by comparing the
    two observations directly (intermediate observations are deliberately
    not consulted), and writes one annotation per correction case.  Returns
    correction counts by kind plus their total under ``"all"``.
    """
    s1 = history.at(t1)
    s2 = history.at(t2)
    if not t1 < t2:
        raise ValueError(f"need t1 < t2, got {t1} and {t2}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pair_history = History((s1, s2))
    cases = extract_corrections(pair_history)
    ids = assign_case_ids(cases)
    annotations = [
        annotation_from_case(case, case_id) for case, case_id in zip(cases, ids)
    ]

    snapshot_name = snapshot_filename(t1, compress=compress)
    write_snapshot_to(s1, out / snapshot_name, compress=compress)
    annotations_name = "annotations.xml"
    write_annotations_file(annotations, t1, t2, out / annotations_name)

    counts = {kind.value: 0 for kind in CorrectionKind}
    for case in cases:
        counts[case.kind.value] += 1
    counts["all"] = len(cases)

    with open(out / "manifest.tsv", "w", encoding="utf-8") as f:
        f.write("key\tvalue\n")
        f.write(f"snapshot_file\t{snapshot_name}\n")
        f.write(f"annotations_file\t{annotations_name}\n")
        f.write(f"t_before\t{t1}\n")
        f.write(f"t_after\t{t2}\n")
        for kind in CorrectionKind:
            f.write(f"corrections_{kind.value}\t{counts[kind.value]}\n")
        f.write(f"corrections_all\t{counts['all']}\n")
        f.write(
            "caveat\tsparse observation may coalesce several real-world "
            "corrections into one annotation; every annotation is marked "
            'coalesced="possible"\n'
        )
    return counts
