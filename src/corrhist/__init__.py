"""Mining correction cases from bibliographic snapshot histories.

A snapshot pairs a document collection with author profiles (sets of
name mentions).  Comparing consecutive snapshots reveals the curators'
corrections: merges of synonymous profiles, splits of homonymous ones,
and redistributions of mentions.  This package loads snapshot series,
extracts those correction cases, packages them as test collections for
entity-resolution evaluation, scores blocking keys against them, and
generates synthetic histories with known ground truth.
"""

import importlib

__version__ = "0.1.0"

# The modules that define the public names.  A name is imported from its
# module on first use (PEP 562), so a command loads only the layers it runs.
_EXPORTS = {
    "blocking": (
        "ALL_VARIANTS", "BlockingVariant", "CaseMode", "KeyScheme", "blocking_key",
        "blocking_report_lines", "hit_rate", "name_pairs", "representative_surface",
        "strip_homonym_suffix",
    ),
    "casegraph": (
        "CaseGraph", "Edge", "EdgeType", "Node", "NodeLabel", "build_case_collection",
        "build_case_graphs", "parse_case_graph", "serialize_case_graph",
    ),
    "embedded": (
        "EmbeddedAnnotation", "annotation_from_case", "build_embedded_collection",
        "parse_annotations_file", "serialize_annotation", "validate_annotations",
        "write_annotations_file",
    ),
    "errors": (
        "CorrhistError", "FormatError", "IntegrityError", "PlanError",
        "UnknownTimeError",
    ),
    "extract": (
        "CorrectionCase", "CorrectionKind", "RawGroup", "assign_case_ids",
        "case_summary_lines", "chain_corrections", "extract_corrections",
        "is_consistent_predecessor", "raw_groups_between", "reference_predecessors",
        "reference_successors",
    ),
    "model": (
        "DocumentRecord", "History", "Profile", "Role", "Signature", "Snapshot",
        "mentions_of", "validate_date",
    ),
    "snapshot_io": (
        "SnapshotFile", "discover_snapshot_files", "load_history", "parse_snapshot",
        "snapshot_filename", "write_history", "write_snapshot", "write_snapshot_to",
    ),
    "synth": (
        "EditKind", "EditRecord", "GeneratorConfig", "GroundTruthLog", "LoggedEdit",
        "apply_edit", "default_dates", "generate", "ground_truth_lines",
        "write_generated",
    ),
}
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULES)


def __getattr__(name: str) -> object:
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
