"""Command line front end.

Subcommands cover the full pipeline: ``generate`` writes a synthetic
snapshot series with a ground-truth log, ``extract`` mines correction
cases from a snapshot directory, ``case-collection`` and ``embedded``
materialize the two test-collection layouts, ``blocking`` reports key
hit rates over the mined name pairs, and ``stats`` summarizes snapshots.

Data goes to files or stdout; diagnostics go to stderr.  Exit status is
0 on success, 1 on input or processing errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence, TextIO

from . import __version__
from .blocking import blocking_report_lines, name_pairs
from .casegraph import build_case_collection
from .embedded import build_embedded_collection
from .errors import CorrhistError
from .extract import CorrectionKind, case_summary_lines, extract_corrections
from .model import History
from .snapshot_io import load_history
from .synth import GeneratorConfig, default_dates, generate, write_generated


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _open_out(path: str | None) -> TextIO:
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8")


def _write_lines(path: str | None, lines) -> None:
    out = _open_out(path)
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _load(args: argparse.Namespace) -> History:
    history = load_history(args.snapshots)
    _say(args, f"loaded {len(history.snapshots)} snapshots from {args.snapshots}")
    return history


def _cmd_generate(args: argparse.Namespace) -> int:
    dates = (
        tuple(args.dates.split(","))
        if args.dates
        else default_dates(args.observations)
    )
    config = GeneratorConfig(
        seed=args.seed,
        n_persons=args.persons,
        n_documents=args.documents,
        observation_dates=dates,
        merges=args.merges,
        splits=args.splits,
        distributes=args.distributes,
        renames=args.renames,
        new_publications=args.new_publications,
        exclusive_profiles=not args.non_exclusive,
    )
    history, log = generate(config)
    log_path = write_generated(history, log, args.out, compress=args.compress)
    counts = log.counts_by_kind()
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    _say(args, f"wrote {len(history.snapshots)} snapshots to {args.out}")
    _say(args, f"ground truth: {log_path} ({summary})")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    history = _load(args)
    cases = extract_corrections(history)
    by_kind = {kind.value: 0 for kind in CorrectionKind}
    for case in cases:
        by_kind[case.kind.value] += 1
    _write_lines(args.out, case_summary_lines(cases))
    summary = ", ".join(f"{k}={v}" for k, v in by_kind.items())
    _say(args, f"{len(cases)} correction cases ({summary})")
    return 0


def _cmd_case_collection(args: argparse.Namespace) -> int:
    history = _load(args)
    cases = extract_corrections(history)
    manifest = build_case_collection(cases, history, args.out)
    _say(args, f"{len(cases)} cases, manifest at {manifest}")
    return 0


def _cmd_embedded(args: argparse.Namespace) -> int:
    history = _load(args)
    counts = build_embedded_collection(
        history,
        args.t1,
        args.t2,
        args.out,
        compress=args.compress,
    )
    summary = ", ".join(f"{k}={counts[k]}" for k in ("merge", "split", "distribute", "all"))
    _say(args, f"embedded collection at {args.out} ({summary})")
    return 0


def _cmd_blocking(args: argparse.Namespace) -> int:
    history = _load(args)
    cases = extract_corrections(history)
    merge_cases = [c for c in cases if c.kind is CorrectionKind.MERGE]
    distribute_cases = [c for c in cases if c.kind is CorrectionKind.DISTRIBUTE]
    rows = [
        ("merge", name_pairs(merge_cases)),
        ("distribute", name_pairs(distribute_cases)),
        ("all", name_pairs(cases)),
    ]
    _write_lines(
        args.out,
        blocking_report_lines(rows, strip_suffix=not args.keep_suffix),
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    history = _load(args)
    lines = ["time\tprofiles\tdocuments\tmentions"]
    for snap in history.snapshots:
        mentions = sum(len(p.mentions) for p in snap.profiles.values())
        lines.append(
            f"{snap.time}\t{len(snap.profiles)}\t{len(snap.documents)}\t{mentions}"
        )
    _write_lines(args.out, lines)
    return 0


def _add_snapshot_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--snapshots",
        required=True,
        metavar="DIR",
        help="directory holding snapshot-DATE.xml[.gz] files",
    )


def _add_parallel_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="accepted for compatibility; has no effect (detection runs serially)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrhist",
        description="Mine correction cases from bibliographic snapshot histories.",
    )
    parser.add_argument("--version", action="version", version=f"corrhist {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet", action="store_true", help="suppress progress messages on stderr"
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    gen = commands.add_parser(
        "generate",
        parents=[common],
        help="write a synthetic snapshot series with a ground-truth log",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--persons", type=int, default=1000, metavar="N")
    gen.add_argument("--documents", type=int, default=5000, metavar="N")
    gen.add_argument(
        "--observations",
        type=int,
        default=4,
        metavar="N",
        help="number of monthly observation dates if --dates is not given",
    )
    gen.add_argument(
        "--dates",
        metavar="D1,D2,...",
        help="comma-separated observation dates (YYYY-MM-DD), overriding --observations",
    )
    gen.add_argument("--merges", type=int, default=2, metavar="N",
                     help="merge corrections per interval")
    gen.add_argument("--splits", type=int, default=1, metavar="N",
                     help="split corrections per interval")
    gen.add_argument("--distributes", type=int, default=1, metavar="N",
                     help="distribute corrections per interval")
    gen.add_argument("--renames", type=int, default=1, metavar="N",
                     help="surface renames per interval (not corrections)")
    gen.add_argument("--new-publications", type=int, default=2, metavar="N",
                     help="added documents per interval (not corrections)")
    gen.add_argument(
        "--non-exclusive",
        action="store_true",
        help="allow edits of adjacent intervals to touch the same profiles",
    )
    gen.add_argument("--compress", action="store_true", help="gzip snapshot files")
    gen.add_argument("--out", required=True, metavar="DIR")
    gen.set_defaults(func=_cmd_generate)

    ext = commands.add_parser(
        "extract",
        parents=[common], help="mine correction cases and print a TSV summary"
    )
    _add_snapshot_arg(ext)
    _add_parallel_arg(ext)
    ext.add_argument("--out", metavar="FILE", help="summary TSV (default: stdout)")
    ext.set_defaults(func=_cmd_extract)

    col = commands.add_parser(
        "case-collection",
        parents=[common], help="write before/after case graphs for every case"
    )
    _add_snapshot_arg(col)
    _add_parallel_arg(col)
    col.add_argument("--out", required=True, metavar="DIR")
    col.set_defaults(func=_cmd_case_collection)

    emb = commands.add_parser(
        "embedded",
        parents=[common],
        help="write one snapshot plus an annotations file for a snapshot pair",
    )
    _add_snapshot_arg(emb)
    _add_parallel_arg(emb)
    emb.add_argument("--t1", required=True, metavar="DATE",
                     help="snapshot time the annotations describe")
    emb.add_argument("--t2", required=True, metavar="DATE",
                     help="later snapshot time the corrections are mined from")
    emb.add_argument("--compress", action="store_true", help="gzip the snapshot file")
    emb.add_argument("--out", required=True, metavar="DIR")
    emb.set_defaults(func=_cmd_embedded)

    blk = commands.add_parser(
        "blocking",
        parents=[common], help="report blocking-key hit rates over mined name pairs"
    )
    _add_snapshot_arg(blk)
    _add_parallel_arg(blk)
    blk.add_argument(
        "--keep-suffix",
        action="store_true",
        help="treat homonym number suffixes as part of the name",
    )
    blk.add_argument("--out", metavar="FILE", help="report TSV (default: stdout)")
    blk.set_defaults(func=_cmd_blocking)

    sts = commands.add_parser(
        "stats", parents=[common], help="per-snapshot size summary"
    )
    _add_snapshot_arg(sts)
    sts.add_argument("--out", metavar="FILE", help="summary TSV (default: stdout)")
    sts.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    func: Callable[[argparse.Namespace], int] = args.func
    try:
        return func(args)
    except (CorrhistError, ValueError, OSError) as exc:
        print(f"corrhist: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
