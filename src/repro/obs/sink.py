"""JSONL trace records, sink-compatible with the experiment executor.

The executor's :class:`~repro.harness.executor.JsonlSink` writes one JSON
object per line and its resume logic only consumes records whose
``status`` field is ``"ok"``.  Trace records written here carry a
``kind`` field and *no* ``status``, so traces and sweep outcomes can
share one file: the executor ignores trace lines on resume, and
:func:`load_trace_file` ignores outcome lines.

The executor's sink appends and reads through :func:`write_trace` and
:func:`scan_jsonl`, so both kinds of line share one writer and one
reader; ``repro monitor`` tails a sink with the same line decoder,
:func:`decode_lines`.  This module imports nothing from the rest of
the package, so ``repro.obs`` never imports the packages it instruments.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = [
    "TRACE_KIND",
    "AGGREGATE_KIND",
    "trace_record",
    "write_trace",
    "scan_jsonl",
    "decode_lines",
    "load_trace_file",
]

TRACE_KIND = "trace"
AGGREGATE_KIND = "trace_aggregate"


def trace_record(
    snapshot: dict,
    label: str = "",
    key: Optional[str] = None,
    kind: str = TRACE_KIND,
    **extra: Any,
) -> Dict[str, Any]:
    """One JSON-safe trace record for a JSONL sink.

    ``key`` mirrors the executor's task key so a trace can be matched to
    its sweep outcome; ``extra`` fields (summary stats, config dumps)
    are stored verbatim.
    """
    record: Dict[str, Any] = {"kind": kind, "label": label, "snapshot": snapshot}
    if key is not None:
        record["key"] = key
    record.update(extra)
    return record


def write_trace(path: Union[str, Path], record: Dict[str, Any]) -> None:
    """Append one record to a JSONL file (created with parents)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")


def scan_jsonl(path: Union[str, Path]) -> Tuple[List[dict], int]:
    """All intact JSON records in a JSONL file plus a corrupt-line count.

    Returns ``(records, corrupt)`` where *records* keeps every
    decodable object line — trace records *and* executor outcomes — and
    *corrupt* counts non-empty lines that failed to decode (truncated
    crash-mid-write tails included).  Raises :class:`FileNotFoundError`
    for a missing path.
    """
    records: List[dict] = []
    corrupt = 0
    with open(Path(path), encoding="utf-8") as f:
        for record in decode_lines(f):
            if record is None:
                corrupt += 1
            else:
                records.append(record)
    return records, corrupt


def decode_lines(lines: Iterable[str]) -> Iterator[Optional[dict]]:
    """The JSON object on each non-blank line, or None for a line that
    does not decode to one; blank lines yield nothing."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        yield record if isinstance(record, dict) else None


def load_trace_file(path: Union[str, Path]) -> Tuple[List[dict], int]:
    """The file's trace records (executor outcomes skipped) and its
    corrupt-line count.

    Corrupt lines, a truncated crash-mid-write tail included, are
    skipped, matching the executor sink's tolerance.  Raises
    :class:`FileNotFoundError` when the file does not exist and
    :class:`ValueError` (with a one-line human message) when it is a
    directory, cannot be read, is empty or holds no trace records — so
    commands can fail cleanly instead of rendering an empty report.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    try:
        records, corrupt = scan_jsonl(path)
    except OSError as exc:  # a directory, or a file we may not read
        raise ValueError(
            f"cannot read trace file {path}: {exc.strerror or exc}"
        ) from None
    # An executor outcome line carries no kind and no snapshot.
    traces = [r for r in records if "kind" in r and "snapshot" in r]
    if not traces:
        if corrupt and not records:
            raise ValueError(
                f"no readable trace records in {path} "
                f"({corrupt} corrupt line(s))"
            )
        if records:
            raise ValueError(
                f"no trace records in {path} (found {len(records)} "
                "non-trace record(s); was it written with --trace/--store?)"
            )
        raise ValueError(f"trace file is empty: {path}")
    return traces, corrupt
