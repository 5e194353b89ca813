"""JSONL trace records, sink-compatible with the experiment executor.

The executor's :class:`~repro.harness.executor.JsonlSink` writes one JSON
object per line and its resume logic only consumes records whose
``status`` field is ``"ok"``.  Trace records written here carry a
``kind`` field and *no* ``status``, so traces and sweep outcomes can
share one file: the executor ignores trace lines on resume, and
:func:`read_traces` ignores outcome lines.

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
    "read_traces",
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
    for a missing path; callers wanting the lenient empty-list behaviour
    use :func:`read_traces`.
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


def _trace_filter(records: List[dict], kind: Optional[str]) -> List[dict]:
    out = []
    for record in records:
        if "kind" not in record or "snapshot" not in record:
            continue  # an executor outcome line, not a trace
        if kind is not None and record["kind"] != kind:
            continue
        out.append(record)
    return out


def read_traces(path: Union[str, Path], kind: Optional[str] = None) -> List[dict]:
    """All intact trace records in the file (skips executor outcomes).

    ``kind`` filters to one record kind; corrupt lines (including a
    truncated crash-mid-write tail) are skipped, matching the executor
    sink's tolerance, and a missing file reads as empty.
    """
    path = Path(path)
    if not path.exists():
        return []
    records, _ = scan_jsonl(path)
    return _trace_filter(records, kind)


def load_trace_file(
    path: Union[str, Path], kind: Optional[str] = None
) -> Tuple[List[dict], int]:
    """Strict read for CLI entry points: trace records + corrupt count.

    Raises :class:`FileNotFoundError` when the file does not exist and
    :class:`ValueError` (with a one-line human message) when it is empty
    or holds no trace records — so commands can fail cleanly instead of
    rendering an empty report.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    records, corrupt = scan_jsonl(path)
    traces = _trace_filter(records, kind)
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
