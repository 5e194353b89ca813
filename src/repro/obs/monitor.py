"""Live tailing of a run's JSONL sink: ``python -m repro monitor``.

The executor and the traced harness both append one JSON object per
line to a shared sink.  This module follows that file while a sweep is
running and prints one rolling summary line per record as it lands —
snapshots get their :data:`~repro.obs.report.HEADLINES` line (training
traces, serve and stream runs), executor outcomes their status, and
request-trace batches a count.  Corrupt or partial lines (a writer
mid-append) are skipped and retried on the next poll.

Stdlib only; records are consumed as raw dicts so the monitor never
imports the harness.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from .report import headline
from .sink import decode_lines
from .tracectx import REQUEST_TRACE_KIND

__all__ = ["follow_jsonl", "summarize_record", "monitor_sink"]


def follow_jsonl(
    path: Union[str, Path],
    follow: bool = False,
    poll: float = 0.5,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[dict]:
    """Yield decoded records from a JSONL file, optionally tailing it.

    With ``follow=False`` reads the records present now and returns.
    With ``follow=True`` keeps polling for appended lines every
    ``poll`` seconds until ``stop()`` (when given) returns True.
    Undecodable lines are skipped: a complete-but-corrupt line is
    dropped for good, while a partial final line (no newline yet) is
    left in the buffer and retried once the writer finishes it.

    Truncation and rotation are detected: when the file shrinks below
    the stored offset (a sink rewritten from scratch, or log rotation
    swapping in a fresh file), the offset and partial-line buffer reset
    so the monitor re-reads from the top instead of silently tailing
    past EOF forever.
    """
    path = Path(path)
    offset = 0
    buffer = ""
    while True:
        if path.exists():
            if path.stat().st_size < offset:
                offset = 0
                buffer = ""
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(offset)
                chunk = fh.read()
                offset = fh.tell()
            *lines, buffer = (buffer + chunk).split("\n")
            for record in decode_lines(lines):
                if record is not None:
                    yield record
        if not follow:
            return
        if stop is not None and stop():
            return
        time.sleep(poll)


def summarize_record(record: dict) -> Optional[str]:
    """One summary line for a sink record; None for unknown shapes.

    Snapshots get their headline line (see
    :data:`~repro.obs.report.HEADLINES`), executor outcomes their
    status, request-trace event batches a count.
    """
    if isinstance(record.get("snapshot"), dict):
        return headline(record)
    if "status" in record:
        label = record.get("key", record.get("label", "run"))
        line = f"[{record['status']}] {label}"
        error = record.get("error")
        if error:
            line += f": {error}"
        return line
    if record.get("kind") == REQUEST_TRACE_KIND:
        events = record.get("events", [])
        requests = {
            e.get("request") for e in events
            if isinstance(e, dict) and e.get("request")
        }
        return (
            f"[request-trace] {len(events)} event(s) "
            f"across {len(requests)} request(s)"
        )
    return None


def monitor_sink(
    path: Union[str, Path],
    follow: bool = False,
    poll: float = 0.5,
    out: Callable[[str], None] = print,
    stop: Optional[Callable[[], bool]] = None,
) -> int:
    """Print rolling summaries of a sink; returns records summarized."""
    count = 0
    for record in follow_jsonl(path, follow=follow, poll=poll, stop=stop):
        line = summarize_record(record)
        if line is not None:
            out(line)
            count += 1
    return count
