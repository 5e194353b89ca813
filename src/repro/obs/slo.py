"""Declarative SLOs evaluated against recorder snapshots.

A spec file is JSON: ``{"slos": [...]}`` where each entry names one
objective and where to read it from a snapshot::

    {"name": "p99_latency_ms",
     "histogram": "serve.latency_s", "quantile": 0.99, "scale": 1000.0,
     "max": 50.0}

    {"name": "shed_rate",
     "ratio": ["serve.shed.queue_full", "serve.requests"],
     "max": 0.05}

    {"name": "recall_at_10", "gauge": "probe.head.recall", "min": 0.9}

Exactly one source per entry — ``histogram`` (+ ``quantile``, optional
``scale``), ``gauge``, ``counter``, ``ratio`` (two counters; 0/0 reads
as 0), or ``series_last`` — and exactly one bound, ``max`` or ``min``.

Evaluation yields one :class:`SLOResult` per entry with an
*error-budget burn*: ``value / max`` for upper bounds and
``min / value`` for lower bounds, so burn ≤ 1 is healthy and burn > 1
is a violation regardless of direction.  Burns are exported as
``slo.burn.<name>`` gauges (:data:`~repro.obs.counters.SLO_BURN_PREFIX`)
so a scrape of ``/metrics`` carries the budget state, and ``python -m
repro slo-check`` exits nonzero on any violation — the CI gate.

A metric missing from the snapshot fails closed (burn = inf) unless the
entry sets ``"absent_ok": true`` (useful for probes that only fire on
some runs).  Stdlib-only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .counters import SLO_BURN_PREFIX
from .report import Row, Table, format_text, read_metric

__all__ = [
    "SLOResult",
    "load_slo_spec",
    "evaluate_slos",
    "burn_gauges",
    "attach_burn_gauges",
    "render_slo_results",
]

_SOURCES = ("histogram", "gauge", "counter", "ratio", "series_last")


@dataclass
class SLOResult:
    """Outcome of one SLO entry against one snapshot."""

    name: str
    value: Optional[float]   # None when the metric is absent
    bound: float
    kind: str                # "max" or "min"
    burn: float              # error-budget burn; > 1 means violated
    ok: bool
    detail: str = ""


def load_slo_spec(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load and validate a spec file; raises ValueError with a reason
    (FileNotFoundError for a missing file)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"SLO spec not found: {path}")
    except OSError as exc:  # a directory, or a file we may not read
        raise ValueError(f"cannot read SLO spec {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"SLO spec {path} is not valid JSON: {exc}")
    entries = payload.get("slos") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ValueError(
            f'SLO spec {path} must be an object {{"slos": [...]}} '
            "with at least one entry"
        )
    for i, entry in enumerate(entries):
        where = f"{path} entry {i}"
        if not isinstance(entry, dict) or not entry.get("name"):
            raise ValueError(f'{where}: every entry needs a "name"')
        sources = [s for s in _SOURCES if s in entry]
        if len(sources) != 1:
            raise ValueError(
                f"{where} ({entry['name']}): exactly one source of "
                f"{_SOURCES} required, got {sources or 'none'}"
            )
        if sources[0] == "histogram" and "quantile" not in entry:
            raise ValueError(
                f'{where} ({entry["name"]}): histogram entries need a '
                '"quantile" in [0, 1]'
            )
        if sources[0] == "ratio":
            ratio = entry["ratio"]
            if not (isinstance(ratio, list) and len(ratio) == 2):
                raise ValueError(
                    f'{where} ({entry["name"]}): "ratio" must be '
                    "[numerator_counter, denominator_counter]"
                )
        bounds = [b for b in ("max", "min") if b in entry]
        if len(bounds) != 1:
            raise ValueError(
                f'{where} ({entry["name"]}): exactly one of "max"/"min" '
                "required"
            )
    return entries


def evaluate_slos(
    snapshot: Optional[dict], entries: List[Dict[str, Any]]
) -> List[SLOResult]:
    """Evaluate every spec entry against one (merged) snapshot."""
    snapshot = snapshot or {}
    results: List[SLOResult] = []
    for entry in entries:
        name = entry["name"]
        kind = "max" if "max" in entry else "min"
        bound = float(entry[kind])
        value = read_metric(entry, snapshot)
        if value is None:
            if entry.get("absent_ok"):
                results.append(
                    SLOResult(name, None, bound, kind, 0.0, True, "absent (ok)")
                )
            else:
                results.append(
                    SLOResult(
                        name, None, bound, kind, math.inf, False,
                        "metric absent from snapshot",
                    )
                )
            continue
        if kind == "max":
            burn = value / bound if bound > 0 else (math.inf if value > 0 else 0.0)
        else:
            burn = bound / value if value > 0 else math.inf
        ok = burn <= 1.0
        results.append(SLOResult(name, value, bound, kind, burn, ok))
    return results


def burn_gauges(results: List[SLOResult]) -> Dict[str, float]:
    """``slo.burn.<name>`` gauge values for a result set."""
    return {SLO_BURN_PREFIX + r.name: float(r.burn) for r in results}


def attach_burn_gauges(
    snapshot: Optional[dict], entries: List[Dict[str, Any]]
) -> dict:
    """Copy of a snapshot with SLO burn gauges merged into ``gauges``.

    This is what ``--metrics-port --slo <spec>`` scrapes: the exporter
    wraps its ``snapshot_fn`` with this so every scrape carries live
    error-budget state.
    """
    snapshot = dict(snapshot or {})
    gauges = dict(snapshot.get("gauges", {}))
    for name, burn in burn_gauges(evaluate_slos(snapshot, entries)).items():
        # +Inf is JSON-hostile and useless on a dashboard: clamp.
        gauges[name] = min(burn, 1e9)
    snapshot["gauges"] = gauges
    return snapshot


def render_slo_results(results: List[SLOResult]) -> str:
    """Plain-text verdict table for ``python -m repro slo-check``."""
    rows = [
        Row(r.name, ("ok" if r.ok else "VIOLATED",
                     "absent" if r.value is None else f"{r.value:.6g}",
                     f"{r.kind} {r.bound:.6g}",
                     "inf" if math.isinf(r.burn) else f"{r.burn:.3f}"), r.detail)
        for r in results
    ]
    table = Table("SLOs", ("slo", "verdict", "value", "bound", "burn"), rows)
    violated = sum(not r.ok for r in results)
    return format_text(table) + (
        f"\n{len(results)} SLO(s), {violated} violated"
        if violated
        else f"\n{len(results)} SLO(s), all within budget"
    )
