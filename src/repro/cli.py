"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run``
    Train one configuration and print the result (optionally append its
    ``ok`` outcome record to a JSONL sink that ``sweep --resume`` and
    ``Sweep.run`` resume from, and/or save the trained model).
``compare``
    Train several methods on one dataset and print a Table 2-style
    comparison.
``sweep``
    Fan a methods × depths grid out across worker processes through the
    fault-tolerant executor, streaming outcomes to a resumable JSONL file
    (``--workers``, ``--timeout``, ``--resume``, and crash-safe trainer
    checkpointing via ``--checkpoint-dir`` / ``--retry-timeouts``).
``theory``
    Print the §7 error-propagation table for a given c.
``flops``
    Print the analytical per-step FLOP table for an architecture.
``datasets``
    List the available benchmarks and their paper split sizes.
``bench``
    Run one gated perf suite and write its ``BENCH_<suite>.json``
    perf-trajectory file: ``serve`` (micro-batched vs batch-1 serving,
    exact vs ALSH head), ``stream`` (drift-triggered vs count-based
    rebuilds on a drifting stream) or ``obs`` (telemetry overhead);
    ``--quick``, ``--check``, ``--store``, ``--min-speedup``.
``serve``
    Fire a request stream through the micro-batched inference server
    (``--topk`` answers through the ALSH head, ``--smoke`` runs the CI
    serve smoke under every other flag: nominal load sheds nothing,
    overload sheds and counts).
``stream``
    Train continually on an infinite drifting stream with drift-triggered
    ALSH rebuilds, gauge-driven compaction and continuous checkpointing
    (``--smoke`` runs the CI stream smoke: a killed-and-resumed session
    must be bitwise identical to an uninterrupted one; it takes only
    ``--seed``).
``trace-report``
    Train one configuration with the observability recorder attached and
    print the span tree, the counter catalogue rollup and the measured
    vs analytical FLOP comparison (``--store`` appends the trace record
    to a JSONL file shareable with the executor sink; ``--probe-every``
    attaches the quality probes; ``--from-store`` renders a previously
    stored trace instead of training).
``report``
    Render a trace/sweep JSONL into a self-contained single-file HTML
    run report: span tree, counter rollup, time-series sparklines, the
    measured per-layer forward error overlaid on the Theorem 7.2
    analytical bound, and probe overhead accounting.
``monitor``
    Tail a live run's JSONL sink and print one rolling summary line per
    record (``--follow`` keeps polling; default prints what is there
    and exits).
``slo-check``
    Evaluate a declarative SLO spec (JSON) against a trace store
    (``--from-store``, snapshots merged) or a live ``/metrics.json``
    endpoint (``--url``) and exit nonzero when any error budget is
    burned — the CI gate behind the serve smoke.

Live telemetry rides along: ``serve`` and ``stream`` accept
``--metrics-port`` (a background ``/metrics`` + ``/healthz`` +
``/readyz`` exporter), ``serve --store`` records per-request trace
events, ``trace-report --request <id> --from-store`` reconstructs one
request's timeline, and ``sweep --metrics-out`` writes a file-based
Prometheus exposition the executor refreshes per outcome.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .core.registry import trainer_names
from .data.benchmarks import BENCHMARKS, benchmark_names
from .harness.config import ExperimentConfig
from .harness.experiment import run_experiment
from .harness.bench import add_arguments as _add_bench_arguments
from .harness.bench import run_cli as _cmd_bench
from .harness.flops import flops_table
from .harness.reporting import format_table, render_confusion
from .nn.optim import OPTIMIZERS
from .theory.error_propagation import depth_at_error_ratio, error_ratio_table

__all__ = ["build_parser", "main"]


def _bounded(convert, ok, what):
    """An argparse type: ``convert(text)``, refused in one usage line
    (exit 2, before any work) unless ``ok(value)`` holds."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


_INF = float("inf")
#: counts, cadences and sizes
_positive_int = _bounded(int, lambda v: v >= 1, "a positive integer")
#: seeds and retry counts
_non_negative_int = _bounded(int, lambda v: v >= 0, "a non-negative integer")
#: rates, timeouts, polls and the Theorem 7.2 constant c
_positive_float = _bounded(
    float, lambda v: 0.0 < v < _INF, "a finite positive number"
)
#: waits and thresholds
_non_negative_float = _bounded(
    float, lambda v: 0.0 <= v < _INF, "a finite non-negative number"
)
_data_scale = _bounded(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_port = _bounded(int, lambda v: 0 <= v <= 65535, "a port in 0..65535")


class _Given(argparse.Action):
    """Store the value and note the flag in ``args.given``: for flags a
    mode refuses when given at all, even at their default value."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given + (option_string,)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sampling-based MLP training (EDBT 2025 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one configuration")
    run.add_argument("--method", default="standard", choices=trainer_names())
    run.add_argument("--dataset", default="mnist", choices=benchmark_names())
    run.add_argument("--data-scale", type=_data_scale, default=0.02)
    run.add_argument("--hidden-layers", type=int, default=3)
    run.add_argument("--hidden-width", type=_positive_int, default=100)
    run.add_argument("--epochs", type=_positive_int, default=3)
    run.add_argument("--batch-size", type=_positive_int, default=20)
    run.add_argument("--lr", type=_positive_float, default=1e-3)
    run.add_argument("--optimizer", default="sgd", choices=sorted(OPTIMIZERS))
    run.add_argument("--seed", type=_non_negative_int, default=0)
    run.add_argument("--paper-defaults", action="store_true",
                     help="apply the §8.4 method defaults before overrides")
    run.add_argument("--store", help="append the result's outcome record to "
                                       "this JSONL sink")
    run.add_argument("--checkpoint-dir",
                     help="write crash-safe trainer checkpoints here and "
                          "resume from them when re-invoked")
    run.add_argument("--checkpoint-every", type=_positive_int, default=None,
                     help="epochs between checkpoints (default 1; "
                          "requires --checkpoint-dir)")
    run.add_argument("--save-model", help="save the trained weights (.npz)")
    run.add_argument("--confusion", action="store_true",
                     help="print the confusion matrix")

    compare = sub.add_parser("compare", help="compare methods on a dataset")
    compare.add_argument("--dataset", default="mnist", choices=benchmark_names())
    compare.add_argument("--data-scale", type=_data_scale, default=0.02)
    compare.add_argument("--hidden-layers", type=int, default=3)
    compare.add_argument("--hidden-width", type=_positive_int, default=100)
    compare.add_argument("--epochs", type=_positive_int, default=3)
    compare.add_argument(
        "--methods",
        nargs="+",
        choices=trainer_names(),
        default=["standard", "dropout", "adaptive_dropout", "alsh", "mc"],
    )
    compare.add_argument("--seed", type=_non_negative_int, default=0)

    sweep = sub.add_parser(
        "sweep", help="run a methods x depths grid through the executor"
    )
    sweep.add_argument(
        "--methods",
        nargs="+",
        choices=trainer_names(),
        default=["standard", "dropout", "adaptive_dropout", "alsh", "mc"],
    )
    sweep.add_argument("--depths", type=int, nargs="+", default=[1, 3, 5])
    sweep.add_argument("--dataset", default="mnist", choices=benchmark_names())
    sweep.add_argument("--data-scale", type=_data_scale, default=0.02)
    sweep.add_argument("--hidden-width", type=_positive_int, default=100)
    sweep.add_argument("--epochs", type=_positive_int, default=3)
    sweep.add_argument("--batch-size", type=_positive_int, default=20)
    sweep.add_argument("--lr", type=_positive_float, default=1e-3)
    sweep.add_argument("--optimizer", default="sgd", choices=sorted(OPTIMIZERS))
    sweep.add_argument("--seed", type=_non_negative_int, default=0)
    sweep.add_argument("--paper-defaults", action="store_true",
                       help="apply the §8.4 method defaults per grid point")
    sweep.add_argument("--workers", type=_positive_int, default=1,
                       help="worker processes (1 = serial)")
    sweep.add_argument("--timeout", type=_positive_float, default=None,
                       help="per-task wall-clock budget in seconds")
    sweep.add_argument("--retries", type=_non_negative_int, default=1,
                       help="retries per failing task")
    sweep.add_argument("--checkpoint-dir",
                       help="checkpoint every task's trainer here; retried "
                            "or resumed tasks continue from the last "
                            "checkpoint instead of epoch 0")
    sweep.add_argument("--checkpoint-every", type=_positive_int, default=None,
                       help="epochs between checkpoints (default 1; "
                            "requires --checkpoint-dir)")
    sweep.add_argument("--retry-timeouts", action="store_true",
                       help="retry timed-out tasks too (pairs with "
                            "--checkpoint-dir so attempts make progress)")
    sweep.add_argument("--reseed", type=_non_negative_int, default=None,
                       help="derive per-task seeds from this root seed")
    sweep.add_argument("--store", required=True,
                       help="JSONL outcome sink (enables --resume)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip tasks already completed in --store")
    sweep.add_argument("--trace", action="store_true",
                       help="trace every task and print the merged "
                            "counter rollup (aggregate appended to --store)")
    sweep.add_argument("--probe-every", type=_positive_int, default=None,
                       help="attach read-only quality probes every N "
                            "batches (requires --trace)")
    sweep.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write a Prometheus text exposition of the "
                            "merged sweep trace here, refreshed after "
                            "every task outcome (file-based scraping)")

    theory = sub.add_parser("theory", help="print the §7 error table")
    theory.add_argument("--c", type=_positive_float, default=5.0,
                        help="active-to-inactive weighted-sum ratio")
    theory.add_argument("--max-k", type=_positive_int, default=6)

    flops = sub.add_parser("flops", help="analytical per-step FLOP table")
    flops.add_argument("--arch", type=_positive_int, nargs="+",
                       default=[784, 1000, 1000, 1000, 10])
    flops.add_argument("--batch", type=_positive_int, default=20)

    sub.add_parser("datasets", help="list the paper benchmarks")

    trace = sub.add_parser(
        "trace-report", help="train one config with tracing and report"
    )
    trace.add_argument("--method", default="alsh", choices=trainer_names())
    trace.add_argument("--dataset", default="mnist", choices=benchmark_names())
    trace.add_argument("--data-scale", type=_data_scale, default=0.02)
    trace.add_argument("--hidden-layers", type=int, default=3)
    trace.add_argument("--hidden-width", type=_positive_int, default=100)
    trace.add_argument("--epochs", type=_positive_int, default=2)
    trace.add_argument("--batch-size", type=_positive_int, default=20)
    trace.add_argument("--lr", type=_positive_float, default=1e-3)
    trace.add_argument("--optimizer", default="sgd", choices=sorted(OPTIMIZERS))
    trace.add_argument("--seed", type=_non_negative_int, default=0)
    trace.add_argument("--paper-defaults", action="store_true",
                       help="apply the §8.4 method defaults before overrides")
    trace.add_argument("--store",
                       help="append the trace record to this JSONL file")
    trace.add_argument("--probe-every", type=_positive_int, default=None,
                       help="attach read-only quality probes every N batches")
    trace.add_argument("--from-store", metavar="PATH",
                       help="render the traces already stored in this "
                            "JSONL file instead of training")
    trace.add_argument("--request", metavar="ID", default=None,
                       help="with --from-store: reconstruct this request "
                            "id's timeline from the store's request-trace "
                            "events (written by serve --store)")

    report = sub.add_parser(
        "report", help="render a trace JSONL as a single-file HTML report"
    )
    report.add_argument("trace", help="trace/sweep JSONL file to render")
    report.add_argument("--out", default="report.html",
                        help="output HTML path (default report.html)")
    report.add_argument("--title", default=None,
                        help="report title (defaults to the trace filename)")
    report.add_argument("--theory-c", type=_positive_float, default=5.0,
                        help="c for the Theorem 7.2 bound overlay "
                             "(((c+1)/c)^k - 1); default 5.0")
    report.add_argument("--no-theory", action="store_true",
                        help="omit the analytical bound overlay")

    monitor = sub.add_parser(
        "monitor", help="tail a run's JSONL sink with rolling summaries"
    )
    monitor.add_argument("sink", help="JSONL sink file to watch")
    monitor.add_argument("--follow", "-f", action="store_true",
                         help="keep polling for new records (default: "
                              "print what is there and exit)")
    monitor.add_argument("--poll", type=_positive_float, default=0.5,
                         help="seconds between polls with --follow")

    slo = sub.add_parser(
        "slo-check",
        help="evaluate an SLO spec against a trace store or live endpoint",
    )
    slo.add_argument("spec", help="JSON SLO spec file (see docs/observability.md)")
    source = slo.add_mutually_exclusive_group(required=True)
    source.add_argument("--from-store", metavar="PATH",
                        help="evaluate against the merged snapshots of "
                             "this trace JSONL store")
    source.add_argument("--url", metavar="URL",
                        help="evaluate against a live exporter's base URL "
                             "(fetches <url>/metrics.json)")

    _add_bench_arguments(sub.add_parser(
        "bench", help="run a gated perf suite and write BENCH_<suite>.json"
    ))

    serve = sub.add_parser(
        "serve", help="fire requests through the micro-batched inference server"
    )
    serve.add_argument("--model", default=None, metavar="PATH",
                       help="MLP archive (.npz, as run --save-model "
                            "writes) to serve (default: a seeded demo MLP)")
    serve.add_argument("--version", default=None,
                       help="pin the checkpoint's content digest")
    serve.add_argument("--requests", type=_positive_int, default=None,
                       help="number of requests to fire (default 256, "
                            "or 1000 with --smoke)")
    serve.add_argument("--topk", type=_positive_int, default=None, metavar="K",
                       help="serve top-k answers through the ALSH head "
                            "instead of full log-probability rows")
    serve.add_argument("--exact", action="store_true",
                       help="with --topk: use the exact full-GEMM head")
    serve.add_argument("--max-batch", type=_positive_int, default=32)
    serve.add_argument("--max-wait", type=_non_negative_float, default=0.002,
                       help="micro-batch collection window in seconds")
    serve.add_argument("--seed", type=_non_negative_int, default=0)
    serve.add_argument("--smoke", action="store_true",
                       help="run the CI serve smoke (nominal load sheds "
                            "nothing, overload sheds and counts) and exit")
    serve.add_argument("--metrics-port", type=_port, default=None, metavar="PORT",
                       help="serve /metrics, /healthz and /readyz on this "
                            "port while requests run (0 picks a free port)")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="append the serve trace snapshot and the "
                            "per-request trace events to this JSONL file")
    serve.add_argument("--slo", default=None, metavar="SPEC",
                       help="with --metrics-port: evaluate this SLO spec "
                            "per scrape and expose live slo.burn.* gauges")

    stream = sub.add_parser(
        "stream", help="train continually on an infinite drifting stream"
    )
    # --smoke refuses each _Given flag; only --seed applies to it.
    stream.set_defaults(given=())
    stream.add_argument("--batches", type=_positive_int, default=500,
                        action=_Given,
                        help="absolute stream position to train to "
                             "(default 500; resumes count from a "
                             "checkpoint when --checkpoint-dir is set)")
    stream.add_argument("--rebuild", choices=("drift", "count", "none"),
                        default="drift", action=_Given,
                        help="table maintenance policy (default drift)")
    stream.add_argument("--drift-threshold", type=_non_negative_float,
                        default=0.05, action=_Given,
                        help="relative column-drift threshold that "
                             "triggers a re-hash (default 0.05)")
    stream.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        action=_Given,
                        help="checkpoint continuously into DIR and resume "
                             "from it if a checkpoint exists")
    stream.add_argument("--checkpoint-every", type=_positive_int, default=100,
                        action=_Given,
                        help="batches between checkpoints (default 100)")
    stream.add_argument("--seed", type=_non_negative_int, default=0)
    stream.add_argument("--smoke", action="store_true",
                        help="run the CI stream smoke (kill-resume "
                             "bitwise equality) and exit; takes no "
                             "flag but --seed")
    stream.add_argument("--metrics-port", type=_port, default=None,
                        metavar="PORT", action=_Given,
                        help="serve /metrics, /healthz and /readyz on "
                             "this port while the stream trains "
                             "(0 picks a free port)")
    stream.add_argument("--store", default=None, metavar="PATH",
                        action=_Given,
                        help="append the stream trace snapshot to this "
                             "JSONL file when the run finishes")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The one config of ``run`` and ``trace-report``.

    Raises ``ValueError`` for flags that name no config, such as
    ``--paper-defaults`` with a method that has none.
    """
    shared = dict(
        dataset=args.dataset,
        data_scale=args.data_scale,
        hidden_layers=args.hidden_layers,
        hidden_width=args.hidden_width,
        epochs=args.epochs,
        seed=args.seed,
    )
    if args.paper_defaults:
        return ExperimentConfig.paper_default(
            args.method, batch_size=args.batch_size, **shared
        )
    return ExperimentConfig(
        method=args.method,
        batch_size=args.batch_size,
        lr=args.lr,
        optimizer=args.optimizer,
        **shared,
    )


def _cmd_run(args) -> int:
    from .data.benchmarks import load_benchmark
    from .harness.experiment import build_network

    if args.checkpoint_every is not None and not args.checkpoint_dir:
        print("error: --checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = load_benchmark(cfg.dataset, scale=cfg.data_scale, seed=cfg.seed)
    network = build_network(cfg, data)
    result = run_experiment(
        cfg,
        dataset=data,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        network=network,
    )
    print(result.summary())
    if args.confusion:
        print(render_confusion(result.confusion))
    if args.store:
        from .harness.executor import JsonlSink, TaskOutcome

        JsonlSink(args.store).append_outcome(
            TaskOutcome(index=0, key=cfg.key(), status="ok", result=result,
                        attempts=1, duration=result.train_time)
        )
        print(f"appended to {args.store}")
    if args.save_model:
        from .nn.serialize import save_mlp

        path = save_mlp(network, args.save_model)
        print(f"model saved to {path}")
    return 0


def _cmd_compare(args) -> int:
    from .data.benchmarks import load_benchmark

    try:
        configs = [
            ExperimentConfig.paper_default(
                method,
                batch_size=1 if method in ("alsh",) else 20,
                hidden_layers=args.hidden_layers,
                hidden_width=args.hidden_width,
                epochs=args.epochs,
                seed=args.seed,
            )
            for method in args.methods
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = load_benchmark(args.dataset, scale=args.data_scale, seed=args.seed)
    rows = []
    for cfg in configs:
        result = run_experiment(cfg, dataset=data)
        rows.append(
            [cfg.label(), result.test_accuracy, result.time_per_epoch,
             result.pred_entropy]
        )
    print(
        format_table(
            ["method", "accuracy", "time/epoch (s)", "pred entropy"],
            rows,
            title=f"{args.dataset}, {args.hidden_layers} hidden layers",
        )
    )
    return 0


def _load_traces_or_fail(path):
    """Load a trace JSONL for a CLI command, failing with one clear line.

    Returns ``(traces, corrupt)`` or ``(None, 0)`` after printing the
    error to stderr (satellite: no tracebacks for empty/missing/corrupt
    files; corrupt lines in otherwise-good files are skipped with a
    warning count).
    """
    from .obs import load_trace_file

    try:
        traces, corrupt = load_trace_file(path)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 0
    if corrupt:
        print(
            f"warning: skipped {corrupt} corrupt line(s) in {path}",
            file=sys.stderr,
        )
    return traces, corrupt


def _cmd_trace_report(args) -> int:
    from .data.benchmarks import load_benchmark
    from .harness.flops import method_step_flops
    from .obs import (
        InMemoryRecorder,
        derived_metrics,
        merge_snapshots,
        render_trace,
        trace_record,
        write_trace,
    )
    from .obs.counters import FLOPS_ACTUAL, LSH_CANDIDATES, TRAIN_BATCHES

    if args.request is not None:
        from .obs import (
            read_trace_events,
            reconstruct_request,
            render_request_timeline,
            scan_jsonl,
        )

        if not args.from_store:
            print("error: --request requires --from-store (request-trace "
                  "events live in a serve --store file)", file=sys.stderr)
            return 2
        try:
            records, corrupt = scan_jsonl(args.from_store)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if corrupt:
            print(f"warning: skipped {corrupt} corrupt line(s) in "
                  f"{args.from_store}", file=sys.stderr)
        events = read_trace_events(records)
        try:
            timeline = reconstruct_request(events, args.request)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(render_request_timeline(timeline))
        return 0

    if args.from_store:
        traces, _ = _load_traces_or_fail(args.from_store)
        if traces is None:
            return 2
        merged = merge_snapshots([t["snapshot"] for t in traces])
        print(
            render_trace(
                merged,
                title=f"trace: {len(traces)} record(s) from {args.from_store}",
            )
        )
        return 0

    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = load_benchmark(cfg.dataset, scale=cfg.data_scale, seed=cfg.seed)
    recorder = InMemoryRecorder()
    result = run_experiment(
        cfg, dataset=data, recorder=recorder, probe_every=args.probe_every
    )
    snapshot = result.trace
    print(result.summary())
    print(render_trace(snapshot, title=f"trace: {cfg.label()} on {cfg.dataset}"))

    # Measured GEMM work vs the analytical per-step model.  The model
    # includes element-wise passes and sampling overhead that the GEMM
    # counters deliberately exclude, so the gap quantifies bookkeeping.
    counters = snapshot["counters"]
    steps = counters.get(TRAIN_BATCHES, 0)
    sizes = (
        [data.input_dim]
        + [cfg.hidden_width] * cfg.hidden_layers
        + [data.n_classes]
    )
    model = method_step_flops(
        cfg.method, sizes, batch=cfg.batch_size, **cfg.method_kwargs
    )
    model_total = model.total * steps
    measured = counters.get(FLOPS_ACTUAL, 0)
    print("model vs measured:")
    print(f"  analytical model   {model_total:>16,.0f} FLOPs "
          f"({steps} steps x {model.total:,.0f})")
    print(f"  measured (GEMM)    {measured:>16,.0f} FLOPs")
    if measured:
        print(f"  model/measured     {model_total / measured:>16.3f}  "
              "(element-wise + sampling overhead vs pure GEMM)")

    if args.store:
        derived = derived_metrics(snapshot)
        record = trace_record(
            snapshot,
            label=cfg.label(),
            key=cfg.key(),
            summary={
                "test_accuracy": result.test_accuracy,
                "flops.skipped": derived.get("flops.skipped", 0),
                "lsh.candidates": counters.get(LSH_CANDIDATES, 0),
                "model_step_flops": model.total,
                "measured_actual_flops": measured,
            },
        )
        write_trace(args.store, record)
        print(f"trace appended to {args.store}")
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from .obs import merge_snapshots, render_html_report
    from .obs.html import forward_error_by_layer
    from .theory.error_propagation import error_ratio

    traces, corrupt = _load_traces_or_fail(args.trace)
    if traces is None:
        return 2
    merged = merge_snapshots([t["snapshot"] for t in traces])

    # Theorem 7.2 overlay: the analytical bound is computed here (obs
    # never imports theory) for exactly the layers the probes measured.
    theory_bound = None
    theory_label = None
    if not args.no_theory:
        layers = [k for k, _ in forward_error_by_layer(merged)]
        if layers:
            theory_bound = [(k, error_ratio(args.theory_c, k)) for k in layers]
            theory_label = f"Theorem 7.2 bound at c = {args.theory_c:g}"

    title = args.title or f"repro run report: {Path(args.trace).name}"
    html = render_html_report(
        traces,
        title=title,
        merged=merged,
        theory_bound=theory_bound,
        theory_label=theory_label,
        corrupt=corrupt,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html, encoding="utf-8")
    print(f"report written to {out} ({len(traces)} trace record(s))")
    return 0


def _cmd_monitor(args) -> int:
    from pathlib import Path

    from .obs import monitor_sink

    if not args.follow and not Path(args.sink).exists():
        print(f"error: sink file not found: {args.sink}", file=sys.stderr)
        return 2
    try:
        count = monitor_sink(args.sink, follow=args.follow, poll=args.poll)
        if not args.follow:
            print(f"({count} record(s) in {args.sink})")
    except KeyboardInterrupt:
        pass
    except BrokenPipeError:
        # The reader closed the pipe (`monitor S | head`): stop quietly,
        # and give the interpreter's final flush somewhere to write.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_sweep(args) -> int:
    from .harness.executor import ExperimentExecutor, ExperimentTask
    from .harness.sweeps import Sweep

    if args.checkpoint_every is not None and not args.checkpoint_dir:
        print("error: --checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    if args.probe_every is not None and not args.trace:
        print("error: --probe-every requires --trace (probes only do "
              "work with a recorder attached)", file=sys.stderr)
        return 2

    try:
        base = ExperimentConfig(
            dataset=args.dataset,
            data_scale=args.data_scale,
            hidden_width=args.hidden_width,
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            optimizer=args.optimizer,
            seed=args.seed,
        )
        sweep = Sweep(
            base,
            {"method": args.methods, "hidden_layers": args.depths},
            paper_defaults=args.paper_defaults,
        )
        configs = list(sweep.configs())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"sweep: {len(configs)} configurations "
        f"({len(args.methods)} methods x {len(args.depths)} depths), "
        f"{args.workers} worker(s), sink {args.store}"
    )

    def on_outcome(outcome):
        cfg = configs[outcome.index]
        if outcome.ok:
            print(f"  [{outcome.status}] {outcome.result.summary()}")
        else:
            reason = (outcome.error or "").strip().splitlines()[-1]
            print(
                f"  [{outcome.status}] {cfg.label()} depth={cfg.hidden_layers} "
                f"after {outcome.attempts} attempt(s): {reason}"
            )

    executor = ExperimentExecutor(
        max_workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        retry_timeouts=args.retry_timeouts,
        sink=args.store,
        task_fn=ExperimentTask(
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            traced=args.trace,
            probe_every=args.probe_every,
        ),
        metrics_path=args.metrics_out,
    )
    outcomes = executor.run(
        configs, resume=args.resume, reseed=args.reseed, callback=on_outcome
    )
    if args.trace:
        from .harness.executor import aggregate_traces
        from .obs import AGGREGATE_KIND, render_counters, trace_record, write_trace

        aggregate = aggregate_traces(outcomes)
        if aggregate is not None:
            print("merged trace counters across the sweep:")
            print(render_counters(aggregate))
            write_trace(
                args.store,
                trace_record(
                    aggregate, label="sweep-aggregate", kind=AGGREGATE_KIND
                ),
            )
    rows = []
    for outcome, cfg in zip(outcomes, configs):
        acc = outcome.result.test_accuracy if outcome.ok else float("nan")
        rows.append(
            [cfg.label(), cfg.hidden_layers, outcome.status, outcome.attempts, acc]
        )
    print(
        format_table(
            ["method", "depth", "status", "attempts", "accuracy"],
            rows,
            title=f"sweep on {args.dataset} (results in {args.store})",
        )
    )
    failed = sum(not o.ok for o in outcomes)
    if args.metrics_out:
        print(f"metrics exposition written to {args.metrics_out}")
    if failed:
        print(f"{failed}/{len(outcomes)} tasks failed; "
              f"re-run with --resume to retry them")
    return 1 if failed else 0


def _cmd_theory(args) -> int:
    table = error_ratio_table(c=args.c, max_k=args.max_k)
    print(
        format_table(
            ["k"] + [str(k) for k in range(1, args.max_k + 1)],
            [["error/estimate"] + [f"{v:.2f}" for v in table]],
            title=f"Theorem 7.2 error-to-estimate ratio, c = {args.c}",
        )
    )
    print(
        f"error dominates the estimate from depth "
        f"{depth_at_error_ratio(args.c, 1.0)}"
    )
    return 0


def _cmd_flops(args) -> int:
    if len(args.arch) < 2:
        print("error: --arch needs an input and an output size at least",
              file=sys.stderr)
        return 2
    table = flops_table(args.arch, batch=args.batch, keep_prob=0.05,
                        active_frac=0.2, k=10)
    std = table["standard"].total
    rows = [
        [name, f.forward / 1e6, f.backward / 1e6, f.overhead / 1e6,
         f.total / 1e6, std / f.total]
        for name, f in table.items()
    ]
    print(
        format_table(
            ["method", "fwd (MFLOP)", "bwd (MFLOP)", "overhead (MFLOP)",
             "total (MFLOP)", "speedup vs standard"],
            rows,
            title=f"arch {args.arch}, batch {args.batch}",
            float_fmt="{:.2f}",
        )
    )
    return 0


def _cmd_datasets(args) -> int:
    rows = [
        [name, "x".join(map(str, spec.shape)), spec.n_classes,
         spec.n_train, spec.n_test, spec.n_val]
        for name, spec in BENCHMARKS.items()
    ]
    print(
        format_table(
            ["name", "shape", "classes", "train", "test", "val"],
            rows,
            title="Paper benchmarks (§8.2) — synthetic equivalents",
        )
    )
    return 0


def _cmd_serve(args) -> int:
    from .serve import server

    for flag, given, needed, value in (
        ("--exact", args.exact, "--topk", args.topk),
        ("--version", args.version, "--model", args.model),
        ("--slo", args.slo, "--metrics-port", args.metrics_port),
    ):
        if given and value is None:
            print(f"error: {flag} requires {needed}", file=sys.stderr)
            return 2
    slo = None
    if args.slo:
        from .obs import load_slo_spec

        try:
            slo = load_slo_spec(args.slo)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.model is not None:
        from .serve.registry import load_servable

        try:
            model = load_servable(args.model, version=args.version)
        except FileNotFoundError:
            print(f"error: model file not found: {args.model}", file=sys.stderr)
            return 2
        except ValueError as exc:  # corrupt, not an MLP, wrong --version
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        model = server.seeded_servable(seed=args.seed)
    if args.requests is None:
        args.requests = 1000 if args.smoke else 256
    mode = "topk" if args.topk is not None else "logproba"
    flags = dict(
        requests=args.requests, seed=args.seed, topk=args.topk,
        exact=args.exact, max_batch=args.max_batch, max_wait=args.max_wait,
        metrics_port=args.metrics_port, slo=slo, store=args.store,
    )
    try:
        if args.smoke:
            return server.run_smoke(model=model, **flags)
        served = server.serve_session(
            model, label=f"serve-{mode}", verbose=True, **flags
        )
    except ValueError as exc:  # a mode or --topk the model cannot answer
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = served["stats"]
    print(f"model {model.name}@{model.version} (mlp), mode {mode}")
    print(
        f"{served['ok']}/{args.requests} served, {served['shed']} shed, "
        f"{served['failed']} failed, "
        f"{served['snapshot']['counters'].get('serve.batches', 0)} batches"
    )
    if stats["latency_p50"] is not None:
        print(f"latency p50 {stats['latency_p50'] * 1e3:.2f}ms, "
              f"p99 {stats['latency_p99'] * 1e3:.2f}ms")
    return 0 if served["failed"] == 0 else 1


def _cmd_stream(args) -> int:
    from .stream import make_stream_trainer, run_smoke

    if args.smoke:
        if args.given:
            print(f"error: --smoke runs a fixed kill-resume scenario and "
                  f"takes no {', '.join(args.given)}", file=sys.stderr)
            return 2
        return run_smoke(seed=args.seed)
    recorder = None
    metrics = None
    if args.metrics_port is not None or args.store:
        from .obs import InMemoryRecorder

        recorder = InMemoryRecorder()
    st = make_stream_trainer(
        rebuild=args.rebuild,
        drift_threshold=args.drift_threshold,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        seed=args.seed,
        recorder=recorder,
    )
    if args.metrics_port is not None:
        from .obs import MetricsServer

        metrics = MetricsServer(recorder.snapshot, port=args.metrics_port)
        print(f"metrics: serving {metrics.url}/metrics")
    try:
        summary = st.run(args.batches, verbose=True)
    finally:
        if metrics is not None:
            metrics.close()
    if args.store:
        from .obs import trace_record, write_trace

        write_trace(
            args.store,
            trace_record(
                recorder.snapshot(),
                label=f"stream-{args.rebuild}",
                elapsed=summary["elapsed_s"],
            ),
        )
        print(f"trace appended to {args.store}")
    acc = summary["eval_history"][-1][1] if summary["eval_history"] else None
    print(
        f"stream: {summary['batches']} batches "
        f"({summary['trained_batches']} this session, "
        f"{summary['samples_per_s']:.0f} samples/s), "
        f"policy {summary['rebuild_mode']}, "
        f"{summary['rebuilds']} rebuilds, "
        f"{summary['compactions']} compactions, "
        f"{summary['checkpoints']} checkpoints"
        + (f", acc {acc:.3f}" if acc is not None else "")
    )
    return 0


def _cmd_slo_check(args) -> int:
    from .obs import (
        evaluate_slos,
        load_slo_spec,
        merge_snapshots,
        render_slo_results,
    )

    try:
        entries = load_slo_spec(args.spec)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.from_store:
        traces, _ = _load_traces_or_fail(args.from_store)
        if traces is None:
            return 2
        snapshot = merge_snapshots([t["snapshot"] for t in traces])
        source = args.from_store
    else:
        import json
        from urllib.error import URLError
        from urllib.request import urlopen

        url = args.url.rstrip("/") + "/metrics.json"
        try:
            with urlopen(url, timeout=10.0) as resp:
                snapshot = json.loads(resp.read().decode("utf-8"))
        except (URLError, OSError, ValueError) as exc:
            print(f"error: could not fetch {url}: {exc}", file=sys.stderr)
            return 2
        source = url
    results = evaluate_slos(snapshot, entries)
    print(f"SLO check: {args.spec} against {source}")
    print(render_slo_results(results))
    return 1 if any(not r.ok for r in results) else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "theory": _cmd_theory,
        "flops": _cmd_flops,
        "datasets": _cmd_datasets,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "stream": _cmd_stream,
        "trace-report": _cmd_trace_report,
        "report": _cmd_report,
        "monitor": _cmd_monitor,
        "slo-check": _cmd_slo_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
