"""Access-trace models of each training method's memory behaviour (§9.4).

Each training method touches the same logical arrays (inputs, weights,
activations, gradients) but with very different *access patterns*:

* STANDARD streams whole weight matrices row-contiguously (GEMM-friendly);
* DROPOUT, as implemented by the reference code the paper evaluates,
  computes the *full* products and multiplies in a sampled mask — so it
  streams everything STANDARD does plus the mask arrays (§9.2, §9.4);
* ADAPTIVE-DROPOUT additionally streams the data-dependent keep-probability
  arrays it constructs from the full pre-activations;
* MC-APPROX streams the forward exactly, computes its sampling
  probabilities during passes that already stream the operands, and then
  touches only a contiguous band of sampled weight rows where STANDARD
  streams the whole matrix — the §9.4 cache win;
* ALSH-APPROX gathers scattered weight *columns* (one cache line per
  element in a row-major layout) plus randomly scattered hash-table probes;
* DROPOUT_SLICED is the idealised column-sliced dropout of the paper's
  taxonomy, the scheme :mod:`repro.core.dropout` follows: fewer bytes,
  but gather-pattern locality.

Every model keeps the row-major weight layout that the paper's §9.4
argument assumes.  The trainers themselves now hold ``W`` column-major,
so their node gathers read contiguous columns; the models describe the
paper's setting, not this layout.

Replaying these traces through :class:`~repro.memsim.cache.CacheHierarchy`
reproduces the paper's relative cache-miss ordering (Dropout and
Adaptive-Dropout ≈ 24–27 % more misses than MC-approx, §9.4).

The model uses ``itemsize=1`` by default: all byte sizes are 1/8 of the
real float64 workload, which pairs with a cache hierarchy scaled by the
same factor (see :func:`profile_methods`) so the working-set-to-cache
ratios of the paper's machine are preserved at tractable simulation cost.
:func:`replay_trace` is the one replay: it runs a method's steps through
a fresh hierarchy and converts line traffic back to float64 bytes, and
the §9.4 profile, the energy model and the roofline all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .cache import default_hierarchy

__all__ = [
    "ArrayRegion",
    "MethodTraceModel",
    "TraceReplay",
    "replay_trace",
    "profile_methods",
    "estimate_training_memory",
]

Extent = Tuple[int, int]

#: Every region of a trace layout starts on a cache-line boundary.
_ALIGNMENT = 64

#: Bytes per element of the arrays the trainers hold (float64).
_REAL_ITEMSIZE = 8


class ArrayRegion:
    """A row-major 2-D array living at a base address in the traced space."""

    def __init__(self, base: int, rows: int, cols: int, itemsize: int = 8):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"region dims must be positive: {rows}x{cols}")
        self.base = int(base)
        self.rows = int(rows)
        self.cols = int(cols)
        self.itemsize = int(itemsize)

    @property
    def nbytes(self) -> int:
        return self.rows * self.cols * self.itemsize

    def row_extent(self, i: int) -> Extent:
        """The contiguous extent of row ``i``."""
        return (self.base + i * self.cols * self.itemsize, self.cols * self.itemsize)

    def rows_extents(self, row_ids: Optional[Sequence[int]] = None) -> Iterator[Extent]:
        """Contiguous extents for the given rows (all rows by default)."""
        ids = range(self.rows) if row_ids is None else row_ids
        for i in ids:
            yield self.row_extent(i)

    def column_extents(self, j: int) -> Iterator[Extent]:
        """One tiny extent per row — the strided pattern of a column walk."""
        stride = self.cols * self.itemsize
        addr = self.base + j * self.itemsize
        for _ in range(self.rows):
            yield (addr, self.itemsize)
            addr += stride


class MethodTraceModel:
    """Builds one training step's access trace for each method.

    Parameters mirror the experimental setup: ``layer_sizes`` of the MLP,
    ``batch`` size, the active fraction of the column-sampling methods and
    the row budget of MC-approx.  ``itemsize`` (1, against float64's 8)
    shrinks the *address space* the way
    :func:`~repro.memsim.cache.default_hierarchy` shrinks the caches,
    keeping simulation cheap while preserving the working-set to
    cache-size ratios.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        batch: int = 1,
        active_frac: float = 0.05,
        mc_node_frac: float = 0.1,
        itemsize: int = 1,
        seed: int = 0,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = list(layer_sizes)
        self.batch = int(batch)
        self.active_frac = float(active_frac)
        self.mc_node_frac = float(mc_node_frac)
        self.itemsize = int(itemsize)
        self.rng = np.random.default_rng(seed)

        # Regions are laid out back to back, each at the next line
        # boundary; addresses are identities for the cache, nothing more.
        self._next_base = 0
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.weights = [self._region(n_in, n_out) for n_in, n_out in pairs]
        self.acts = [self._region(batch, width) for width in self.layer_sizes]
        self.masks = [self._region(batch, n_out) for _, n_out in pairs[:-1]]
        # One big region standing in for ALSH's hash tables.
        table_bytes = max(
            64 * 1024,
            sum(w.nbytes for w in self.weights) // 2,
        )
        self.tables = self._region(table_bytes // itemsize, 1)

    def _region(self, rows: int, cols: int) -> ArrayRegion:
        region = ArrayRegion(self._next_base, rows, cols, self.itemsize)
        self._next_base += -(-region.nbytes // _ALIGNMENT) * _ALIGNMENT
        return region

    # ------------------------------------------------------------------
    # pattern helpers
    # ------------------------------------------------------------------
    def _dense_gemm(self, a: ArrayRegion, w: ArrayRegion) -> Iterator[Extent]:
        """Streaming GEMM: read all A rows, stream W rows once per batch tile."""
        yield from a.rows_extents()
        yield from w.rows_extents()

    def _column_gather(self, w: ArrayRegion, n_cols: int) -> Iterator[Extent]:
        cols = self.rng.choice(w.cols, size=max(1, n_cols), replace=False)
        for j in cols:
            yield from w.column_extents(int(j))

    def _row_band(self, w: ArrayRegion, n_rows: int) -> Iterator[Extent]:
        start = int(self.rng.integers(0, max(1, w.rows - n_rows + 1)))
        yield from w.rows_extents(range(start, start + max(1, n_rows)))

    def _hash_probes(self, n_probes: int) -> Iterator[Extent]:
        addrs = self.rng.integers(0, self.tables.nbytes - 8, size=n_probes)
        for addr in addrs:
            yield (self.tables.base + int(addr), 8)

    # ------------------------------------------------------------------
    # per-method step traces
    # ------------------------------------------------------------------
    def step_trace(self, method: str) -> Iterator[Extent]:
        """Access trace of one training step (forward + backward)."""
        builders = {
            "standard": self._trace_standard,
            "dropout": self._trace_dropout,
            "adaptive_dropout": self._trace_adaptive,
            "mc": self._trace_mc,
            "alsh": self._trace_alsh,
            "dropout_sliced": self._trace_dropout_sliced,
        }
        try:
            return builders[method]()
        except KeyError:
            raise ValueError(
                f"unknown method {method!r}; available: {sorted(builders)}"
            ) from None

    def _trace_standard(self) -> Iterator[Extent]:
        for i, w in enumerate(self.weights):
            yield from self._dense_gemm(self.acts[i], w)
            yield from self.acts[i + 1].rows_extents()
        for i in range(len(self.weights) - 1, -1, -1):
            w = self.weights[i]
            yield from w.rows_extents()  # delta propagation reads W
            yield from w.rows_extents()  # gW write + update streams W again
            yield from self.acts[i].rows_extents()

    def _trace_dropout(self) -> Iterator[Extent]:
        """Mask-based dropout (the reference implementation the paper
        evaluates): full products plus a mask pass per hidden layer."""
        n_hidden = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            yield from self._dense_gemm(self.acts[i], w)
            if i < n_hidden:
                # Mask construction + masked multiply traffic.
                yield from self.masks[i].rows_extents()
                yield from self.acts[i + 1].rows_extents()
            yield from self.acts[i + 1].rows_extents()
        for i in range(len(self.weights) - 1, -1, -1):
            w = self.weights[i]
            yield from w.rows_extents()  # delta propagation
            yield from w.rows_extents()  # weight update
            if i < n_hidden:
                yield from self.masks[i].rows_extents()
            yield from self.acts[i].rows_extents()

    def _trace_dropout_sliced(self) -> Iterator[Extent]:
        """Idealised column-sliced dropout (what repro.core.dropout runs):
        far fewer bytes, but gather-pattern locality on W."""
        n_hidden = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            yield from self.acts[i].rows_extents()
            if i < n_hidden:
                n_active = max(1, int(round(self.active_frac * w.cols)))
                yield from self._column_gather(w, n_active)
            else:
                yield from w.rows_extents()
        for i in range(len(self.weights) - 1, -1, -1):
            w = self.weights[i]
            if i < n_hidden:
                n_active = max(1, int(round(self.active_frac * w.cols)))
                yield from self._column_gather(w, n_active)  # delta prop
                yield from self._column_gather(w, n_active)  # sparse update
            else:
                yield from w.rows_extents()
                yield from w.rows_extents()
            yield from self.acts[i].rows_extents()

    def _trace_adaptive(self) -> Iterator[Extent]:
        n_hidden = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            yield from self._dense_gemm(self.acts[i], w)
            if i < n_hidden:
                # Mask construction, write, and the masked multiply re-read.
                yield from self.masks[i].rows_extents()
                yield from self.acts[i + 1].rows_extents()
                yield from self.masks[i].rows_extents()
            yield from self.acts[i + 1].rows_extents()
        for i in range(len(self.weights) - 1, -1, -1):
            w = self.weights[i]
            yield from w.rows_extents()
            yield from w.rows_extents()
            if i < n_hidden:
                yield from self.masks[i].rows_extents()
            yield from self.acts[i].rows_extents()

    def _trace_mc(self) -> Iterator[Extent]:
        for i, w in enumerate(self.weights):
            yield from self._dense_gemm(self.acts[i], w)  # exact forward
            yield from self.acts[i + 1].rows_extents()
        for i in range(len(self.weights) - 1, -1, -1):
            w = self.weights[i]
            # Probability pass re-reads the (small) activations; the W
            # column norms are accumulated during passes that already
            # stream W, so no extra full pass is charged.
            yield from self.acts[i].rows_extents()
            # Delta propagation touches only the sampled row band where
            # STANDARD streams all of W — the §9.4 cache saving.
            n_rows = max(1, int(round(self.mc_node_frac * w.rows)))
            yield from self._row_band(w, n_rows)
            # Weight update streams W once.
            yield from w.rows_extents()

    def _trace_alsh(self) -> Iterator[Extent]:
        n_hidden = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            yield from self.acts[i].rows_extents()
            if i < n_hidden:
                yield from self._hash_probes(8 * self.batch)
                n_active = max(1, int(round(self.active_frac * w.cols)))
                yield from self._column_gather(w, n_active)
            else:
                yield from w.rows_extents()
        for i in range(len(self.weights) - 1, -1, -1):
            w = self.weights[i]
            if i < n_hidden:
                n_active = max(1, int(round(self.active_frac * w.cols)))
                yield from self._column_gather(w, n_active)
                yield from self._column_gather(w, n_active)
                yield from self._hash_probes(4 * self.batch)
            else:
                yield from w.rows_extents()
                yield from w.rows_extents()
            yield from self.acts[i].rows_extents()


@dataclass(frozen=True)
class TraceReplay:
    """Cache behaviour of one method's replayed steps.

    ``report`` is the hierarchy's :meth:`~repro.memsim.cache.CacheHierarchy.report`
    over all steps.  ``dram_bytes`` (lines fetched from main memory) and
    ``cache_bytes`` (lines served by any cache level) are per step, in
    the bytes of the float64 arrays the trace stands for.
    """

    report: dict
    dram_bytes: float
    cache_bytes: float


def replay_trace(
    method: str,
    layer_sizes: Sequence[int],
    batch: int = 1,
    steps: int = 1,
    hierarchy_scale: float = 1.0 / 8.0,
    seed: int = 0,
    **model_kwargs,
) -> TraceReplay:
    """Replay ``steps`` steps of ``method``'s trace through a fresh
    :func:`~repro.memsim.cache.default_hierarchy`.

    The default ``hierarchy_scale`` of 1/8 matches the model's default
    ``itemsize=1`` (bytes scaled 8×), preserving the paper machine's
    working-set-to-cache ratios; the byte counts undo the itemsize.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    model = MethodTraceModel(layer_sizes, batch=batch, seed=seed, **model_kwargs)
    hierarchy = default_hierarchy(hierarchy_scale)
    for _ in range(steps):
        hierarchy.run_trace(model.step_trace(method))
    line = hierarchy.line_size
    unscale = _REAL_ITEMSIZE / model.itemsize
    hits = sum(level.hits for level in hierarchy.levels)
    return TraceReplay(
        report=hierarchy.report(),
        dram_bytes=hierarchy.dram_accesses * line * unscale / steps,
        cache_bytes=hits * line * unscale / steps,
    )


def profile_methods(
    layer_sizes: Sequence[int],
    methods: Sequence[str] = ("standard", "dropout", "adaptive_dropout", "mc", "alsh"),
    batch: int = 1,
    steps: int = 5,
    hierarchy_scale: float = 1.0 / 8.0,
    seed: int = 0,
    **model_kwargs,
) -> Dict[str, dict]:
    """Replay each method's step trace and report cache statistics.

    Returns ``{method: {"L1": {...}, ..., "dram_accesses": n}}``; each
    method gets a fresh hierarchy (:func:`replay_trace`) so methods do
    not warm each other's caches.
    """
    return {
        method: replay_trace(
            method, layer_sizes, batch=batch, steps=steps,
            hierarchy_scale=hierarchy_scale, seed=seed, **model_kwargs,
        ).report
        for method in methods
    }


#: Per-element optimiser slots as multiples of the weights, by the names
#: of :data:`repro.nn.optim.OPTIMIZERS` (Adam keeps two moments).
OPTIMIZER_SLOTS = {"sgd": 0, "adam": 2}


def estimate_training_memory(
    method: str,
    layer_sizes: Sequence[int],
    batch: int = 1,
    optimizer: str = "sgd",
    itemsize: int = 8,
) -> Dict[str, int]:
    """Working-set breakdown (bytes) of one method during training.

    Mirrors the §9.4 accounting: weights + activations for everyone,
    optimiser state (Adam keeps two moments), per-method extras — hash
    tables for ALSH-approx, mask arrays for the dropout family, probability
    and index buffers for MC-approx.
    """
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    weight_bytes = sum((n_in * n_out + n_out) * itemsize for n_in, n_out in pairs)
    act_bytes = sum(batch * width * itemsize for width in layer_sizes)
    grad_bytes = weight_bytes
    opt_multiplier = OPTIMIZER_SLOTS.get(optimizer)
    if opt_multiplier is None:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    breakdown = {
        "weights": weight_bytes,
        "activations": act_bytes,
        "gradients": grad_bytes,
        "optimizer_state": opt_multiplier * weight_bytes,
    }
    hidden_pairs = pairs[:-1]
    if method == "alsh":
        # L tables × (hyperplanes + one bucket entry per column).
        breakdown["hash_tables"] = sum(
            5 * ((n_in + 3) * 6 * itemsize + n_out * 8) for n_in, n_out in hidden_pairs
        )
    elif method in ("dropout", "adaptive_dropout"):
        breakdown["masks"] = sum(batch * n_out * itemsize for _, n_out in hidden_pairs)
        if method == "adaptive_dropout":
            breakdown["keep_probs"] = breakdown["masks"]
    elif method == "mc":
        breakdown["sampling_buffers"] = sum(
            (n_out + max(batch, 1)) * itemsize for _, n_out in pairs
        )
    elif method not in ("standard", "topk"):
        # "topk" is the oracle-selection ablation: no extra state at all.
        raise ValueError(f"unknown method {method!r}")
    breakdown["total"] = sum(breakdown.values())
    return breakdown
