"""Hash-table rebuild scheduling for ALSH-approx.

The paper (§9.2) follows the reference implementation's schedule: rebuild
the tables every 100 training samples for the first 10 000 samples, then
back off to every 1 000 samples, "to avoid time-consuming table
reconstructions".  :class:`RebuildScheduler` encodes exactly that policy
with the thresholds exposed as parameters so the ablation benches can sweep
them.
"""

from __future__ import annotations

__all__ = ["RebuildScheduler"]


class RebuildScheduler:
    """Decide after which training samples the hash tables are rebuilt.

    Parameters
    ----------
    early_every:
        Rebuild period (in samples) during the warm-up phase (paper: 100).
    late_every:
        Rebuild period after warm-up (paper: 1000).
    warmup_samples:
        Length of the warm-up phase in samples (paper: 10 000).
    """

    def __init__(
        self,
        early_every: int = 100,
        late_every: int = 1000,
        warmup_samples: int = 10_000,
    ):
        if early_every <= 0 or late_every <= 0:
            raise ValueError("rebuild periods must be positive")
        if warmup_samples < 0:
            raise ValueError("warmup_samples must be non-negative")
        self.early_every = int(early_every)
        self.late_every = int(late_every)
        self.warmup_samples = int(warmup_samples)
        self._seen = 0
        self._since_rebuild = 0
        self.rebuild_count = 0

    def current_period(self) -> int:
        """Rebuild period in force at the current sample count."""
        if self._seen < self.warmup_samples:
            return self.early_every
        return self.late_every

    def record(self, n_samples: int = 1) -> bool:
        """Record processed samples; return True if a rebuild is due.

        The caller performs the rebuild and the scheduler resets its
        counter (and counts the rebuild) when it returns True.
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        # The period in force is decided by the phase these samples *start*
        # in, so the rebuild at exactly the warm-up boundary still uses the
        # early period.
        period = self.current_period()
        self._seen += n_samples
        self._since_rebuild += n_samples
        if self._since_rebuild >= period:
            self._since_rebuild = 0
            self.rebuild_count += 1
            return True
        return False

    def state_dict(self) -> dict:
        """Mutable counters as a JSON-safe dict (checkpoint support)."""
        return {
            "seen": self._seen,
            "since_rebuild": self._since_rebuild,
            "rebuild_count": self.rebuild_count,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore counters captured by :meth:`state_dict`."""
        self._seen = int(state["seen"])
        self._since_rebuild = int(state["since_rebuild"])
        self.rebuild_count = int(state["rebuild_count"])
