"""Shrivastava–Li asymmetric LSH transforms for MIPS (paper Eq. 2–3).

Maximum-inner-product search is reduced to near-neighbour search by the
asymmetric pair of maps

    P(w) = [w; ‖w‖²; ‖w‖⁴; …; ‖w‖^{2m}]        (data / weight columns)
    Q(a) = [a; ½; ½; …; ½]                      (query / activations)

after rescaling the data so every ‖w‖ ≤ U < 1 and normalising the query.
Then ‖Q(a) − P(w)‖² = 1 + m/4 − 2⟨a, w⟩ + ‖w‖^{2^{m+1}}, and since the last
term vanishes as m grows, argmax ⟨a, w⟩ ≈ argmin ‖Q(a) − P(w)‖ (Eq. 3).
The paper uses m = 3 (§8.4).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["AsymmetricTransform"]


class AsymmetricTransform:
    """The (P, Q) transform pair with a fixed scaling factor U.

    Parameters
    ----------
    m:
        Number of padding terms (paper default 3).
    scale:
        U — the target maximum norm of the scaled data vectors; must be in
        (0, 1) for the ‖w‖^{2^{m+1}} residual to vanish.
    """

    def __init__(self, m: int = 3, scale: float = 0.83):
        if m < 1:
            raise ValueError(f"m must be at least 1, got {m}")
        if not 0.0 < scale < 1.0:
            raise ValueError(f"scale must be in (0, 1), got {scale}")
        self.m = int(m)
        self.scale = float(scale)

    def output_dim(self, dim: int) -> int:
        """Dimensionality of the transformed space: dim + m."""
        return dim + self.m

    # ------------------------------------------------------------------
    # data side
    # ------------------------------------------------------------------
    def fit_data_scaling(self, data: np.ndarray) -> float:
        """Scalar s such that ``max_i ‖s · data_i‖ = U``.

        An all-zero collection scales by 1.0 (nothing to normalise).
        """
        data = np.atleast_2d(data)
        max_norm = float(np.linalg.norm(data, axis=1).max())
        if max_norm == 0.0:
            return 1.0
        return self.scale / max_norm

    def transform_data(
        self, data: np.ndarray, scale: Optional[float] = None
    ) -> Tuple[np.ndarray, float]:
        """Apply P to a collection of vectors.

        Returns ``(P(s·data), s)`` where ``s`` is the scaling applied; the
        caller needs ``s`` only for diagnostics, since argmax ⟨a, w⟩ is
        invariant to a positive global rescaling of the data.

        Pass ``scale`` to reuse a previously fitted factor instead of
        refitting on ``data`` — the incremental-update path, where a
        subset must be hashed consistently with the full collection it
        belongs to.
        """
        data = np.atleast_2d(np.asarray(data, dtype=float))
        s = self.fit_data_scaling(data) if scale is None else float(scale)
        scaled = data * s
        norms_sq = (scaled * scaled).sum(axis=1, keepdims=True)
        pads = [norms_sq]
        for _ in range(self.m - 1):
            pads.append(pads[-1] * pads[-1])  # ‖w‖^{2^{i}} progression
        return np.hstack([scaled] + pads), s

    # ------------------------------------------------------------------
    # query side
    # ------------------------------------------------------------------
    def transform_query(self, queries: np.ndarray) -> np.ndarray:
        """Apply Q: l2-normalise each query and pad with m halves.

        Zero queries are padded without normalisation (they collide
        arbitrarily, which is the honest behaviour for a dead activation
        vector), and so are queries whose norm is NaN.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        dim = queries.shape[1]
        out = np.empty((queries.shape[0], dim + self.m))
        norms = np.linalg.norm(queries, axis=1, keepdims=True)
        norms[~(norms > 0.0)] = 1.0
        np.divide(queries, norms, out=out[:, :dim])
        out[:, dim:] = 0.5
        return out

    def transform_query_one(self, query: np.ndarray) -> np.ndarray:
        """Q applied to a single vector (1-D in, 1-D out)."""
        return self.transform_query(query.reshape(1, -1))[0]

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def distance_identity_residual(self, w: np.ndarray) -> float:
        """The ‖w‖^{2^{m+1}} residual term of the Eq. 3 identity.

        After scaling, this bounds how far argmin ‖Q(a) − P(w)‖ can deviate
        from argmax ⟨a, w⟩; it decays doubly exponentially in m.
        """
        w = np.asarray(w, dtype=float).reshape(-1)
        return float(np.linalg.norm(w) ** (2 ** (self.m + 1)))
