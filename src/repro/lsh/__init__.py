"""Locality-sensitive hashing substrate.

Signed-random-projection and winner-take-all hashing, the multi-table
index over flat bucket arrays (:class:`LSHIndex`), the Shrivastava–Li
asymmetric transforms reducing maximum-inner-product search to
near-neighbour search, and the rebuild scheduler ALSH-approx uses during
training.
"""

from .alsh import AsymmetricTransform
from .diagnostics import (
    BucketStats,
    bucket_stats,
    candidate_size_profile,
    recall_at_k,
)
from .mips import MIPSIndex, exact_mips
from .rebuild import RebuildScheduler
from .drift import ColumnDriftTracker
from .dwta import DensifiedWTA, FusedDWTA
from .srp import FusedSRP, SignedRandomProjection, collision_probability, pack_bits
from .tables import HASH_FAMILIES, LSHIndex

__all__ = [
    "SignedRandomProjection",
    "DensifiedWTA",
    "FusedSRP",
    "FusedDWTA",
    "pack_bits",
    "HASH_FAMILIES",
    "collision_probability",
    "LSHIndex",
    "AsymmetricTransform",
    "MIPSIndex",
    "exact_mips",
    "RebuildScheduler",
    "BucketStats",
    "bucket_stats",
    "recall_at_k",
    "candidate_size_profile",
    "ColumnDriftTracker",
]
