"""Profile snapshots (INIP/AVEP), their dict form, and AVEP from a run."""

from .io import snapshot_from_dict, snapshot_to_dict
from .merge import avep_from_trace
from .model import (BlockProfile, EdgeKind, ProfileSnapshot, Region,
                    RegionKind)

__all__ = [
    "BlockProfile", "EdgeKind", "ProfileSnapshot", "Region", "RegionKind",
    "avep_from_trace", "snapshot_from_dict", "snapshot_to_dict",
]
