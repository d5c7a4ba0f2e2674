"""JSON (de)serialisation of profile snapshots.

The paper's tooling dumps INIP/AVEP information "into files" and analyses
them offline; this module is that file format.  A snapshot encodes to
plain JSON-ready data, so snapshot files are diffable and greppable (the
``repro.analysis`` CLI lints them).
"""

from __future__ import annotations

from typing import Any, Dict

from .model import (BlockProfile, EdgeKind, ProfileSnapshot, Region,
                    RegionKind)

_FORMAT_VERSION = 1


def snapshot_to_dict(snapshot: ProfileSnapshot) -> Dict[str, Any]:
    """Encode a snapshot as JSON-ready plain data."""
    return {
        "version": _FORMAT_VERSION,
        "label": snapshot.label,
        "input": snapshot.input_name,
        "threshold": snapshot.threshold,
        "total_steps": snapshot.total_steps,
        "profiling_ops": snapshot.profiling_ops,
        "blocks": [
            {
                "id": b.block_id,
                "use": b.use,
                "taken": b.taken,
                "frozen_at": b.frozen_at,
            }
            for b in sorted(snapshot.blocks.values(),
                            key=lambda b: b.block_id)
        ],
        "regions": [
            {
                "id": r.region_id,
                "kind": r.kind.value,
                "members": list(r.members),
                "internal_edges": [[s, d, k.value]
                                   for s, d, k in r.internal_edges],
                "exit_edges": [[s, k.value, t] for s, k, t in r.exit_edges],
                "back_edges": [[s, k.value] for s, k in r.back_edges],
                "tail": r.tail,
                "formed_at": r.formed_at,
            }
            for r in snapshot.regions
        ],
    }


def snapshot_from_dict(data: Dict[str, Any],
                       validate: bool = True) -> ProfileSnapshot:
    """Decode a snapshot from plain data (inverse of
    :func:`snapshot_to_dict`).

    With ``validate=False`` a structurally broken snapshot is returned
    as-is instead of raising — the lint CLI uses this to decode a
    corrupted file and report *what* is wrong with it.
    """
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported profile format version {version!r}")
    snapshot = ProfileSnapshot(
        label=data["label"],
        input_name=data["input"],
        threshold=data["threshold"],
        total_steps=data["total_steps"],
        profiling_ops=data["profiling_ops"],
    )
    for entry in data["blocks"]:
        snapshot.blocks[entry["id"]] = BlockProfile(
            block_id=entry["id"], use=entry["use"], taken=entry["taken"],
            frozen_at=entry["frozen_at"])
    for entry in data["regions"]:
        snapshot.regions.append(Region(
            region_id=entry["id"],
            kind=RegionKind(entry["kind"]),
            members=list(entry["members"]),
            internal_edges=[(s, d, EdgeKind(k))
                            for s, d, k in entry["internal_edges"]],
            exit_edges=[(s, EdgeKind(k), t)
                        for s, k, t in entry["exit_edges"]],
            back_edges=[(s, EdgeKind(k)) for s, k in entry["back_edges"]],
            tail=entry["tail"],
            formed_at=entry["formed_at"],
        ))
    if validate:
        snapshot.validate()
    return snapshot

