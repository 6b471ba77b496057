"""Shared-memory objects: the register file and derived objects."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".collect": ("collect_array", "collect_registers", "write_array_entry"),
    ".immediate": ("ImmediateSnapshot", "check_immediate_snapshot_views"),
    ".registers": ("RegisterFile", "apply_operation"),
    ".snapshot": ("SnapCell", "SnapshotObject", "direct_scan"),
}

if TYPE_CHECKING:
    from .collect import collect_array, collect_registers, write_array_entry
    from .immediate import ImmediateSnapshot, check_immediate_snapshot_views
    from .registers import RegisterFile, apply_operation
    from .snapshot import SnapCell, SnapshotObject, direct_scan
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "collect_array",
    "collect_registers",
    "write_array_entry",
    "ImmediateSnapshot",
    "check_immediate_snapshot_views",
    "RegisterFile",
    "apply_operation",
    "SnapCell",
    "SnapshotObject",
    "direct_scan",
]
