"""Failure detectors of the paper and the standard toolbox."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".anti_omega": ("AntiOmegaK",),
    ".base": ("FailureDetector", "StabilizingHistory"),
    ".omega": ("Omega",),
    ".perfect": ("EventuallyPerfectDetector", "PerfectDetector"),
    ".trivial": ("TrivialDetector",),
    ".vector_omega": ("VectorOmegaK",),
}

if TYPE_CHECKING:
    from .anti_omega import AntiOmegaK
    from .base import FailureDetector, StabilizingHistory
    from .omega import Omega
    from .perfect import EventuallyPerfectDetector, PerfectDetector
    from .trivial import TrivialDetector
    from .vector_omega import VectorOmegaK
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "AntiOmegaK",
    "FailureDetector",
    "StabilizingHistory",
    "Omega",
    "EventuallyPerfectDetector",
    "PerfectDetector",
    "TrivialDetector",
    "VectorOmegaK",
]
