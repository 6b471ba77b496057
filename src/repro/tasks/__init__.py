"""Task definitions: set agreement, consensus, renaming, WSB, builders."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".builders": (
        "ParticipantRestrictedTask",
        "enumerate_task",
        "restrict_to_participants",
    ),
    ".identity": ("IdentityTask", "identity_factories", "identity_factory"),
    ".renaming": ("RenamingTask", "StrongRenamingTask"),
    ".set_agreement": ("ConsensusTask", "SetAgreementTask"),
    ".wsb": ("WeakSymmetryBreakingTask",),
}

if TYPE_CHECKING:
    from .builders import (
        ParticipantRestrictedTask,
        enumerate_task,
        restrict_to_participants,
    )
    from .identity import IdentityTask, identity_factories, identity_factory
    from .renaming import RenamingTask, StrongRenamingTask
    from .set_agreement import ConsensusTask, SetAgreementTask
    from .wsb import WeakSymmetryBreakingTask
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "ParticipantRestrictedTask",
    "enumerate_task",
    "restrict_to_participants",
    "IdentityTask",
    "identity_factories",
    "identity_factory",
    "RenamingTask",
    "StrongRenamingTask",
    "ConsensusTask",
    "SetAgreementTask",
    "WeakSymmetryBreakingTask",
]
