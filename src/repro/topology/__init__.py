"""Combinatorial topology: complexes, chromatic subdivision, and the
exact 2-process solvability checker used for the paper's lower bounds."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".complexes": ("Complex", "Vertex", "path_complex"),
    ".solvability": (
        "SolvabilityResult",
        "decide_two_process_solvability",
        "solvable_in_rounds",
    ),
    ".subdivision": ("iterated_subdivision", "protocol_complex", "subdivide_edge_path"),
    ".synthesis": (
        "SynthesizedProtocol",
        "path_index",
        "shortest_walk",
        "synthesize_protocol",
    ),
    ".task_complex": (
        "JointInput",
        "TwoProcessTaskData",
        "output_graph",
        "two_process_task_data",
    ),
}

if TYPE_CHECKING:
    from .complexes import Complex, Vertex, path_complex
    from .solvability import (
        SolvabilityResult,
        decide_two_process_solvability,
        solvable_in_rounds,
    )
    from .subdivision import (
        iterated_subdivision,
        protocol_complex,
        subdivide_edge_path,
    )
    from .synthesis import (
        SynthesizedProtocol,
        path_index,
        shortest_walk,
        synthesize_protocol,
    )
    from .task_complex import (
        JointInput,
        TwoProcessTaskData,
        output_graph,
        two_process_task_data,
    )
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "Complex",
    "Vertex",
    "path_complex",
    "SolvabilityResult",
    "decide_two_process_solvability",
    "solvable_in_rounds",
    "iterated_subdivision",
    "protocol_complex",
    "subdivide_edge_path",
    "SynthesizedProtocol",
    "path_index",
    "shortest_walk",
    "synthesize_protocol",
    "JointInput",
    "TwoProcessTaskData",
    "output_graph",
    "two_process_task_data",
]
