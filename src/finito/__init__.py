"""Finite topological spaces as finite posets.

A finite T0 space is the same thing as a finite partial order; this
package follows a space through that dictionary: cores and homotopy
reductions, order complexes with exact homology, fundamental group
presentations read off the cover digraph, and exhaustive enumeration of
all small spaces to machine-check which ones are the smallest models of
spheres and wedges of circles.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    CycleError,
    DuplicateCoverError,
    EmptyError,
    FinitoError,
    FlattenBlockedError,
    IllFormedMoveError,
    IllFormedPathError,
    NotConnectedError,
    NotContinuousError,
    ParseError,
)
from .fileio import emit, parse_poset
from .models import (
    EnumerationStats,
    WedgeModelCertificate,
    bipartite_model,
    check_wedge_model,
    enumerate_posets,
    enumerate_wedge_minimal_models,
    enumeration_stats,
    minimal_wedge_size,
    nh_suspension,
    sphere_model,
    verify_sphere_theorem,
    verify_wedge_theorem,
    wedge_uniqueness_scan,
)
from .order_complex import (
    HomologySummary,
    SimplicialComplex,
    euler_characteristic,
    faces_text,
    homology,
    order_complex,
    poset_homology,
)
from .pi1 import (
    GroupPresentation,
    close_move,
    edge_path_presentation,
    first_betti,
    free_rank,
    is_monotonic,
    loop_to_word,
    presentation_text,
    spanning_tree,
    tietze_simplify,
)
from .poset import FinitePoset
from .reduction import (
    BeatPointReport,
    McCordReport,
    ReductionTrace,
    beat_points,
    core,
    flatten_to_height2,
    is_contractible,
    is_homotopy_equivalent,
    mccord_check,
    osaki,
    osaki_closed_reduction,
    osaki_open_reduction,
)

__all__ = [  # the names imported above; no submodule
    "BeatPointReport", "CapExceededError", "CycleError", "DuplicateCoverError",
    "EmptyError", "EnumerationStats", "FinitePoset", "FinitoError", "FlattenBlockedError",
    "GroupPresentation", "HomologySummary", "IllFormedMoveError",
    "IllFormedPathError", "McCordReport", "NotConnectedError",
    "NotContinuousError", "ParseError", "ReductionTrace", "SimplicialComplex",
    "WedgeModelCertificate", "beat_points", "bipartite_model",
    "check_wedge_model", "close_move", "core", "edge_path_presentation", "emit",
    "enumerate_posets", "enumerate_wedge_minimal_models", "enumeration_stats",
    "euler_characteristic", "faces_text", "first_betti", "flatten_to_height2",
    "free_rank", "homology", "is_contractible", "is_homotopy_equivalent", "is_monotonic",
    "loop_to_word", "mccord_check", "minimal_wedge_size", "nh_suspension", "order_complex",
    "osaki", "osaki_closed_reduction", "osaki_open_reduction", "parse_poset",
    "poset_homology", "presentation_text", "spanning_tree", "sphere_model",
    "tietze_simplify", "verify_sphere_theorem", "verify_wedge_theorem",
    "wedge_uniqueness_scan",
]
