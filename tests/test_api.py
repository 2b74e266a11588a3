import finito


def test_public_names_are_pinned():
    """The names ``from finito import *`` gives.  Adding or removing one is
    an API change: update this list and record the change in CHANGES.md."""
    assert sorted(finito.__all__) == [
        "BeatPointReport", "CapExceededError", "CycleError", "DuplicateCoverError",
        "EmptyError", "EnumerationStats", "FinitePoset", "FinitoError",
        "FlattenBlockedError", "GroupPresentation", "HomologySummary",
        "IllFormedMoveError", "IllFormedPathError", "McCordReport",
        "NotConnectedError", "NotContinuousError", "ParseError",
        "ReductionTrace", "SimplicialComplex", "WedgeModelCertificate", "beat_points",
        "bipartite_model", "check_wedge_model", "close_move", "core",
        "edge_path_presentation", "emit", "enumerate_posets",
        "enumerate_wedge_minimal_models", "enumeration_stats",
        "euler_characteristic", "faces_text", "first_betti",
        "flatten_to_height2", "free_rank", "homology", "is_contractible",
        "is_homotopy_equivalent", "is_monotonic", "loop_to_word", "mccord_check",
        "minimal_wedge_size", "nh_suspension", "order_complex", "osaki",
        "osaki_closed_reduction", "osaki_open_reduction", "parse_poset",
        "poset_homology", "presentation_text",
        "spanning_tree", "sphere_model", "tietze_simplify", "verify_sphere_theorem",
        "verify_wedge_theorem", "wedge_uniqueness_scan",
    ]
