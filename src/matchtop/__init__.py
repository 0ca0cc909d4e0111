"""Matching complexes of small graphs: construction, homology over prime
fields, homology-manifold recognition, and exhaustive classification
searches."""

from .complexes import (
    Complex,
    FVector,
    euler_characteristic,
    f_vector,
    from_facets,
    has_induced_path6,
    induced_subcomplex,
    is_connected,
    is_flag,
    is_pure,
    join,
    link,
    matching_complex,
    missing_faces,
    one_skeleton,
    skeleton,
)
from .graphs import (
    Graph,
    banner,
    canonical_form,
    canonical_graph6,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    disjoint_union,
    enumerate_matchings,
    from_graph6,
    is_equimatchable,
    matching_number,
    maximal_matchings,
    path,
    spider,
    star,
    subgraph_avoiding,
    to_graph6,
)
from .homology import (
    BettiVector,
    FieldPrime,
    betti_reduced,
    boundary_matrix,
    has_ball_homology,
    has_sphere_homology,
)
from .manifold import (
    BoundaryComplex,
    ManifoldClass,
    ManifoldVerdict,
    boundary_complex,
    check_manifold,
    classify,
    manifold_report,
)
from .catalog import (
    BasicGraphKind,
    ExceptionalEntry,
    Prediction,
    exceptional_table,
    named_graph,
    predict,
    recognize_basic,
)
from .verify import SearchSpec, enumerate_graphs, property_suite, run_search
from . import catalog, homology, manifold, verify


def clear_caches():
    """Empty every module-level cache: the enumerated graph classes, Betti
    numbers, the cores, join splits and face tables of ranked facet sets,
    the link-shape table of the manifold analysis and the catalog tables.  Results do not change; a long-lived process can call this to
    bound its memory."""
    verify.clear_caches()
    homology.clear_caches()
    manifold.clear_caches()
    catalog.clear_caches()


__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
