"""Matching complexes of small graphs: construction, homology over prime
fields, homology-manifold recognition, and exhaustive classification
searches."""

from .complexes import (
    Complex,
    FVector,
    f_vector,
    from_facets,
    has_induced_path6,
    is_connected,
    is_flag,
    is_pure,
    join,
    link,
    matching_complex,
    one_skeleton,
)
from .graphs import (
    Graph,
    banner,
    canonical_form,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    disjoint_union,
    enumerate_matchings,
    from_graph6,
    is_equimatchable,
    matching_number,
    path,
    spider,
    star,
    subgraph_avoiding,
    to_graph6,
)
from .homology import (
    BettiVector,
    betti_reduced,
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
from . import catalog, complexes, homology, manifold, verify


def clear_caches():
    """Empty every module-level cache: the enumerated graph classes, the one
    table of what is known per facet set, ``complexes._facts`` (join splits,
    face tables, Betti numbers, link-shape children and summaries,
    verdicts, boundary spans and boundary Betti numbers), the entries of
    each component shape's maximal matchings, ``complexes._walks``, and
    the catalog tables.  A
    complex keeps no memo of its own, so nothing outlives this.  Results do
    not change; a long-lived process can call this to bound its memory."""
    verify.clear_caches()
    complexes.clear_caches()
    catalog.clear_caches()


__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
