"""Exact Lie-algebra weight systems on oriented trivalent graphs.

Three independent routes to the same numbers: a generic tensor state sum
over any metrized Lie algebra, the gl(N) marking expansion yielding an
integer polynomial in N, and signed edge-3-coloring sums with the Tait
correspondence on the planar side.  All arithmetic is exact.
"""

from .algebra import (MetrizedLieAlgebra, algebra_by_name, change_basis,
                      make_abelian, make_gl, make_sl2, make_so3,
                      scale_metric, validate_algebra)
from .catalog import (VerificationReport, check_graph, generate_graphs,
                      run_survey)
from .coloring import (PlanarMap, coloring_sign, enumerate_edge_3_colorings,
                       enumerate_four_colorings, extract_map, penrose_sum,
                       tait_edge_coloring, verify_tait_bijection, w_sl2)
from .graphs import (GraphParseError, TrivalentGraph, face_orbits,
                     flip_vertex, flip_vertices, genus, is_connected,
                     is_two_connected, parse_graph, serialize_graph)
from .poly import IntPolynomial
from .ribbon import marking_profile, rotation_of_marking
from .statesum import evaluate_weight

__version__ = "0.1.0"

__all__ = [
    "GraphParseError", "IntPolynomial", "MetrizedLieAlgebra", "PlanarMap",
    "TrivalentGraph", "VerificationReport", "algebra_by_name",
    "change_basis", "check_graph", "coloring_sign",
    "enumerate_edge_3_colorings", "enumerate_four_colorings",
    "evaluate_weight", "extract_map", "face_orbits", "flip_vertex",
    "flip_vertices", "generate_graphs", "genus", "is_connected",
    "is_two_connected", "make_abelian", "make_gl", "make_sl2", "make_so3",
    "marking_profile", "parse_graph", "penrose_sum", "rotation_of_marking",
    "run_survey", "scale_metric", "serialize_graph", "tait_edge_coloring",
    "validate_algebra", "verify_tait_bijection", "w_sl2",
]
