"""Exact polyhedral geometry over the rationals."""

from .polytope import (AffineForm, ConeLineDiagnostic, HPolytope,
                       RationalCone, box, cone_contains_line, exact_volume,
                       fix_coordinates, interiors_disjoint, product_polytope,
                       pull_back, standard_simplex, strictly_feasible)

__all__ = [
    "AffineForm", "ConeLineDiagnostic", "HPolytope", "RationalCone", "box",
    "cone_contains_line", "exact_volume", "fix_coordinates",
    "interiors_disjoint", "product_polytope", "pull_back", "standard_simplex",
    "strictly_feasible",
]
