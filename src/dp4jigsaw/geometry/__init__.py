"""Exact polyhedral geometry over the rationals."""

from .polytope import (AffineForm, ConeLineDiagnostic, HPolytope,
                       RationalCone, box, cone_contains_line, exact_volume,
                       interiors_disjoint, product_polytope, standard_simplex,
                       strictly_feasible)

__all__ = [
    "AffineForm", "ConeLineDiagnostic", "HPolytope", "RationalCone", "box",
    "cone_contains_line", "exact_volume", "interiors_disjoint",
    "product_polytope", "standard_simplex", "strictly_feasible",
]
