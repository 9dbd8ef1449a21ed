"""Exact polyhedral geometry over the rationals."""

from .polytope import (AffineForm, ConeLineDiagnostic, HPolytope,
                       RationalCone, cone_contains_line, fix_coordinates,
                       interiors_disjoint, pull_back, strictly_feasible)

__all__ = [
    "AffineForm", "ConeLineDiagnostic", "HPolytope", "RationalCone",
    "cone_contains_line", "fix_coordinates", "interiors_disjoint",
    "pull_back", "strictly_feasible",
]
