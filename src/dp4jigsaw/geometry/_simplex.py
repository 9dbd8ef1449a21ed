"""Exact two-phase simplex over Fraction.

Solves  min c.x  s.t.  A x = b, x >= 0  with Bland's anti-cycling rule.
Returns exact optima, and on infeasibility a Farkas certificate y with
y.A <= 0 (componentwise over columns) and y.b > 0.  Only the tests call it,
as the oracle for strict feasibility and cone pointedness; it keeps its
name because the benchmark's tracing wraps `solve_lp`.
"""

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult:
    __slots__ = ("status", "x", "objective", "farkas")

    def __init__(self, status, x=None, objective=None, farkas=None):
        self.status = status
        self.x = x
        self.objective = objective
        self.farkas = farkas


def _pivot(rows, obj, basis, prow, pcol):
    pivot = rows[prow][pcol]
    rows[prow] = [v / pivot for v in rows[prow]]
    prow_vals = rows[prow]
    for i, row in enumerate(rows):
        if i != prow and row[pcol] != 0:
            f = row[pcol]
            rows[i] = [row[j] - f * prow_vals[j] for j in range(len(row))]
    if obj[pcol] != 0:
        f = obj[pcol]
        for j in range(len(obj)):
            obj[j] -= f * prow_vals[j]
    basis[prow] = pcol


def _run(rows, obj, basis, ncols):
    """Bland-rule min simplex on a canonical tableau; returns status."""
    while True:
        entering = next((j for j in range(ncols) if obj[j] < 0), None)
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, obj, basis, leaving, entering)


def solve_lp(c, a_matrix, b_vector):
    """min c.x s.t. a_matrix x = b_vector, x >= 0; all entries rational."""
    m = len(a_matrix)
    n = len(c)
    rows = []
    rhs_signs = []
    for i in range(m):
        row = [Fraction(x) for x in a_matrix[i]]
        rhs = Fraction(b_vector[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
            rhs_signs.append(-1)
        else:
            rhs_signs.append(1)
        rows.append(row + [rhs])

    # Phase I: artificial identity block, cost 1 each.
    ncols = n + m
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        rows[i] = rows[i][:-1] + art + [rows[i][-1]]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n):
        obj[j] = -sum(rows[i][j] for i in range(m))
    obj[-1] = -sum(rows[i][-1] for i in range(m))

    status = _run(rows, obj, basis, ncols)
    assert status == OPTIMAL  # phase I is bounded below by 0
    phase1_value = -obj[-1]
    if phase1_value > 0:
        # Farkas: y_i = 1 - reduced cost of artificial i, flipped back to the
        # original row signs.
        y = [rhs_signs[i] * (1 - obj[n + i]) for i in range(m)]
        value = sum(y[i] * Fraction(b_vector[i]) for i in range(m))
        assert value > 0
        for j in range(n):
            colsum = sum(y[i] * Fraction(a_matrix[i][j]) for i in range(m))
            assert colsum <= 0
        return LPResult(INFEASIBLE, farkas=y)

    # Drive leftover artificials out of the basis (or drop redundant rows).
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            pcol = next((j for j in range(n) if rows[i][j] != 0), None)
            if pcol is None:
                del rows[i]
                del basis[i]
            else:
                _pivot(rows, obj, basis, i, pcol)

    # Phase II on original columns only.
    rows = [row[:n] + [row[-1]] for row in rows]
    obj = [Fraction(x) for x in c] + [Fraction(0)]
    for i, var in enumerate(basis):
        if obj[var] != 0:
            f = obj[var]
            for j in range(n + 1):
                obj[j] -= f * rows[i][j]

    status = _run(rows, obj, basis, n)
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        x[var] = rows[i][-1]
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, x=x)
    return LPResult(OPTIMAL, x=x, objective=sum(Fraction(c[j]) * x[j] for j in range(n)))


def feasible(a_matrix, b_vector):
    """Phase-I feasibility of {A x = b, x >= 0}: (True, x) or (False, farkas)."""
    n = len(a_matrix[0]) if a_matrix else 0
    result = solve_lp([Fraction(0)] * n, a_matrix, b_vector)
    if result.status == INFEASIBLE:
        return False, result.farkas
    return True, result.x
