"""Independent reference routes, used only to cross-check the pipeline.

* ``dense_ode_solutions`` solves A z' + rho z = rhs by Gauss-Jordan on the
  full coefficient system, with the same degree bounds as
  ``criteria._ode_solutions``;
* ``auxiliary_polynomial`` builds the auxiliary polynomial whose double
  roots the simplicity profile predicts in closed form;
* ``kappa_by_differentiation`` computes kappa_k by repeated symbolic
  differentiation of Q/P instead of the series recurrence.
"""

from typing import List, Optional, Sequence, Tuple

from artifact.criteria import RootPartition
from artifact.exactalg import QuadExt, RatFunc, UPoly
from artifact.varcalc import CurveData, CurveInSingularLocusError, PlanarSystem


def solve_linear_exact(
    rows: List[List[QuadExt]], rhs: List[QuadExt], d: int
) -> Optional[Tuple[List[QuadExt], List[List[QuadExt]]]]:
    """Solve rows*x = rhs over the field by reduced row echelon form.

    Returns (particular, kernel basis) or None.  Free columns are 0 in the
    particular solution; each kernel vector is 1 at its free column.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(rows[r]) + [rhs[r]] for r in range(nrows)]
    zero = QuadExt(0, 0, d)
    one = QuadExt(1, 0, d)
    pivots: List[int] = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, nrows):
            if not aug[r][col].is_zero():
                sel = r
                break
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        inv = aug[prow][col].inverse()
        aug[prow] = [x * inv for x in aug[prow]]
        for r in range(nrows):
            if r != prow and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[prow])]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    for r in range(prow, nrows):
        if not aug[r][ncols].is_zero():
            return None
    particular = [zero] * ncols
    for idx, col in enumerate(pivots):
        particular[col] = aug[idx][ncols]
    pivot_set = set(pivots)
    kernel: List[List[QuadExt]] = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for idx, col in enumerate(pivots):
            vec[col] = -aug[idx][fc]
        kernel.append(vec)
    return particular, kernel


def dense_ode_solutions(
    A: UPoly, rho: UPoly, rhs: UPoly
) -> Tuple[Optional[UPoly], List[UPoly]]:
    """(particular, kernel basis) of A z' + rho z = rhs from the dense
    (m_max+1) x (n_max+1) coefficient system; (None, []) if unsolvable."""
    d = A.d
    deg_a = int(A.degree)
    candidates = [0]
    lead = deg_a - 1
    if not rho.is_zero():
        lead = max(lead, int(rho.degree))
    if not rhs.is_zero():
        base = int(rhs.degree) - lead
        if base > 0:
            candidates.append(base)
    if not rho.is_zero() and int(rho.degree) == deg_a - 1:
        resonance = -(rho.lc() / A.lc())
        if resonance.is_nonneg_integer():
            candidates.append(int(resonance.a))
    n_max = max(candidates) + 2
    m_max = n_max - 1 + deg_a
    if not rho.is_zero():
        m_max = max(m_max, n_max + int(rho.degree))
    if not rhs.is_zero():
        m_max = max(m_max, int(rhs.degree))
    rows = [
        [
            A.coeff(m - i + 1) * i + rho.coeff(m - i)
            for i in range(n_max + 1)
        ]
        for m in range(m_max + 1)
    ]
    vec = [rhs.coeff(m) for m in range(m_max + 1)]
    solved = solve_linear_exact(rows, vec, d)
    if solved is None:
        return None, []
    particular, kernel = solved
    return UPoly(particular, d), [UPoly(v, d) for v in kernel]


def auxiliary_polynomial(
    kappa1: RatFunc, part: RootPartition, k: int, b: Sequence[int]
) -> UPoly:
    """The auxiliary polynomial for multiplier tuple b (one entry per
    shared class):

        (k-1)*kappa_1n*rad1
            - kappa_1d * sum_c (a1_c + b_c - 1) * p_c' * prod_{c'!=c} p_c'.

    The symbolic oracle against the bad_b closed form.
    """
    if len(b) != len(part.shared):
        raise ValueError("one multiplier per shared class required")
    d = kappa1.d
    acc = (kappa1.num * (k - 1)) * part.rad1
    total = UPoly.zero(d)
    for c, b_c in zip(part.shared, b):
        cofactor = part.rad1.exact_div(c.factor)
        total = total + (c.a1 + b_c - 1) * c.factor.derivative() * cofactor
    return acc - kappa1.den * total


def kappa_by_differentiation(
    sys: PlanarSystem, curve: CurveData, K: int
) -> Tuple[RatFunc, ...]:
    """kappa_k = (d/d eta)^k (Q/P) restricted to the curve, k = 1..K.

    Repeated symbolic differentiation of the quotient followed by
    substitution of eta = phi; slower than the series route.
    """
    phi = curve.phi
    num, den = sys.Q, sys.P
    out: List[RatFunc] = []
    for _ in range(1, K + 1):
        # d/d eta (num/den) = (num_eta * den - num * den_eta) / den^2
        num, den = (
            num.derivative_eta() * den - num * den.derivative_eta(),
            den * den,
        )
        den_val = den.eval_eta(phi)
        if den_val.is_zero():
            raise CurveInSingularLocusError(
                "P vanishes identically on the curve"
            )
        out.append(num.eval_eta(phi) / den_val)
    return tuple(out)
