"""Hessians, characteristic polynomials of polynomial matrices, compound
matrices, divisibility identities, the Cayley identity, dual-variety
dimension probes, and stabilizer Lie algebra dimensions.

Minors and determinants come from ``gct.poly.det_polymatrix``.
Divisibility claims are certified by exact multivariate division: for f = g*q over an integral
domain the greedy leading-term division loop in the global monomial order
terminates with remainder zero, because LT(f) = LT(g)LT(q) at every step.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from operator import add, gt, sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import CapacityError
from .flatten import check_capacity, exact_rank, solve_linear
from .monomials import grevlex_key
from .poly import (
    PolyMatrix,
    Polynomial,
    apply_diff,
    det_polymatrix,
    shifted_partials,
    sum_of_products,
)
from .zoo import det, discriminant, fermat

# ---------------------------------------------------------------------------
# Hessians, characteristic coefficients, compounds
# ---------------------------------------------------------------------------


def hessian(p: Polynomial) -> PolyMatrix:
    """The symmetric matrix of second partials of a homogeneous P, deg >= 2."""
    if not p.is_homogeneous() or (p.degree() or 0) < 2:
        raise ValueError("hessian requires a homogeneous polynomial of degree >= 2")
    v = p.num_vars
    rows = []
    for i in range(v):
        row = []
        for j in range(v):
            op = [0] * v
            op[i] += 1
            op[j] += 1
            row.append(apply_diff(Polynomial.monomial(tuple(op)), p))
        rows.append(tuple(row))
    return PolyMatrix(v, tuple(rows))


def cp_coefficient(m: PolyMatrix, s: int) -> Polynomial:
    """cp_s(M): the sum of all s x s principal minors, exactly."""
    if s < 0 or s > m.size:
        raise ValueError("s out of range")
    if s == 0:
        return Polynomial.one(m.num_vars)
    total = Polynomial.zero(m.num_vars)
    for subset in combinations(range(m.size), s):
        total = total + det_polymatrix(m, subset, subset)
    return total


def compound(m: PolyMatrix, k: int) -> PolyMatrix:
    """The k-th compound (wedge power): C(N,k) x C(N,k) matrix of k x k
    minors, rows and columns indexed by k-subsets in lexicographic order."""
    if k < 1 or k > m.size:
        raise ValueError("k out of range")
    subsets = list(combinations(range(m.size), k))
    rows = tuple(
        tuple(det_polymatrix(m, rs, cs) for cs in subsets) for rs in subsets
    )
    return PolyMatrix(m.num_vars, rows)


# ---------------------------------------------------------------------------
# Exact multivariate division
# ---------------------------------------------------------------------------


def divide_exact(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    """The quotient f/g when g divides f exactly, else None.

    In-place single-divisor division: the remainder lives in one dict and
    its leading term is tracked by a lazy heap, so the cost is
    O(|quotient| * |g|) dictionary updates rather than a fresh remainder
    per step.
    """
    if f.num_vars != g.num_vars:
        raise ValueError("operands must share the variable space")
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    g_terms = g.sorted_terms()
    lt_g_exp, lt_g_coeff = g_terms[0]
    work: Dict[Tuple[int, ...], Fraction] = dict(f.terms)
    heap = [(grevlex_key(e), e) for e in work]
    heapq.heapify(heap)
    quotient: Dict[Tuple[int, ...], Fraction] = {}
    while heap:
        _, e = heapq.heappop(heap)
        c = work.get(e)
        if not c:
            continue
        if any(map(gt, lt_g_exp, e)):  # LT(g) does not divide the leading term left
            return None
        q_exp = tuple(map(sub, e, lt_g_exp))
        q_coeff = c / lt_g_coeff
        quotient[q_exp] = quotient.get(q_exp, Fraction(0)) + q_coeff
        for g_exp, g_coeff in g_terms:
            t = tuple(map(add, q_exp, g_exp))
            nc = work.get(t, Fraction(0)) - q_coeff * g_coeff
            if nc:
                if t not in work:
                    heapq.heappush(heap, (grevlex_key(t), t))
                work[t] = nc
            else:
                work.pop(t, None)
    return Polynomial(f.num_vars, quotient)


# ---------------------------------------------------------------------------
# The second-fundamental-form identities for H(det_v)
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class SFReport(NamedTuple):
    v: int
    checks: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        lines = [f"H(det_{self.v}) characteristic coefficients:"]
        for c in self.checks:
            lines.append(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        return "\n".join(lines)


DEFAULT_SFTURBO_CHECKS = {
    3: ("cp1", "cp3", "cp2_negative", "cp8", "cp9"),
    4: ("cp1", "cp3", "cp2_negative"),
}


def verify_sfturbo(v: int, checks: Optional[Sequence[str]] = None) -> SFReport:
    """Certify the characteristic-coefficient identities of H(det_v).

    Checks (selectable): cp1 (= 0), cp3 (= det_v * cofactor of degree
    2v-6), cp5 (= det_v * cofactor of degree 4v-10), cp2_negative (det_v
    does NOT divide cp_2), cp8/cp9 (v=3 closed forms 2*det^2*Q and
    2*det^3).  Heavy coefficients are opt-in; v is capped at 4.  Check
    cp<s> reads cp_s and takes one of three paths by its kind of claim:
    zero, division by det_v, or equality with a closed form.
    """
    if v < 3:
        raise ValueError(f"sfturbo checks need v >= 3, got {v}")
    if v > 4:
        raise CapacityError("verify_sfturbo", v, 4)
    if checks is None:
        checks = DEFAULT_SFTURBO_CHECKS[v]
    if v != 3 and {"cp8", "cp9"} & set(checks):
        # closed forms, not a size limit: there is nothing to certify at v = 4
        raise ValueError(f"sfturbo checks cp8 and cp9 are stated only at v = 3, got v = {v}")
    d = det(v)
    h = hessian(d)

    def zero(s: int, cp: Polynomial) -> CheckResult:
        return CheckResult(f"cp_{s} = 0", cp.is_zero(), f"trace of H(det_{v}) is {cp!r}")

    def division(s: int, cp: Polynomial) -> CheckResult:
        """det_v divides cp_s with a cofactor of degree s(v-2) - v, or at s = 2 not at all."""
        q = divide_exact(cp, d)
        if s == 2:
            return CheckResult(
                f"det_{v} does not divide cp_2",
                q is None,
                "division fails as the theorem requires" if q is None else f"unexpected quotient {q!r}",
            )
        want_deg = s * (v - 2) - v
        return CheckResult(
            f"det_{v} | cp_{s} with cofactor degree {want_deg}",
            q is not None and q.degree() == want_deg,
            f"cofactor {'missing' if q is None else f'degree {q.degree()}, {q.num_terms()} terms'}",
        )

    def closed_form(s: int, cp: Polynomial) -> CheckResult:
        """cp_s = c * det_3^2 * f, exactly (v = 3)."""
        claim, c, f = {
            # Exact computation gives cp_8 = det_3^2 * trace(A A^T), and
            # trace(A A^T) = fermat(2, 9) sums the squares of all 9 entries;
            # the constant 2 in the literature corresponds to normalizing
            # the contraction as Q(A) = (1/2) trace(A A^T).
            8: ("cp_8 = det_3^2 * trace(AA^T)  (= 2 det_3^2 Q with Q = trace(AA^T)/2)", 1, fermat(2, 9)),
            # cp_9 of the 9 x 9 Hessian is its determinant.  B. Segre's
            # identity; the exact sign at odd v is (-1)^{binom(v,2)}, here
            # (-1)^3 * 2 = -2.
            9: ("cp_9 = det(H(det_3)) = -2 det_3^3  (B. Segre, sign (-1)^{binom(3,2)})",
                (-1) ** comb(v, 2) * (v - 1), d),
        }[s]
        ok = cp == sum_of_products(9, [(c, (d, d, f))])
        return CheckResult(claim, ok, "exact equality" if ok else "mismatch")

    kinds = {"cp1": zero, "cp2_negative": division, "cp3": division, "cp5": division,
             "cp8": closed_form, "cp9": closed_form}
    results: List[CheckResult] = []
    for name in checks:
        if name not in kinds:
            raise ValueError(f"unknown sfturbo check {name!r}")
        s = int(name[2])
        results.append(kinds[name](s, cp_coefficient(h, s)))
    return SFReport(v=v, checks=tuple(results))


def verify_discriminant_identity() -> bool:
    """det(H(Delta)) = 3888 * Delta^2 for the binary-cubic discriminant."""
    delta = discriminant()
    return det_polymatrix(hessian(delta)) == sum_of_products(4, [(3888, (delta, delta))])


def cayley_check(n: int, s: int) -> bool:
    """det_n(d/dx) applied to det_n^{s+1} equals ((s+n)!/s!) det_n^s."""
    if n > 3:
        raise CapacityError("cayley_check n", n, 3)
    if s < 0:
        raise ValueError("s must be >= 0")
    if s > 2:
        raise CapacityError("cayley_check s", s, 2)
    d = det(n)
    lhs = apply_diff(d, sum_of_products(n * n, [(1, (d,) * (s + 1))]))
    return lhs == sum_of_products(n * n, [(factorial(s + n) // factorial(s), (d,) * s)])


# ---------------------------------------------------------------------------
# Sylvester--Franke divisibility
# ---------------------------------------------------------------------------


def generic_matrix(v: int) -> PolyMatrix:
    """The v x v matrix of independent variables x_ij (row-major slots)."""
    rows = tuple(
        tuple(Polynomial.variable(i * v + j, v * v) for j in range(v))
        for i in range(v)
    )
    return PolyMatrix(v * v, rows)


def verify_sylvester_franke(v: int, k: int, p: int) -> bool:
    """det(A)^p divides cp_{C(v-1,k)+p}(compound(A, k)) for generic A.

    The classical Sylvester--Franke theorem det(compound(A,k)) =
    det(A)^{C(v-1,k-1)} is the case p = C(v-1,k-1).
    """
    if v > 4:
        raise CapacityError("verify_sylvester_franke", v, 4)
    if not (1 <= k <= v) or p < 0:
        raise ValueError("need 1 <= k <= v and p >= 0")
    a = generic_matrix(v)
    wedge = compound(a, k)
    s = comb(v - 1, k) + p
    if s > wedge.size:
        raise ValueError(f"cp index {s} exceeds compound size {wedge.size}")
    cps = cp_coefficient(wedge, s)
    d = det_polymatrix(a)
    f = cps
    for _ in range(p):
        q = divide_exact(f, d)
        if q is None:
            return False
        f = q
    return True


# ---------------------------------------------------------------------------
# Dual-variety dimension probe and stabilizer Lie algebras
# ---------------------------------------------------------------------------


def dual_dimension_at(p: Polynomial, w: Sequence) -> int:
    """dim Z(P)^dual = rank(H_P(w)) - 2 at a smooth rational zero w; a
    float coordinate is a TypeError.  ``hessian`` admits a homogeneous P of
    degree d >= 2 only, so Euler's H(w) w = (d - 1) grad P(w) tests w."""
    if p.evaluate(w) != 0:
        raise ValueError("w is not a zero of P")
    rows = hessian(p).evaluate(w)
    if not any(sum(x * w[j] for j, x in row.items()) for row in rows):
        raise ValueError("w is a singular point of Z(P)")
    return exact_rank(rows, p.num_vars) - 2


def sample_det_smooth_zero(n: int, rng) -> List[Fraction]:
    """A random rational rank-(n-1) matrix, flattened row-major.

    diag(1,...,1,0) conjugated by a random invertible integer matrix g:
    g D g^{-1} keeps rank exactly n-1, and rank-(n-1) points are exactly
    the smooth points of {det_n = 0} (the gradient is the cofactor
    matrix, nonzero iff some (n-1)-minor is).  A singular g is drawn
    again.  g D g^{-1} = I - u y^T, with u the last column of g and y^T
    the last row of g^{-1}, the solution of g^T y = e_n.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    while True:
        g = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if exact_rank([dict(enumerate(row)) for row in g], n) == n:
            break
    y = solve_linear(list(zip(*g)), [0] * (n - 1) + [1])
    return [(i == j) - g[i][n - 1] * y[j] for i in range(n) for j in range(n)]


def perm_special_point(m: int) -> List[Fraction]:
    """The all-ones matrix with entry (1,1) set to -(m-1), flattened.

    perm_m of the all-ones matrix is m!; the (1,1) cofactor permanent is
    (m-1)!, so the adjusted entry a = -(m-1) makes the permanent vanish
    while the gradient entry (m-1)! stays nonzero: a smooth zero.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    point = [Fraction(1)] * (m * m)
    point[0] = Fraction(-(m - 1))
    return point


def stabilizer_lie_dim(p: Polynomial) -> int:
    """dim of the annihilator of P in gl(v) acting by x_i d/dx_j.

    The orbit tangent gl(v).P = span{x_i dP/dx_j} is the shifted partial
    space SP_{1,1}(P), so the dimension is v^2 minus the exact rank of
    ``shifted_partials(P, 1, 1)``, whose height is the monomials found.
    """
    if not p.is_homogeneous():
        raise ValueError("stabilizer_lie_dim requires a homogeneous polynomial")
    v = p.num_vars
    rows = shifted_partials(p, 1, 1)
    check_capacity(f"stabilizer of a form in gl_{v}", v * v, len(rows))
    return v * v - exact_rank(list(rows.values()), v * v)
