"""Exact ranks of flattenings and the border-rank lower bounds they give.

One elimination core serves rank, kernel and solve: fraction-free Bareiss
elimination on integer rows (denominators are cleared row by row, which
does not change the row space).  Pivots are chosen deterministically:
leftmost available column, then the candidate row whose entry has the
smallest absolute value (ties broken by row index).  Kernel vectors and
solutions come from back-substitution over Q on the echelon rows.
Everything is exact; there is no floating point fallback.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb, gcd
from typing import Dict, List, Sequence, Tuple

from .poly import (
    FlatteningMatrix,
    Polynomial,
    apply_diff,
    exponent_add,
    monomials_of_degree,
    polarize,
)

#: Reject eliminations wider than this unless the caller raises the cap.
MAX_COLUMNS = 5000


class CapacityError(RuntimeError):
    """A computation was rejected because its exact size exceeds the cap.

    Raised *before* the offending object is built, so callers can report
    the predicted size honestly instead of hanging.
    """

    def __init__(self, context: str, size: int, cap: int):
        super().__init__(
            f"{context}: size {size} exceeds capacity cap {cap}"
        )
        self.context = context
        self.size = size
        self.cap = cap


@dataclass(frozen=True)
class RankCertificate:
    rank: int
    pivot_rows: Tuple[int, ...]
    pivot_cols: Tuple[int, ...]
    shape: Tuple[int, int]
    trace_digest: str


def _as_rows(matrix) -> List[List[Fraction]]:
    if isinstance(matrix, FlatteningMatrix):
        return matrix.rows()
    return [list(r) for r in matrix]


def _integerize(rows: List[List[Fraction]]) -> List[List[int]]:
    out: List[List[int]] = []
    for row in rows:
        if all(type(x) is int for x in row):  # already cleared: copy as is
            out.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        denom_lcm = 1
        for x in fracs:
            d = x.denominator
            denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
        out.append([int(x * denom_lcm) for x in fracs])
    return out


def _echelon(m: List[List[int]], n_cols: int) -> Tuple[List[int], List[int], List[int]]:
    """Bareiss forward pass on integer rows, in place.

    Returns (pivot_rows, pivot_cols, trace): each pivot's original row
    index, its column and its value.  Afterwards ``m[r]`` is the r-th pivot
    row, zero left of ``pivot_cols[r]``, and the rows past the rank are zero.
    """
    n_rows = len(m)
    row_origin = list(range(n_rows))
    pivot_rows: List[int] = []
    pivot_cols: List[int] = []
    trace: List[int] = []
    r = 0
    prev = 1
    for col in range(n_cols):
        if r >= n_rows:
            break
        best = -1
        best_abs = None
        for i in range(r, n_rows):
            e = m[i][col]
            if e:
                a = -e if e < 0 else e
                if best_abs is None or a < best_abs:
                    best, best_abs = i, a
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
            row_origin[r], row_origin[best] = row_origin[best], row_origin[r]
        piv = m[r][col]
        pivot_rows.append(row_origin[r])
        pivot_cols.append(col)
        trace.append(piv)
        for i in range(r + 1, n_rows):
            # every row below is rescaled, even those with a zero head:
            # the exact divisions at later steps rely on it
            head = m[i][col]
            mi, mr = m[i], m[r]
            if head:
                for j in range(col + 1, n_cols):
                    mi[j] = (mi[j] * piv - head * mr[j]) // prev
            else:
                for j in range(col + 1, n_cols):
                    mi[j] = mi[j] * piv // prev
            mi[col] = 0
        prev = piv
        r += 1
    return pivot_rows, pivot_cols, trace


def _back_substitute(
    m: List[List[int]], pivot_cols: List[int], x: List[Fraction]
) -> List[Fraction]:
    """Fill ``x`` at the pivot columns so every echelon row annihilates it.

    The entries of ``x`` at the other columns are fixed by the caller.
    """
    n = len(x)
    for r in range(len(pivot_cols) - 1, -1, -1):
        pc, row = pivot_cols[r], m[r]
        s = sum(row[j] * x[j] for j in range(pc + 1, n) if x[j])
        x[pc] = Fraction(-s, row[pc])
    return x


def exact_rank_certificate(matrix, *, max_columns: int = MAX_COLUMNS) -> RankCertificate:
    """Exact rank over Q with the pivot pattern used to establish it."""
    rows = _as_rows(matrix)
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    if n_cols > max_columns:
        raise CapacityError("exact_rank", n_cols, max_columns)
    pivot_rows, pivot_cols, trace = _echelon(_integerize(rows), n_cols)
    h = hashlib.sha256()
    h.update(repr((n_rows, n_cols)).encode())
    for p in trace:
        h.update(str(p).encode())
        h.update(b",")
    return RankCertificate(
        rank=len(pivot_cols),
        pivot_rows=tuple(pivot_rows),
        pivot_cols=tuple(pivot_cols),
        shape=(n_rows, n_cols),
        trace_digest=h.hexdigest(),
    )


def exact_rank(matrix, *, max_columns: int = MAX_COLUMNS) -> int:
    """Exact rank over Q (deterministic; see module docstring)."""
    return exact_rank_certificate(matrix, max_columns=max_columns).rank


def nullspace(matrix, *, max_columns: int = MAX_COLUMNS) -> List[List[Fraction]]:
    """Exact basis of the right kernel {v : M v = 0}.

    One vector per free column c: 1 at c, 0 at the other free columns.
    """
    rows = _as_rows(matrix)
    n_cols = len(rows[0]) if rows else 0
    if n_cols > max_columns:
        raise CapacityError("nullspace", n_cols, max_columns)
    m = _integerize(rows)
    _, pivot_cols, _ = _echelon(m, n_cols)
    pivots = set(pivot_cols)
    basis: List[List[Fraction]] = []
    for fc in range(n_cols):
        if fc not in pivots:
            v = [Fraction(0)] * n_cols
            v[fc] = Fraction(1)
            basis.append(_back_substitute(m, pivot_cols, v))
    return basis


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> List[Fraction]:
    """One exact solution of A x = b (free variables set to 0).

    Raises ValueError when the system is inconsistent.  Accepts any
    rectangular shape; used for small exact Vandermonde-type systems.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length must match row count")
    n_cols = len(rows[0]) if rows else 0
    m = _integerize([list(row) + [b] for row, b in zip(rows, rhs)])
    _, pivot_cols, _ = _echelon(m, n_cols + 1)
    if pivot_cols and pivot_cols[-1] == n_cols:
        raise ValueError("linear system is inconsistent")
    # the rhs column carries -1: a row annihilating (x, -1) reads A x = b
    x = [Fraction(0)] * n_cols + [Fraction(-1)]
    return _back_substitute(m, pivot_cols, x)[:n_cols]


# ---------------------------------------------------------------------------
# Border-rank style lower bounds from flattenings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatteningBound:
    """A lower bound with the polarization order that achieves it."""

    bound: int
    best_k: int
    ranks: Dict[int, int] = field(default_factory=dict)


def waring_border_lower_bound(p: Polynomial, *, max_columns: int = MAX_COLUMNS) -> FlatteningBound:
    """max_k rank P_{k,d-k}(p): a lower bound for Waring border rank.

    Rank-one points (powers of linear forms) have all catalecticants of
    rank one, and rank is subadditive and lower semicontinuous, hence the
    bound.
    """
    d = p.degree()
    if d is None or d < 1 or not p.is_homogeneous():
        raise ValueError("need a nonzero homogeneous polynomial of degree >= 1")
    ranks: Dict[int, int] = {}
    for k in range(1, d):
        ranks[k] = exact_rank(polarize(p, k), max_columns=max_columns)
    if not ranks:  # degree 1: the only flattening info is the poly itself
        return FlatteningBound(bound=1, best_k=0, ranks={})
    best_k = max(ranks, key=lambda k: (ranks[k], -k))
    return FlatteningBound(bound=ranks[best_k], best_k=best_k, ranks=ranks)


def chow_border_lower_bound(p: Polynomial, *, max_columns: int = MAX_COLUMNS) -> FlatteningBound:
    """max_k ceil(rank P_{k,d-k}(p) / C(d,k)): Chow border rank bound.

    A product of d linear forms has catalecticant rank exactly C(d,k)
    (its order-k partials span the products of the C(d,k) complementary
    subsets), so r points of the Chow variety give rank at most r*C(d,k).
    """
    d = p.degree()
    if d is None or d < 1 or not p.is_homogeneous():
        raise ValueError("need a nonzero homogeneous polynomial of degree >= 1")
    ranks: Dict[int, int] = {}
    bounds: Dict[int, int] = {}
    for k in range(1, d):
        rk = exact_rank(polarize(p, k), max_columns=max_columns)
        ranks[k] = rk
        bounds[k] = ceil(Fraction(rk, comb(d, k)))
    if not bounds:
        return FlatteningBound(bound=1, best_k=0, ranks={})
    best_k = max(bounds, key=lambda k: (bounds[k], -k))
    return FlatteningBound(bound=bounds[best_k], best_k=best_k, ranks=ranks)


def shifted_partials_dim(
    p: Polynomial, k: int, shift: int, *, max_columns: int = MAX_COLUMNS
) -> int:
    """dim of the shifted partial space  span{ m'' * d^{m'} p }.

    ``m'`` ranges over degree-k monomials, ``m''`` over degree-``shift``
    monomials.  The span lives in degree d - k + shift.
    """
    d = p.degree()
    if d is None or not p.is_homogeneous():
        raise ValueError("need a nonzero homogeneous polynomial")
    if not 0 <= k <= d:
        raise ValueError("k out of range")
    if shift < 0:
        raise ValueError("shift must be non-negative")
    v = p.num_vars
    diff_basis = monomials_of_degree(v, k)
    shift_basis = monomials_of_degree(v, shift)
    n_cols = len(diff_basis) * len(shift_basis)
    if n_cols > max_columns:
        raise CapacityError("shifted_partials_dim", n_cols, max_columns)
    target_basis = monomials_of_degree(v, d - k + shift)
    row_index = {e: i for i, e in enumerate(target_basis)}
    # columns as rows of the transpose: rank is the same and assembling
    # row-by-row keeps this allocation-friendly
    cols: List[List[Fraction]] = []
    partials = [apply_diff(Polynomial.monomial(m), p) for m in diff_basis]
    for q in partials:
        for s in shift_basis:
            col = [Fraction(0)] * len(target_basis)
            for e, c in q.terms.items():
                col[row_index[exponent_add(e, s)]] = c
            cols.append(col)
    return exact_rank(cols, max_columns=max(max_columns, len(target_basis)))
