"""Exact ranks of flattenings and the border-rank lower bounds they give.

One row format serves every matrix that is eliminated: a row is a
``{column: coefficient}`` dict holding its nonzero entries only, and a
matrix is a sequence of such rows with an explicit width.  One builder,
``gct.poly.shifted_partials``, fills them for catalecticants, shifted
partials and the stabilizer system; h_{d,n} blocks fill them directly.
Catalecticants and h_{d,n} blocks come back as a ``SparseMatrix``: the
nonzero rows keyed by their packed codomain monomial or multiset, and a
``shape`` that counts the zero rows too; no basis is listed.  ``gct.poly``
is imported by the two bounds that polarize or shift a polynomial, and
``fractions`` where a Fraction is built, so an h_{d,n} process, whose
rows are ints, runs neither.

One elimination core serves rank, kernel and solve: a sparse
fraction-free elimination on primitive integer rows held as ``{col: int}``
dicts (denominators are cleared and contents divided out row by row, which
does not change the row space).  Rows wait in buckets by leading column;
columns are taken left to right, so the pivot columns are the column rank
profile.  A bucket's pivot is its row with the fewest nonzeros (then the
smallest |head|, then arrival order), and only the rows of that bucket are
updated, r -> (piv/g) r - (head/g) pivot_row with g = gcd(piv, head), an
invertible step over Q.  Kernel vectors come from back-substitution over
Q on the echelon rows, and a solution of A x = b is the kernel vector of
(A | -b) that is 1 at b's column.  Everything is exact; there is no
floating point or modular shortcut.

One capacity rule decides whether an elimination can finish
(``check_capacity``): a span of ``width`` vectors in a ``height``-dimensional
space is admitted when ``width`` is at most ``MAX_COLUMNS`` and its dense
size ``width * height`` at most ``MAX_COLUMNS**2``.  The dense size bounds
the rows stored and the work of the elimination; no dense array is
allocated.  Every builder applies the rule to exact predicted sizes
before building anything, and the core applies it again to the width
and row count it receives.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Sequence, Tuple

from . import CapacityError
from .monomials import monomial_count

if TYPE_CHECKING:  # names for the annotations; neither module runs here
    from fractions import Fraction

    from .poly import Polynomial

#: The width cap of ``check_capacity``; read at call time.
MAX_COLUMNS = 5000


def check_capacity(context: str, width: int, height: int) -> None:
    """Refuse a span of ``width`` vectors in a ``height``-dimensional space
    that elimination cannot finish: wider than ``MAX_COLUMNS``, or denser
    than ``MAX_COLUMNS**2`` entries."""
    cap = MAX_COLUMNS
    if width > cap:
        raise CapacityError(context, width, cap)
    if width * height > cap * cap:
        raise CapacityError(f"{context} entries", width * height, cap * cap)


def _sparse_rows(rows: Sequence[Dict], width: int, context: str) -> List[Dict[int, int]]:
    """The nonzero rows as fresh ``{col: int}`` primitive rows.

    A row's denominators are cleared and its content divided out, which
    keeps the row space.  The width and row count pass ``check_capacity``
    first; only the stored entries are read.
    """
    check_capacity(context, width, len(rows))
    out: List[Dict[int, int]] = []
    for row in rows:
        entries = {j: x for j, x in row.items() if x}
        if not entries:
            continue
        if any(type(x) is not int for x in entries.values()):
            from fractions import Fraction

            fracs = {j: Fraction(x) for j, x in entries.items()}
            denom = lcm(*(x.denominator for x in fracs.values()))
            entries = {j: x.numerator * (denom // x.denominator) for j, x in fracs.items()}
        g = gcd(*entries.values())
        if g > 1:
            entries = {j: x // g for j, x in entries.items()}
        out.append(entries)
    return out


def _echelon(
    rows: List[Dict[int, int]], n_cols: int
) -> List[Tuple[int, Dict[int, int]]]:
    """Sparse fraction-free forward pass, consuming ``rows``.

    Returns the echelon rows as (pivot column, row), columns ascending:
    the column rank profile of the input.
    """
    buckets: Dict[int, List[Dict[int, int]]] = {}
    for row in rows:
        buckets.setdefault(min(row), []).append(row)
    echelon: List[Tuple[int, Dict[int, int]]] = []
    for col in range(n_cols):
        bucket = buckets.pop(col, None)
        if bucket is None:
            continue
        # min keeps the first of equal keys: ties go to arrival order
        prow = min(bucket, key=lambda r: (len(r), abs(r[col])))
        piv = prow[col]
        echelon.append((col, prow))
        tail = [(j, y) for j, y in prow.items() if j != col]
        for row in bucket:
            if row is prow:
                continue
            head = row.pop(col)
            g = gcd(piv, head)
            a, b = piv // g, head // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, y in tail:
                v = row.get(j, 0) - b * y
                if v:
                    row[j] = v
                else:  # v == 0 only where row held b*y
                    del row[j]
            if row:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
                buckets.setdefault(min(row), []).append(row)
    return echelon


def exact_rank(rows: Sequence[Dict], width: int) -> int:
    """Exact rank over Q of sparse rows of the given width (see module
    docstring)."""
    return len(_echelon(_sparse_rows(rows, width, "exact_rank"), width))


def nullspace(rows: Sequence[Dict], width: int) -> List[List[Fraction]]:
    """Exact basis of the right kernel {v : M v = 0} of sparse rows.

    One vector per free column c: 1 at c, 0 at the other free columns, and
    at each pivot column the value back-substitution over Q gives it.
    """
    from fractions import Fraction

    echelon = _echelon(_sparse_rows(rows, width, "nullspace"), width)
    pivots = {pc for pc, _ in echelon}
    basis: List[List[Fraction]] = []
    for fc in range(width):
        if fc not in pivots:
            x = [Fraction(0)] * width
            x[fc] = Fraction(1)
            for pc, row in reversed(echelon):
                s = sum(y * x[j] for j, y in row.items() if j != pc and x[j])
                x[pc] = Fraction(-s, row[pc])
            basis.append(x)
    return basis


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> List[Fraction]:
    """One exact solution of A x = b (free variables set to 0).

    The kernel vector of (A | -b) that is 1 at b's column: that column is
    free exactly when A x = b is consistent, and its ``nullspace`` vector,
    0 at the other free columns, is (x, 1).  Raises ValueError when the
    system is inconsistent or the rows are ragged.  Accepts dense rows of
    any rectangular shape.  Meant for small systems with few free columns:
    ``nullspace`` back-substitutes one vector per free column and only the
    last is read, so a wide underdetermined system pays for all of them.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length must match row count")
    n_cols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise ValueError(f"row {i} has length {len(row)}, row 0 has {n_cols}")
    augmented = [dict(enumerate([*row, -b])) for row, b in zip(rows, rhs)]
    basis = nullspace(augmented, n_cols + 1)
    if not basis or not basis[-1][n_cols]:
        raise ValueError("linear system is inconsistent")
    return basis[-1][:n_cols]


class SparseMatrix(NamedTuple):
    """``rows`` maps a row key to its ``{column: coefficient}`` nonzero
    entries, nonzero rows only; ``shape`` counts the zero rows too."""

    rows: Dict[object, Dict]
    shape: Tuple[int, int]

    def rank(self) -> int:
        return exact_rank(list(self.rows.values()), self.shape[1])


# ---------------------------------------------------------------------------
# Border-rank style lower bounds from flattenings
# ---------------------------------------------------------------------------


class FlatteningBound(NamedTuple):
    """A lower bound with the polarization order that achieves it."""

    bound: int
    best_k: int
    ranks: Dict[int, int]


def _catalecticant_ranks(p: Polynomial, d: int) -> Dict[int, int]:
    """rank P_{k,d-k}(p) for k = 1..d-1, eliminating only k <= d/2.

    P_{d-k,k} = D1 P_{k,d-k}^T D2 with nonzero diagonal D's (both entries
    are one coefficient of p times a ratio of factorials), so the two
    ranks agree.  k = d//2 goes first: the monomial counts C(v-1+k, k) are
    log-concave in k, so it is the widest and the densest, and a refusal
    comes before any smaller one is eliminated.
    """
    from .poly import polarize

    half = {k: polarize(p, k).rank() for k in range(d // 2, 0, -1)}
    return {k: half[min(k, d - k)] for k in range(1, d)}


def _border_lower_bound(
    p: Polynomial, point_rank: Callable[[int, int], int]
) -> FlatteningBound:
    """max_k ceil(rank P_{k,d-k}(p) / point_rank(d, k)), where
    point_rank(d, k) is the catalecticant rank of one point of the variety:
    r points span at most r * point_rank(d, k), and rank is subadditive and
    lower semicontinuous."""
    d = p.degree()
    if d is None or d < 1 or not p.is_homogeneous():
        raise ValueError("need a nonzero homogeneous polynomial of degree >= 1")
    ranks = _catalecticant_ranks(p, d)
    if not ranks:  # degree 1: the only flattening info is the poly itself
        return FlatteningBound(bound=1, best_k=0, ranks={})
    bounds = {k: -(-rk // point_rank(d, k)) for k, rk in ranks.items()}
    best_k = max(bounds, key=lambda k: (bounds[k], -k))
    return FlatteningBound(bound=bounds[best_k], best_k=best_k, ranks=ranks)


def waring_border_lower_bound(p: Polynomial) -> FlatteningBound:
    """max_k rank P_{k,d-k}(p): a lower bound for Waring border rank.

    Rank-one points (powers of linear forms) have all catalecticants of
    rank one.
    """
    return _border_lower_bound(p, lambda d, k: 1)


def chow_border_lower_bound(p: Polynomial) -> FlatteningBound:
    """max_k ceil(rank P_{k,d-k}(p) / C(d,k)): Chow border rank bound.

    A product of d linear forms has catalecticant rank exactly C(d,k)
    (its order-k partials span the products of the C(d,k) complementary
    subsets).
    """
    return _border_lower_bound(p, comb)


def shifted_partials_dim(p: Polynomial, k: int, shift: int) -> int:
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
    from .poly import shifted_partials

    v = p.num_vars
    # one column per product m'' * d^{m'} p
    width = monomial_count(v, k) * monomial_count(v, shift)
    check_capacity(
        f"shifted partials (k={k}, shift={shift}) on C^{v}",
        width,
        monomial_count(v, d - k + shift),
    )
    return exact_rank(list(shifted_partials(p, k, shift).values()), width)
