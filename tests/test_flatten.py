"""Exact linear algebra: the sparse elimination core against the Bareiss
core it replaced and an independent Gauss oracle, nullspaces and solving
against the Gauss-Jordan eliminators before that, and flattening lower
bounds."""

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from gct.flatten import (
    CapacityError,
    _echelon,
    _sparse_rows,
    chow_border_lower_bound,
    exact_rank,
    nullspace,
    shifted_partials_dim,
    solve_linear,
    waring_border_lower_bound,
)
from gct.poly import Polynomial, polarize
from gct import flatten, poly, zoo
from gct.zoo import chow, det, fermat

from conftest import fraction_matrices, polynomials, sparse


# ---------------------------------------------------------------------------
# Oracle: the former dense Bareiss core of gct.flatten
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankCertificate:
    rank: int
    pivot_rows: Tuple[int, ...]
    pivot_cols: Tuple[int, ...]
    shape: Tuple[int, int]
    trace_digest: str


def _integerize(rows) -> List[List[int]]:
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


def bareiss_echelon(m: List[List[int]], n_cols: int):
    """Bareiss forward pass on integer rows, in place.

    Returns (pivot_rows, pivot_cols, trace): each pivot's original row
    index, its column and its value.  Pivots: leftmost available column,
    then the candidate row whose entry has the smallest absolute value
    (ties broken by row index).
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


def exact_rank_certificate(rows) -> RankCertificate:
    """Exact rank over Q with the Bareiss pivot pattern that established it."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivot_rows, pivot_cols, trace = bareiss_echelon(_integerize(rows), n_cols)
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


def sparse_pivot_cols(rows) -> Tuple[int, ...]:
    """The pivot columns of the library's sparse core."""
    rows, width = sparse(rows)
    return tuple(col for col, _ in _echelon(_sparse_rows(rows, width, "test"), width))


@st.composite
def sparse_low_rank_matrices(draw, max_size: int = 12):
    """Mostly-zero matrices L R with thin integer factors (inner size r at
    most min(m, n), usually below), some rows scaled by 1/k."""
    m = draw(st.integers(1, max_size))
    n = draw(st.integers(1, max_size))
    r = draw(st.integers(0, min(m, n)))
    entry = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2, -3])
    left = [[draw(entry) for _ in range(r)] for _ in range(m)]
    right = [[draw(entry) for _ in range(n)] for _ in range(r)]
    rows = [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)] if r else [0] * n
            for lrow in left]
    scales = [draw(st.sampled_from([1, 1, 1, 2, 3])) for _ in range(m)]
    return [[Fraction(x, s) if s > 1 else x for x in row] for row, s in zip(rows, scales)]


def rref_rank(rows):
    """Independent oracle: plain fraction Gauss elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n_rows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def gauss_jordan_nullspace(rows):
    """Oracle: the former Fraction Gauss-Jordan kernel basis of gct.flatten."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivot_col_of_row = []
    r = 0
    for col in range(n_cols):
        if r >= n_rows:
            break
        sel = -1
        for i in range(r, n_rows):
            if m[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        m[r], m[sel] = m[sel], m[r]
        piv = m[r][col]
        m[r] = [x / piv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_col_of_row.append(col)
        r += 1
    pivot_cols = set(pivot_col_of_row)
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for row_i, pc in enumerate(pivot_col_of_row):
            v[pc] = -m[row_i][fc]
        basis.append(v)
    return basis


def gauss_jordan_solve(rows, rhs):
    """Oracle: the former Fraction Gauss-Jordan solver of gct.flatten."""
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    if len(a) != len(b):
        raise ValueError("rhs length must match row count")
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    pivot_col_of_row = []
    r = 0
    for col in range(n_cols):
        if r >= n_rows:
            break
        sel = -1
        for i in range(r, n_rows):
            if a[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        a[r], a[sel] = a[sel], a[r]
        b[r], b[sel] = b[sel], b[r]
        piv = a[r][col]
        a[r] = [x / piv for x in a[r]]
        b[r] = b[r] / piv
        for i in range(n_rows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                b[i] = b[i] - f * b[r]
        pivot_col_of_row.append(col)
        r += 1
    for i in range(r, n_rows):
        if b[i] != 0:
            raise ValueError("linear system is inconsistent")
    x = [Fraction(0)] * n_cols
    for row_i, pc in enumerate(pivot_col_of_row):
        x[pc] = b[row_i]
    return x


def _solve_or_raise(solver, rows, rhs):
    try:
        return solver(rows, rhs)
    except ValueError:
        return "inconsistent"


# ---------------------------------------------------------------------------
# Ranks
# ---------------------------------------------------------------------------


def test_rank_known_matrices():
    assert exact_rank(*sparse([[1, 0], [0, 1]])) == 2
    assert exact_rank(*sparse([[0, 0], [0, 0]])) == 0
    assert exact_rank(*sparse([[1, 2, 3], [2, 4, 6], [1, 1, 1]])) == 2
    # rank-one outer product
    outer = [[i * j for j in range(1, 5)] for i in range(1, 4)]
    assert exact_rank(*sparse(outer)) == 1


def test_rank_bareiss_zero_head_regression():
    """The weight-graded h_{2,2} block matrix has rank 6.

    It made a buggy Bareiss elimination return 4 instead of 6: skipping
    the zero-head rescale broke the fraction-free invariant, and a later
    floor division silently zeroed live rows.  The sparse core must get
    it right too.
    """
    h = Fraction(1, 2)
    m = [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, h, 0, 0],
        [0, 0, 1, h, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    assert exact_rank(*sparse(m)) == 6
    assert rref_rank(m) == 6
    assert sparse_pivot_cols(m) == (0, 1, 2, 3, 4, 5)
    # literal values: pivot order and pivot values are part of the
    # oracle's certificate, so a change of its elimination order shows here
    cert = exact_rank_certificate(m)
    assert cert.pivot_rows == (0, 1, 3, 2, 4, 5)
    assert cert.pivot_cols == (0, 1, 2, 3, 4, 5)
    assert cert.trace_digest == (
        "12788a86b950dc9a9233e2593ccec6a40c974b0f4c001bc43496ca0dbfb24fd0"
    )


@given(fraction_matrices())
@settings(max_examples=150)
def test_rank_matches_independent_elimination(rows):
    assert exact_rank(*sparse(rows)) == rref_rank(rows)


@given(sparse_low_rank_matrices())
@settings(max_examples=200)
def test_sparse_core_matches_the_oracles_on_sparse_low_rank(rows):
    cert = exact_rank_certificate(rows)
    assert exact_rank(*sparse(rows)) == rref_rank(rows) == cert.rank
    # the pivot columns are the column rank profile, whatever the pivot rows
    assert sparse_pivot_cols(rows) == cert.pivot_cols
    assert nullspace(*sparse(rows)) == gauss_jordan_nullspace(rows)


@given(fraction_matrices(max_rows=4, max_cols=4))
def test_rank_transpose_invariant(rows):
    t = [list(col) for col in zip(*rows)]
    assert exact_rank(*sparse(rows)) == exact_rank(*sparse(t))


def test_rank_certificate_pivots_index_a_nonsingular_minor():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 0, 1]]
    cert = exact_rank_certificate(rows)
    assert cert.shape == (4, 3)
    assert cert.rank == len(cert.pivot_rows) == len(cert.pivot_cols)
    minor = [
        [rows[i][j] for j in cert.pivot_cols] for i in cert.pivot_rows
    ]
    assert exact_rank(*sparse(minor)) == cert.rank == exact_rank(*sparse(rows))
    assert sparse_pivot_cols(rows) == cert.pivot_cols
    assert cert.trace_digest == exact_rank_certificate(rows).trace_digest
    # literal values, as in test_rank_bareiss_zero_head_regression
    assert cert.pivot_rows == (0, 2)
    assert cert.pivot_cols == (0, 1)
    assert cert.trace_digest == (
        "bd619e87e234125c763b1b3cfe19effc752fc4fd6877a1c84df7400048b52982"
    )


def test_sparse_rows_are_primitive_integer_rows(monkeypatch):
    h = Fraction(1, 2)
    dense = [[0, 0, 0], [1, h, 0], [Fraction(2, 3), 1, Fraction(1, 6)], (2, 4, 6), [0, -5, 0]]
    rows, n_cols = sparse(dense)
    out = _sparse_rows(rows, n_cols, "test")
    assert n_cols == 3
    assert out == [{0: 2, 1: 1}, {0: 4, 1: 6, 2: 1}, {0: 1, 1: 2, 2: 3}, {1: -1}]
    assert all(type(x) is int for row in out for x in row.values())
    # fresh rows, and a stored zero is dropped
    assert rows[1] == {0: 1, 1: h}
    assert _sparse_rows([{0: 0, 2: 4}, {1: Fraction(0)}], 3, "test") == [{2: 1}]
    monkeypatch.setattr(flatten, "MAX_COLUMNS", 2)
    with pytest.raises(CapacityError) as err:
        _sparse_rows(rows, n_cols, "test")
    assert (err.value.context, err.value.size, err.value.cap) == ("test", 3, 2)


def test_integerize_keeps_integer_rows():
    rows = [(1, -2, 0), [3, 4, 6], [0, 0, 0]]
    out = _integerize(rows)
    assert out == [[1, -2, 0], [3, 4, 6], [0, 0, 0]]
    assert all(type(row) is list for row in out)
    assert all(type(x) is int for row in out for x in row)
    out[1][0] = 99  # the elimination works in place on fresh rows
    assert rows[1] == [3, 4, 6]


def test_integerize_clears_denominators_of_mixed_rows():
    h = Fraction(1, 2)
    rows = [[1, h, 0], [Fraction(2, 3), 1, Fraction(1, 6)], [2, 4, 6], [Fraction(4), 0, 2]]
    out = _integerize(rows)
    assert out == [[2, 1, 0], [4, 6, 1], [2, 4, 6], [4, 0, 2]]
    assert all(type(x) is int for row in out for x in row)


@pytest.mark.parametrize(
    "rows,pivot_rows,digest",
    [
        (
            [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, Fraction(1, 2), 0, 0],
             [0, 0, 1, Fraction(1, 2), 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
            (0, 1, 3, 2, 4, 5),
            "12788a86b950dc9a9233e2593ccec6a40c974b0f4c001bc43496ca0dbfb24fd0",
        ),
        (
            [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 0, 1]],
            (0, 2),
            "bd619e87e234125c763b1b3cfe19effc752fc4fd6877a1c84df7400048b52982",
        ),
    ],
)
def test_integer_rows_keep_the_pinned_certificates(rows, pivot_rows, digest):
    """The pivots and trace digest pinned above, whichever path each row
    takes: as written, all Fractions, and Fractions on the even rows only."""
    for form in (
        rows,
        [[Fraction(x) for x in row] for row in rows],
        [[Fraction(x) for x in row] if i % 2 == 0 else row for i, row in enumerate(rows)],
    ):
        cert = exact_rank_certificate(form)
        assert cert.pivot_rows == pivot_rows
        assert cert.trace_digest == digest


def test_rank_capacity_cap(monkeypatch):
    wide = [[0] * 10]
    monkeypatch.setattr(flatten, "MAX_COLUMNS", 5)
    with pytest.raises(CapacityError) as err:
        exact_rank(*sparse(wide))
    assert err.value.size == 10
    assert err.value.cap == 5


def test_sparse_matrix_rank():
    fm = polarize(det(3), 1)
    assert fm.rank() == 9
    assert nullspace(list(fm.rows.values()), fm.shape[1]) == []


# ---------------------------------------------------------------------------
# Nullspace and solving
# ---------------------------------------------------------------------------


@given(fraction_matrices(max_rows=4, max_cols=5))
@settings(max_examples=80)
def test_nullspace_is_exact_kernel_basis(rows):
    basis = nullspace(*sparse(rows))
    n_cols = len(rows[0])
    assert len(basis) == n_cols - exact_rank(*sparse(rows))
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    if basis:
        assert exact_rank(*sparse(basis)) == len(basis)
    assert basis == gauss_jordan_nullspace(rows)


def test_solve_linear_known_and_inconsistent():
    x = solve_linear([[2, 0], [0, 4]], [6, 8])
    assert x == [3, 2]
    with pytest.raises(ValueError):
        solve_linear([[1, 1], [1, 1]], [0, 1])
    assert solve_linear([[0, 0], [0, 0]], [0, 0]) == [0, 0]
    with pytest.raises(ValueError):
        solve_linear([[0, 0], [0, 0]], [0, 1])
    assert solve_linear([], []) == []
    with pytest.raises(ValueError):
        solve_linear([[]], [1])
    # tall Vandermonde system, consistent: the data come from a cubic
    coeffs = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(2, 3)]
    points = range(-2, 5)
    vander = [[Fraction(t) ** k for k in range(4)] for t in points]
    values = [sum(c * v for c, v in zip(coeffs, row)) for row in vander]
    assert solve_linear(vander, values) == coeffs
    assert gauss_jordan_solve(vander, values) == coeffs


def test_solve_linear_refuses_ragged_rows():
    """A short or long row is named, not padded: a short row's rhs would
    land in a coefficient column, and a long row's last entry in b's."""
    with pytest.raises(ValueError, match="row 1 has length 1, row 0 has 2"):
        solve_linear([[1, 0], [1]], [1, 3])
    with pytest.raises(ValueError, match="row 1 has length 2, row 0 has 1"):
        solve_linear([[1], [0, 1]], [5, 7])
    with pytest.raises(ValueError, match="row 2 has length 3"):
        solve_linear([[1, 0], [0, 1], [1, 1, 1]], [1, 2, 3])


@given(fraction_matrices(max_rows=4, max_cols=4), st.integers(0, 2**30))
@settings(max_examples=60)
def test_solve_linear_solves_consistent_systems(rows, seed):
    import random

    rng = random.Random(seed)
    x0 = [Fraction(rng.randint(-5, 5)) for _ in rows[0]]
    rhs = [sum(a * b for a, b in zip(row, x0)) for row in rows]
    x = solve_linear(rows, rhs)
    for row, b in zip(rows, rhs):
        assert sum(a * c for a, c in zip(row, x)) == b
    assert x == gauss_jordan_solve(rows, rhs)
    # an arbitrary right-hand side: both refuse, or both give one vector
    other = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in rows]
    assert _solve_or_raise(solve_linear, rows, other) == _solve_or_raise(
        gauss_jordan_solve, rows, other
    )


# ---------------------------------------------------------------------------
# Flattening bounds
# ---------------------------------------------------------------------------


def test_waring_bound_on_powers_of_linear_forms_is_one():
    ell = Polynomial.linear_form([1, 2, -1])
    b = waring_border_lower_bound(ell**4)
    assert b.bound == 1
    assert all(r == 1 for r in b.ranks.values())


def test_waring_bound_fermat_and_chow():
    assert waring_border_lower_bound(fermat(3, 2)).bound == 2
    # partials of x1 x2 x3 of order 1 span three monomials
    b = waring_border_lower_bound(chow(3))
    assert b.bound == 3
    assert b.ranks[1] == 3


def test_chow_bound_is_one_on_chow_points():
    # a product of linear forms: every catalecticant has rank exactly C(d,k)
    p = (
        Polynomial.linear_form([1, 1])
        * Polynomial.linear_form([1, -1])
        * Polynomial.linear_form([2, 1])
    )
    b = chow_border_lower_bound(p)
    assert b.bound == 1


def test_chow_bound_det3():
    from math import comb

    b = chow_border_lower_bound(det(3))
    # middle catalecticant of det_3 has rank 9, C(3,1) = 3
    assert b.ranks[1] == 9
    assert b.bound >= 3
    for k, r in b.ranks.items():
        assert r <= comb(9 + k - 1, k)


ZOO_CASES = [
    ("det", (4,)), ("perm", (4,)), ("imm", (2, 4)), ("elem", (6, 4)), ("chow", (5,)),
    ("fermat", (4, 3)), ("sumprod", (4, 2)), ("pascal_det", (2,)), ("p_lambda", (3,)),
    ("discriminant", ()), ("padded_elem", (4, 2)),
]


@pytest.mark.parametrize("name,params", ZOO_CASES)
def test_catalecticant_ranks_are_symmetric_in_k(name, params):
    """rank P_{k,d-k} = rank P_{d-k,k}, which lets the bounds eliminate
    only k <= d/2; their ranks dicts still list every k."""
    p = zoo.make(name, *params)
    d = p.degree()
    ranks = {k: polarize(p, k).rank() for k in range(1, d)}
    for k in range(1, d):
        assert ranks[k] == ranks[d - k]
    waring = waring_border_lower_bound(p).ranks
    assert waring == ranks and list(waring) == list(range(1, d))
    assert chow_border_lower_bound(p).ranks == ranks


@given(polynomials(max_vars=3, max_terms=6, homogeneous_degree=5))
@settings(max_examples=40)
def test_catalecticant_rank_symmetry_on_random_quintics(p):
    if p.is_zero():
        return
    for k in range(1, 5):
        assert polarize(p, k).rank() == polarize(p, 5 - k).rank()


def test_waring_bound_rejects_inhomogeneous():
    p = Polynomial.one(2) + Polynomial.variable(0, 2)
    with pytest.raises(ValueError):
        waring_border_lower_bound(p)


# ---------------------------------------------------------------------------
# Shifted partials
# ---------------------------------------------------------------------------


def test_shifted_partials_with_zero_shift_is_catalecticant_rank():
    for p in (det(3), chow(4), fermat(3, 3)):
        d = p.degree()
        for k in range(1, d):
            assert shifted_partials_dim(p, k, 0) == polarize(p, k).rank()


def test_shifted_partials_known_value():
    # x1 x2 x3: first partials are the three degree-2 complementary
    # monomials; multiplying by one variable spans 7 cubic monomials
    # (all except x1^3, x2^3, x3^3... exactly the ones divisible by a
    # proper product).  Verify against a hand count.
    dim = shifted_partials_dim(chow(3), 1, 1)
    monos = set()
    for i in range(3):
        partial = [1, 1, 1]
        partial[i] = 0
        for j in range(3):
            shifted = list(partial)
            shifted[j] += 1
            monos.add(tuple(shifted))
    assert dim == len(monos)


def test_shifted_partials_store_integral_coefficients_as_ints(monkeypatch):
    """perm_3 has integer coefficients, so every row entry is an int and
    the core never takes its Fraction path; a rational form keeps its
    Fractions."""
    seen = []

    def capture(rows, width):
        seen.append([x for row in rows for x in row.values()])
        return 0

    monkeypatch.setattr(flatten, "exact_rank", capture)
    shifted_partials_dim(zoo.perm(3), 2, 2)
    half = Polynomial.constant(9, Fraction(1, 2)) * zoo.perm(3)
    shifted_partials_dim(half, 1, 1)
    integral, rational = seen
    assert integral and all(type(x) is int for x in integral)
    assert all(type(x) is Fraction for x in rational)


def test_shifted_partials_capacity(monkeypatch):
    monkeypatch.setattr(flatten, "MAX_COLUMNS", 3)
    with pytest.raises(CapacityError):
        shifted_partials_dim(det(3), 1, 1)


@pytest.mark.parametrize(
    "cap,context,size",
    [(80, "", 81), (100, " entries", 81 * 165)],
    ids=["width", "dense"],
)
def test_shifted_partials_refused_by_each_clause(monkeypatch, cap, context, size):
    """k = shift = 1 on det_3: 81 products in the 165 cubics of C^9.  The
    width clause refuses 81 columns over a cap of 80; the dense clause
    refuses 81 x 165 entries over 100**2.  No partial is taken first."""
    assert shifted_partials_dim(det(3), 1, 1) == 65

    def forbidden(*args):
        raise AssertionError("a refused span was built")

    monkeypatch.setattr(flatten, "MAX_COLUMNS", cap)
    monkeypatch.setattr(poly, "apply_diff", forbidden)
    with pytest.raises(CapacityError) as err:
        shifted_partials_dim(det(3), 1, 1)
    assert err.value.context == "shifted partials (k=1, shift=1) on C^9" + context
    assert (err.value.size, err.value.cap) == (size, cap if not context else cap * cap)
