"""Tests for gct.geometry.

Independent oracles: permutation-sum determinants (scalar and with a
formal variable lambda for the characteristic coefficients), gradient /
Hessian checks at explicit rational points, and the classical closed
forms (Segre's det H(det_3) = -2 det_3^3, Sylvester--Franke, Cayley's
omega-process constant, det(H(Delta)) = 3888 Delta^2).
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from gct import flatten, geometry as geo
from gct.flatten import CapacityError, exact_rank
from gct.monomials import monomial_count, monomials_of_degree
from gct.poly import PolyMatrix, Polynomial, apply_diff, det_polymatrix
from gct.zoo import chow, det, discriminant, fermat, p_lambda, perm

from conftest import fraction_matrices, polynomials, sparse


def charpoly_coeffs(m, up_to=None):
    """cp_0..cp_up_to of a polynomial matrix (all of them by default)."""
    if up_to is None:
        up_to = m.size
    if up_to > m.size:
        raise ValueError("up_to exceeds matrix size")
    return [geo.cp_coefficient(m, s) for s in range(up_to + 1)]


def divisible(f, g):
    return geo.divide_exact(f, g) is not None


def scalar_det(matrix):
    n = len(matrix)
    acc = Fraction(0)
    for p in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            ln, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= matrix[i][p[i]]
        acc += sign * prod
    return acc


def charpoly_oracle(matrix):
    """Coefficients [c_0..c_N] with det(lambda I + A) = sum c_s lambda^{N-s},
    computed over Fraction[lambda] with list arithmetic: c_s = cp_s(A)."""
    n = len(matrix)

    def poly_mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def rec(rows, cols):
        if not rows:
            return [Fraction(1)]
        i = rows[0]
        acc = [Fraction(0)]
        for pos, j in enumerate(cols):
            entry = [matrix[i][j], Fraction(1)] if i == j else [matrix[i][j]]
            minor = rec(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = poly_mul(entry, minor)
            if pos % 2 == 1:
                term = [-t for t in term]
            acc = [
                (acc[k] if k < len(acc) else Fraction(0))
                + (term[k] if k < len(term) else Fraction(0))
                for k in range(max(len(acc), len(term)))
            ]
        return acc

    coeffs = rec(tuple(range(n)), tuple(range(n)))  # powers of lambda ascending
    coeffs += [Fraction(0)] * (n + 1 - len(coeffs))
    return [coeffs[n - s] for s in range(n + 1)]


# ---------------------------------------------------------------------------
# PolyMatrix basics
# ---------------------------------------------------------------------------


def test_polymatrix_validation():
    x = Polynomial.variable(0, 2)
    with pytest.raises(ValueError):
        PolyMatrix(2, ((x, x),))  # not square
    with pytest.raises(ValueError):
        PolyMatrix(2, ((x, Polynomial.one(3)), (x, x)))  # arity clash


def is_symmetric(m):
    return all(m.entries[i][j] == m.entries[j][i] for i in range(m.size) for j in range(i))


def trace(m):
    t = Polynomial.zero(m.num_vars)
    for i in range(m.size):
        t = t + m.entries[i][i]
    return t


def submatrix(m, rows, cols):
    return PolyMatrix(m.num_vars, tuple(tuple(m.entries[i][j] for j in cols) for i in rows))


def test_polymatrix_evaluate_submatrix_trace():
    h = geo.hessian(det(2))
    assert h.size == 4 and is_symmetric(h)
    assert trace(h) == Polynomial.zero(4)
    point = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    vals = h.evaluate(point)
    assert vals[0][3] == 1 and vals[1][2] == -1
    sub = submatrix(h, (0, 3), (0, 3))
    assert sub.size == 2 and sub.entries[0][1] == h.entries[0][3]


def test_hessian_literal():
    # P = x^2 + xy: H = [[2, 1], [1, 0]]
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    h = geo.hessian(x * x + x * y)
    assert h.entries[0][0] == Polynomial.constant(2, Fraction(2))
    assert h.entries[0][1] == Polynomial.one(2)
    assert h.entries[1][0] == Polynomial.one(2)
    assert h.entries[1][1] == Polynomial.zero(2)


# ---------------------------------------------------------------------------
# det_polymatrix / cp_coefficient vs scalar oracles
# ---------------------------------------------------------------------------


def _random_poly_matrix(v, size, rng, degree=1):
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = {}
            for _ in range(degree + 1):
                e = [0] * v
                e[rng.randrange(v)] = rng.randint(0, degree)
                c = Fraction(rng.randint(-3, 3))
                if c:
                    terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
            row.append(Polynomial(v, {e: c for e, c in terms.items() if c}))
        rows.append(tuple(row))
    return PolyMatrix(v, tuple(rows))


def test_det_polymatrix_vs_permutation_oracle():
    rng = random.Random(99)
    for size in (1, 2, 3):
        for _ in range(5):
            m = _random_poly_matrix(2, size, rng)
            point = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
            want = scalar_det([[e.evaluate(point) for e in row] for row in m.entries])
            assert det_polymatrix(m).evaluate(point) == want


def test_det_polymatrix_submatrix_selection():
    # 2x2 top-left minor of the generic 3x3 matrix is x11*x22 - x12*x21
    m = geo.generic_matrix(3)
    minor = det_polymatrix(m, (0, 1), (0, 1))
    want = Polynomial(
        9,
        {
            (1, 0, 0, 0, 1, 0, 0, 0, 0): Fraction(1),
            (0, 1, 0, 1, 0, 0, 0, 0, 0): Fraction(-1),
        },
    )
    assert minor == want


@given(fraction_matrices(max_rows=4, max_cols=4))
@settings(max_examples=40)
def test_cp_coefficients_match_charpoly_oracle(matrix):
    n = min(len(matrix), len(matrix[0]))
    matrix = [row[:n] for row in matrix[:n]]
    consts = PolyMatrix(
        1, tuple(tuple(Polynomial.constant(1, c) for c in row) for row in matrix)
    )
    want = charpoly_oracle(matrix)
    cps = charpoly_coeffs(consts)
    assert len(cps) == n + 1
    for s in range(n + 1):
        got = cps[s]
        assert got.evaluate([Fraction(0)]) == want[s], s


def test_cp_coefficient_bounds():
    m = geo.generic_matrix(2)
    assert geo.cp_coefficient(m, 0) == Polynomial.one(4)
    with pytest.raises(ValueError):
        geo.cp_coefficient(m, 5)
    with pytest.raises(ValueError):
        charpoly_coeffs(m, up_to=5)


def test_compound_basics():
    a = geo.generic_matrix(3)
    c1 = geo.compound(a, 1)
    assert c1.entries == a.entries
    c2 = geo.compound(a, 2)
    assert c2.size == 3
    # Sylvester--Franke in its smallest nontrivial case:
    # det(wedge^2 A) = det(A)^{C(2,1)} = det(A)^2
    d = det_polymatrix(a)
    assert det_polymatrix(c2) == d * d
    with pytest.raises(ValueError):
        geo.compound(a, 4)


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


@given(
    polynomials(num_vars=2, max_exp=3, max_terms=4),
    polynomials(num_vars=2, max_exp=2, max_terms=3),
)
@settings(max_examples=60)
def test_divide_exact_roundtrip(q, g):
    if g.is_zero():
        return
    f = g * q
    got = geo.divide_exact(f, g)
    assert got == q


def test_divide_exact_non_divisible():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    assert geo.divide_exact(x * x + y * y, x + y) is None
    assert divisible(x * x - y * y, x + y)
    assert not divisible(x * x + y * y, x + y)


def test_divide_exact_edge_cases():
    x = Polynomial.variable(0, 1)
    with pytest.raises(ZeroDivisionError):
        geo.divide_exact(x, Polynomial.zero(1))
    assert geo.divide_exact(Polynomial.zero(1), x) == Polynomial.zero(1)
    with pytest.raises(ValueError):
        geo.divide_exact(x, Polynomial.one(2))  # arity mismatch


def test_divide_exact_checks_arity_before_the_zero_dividend():
    """0 in 3 variables has no quotient by det_2 in 4: the arity check comes
    before the zero-dividend shortcut and the zero-divisor check."""
    for g in (det(2), Polynomial.zero(4)):
        with pytest.raises(ValueError, match="share the variable space"):
            geo.divide_exact(Polynomial.zero(3), g)


# ---------------------------------------------------------------------------
# sfturbo certificates
# ---------------------------------------------------------------------------


def test_sfturbo_v3_defaults():
    report = geo.verify_sfturbo(3)
    assert report.ok and bool(report)
    names = [c.name for c in report.checks]
    assert any("cp_9" in n for n in names) and any("cp_8" in n for n in names)
    assert "H(det_3)" in report.summary()
    assert all("[ok]" in line for line in report.summary().splitlines()[1:])


def test_sfturbo_v4_light_checks():
    report = geo.verify_sfturbo(4, checks=("cp1", "cp2_negative"))
    assert report.ok


def test_sfturbo_errors():
    with pytest.raises(ValueError):
        geo.verify_sfturbo(3, checks=("cp7",))
    with pytest.raises(CapacityError):
        geo.verify_sfturbo(5)
    for v in (0, 1, 2):
        with pytest.raises(ValueError):
            geo.verify_sfturbo(v)
    # cp8 and cp9 are closed forms stated at v = 3 only: a bad argument,
    # not a size refusal
    for name in ("cp8", "cp9"):
        with pytest.raises(ValueError, match="only at v = 3"):
            geo.verify_sfturbo(4, checks=(name,))


CP8_CLAIM = "cp_8 = det_3^2 * trace(AA^T)  (= 2 det_3^2 Q with Q = trace(AA^T)/2)"
CP9_CLAIM = "cp_9 = det(H(det_3)) = -2 det_3^3  (B. Segre, sign (-1)^{binom(3,2)})"

#: the full default report of each v: (claim, ok, detail) of every check, in order
SFTURBO_REPORTS = {
    3: [
        ("cp_1 = 0", True, "trace of H(det_3) is 0"),
        ("det_3 | cp_3 with cofactor degree 0", True, "cofactor degree 0, 1 terms"),
        ("det_3 does not divide cp_2", True, "division fails as the theorem requires"),
        (CP8_CLAIM, True, "exact equality"),
        (CP9_CLAIM, True, "exact equality"),
    ],
    4: [
        ("cp_1 = 0", True, "trace of H(det_4) is 0"),
        ("det_4 | cp_3 with cofactor degree 2", True, "cofactor degree 2, 16 terms"),
        ("det_4 does not divide cp_2", True, "division fails as the theorem requires"),
    ],
}


@pytest.mark.parametrize("v", [3, 4])
def test_sfturbo_default_reports_are_pinned(v):
    assert [tuple(c) for c in geo.verify_sfturbo(v).checks] == SFTURBO_REPORTS[v]


def test_sfturbo_failure_texts_are_pinned(monkeypatch):
    """What each kind of claim reports when it fails: no quotient, an
    unexpected quotient, a wrong cofactor degree, a closed-form mismatch."""
    every = ("cp1", "cp2_negative", "cp3", "cp5", "cp8", "cp9")
    monkeypatch.setattr(geo, "divide_exact", lambda f, g: None)
    monkeypatch.setattr(geo, "sum_of_products", lambda num_vars, terms: Polynomial.zero(num_vars))
    assert [tuple(c) for c in geo.verify_sfturbo(3, every).checks] == [
        ("cp_1 = 0", True, "trace of H(det_3) is 0"),
        ("det_3 does not divide cp_2", True, "division fails as the theorem requires"),
        ("det_3 | cp_3 with cofactor degree 0", False, "cofactor missing"),
        ("det_3 | cp_5 with cofactor degree 2", False, "cofactor missing"),
        (CP8_CLAIM, False, "mismatch"),
        (CP9_CLAIM, False, "mismatch"),
    ]
    monkeypatch.setattr(geo, "divide_exact", lambda f, g: Polynomial.variable(0, 9))
    assert [tuple(c) for c in geo.verify_sfturbo(3, ("cp2_negative", "cp3")).checks] == [
        ("det_3 does not divide cp_2", False, "unexpected quotient x1"),
        ("det_3 | cp_3 with cofactor degree 0", False, "cofactor degree 1, 1 terms"),
    ]


def test_sfturbo_cp5_v3():
    report = geo.verify_sfturbo(3, checks=("cp5",))
    assert report.ok
    (check,) = report.checks
    assert check.name == "det_3 | cp_5 with cofactor degree 2"
    assert check.detail == "cofactor degree 2, 9 terms"


def test_segre_identity_direct():
    """det(H(det_3)) = -2 det_3^3, computed from scratch."""
    d = det(3)
    h = geo.hessian(d)
    lhs = det_polymatrix(h)
    rhs = Polynomial.constant(9, Fraction(-2)) * d * d * d
    assert lhs == rhs


def test_cp8_closed_form_direct():
    d = det(3)
    h = geo.hessian(d)
    cp8 = geo.cp_coefficient(h, 8)
    assert cp8 == d * d * fermat(2, 9)  # trace(A A^T)


def test_discriminant_identity():
    assert geo.verify_discriminant_identity()
    # negative control: the identity is sensitive to the discriminant
    delta = discriminant()
    wrong = delta + Polynomial.monomial((2, 0, 0, 2))
    h = geo.hessian(wrong)
    assert det_polymatrix(h) != Polynomial.constant(4, Fraction(3888)) * wrong * wrong


def test_cayley_omega_constant():
    for n in (1, 2, 3):
        for s in (0, 1, 2):
            assert geo.cayley_check(n, s)
    with pytest.raises(CapacityError) as exc:
        geo.cayley_check(4, 1)
    assert (exc.value.size, exc.value.cap) == (4, 3)
    with pytest.raises(CapacityError) as exc:
        geo.cayley_check(2, 3)
    assert (exc.value.size, exc.value.cap) == (3, 2)


def test_sylvester_franke():
    assert geo.verify_sylvester_franke(3, 2, 2)  # det(wedge^2 A) = det^2
    assert geo.verify_sylvester_franke(3, 1, 1)  # cp_3(A) = det(A)
    assert geo.verify_sylvester_franke(2, 1, 1)
    assert geo.verify_sylvester_franke(4, 3, 3)  # det(wedge^3 A) = det^3
    with pytest.raises(CapacityError):
        geo.verify_sylvester_franke(5, 2, 1)
    with pytest.raises(ValueError):
        geo.verify_sylvester_franke(3, 4, 1)
    with pytest.raises(ValueError):
        geo.verify_sylvester_franke(3, 2, 5)  # cp index beyond compound size


# ---------------------------------------------------------------------------
# dual variety dimension probes
# ---------------------------------------------------------------------------


def test_dual_dimension_det3_literal_point():
    # diag(1, 1, 0): a rank-2 (smooth) zero of det_3
    w = [Fraction(x) for x in (1, 0, 0, 0, 1, 0, 0, 0, 0)]
    assert geo.dual_dimension_at(det(3), w) == 4  # 2n - 2


def test_dual_dimension_det_sampled():
    for n, want in ((3, 4), (4, 6)):
        rng = random.Random(123 + n)
        values = {
            geo.dual_dimension_at(det(n), geo.sample_det_smooth_zero(n, rng))
            for _ in range(6 if n == 3 else 3)
        }
        assert values == {want}


def test_dual_dimension_perm_special_points():
    for m, want in ((3, 7), (4, 14)):
        point = geo.perm_special_point(m)
        assert perm(m).evaluate(point) == 0
        assert geo.dual_dimension_at(perm(m), point) == want  # m^2 - 2


def test_dual_dimension_quadric():
    # Z(x1 x2) in C^2: the dual of a smooth quadric curve... here the
    # rank-2 quadric has Hessian [[0,1],[1,0]] everywhere: dual dim 0
    p = chow(2)
    assert geo.dual_dimension_at(p, [Fraction(1), Fraction(0)]) == 0


def test_dual_dimension_rejects_bad_points():
    with pytest.raises(ValueError):
        # the identity matrix has det = 1, not a zero
        geo.dual_dimension_at(det(2), [Fraction(1), Fraction(0), Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        geo.dual_dimension_at(det(3), [Fraction(0)] * 9)  # singular point


def test_dual_dimension_refuses_float_points():
    """0.1 + 0.2 is no exact zero: a float point is refused, not rounded to
    a binary fraction."""
    with pytest.raises(TypeError):
        geo.dual_dimension_at(det(2), [0.1, 0.2, 0.3, 0.6])
    point = [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(3, 5)]
    assert geo.dual_dimension_at(det(2), point) == 2  # 2n - 2


def test_sample_det_smooth_zero_properties():
    rng = random.Random(7)
    for _ in range(5):
        pt = geo.sample_det_smooth_zero(3, rng)
        m = [[pt[i * 3 + j] for j in range(3)] for i in range(3)]
        assert scalar_det(m) == 0
        assert exact_rank(*sparse(m)) == 2
    # determinism under a fixed seed
    a = geo.sample_det_smooth_zero(3, random.Random(42))
    b = geo.sample_det_smooth_zero(3, random.Random(42))
    assert a == b


def n_solve_det_smooth_zero(n, rng):
    """Oracle: the sampler before it took one solve, g D g^{-1} with every
    column of g^{-1} solved for; a singular g leaves some g x = e_j
    without a solution and is drawn again."""
    while True:
        g = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        basis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
        try:
            ginv_cols = [flatten.solve_linear(g, e) for e in basis]
        except ValueError:
            continue
        return [
            sum((g[i][k] * ginv_cols[j][k] for k in range(n - 1)), Fraction(0))
            for i in range(n)
            for j in range(n)
        ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sample_det_smooth_zero_matches_the_n_solve_oracle(n):
    """The same points, draw for draw, singular draws included (seed 1
    draws a singular g first at n = 3)."""
    for seed in range(40):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(2):
            got = geo.sample_det_smooth_zero(n, rng)
            assert got == n_solve_det_smooth_zero(n, oracle_rng), (n, seed)
            assert all(type(x) is Fraction for x in got)


def test_sample_det_smooth_zero_redraws_a_singular_draw():
    """Seed 1 draws a singular g first; the points are pinned from the
    version that tested rank g before inverting it."""
    rng = random.Random(1)
    first = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
    assert scalar_det(first) == 0
    rng = random.Random(1)
    got = [[str(x) for x in geo.sample_det_smooth_zero(3, rng)] for _ in range(2)]
    assert got == [
        ["-1/11", "1/11", "8/11", "12/11", "10/11", "-8/11", "-3/11", "1/44", "13/11"],
        ["10/21", "-2/3", "2/21", "-11/28", "1/2", "1/14", "-11/84", "-1/6", "43/42"],
    ]


def test_hessian_evaluates_to_nonzeros_only():
    """H(det_3) at diag(1, 1, 0): each stored entry is nonzero, and the
    rows agree with the dense evaluation of every entry."""
    point = [Fraction(x) for x in (1, 0, 0, 0, 1, 0, 0, 0, 0)]
    h = geo.hessian(det(3))
    rows = h.evaluate(point)
    assert all(x for row in rows for x in row.values())
    dense = [[e.evaluate(point) for e in row] for row in h.entries]
    assert rows == sparse(dense)[0]
    assert sum(map(len, rows)) == 8  # of 81 entries


# ---------------------------------------------------------------------------
# stabilizer Lie algebra dimensions
# ---------------------------------------------------------------------------


def test_stabilizer_dims_classical():
    assert geo.stabilizer_lie_dim(det(3)) == 16  # PGL x PGL image in gl_9
    assert geo.stabilizer_lie_dim(perm(3)) == 4  # two torus factors
    assert geo.stabilizer_lie_dim(chow(3)) == 2  # diagonal torus
    assert geo.stabilizer_lie_dim(fermat(3, 3)) == 0  # finite stabilizer


def test_stabilizer_dim_p_lambda():
    assert geo.stabilizer_lie_dim(p_lambda(3)) == 17


@pytest.mark.parametrize(
    "cap,context,size", [(80, "", 81), (90, " entries", 81 * 114)], ids=["width", "dense"]
)
def test_stabilizer_refused_by_each_clause(monkeypatch, cap, context, size):
    """det_3: 81 unknowns X_ij and 114 monomials x_i dP/dx_j.  The width
    clause refuses 81 columns over a cap of 80; the dense clause refuses
    81 x 114 entries over 90**2, before the dense rows exist."""

    def forbidden(*args):
        raise AssertionError("a refused system was eliminated")

    monkeypatch.setattr(flatten, "MAX_COLUMNS", cap)
    monkeypatch.setattr(geo, "exact_rank", forbidden)
    with pytest.raises(CapacityError) as err:
        geo.stabilizer_lie_dim(det(3))
    assert err.value.context == "stabilizer of a form in gl_9" + context
    assert (err.value.size, err.value.cap) == (size, cap if not context else cap * cap)


def test_stabilizer_stores_integral_coefficients_as_ints(monkeypatch):
    """det_4 has integer coefficients, so every row entry is an int; a
    rational form keeps its Fractions.  The dimensions do not change."""
    seen = []

    def capture(rows, width):
        seen.append([x for row in rows for x in row.values()])
        return exact_rank(rows, width)

    monkeypatch.setattr(geo, "exact_rank", capture)
    assert geo.stabilizer_lie_dim(det(4)) == 30
    half = Polynomial.constant(9, Fraction(1, 2)) * det(3)
    assert geo.stabilizer_lie_dim(half) == 16
    integral, rational = seen
    assert len(integral) == 1536 and all(type(x) is int for x in integral)
    assert all(type(x) is Fraction for x in rational)


def stabilizer_dim_oracle(p):
    """dim stab(P) from its own row builder: each term c x^e of P with
    e_j >= 1 gives x_i dP/dx_j the term c e_j x^(e - delta_j + delta_i),
    written in the row of that monomial at column i*v + j."""
    v = p.num_vars
    lowered = [
        [(e[:j] + (e[j] - 1,) + e[j + 1 :], c * e[j]) for e, c in p.terms.items() if e[j]]
        for j in range(v)
    ]
    rows = {}
    for i in range(v):
        for j in range(v):
            for low, coeff in lowered[j]:
                key = low[:i] + (low[i] + 1,) + low[i + 1 :]
                rows.setdefault(key, {})[i * v + j] = coeff
    return v * v - exact_rank(list(rows.values()), v * v) if rows else v * v


def _random_form(rng, v, d, terms):
    """``terms`` distinct degree-d monomials on C^v with small rational coefficients."""
    monos = rng.sample(monomials_of_degree(v, d), min(terms, monomial_count(v, d)))
    return Polynomial(v, {e: Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2])) for e in monos})


STABILIZER_FORMS = [
    det(2), det(3), perm(3), chow(3), fermat(3, 3), p_lambda(3),
    Polynomial.constant(9, Fraction(1, 2)) * det(3),
]


@pytest.mark.parametrize(
    "p", STABILIZER_FORMS, ids=["det2", "det3", "perm3", "chow3", "fermat3_3", "p_lambda3", "det3_half"]
)
def test_stabilizer_is_v_squared_minus_sp_1_1(p):
    """The orbit tangent span{x_i dP/dx_j} is SP_{1,1}(P), and the oracle's
    own row builder agrees."""
    v = p.num_vars
    dim = geo.stabilizer_lie_dim(p)
    assert dim == v * v - flatten.shifted_partials_dim(p, 1, 1)
    assert dim == stabilizer_dim_oracle(p)


def test_stabilizer_matches_row_builder_oracle_on_random_forms():
    rng = random.Random(2013)
    for _ in range(12):
        p = _random_form(rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 6))
        assert geo.stabilizer_lie_dim(p) == stabilizer_dim_oracle(p), p


def test_stabilizer_of_a_constant_is_everything():
    assert geo.stabilizer_lie_dim(Polynomial.constant(3, 5)) == 9


def test_stabilizer_dim_det2():
    # det_2 is a nondegenerate quadric in 4 variables: so(4), dim 6
    assert geo.stabilizer_lie_dim(det(2)) == 6


def test_stabilizer_requires_homogeneous():
    x = Polynomial.variable(0, 2)
    with pytest.raises(ValueError):
        geo.stabilizer_lie_dim(x * x + x)
