"""Tests for gct.zoo: generators, witnesses, and their verifiers.

Oracles here are deliberately independent of the implementations under
test: determinants via recursive cofactor expansion, permanents via the
brute-force permutation sum, P_Lambda via the t-linear coefficient of
det(M_skew + t M_sym) computed with scalar polynomials in t.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gct import zoo
from gct.flatten import CapacityError, solve_linear
from gct.poly import PolyMatrix, Polynomial, det_polymatrix

from conftest import (
    LinearSubstitution,
    fraction_matrices,
    grenet_witness,
    mul_oracle,
    polynomials,
    pow_oracle,
    small_fractions,
    substitute,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def det_oracle(matrix):
    """Recursive cofactor expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    acc = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * det_oracle(minor)
        acc += term if j % 2 == 0 else -term
    return acc


def perm_oracle(matrix):
    n = len(matrix)
    acc = Fraction(0)
    for p in permutations(range(n)):
        prod = Fraction(1)
        for i in range(n):
            prod *= matrix[i][p[i]]
        acc += prod
    return acc


def point_from_matrix(matrix):
    return [c for row in matrix for c in row]


# ---------------------------------------------------------------------------
# Generators: literal small cases
# ---------------------------------------------------------------------------


def test_det2_literal():
    p = zoo.det(2)
    assert p.terms == {
        (1, 0, 0, 1): Fraction(1),
        (0, 1, 1, 0): Fraction(-1),
    }


def test_perm2_literal():
    p = zoo.perm(2)
    assert p.terms == {
        (1, 0, 0, 1): Fraction(1),
        (0, 1, 1, 0): Fraction(1),
    }


def test_det_term_count_and_signs():
    for n in (1, 2, 3, 4):
        p = zoo.det(n)
        assert len(p.terms) == factorial(n)
        assert sum(p.terms.values()) == (1 if n == 1 else 0)  # sum of signs
        assert all(c in (1, -1) for c in p.terms.values())
        assert p.is_homogeneous() and p.degree() == n


@given(fraction_matrices(max_rows=4, max_cols=4))
def test_det_matches_cofactor_oracle(matrix):
    n = min(len(matrix), len(matrix[0]))
    matrix = [row[:n] for row in matrix[:n]]
    assert zoo.det(n).evaluate(point_from_matrix(matrix)) == det_oracle(matrix)


@given(fraction_matrices(max_rows=4, max_cols=4))
def test_perm_matches_bruteforce_oracle(matrix):
    n = min(len(matrix), len(matrix[0]))
    matrix = [row[:n] for row in matrix[:n]]
    assert zoo.perm(n).evaluate(point_from_matrix(matrix)) == perm_oracle(matrix)


def test_det_sl_conjugation_invariance():
    """det(AX) = det(X) for det(A) = 1, as a polynomial identity."""
    n = 3
    a = [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(-3)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    assert det_oracle(a) == 1
    # x_{ij} -> sum_k a_{ik} x_{kj}
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + j] = a[i][k]
            rows.append(tuple(row))
    sub = LinearSubstitution(n * n, n * n, tuple(rows))
    assert substitute(zoo.det(n), sub) == zoo.det(n)


def test_elem_term_count_and_values():
    from math import comb

    for n in range(1, 6):
        for k in range(0, n + 1):
            p = zoo.elem(n, k)
            assert len(p.terms) == comb(n, k)
            assert p.evaluate([Fraction(1)] * n) == comb(n, k)
    assert zoo.elem(3, 0) == Polynomial.one(3)
    assert zoo.elem(4, 4) == zoo.chow(4)
    with pytest.raises(ValueError):
        zoo.elem(3, 4)


def test_chow_fermat_sumprod_shapes():
    assert zoo.chow(3).terms == {(1, 1, 1): Fraction(1)}
    assert zoo.fermat(3, 2).terms == {(3, 0): Fraction(1), (0, 3): Fraction(1)}
    s = zoo.sumprod(2, 3)  # x11 x12 + x21 x22 + x31 x32 on 6 vars
    assert s.num_vars == 6
    assert s.terms == {
        (1, 1, 0, 0, 0, 0): Fraction(1),
        (0, 0, 1, 1, 0, 0): Fraction(1),
        (0, 0, 0, 0, 1, 1): Fraction(1),
    }


@given(st.integers(1, 2), st.integers(1, 3), st.data())
def test_imm_is_trace_of_product(k, n, data):
    """IMM^k_n evaluated at matrices equals trace(X_1 ... X_n)."""
    mats = [
        [[data.draw(small_fractions()) for _ in range(k)] for _ in range(k)]
        for _ in range(n)
    ]
    prod = [[Fraction(i == j) for j in range(k)] for i in range(k)]
    for m in mats:
        prod = [
            [sum((prod[i][l] * m[l][j] for l in range(k)), Fraction(0)) for j in range(k)]
            for i in range(k)
        ]
    trace = sum((prod[i][i] for i in range(k)), Fraction(0))
    point = [c for m in mats for row in m for c in row]
    assert zoo.imm(k, n).evaluate(point) == trace


def test_pascal_det_small():
    assert zoo.pascal_det(1) == Polynomial.variable(0, 1)
    p = zoo.pascal_det(2)
    assert p.num_vars == 16
    assert p.is_homogeneous() and p.degree() == 2

    def var(i, j, k, l):
        return ((i * 2 + j) * 2 + k) * 2 + l

    # direct triple-permutation oracle at a random-ish rational point
    point = [Fraction(x, 3) for x in range(-8, 8)]
    acc = Fraction(0)
    for s2 in permutations(range(2)):
        for s3 in permutations(range(2)):
            for s4 in permutations(range(2)):
                sign = zoo.perm_sign(s2) * zoo.perm_sign(s3) * zoo.perm_sign(s4)
                prod = Fraction(1)
                for i in range(2):
                    prod *= point[var(i, s2[i], s3[i], s4[i])]
                acc += sign * prod
    assert p.evaluate(point) == acc


def test_discriminant_vanishes_on_cubes_only():
    """Delta((x + t)^3 coefficients) = 0; a separable cubic gives nonzero."""
    delta = zoo.discriminant()
    for t in (Fraction(0), Fraction(2), Fraction(-1, 3)):
        coeffs = [Fraction(1), 3 * t, 3 * t * t, t**3]
        assert delta.evaluate(coeffs) == 0
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x: distinct roots, discriminant != 0
    assert delta.evaluate([Fraction(1), Fraction(-3), Fraction(2), Fraction(0)]) != 0


# ---------------------------------------------------------------------------
# Pfaffian and P_Lambda
# ---------------------------------------------------------------------------


def test_pfaffian_2x2_convention():
    a = Polynomial.variable(0, 1)
    zero = Polynomial.zero(1)
    assert zoo.pfaffian([[zero, a], [-a, zero]]) == a


def test_pfaffian_square_is_det_4x4():
    """Pf(A)^2 = det(A) for the generic skew 4x4 matrix (Cayley)."""
    v = 6
    x = [Polynomial.variable(i, v) for i in range(v)]
    zero = Polynomial.zero(v)
    rows = [
        [zero, x[0], x[1], x[2]],
        [-x[0], zero, x[3], x[4]],
        [-x[1], -x[3], zero, x[5]],
        [-x[2], -x[4], -x[5], zero],
    ]
    pf = zoo.pfaffian(rows)
    # Pf = x0 x5 - x1 x4 + x2 x3 in this labelling
    assert pf == Polynomial(
        v,
        {
            (1, 0, 0, 0, 0, 1): Fraction(1),
            (0, 1, 0, 0, 1, 0): Fraction(-1),
            (0, 0, 1, 1, 0, 0): Fraction(1),
        },
    )
    mat = PolyMatrix(v, tuple(tuple(row) for row in rows))
    assert pf * pf == det_polymatrix(mat)


def test_pfaffian_odd_size_rejected():
    zero = Polynomial.zero(1)
    with pytest.raises(ValueError):
        zoo.pfaffian([[zero] * 3 for _ in range(3)])


def pfaffian_oracle(rows):
    """The recursive first-row expansion zoo.pfaffian replaced, products by
    mul_oracle: Pf = sum_pos (-1)^pos a_{0,j} Pf(minor without 0 and j)."""

    def rec(idx):
        if not idx:
            return Polynomial.one(rows[0][0].num_vars)
        first, rest = idx[0], idx[1:]
        acc = Polynomial.zero(rows[0][0].num_vars)
        for pos, j in enumerate(rest):
            term = mul_oracle(rows[first][j], rec(rest[:pos] + rest[pos + 1 :]))
            acc = acc - term if pos % 2 else acc + term
        return acc

    return rec(tuple(range(len(rows))))


@st.composite
def skew_polymatrices(draw):
    """Skew-symmetric matrices of sizes 2, 4 and 6 over 0..3 variables: zero
    diagonal, polynomial entries above it (zero ones included), negated below."""
    v = draw(st.integers(0, 3))
    size = draw(st.sampled_from([2, 4, 6]))
    rows = [[Polynomial.zero(v)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = draw(polynomials(num_vars=v, max_exp=2, max_terms=3))
            rows[j][i] = -rows[i][j]
    return rows


@given(skew_polymatrices())
@settings(max_examples=60)
def test_pfaffian_matches_the_recursive_oracle(rows):
    assert zoo.pfaffian(rows) == pfaffian_oracle(rows)


def _t_linear_coefficient_of_det(skew, sym):
    """Coefficient of t^1 in det(skew + t*sym), entries scalar Fractions.

    Each entry is the degree-1 polynomial skew[i][j] + t*sym[i][j]; the
    determinant is expanded by the permutation sum with coefficient lists
    in t, fully independent of gct's polynomial arithmetic.
    """
    n = len(skew)
    acc = [Fraction(0)] * (n + 1)
    for p in permutations(range(n)):
        prod = [Fraction(1)]
        for i in range(n):
            entry = [skew[i][p[i]], sym[i][p[i]]]
            nxt = [Fraction(0)] * (len(prod) + 1)
            for a, ca in enumerate(prod):
                for b, cb in enumerate(entry):
                    nxt[a + b] += ca * cb
            prod = nxt
        sign = zoo.perm_sign(p)
        for d, c in enumerate(prod):
            acc[d] += sign * c
    return acc[1]


@settings(max_examples=30)
@given(st.lists(small_fractions(), min_size=9, max_size=9))
def test_p_lambda_is_t_linear_coefficient(values):
    """P_Lambda(M) = d/dt det(M_skew + t M_sym) at t=0, checked pointwise."""
    n = 3
    m = [[values[i * n + j] for j in range(n)] for i in range(n)]
    half = Fraction(1, 2)
    sym = [[(m[i][j] + m[j][i]) * half for j in range(n)] for i in range(n)]
    skew = [[(m[i][j] - m[j][i]) * half for j in range(n)] for i in range(n)]
    want = _t_linear_coefficient_of_det(skew, sym)
    assert zoo.p_lambda(n).evaluate(values) == want


def test_p_lambda_shape():
    p = zoo.p_lambda(3)
    assert p.num_vars == 9
    assert p.is_homogeneous() and p.degree() == 3
    assert zoo.p_lambda(1) == Polynomial.variable(0, 1)
    with pytest.raises(ValueError):
        zoo.p_lambda(2)


# ---------------------------------------------------------------------------
# make() dispatch
# ---------------------------------------------------------------------------


def test_make_dispatch():
    assert zoo.make("det", 2) == zoo.det(2)
    assert zoo.make("padded_elem", 3, 2) == zoo.padded_elem(3, 2)
    with pytest.raises(KeyError):
        zoo.make("nosuchpoly", 1)
    with pytest.raises(ValueError):
        zoo.make("det", 2, 3)
    with pytest.raises(ValueError):
        zoo.make("fermat", 3)


@pytest.mark.parametrize(
    "name,args",
    [("det", (0,)), ("perm", (0,)), ("chow", (0,)), ("fermat", (0, 2)), ("sumprod", (2, 0)),
     ("imm", (0, 2)), ("pascal_det", (0,)), ("pfaffian", ([],)), ("padded_elem", (3, 0)),
     ("fischer_decomposition", (0,)), ("ryser_decomposition", (0,)), ("benor_decomposition", (2, 3))],
)
def test_out_of_range_parameters_are_value_errors(name, args):
    with pytest.raises(ValueError):
        getattr(zoo, name)(*args)


def test_support_adds_equal_monomials_and_drops_cancelled_sums():
    """x1 x2 twice adds to 5 x1 x2; x3^2 - x3^2 cancels and is dropped,
    also when it first appears before the surviving terms."""
    p = zoo._support(3, [([2, 2], 1), ((0, 1), 2), ([1, 0], 3), ([2, 2], -1), ([], 4)])
    assert list(p.terms.items()) == [((1, 1, 0), Fraction(5)), ((0, 0, 0), Fraction(4))]
    assert all(type(c) is Fraction for c in p.terms.values())


def test_padded_elem_is_homogenized_elem():
    p = zoo.padded_elem(4, 2)
    assert p.num_vars == 5
    assert p.is_homogeneous() and p.degree() == 4
    # setting l = 1 recovers e^2_4
    at_l1 = {e[:4]: c for e, c in p.terms.items()}
    assert at_l1 == dict(zoo.elem(4, 2).terms)
    assert all(e[4] == 2 for e in p.terms)


# ---------------------------------------------------------------------------
# compare_exact and witness verifiers
# ---------------------------------------------------------------------------


def test_compare_exact_reports_grevlex_first_mismatch():
    v = 2
    x = Polynomial.variable(0, v)
    y = Polynomial.variable(1, v)
    got = x * x + y * y * 2
    want = x * x + y * y * 3 + x * y
    report = zoo.compare_exact(got, want, "demo")
    assert not report
    assert not report.ok
    # mismatches at x*y (1,1) and y^2 (0,2); grevlex-first is x*y
    assert report.message == "demo: FAIL at monomial (1, 1) (want 1, got 0)"

    good = zoo.compare_exact(got, got, "demo")
    assert good == (True, "demo: PASS")


def test_compare_exact_arity_mismatch():
    report = zoo.compare_exact(Polynomial.one(2), Polynomial.one(3), "demo")
    assert not report.ok and "arity mismatch" in report.message


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fischer_decomposition(n):
    dec = zoo.fischer_decomposition(n)
    assert len(dec.terms) == 2 ** (n - 1)
    assert dec.degree == n
    report = zoo.verify_waring(dec, zoo.chow(n))
    assert report.ok, report.message


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ryser_decomposition(n):
    dec = zoo.ryser_decomposition(n)
    assert len(dec.terms) == 2 ** (n - 1)
    report = zoo.verify_chow(dec, zoo.perm(n))
    assert report.ok, report.message


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_benor_decomposition_all_k(m):
    for k in range(1, m + 1):
        pts = zoo.benor_evaluation_points(m, k)
        assert len(pts) == m and len(set(pts)) == m
        dec = zoo.benor_decomposition(m, k)
        assert len(dec.terms) == m
        report = zoo.verify_chow(dec, zoo.padded_elem(m, k))
        assert report.ok, report.message


def test_benor_coefficients_solve_the_vandermonde_system():
    """The closed-form Lagrange coefficients are the exact solution of
    sum_u c_u u^j = delta_{j, m-k} for j = 0..m, as the linear solver gives it."""
    for m in range(1, 9):
        for k in range(1, m + 1):
            pts = zoo.benor_evaluation_points(m, k)
            rows = [[u**j for u in pts] for j in range(m + 1)]
            rhs = [Fraction(int(j == m - k)) for j in range(m + 1)]
            coeffs = [c for c, _ in zoo.benor_decomposition(m, k).terms]
            assert coeffs == solve_linear(rows, rhs), (m, k)
            assert all(type(c) is Fraction for c in coeffs), (m, k)


def test_verify_waring_detects_corruption():
    dec = zoo.fischer_decomposition(3)
    bad = zoo.WaringDecomposition(
        num_vars=dec.num_vars,
        degree=dec.degree,
        terms=((dec.terms[0][0] * 2, dec.terms[0][1]),) + dec.terms[1:],
    )
    report = zoo.verify_waring(bad, zoo.chow(3))
    assert not report.ok and "FAIL at monomial" in report.message


def waring_expand_oracle(dec):
    """WaringDecomposition.expand as it was: one power and sum per term, the
    power by square-and-multiply over mul_oracle."""
    acc = Polynomial.zero(dec.num_vars)
    for coeff, form in dec.terms:
        acc = acc + pow_oracle(Polynomial.linear_form(form), dec.degree).scale(coeff)
    return acc


def chow_expand_oracle(dec):
    """ChowDecomposition.expand as it was: one mul_oracle product at a time."""
    acc = Polynomial.zero(dec.num_vars)
    for coeff, forms in dec.terms:
        prod_poly = Polynomial.constant(dec.num_vars, coeff)
        for form in forms:
            prod_poly = mul_oracle(prod_poly, Polynomial.linear_form(form))
        acc = acc + prod_poly
    return acc


@st.composite
def random_decompositions(draw):
    """A Waring and a Chow witness on 0..3 variables with the same random
    terms: mixed denominators, zero coefficients and zero forms."""
    v = draw(st.integers(0, 3))
    forms = st.lists(small_fractions(max_abs=3), min_size=v, max_size=v).map(tuple)
    d = draw(st.integers(0, 4))
    terms = draw(st.lists(st.tuples(small_fractions(), st.lists(forms, min_size=d, max_size=d)), max_size=4))
    waring = zoo.WaringDecomposition(v, d, tuple((c, fs[0] if fs else (Fraction(0),) * v) for c, fs in terms))
    return waring, zoo.ChowDecomposition(v, tuple((c, tuple(fs)) for c, fs in terms))


@given(random_decompositions())
@settings(max_examples=80)
def test_expansions_match_the_polynomial_oracles(decs):
    waring, chow_dec = decs
    assert waring.expand() == waring_expand_oracle(waring)
    assert chow_dec.expand() == chow_expand_oracle(chow_dec)
    # the same terms once more with opposite coefficients cancel to zero
    negated = chow_dec._replace(terms=chow_dec.terms + tuple((-c, fs) for c, fs in chow_dec.terms))
    assert negated.expand().is_zero()


def test_classical_expansions_match_the_polynomial_oracles():
    for dec in (zoo.ryser_decomposition(4), zoo.benor_decomposition(4, 2), zoo.benor_decomposition(3, 3)):
        assert dec.expand() == chow_expand_oracle(dec)
    dec = zoo.fischer_decomposition(5)
    assert dec.expand() == waring_expand_oracle(dec)


def test_packed_expansions_use_no_polynomial_arithmetic(monkeypatch):
    """verify_chow, verify_waring and det_polymatrix add and multiply only
    packed ints: they still certify with Polynomial * and + made to raise."""
    targets = zoo.perm(4), zoo.chow(4), zoo.padded_elem(3, 2), zoo.det(3)
    witnesses = zoo.ryser_decomposition(4), zoo.fischer_decomposition(4), zoo.benor_decomposition(3, 2)
    x = [Polynomial.variable(i, 9) for i in range(9)]
    generic = PolyMatrix(9, tuple(tuple(x[3 * i : 3 * i + 3]) for i in range(3)))

    def forbidden(*args):
        raise AssertionError("Polynomial arithmetic in a packed expansion")

    for name in ("__mul__", "__rmul__", "__add__"):
        monkeypatch.setattr(Polynomial, name, forbidden)
    assert zoo.verify_chow(witnesses[0], targets[0]).ok
    assert zoo.verify_waring(witnesses[1], targets[1]).ok
    assert zoo.verify_chow(witnesses[2], targets[2]).ok
    assert det_polymatrix(generic) == targets[3]


def test_det_expression_witness_perm2():
    """perm_2 = det_2 of [[x11, -x12], [x21, x22]], no padding needed."""
    f = Fraction
    entries = (
        (f(1), f(0), f(0), f(0), f(0)),
        (f(0), f(-1), f(0), f(0), f(0)),
        (f(0), f(0), f(1), f(0), f(0)),
        (f(0), f(0), f(0), f(1), f(0)),
    )
    witness = zoo.DetExpressionWitness(n=2, num_target_vars=4, entries=entries)
    report = zoo.verify_det_expression(witness, zoo.perm(2))
    assert report.ok, report.message

    # corrupt one sign: now it computes det_2, not perm_2
    bad_entries = (
        entries[0],
        (f(0), f(1), f(0), f(0), f(0)),
    ) + entries[2:]
    bad = zoo.DetExpressionWitness(n=2, num_target_vars=4, entries=bad_entries)
    report = zoo.verify_det_expression(bad, zoo.perm(2))
    assert not report.ok and "FAIL at monomial" in report.message


def test_det_expression_witness_padding():
    """x1 x2 (degree 2) as det_3 with one padding row l."""
    f = Fraction
    # det [[x1, 0, 0], [0, x2, 0], [0, 0, l]] = x1 x2 l = l^{3-2} * x1 x2
    rows = []
    for idx in (0, 1, 2):  # diagonal entries x1, x2, l in 3 = 2+1 variables
        row = [f(0)] * 3
        row[idx] = f(1)
        rows.append(tuple(row))
    zero = (f(0),) * 3
    entries = (rows[0], zero, zero, zero, rows[1], zero, zero, zero, rows[2])
    witness = zoo.DetExpressionWitness(n=3, num_target_vars=2, entries=entries)
    report = zoo.verify_det_expression(witness, zoo.chow(2))
    assert report.ok, report.message


def test_verify_det_expression_rejects_bad_shapes():
    f = Fraction
    entries = ((f(1),) * 5,) * 4
    w = zoo.DetExpressionWitness(n=2, num_target_vars=3, entries=entries)
    assert not zoo.verify_det_expression(w, zoo.perm(2)).ok  # arity mismatch
    w = zoo.DetExpressionWitness(n=1, num_target_vars=4, entries=((f(1),) * 5,))
    assert not zoo.verify_det_expression(w, zoo.perm(2)).ok  # n < degree
    w = zoo.DetExpressionWitness(n=2, num_target_vars=4, entries=entries[:3])
    assert not zoo.verify_det_expression(w, zoo.perm(2)).ok  # wrong entry count


def verify_det_expression_oracle(witness, target):
    """The substitution route: det_n's n! Leibniz terms, each variable
    replaced by its linear form (the shape checks as in the library)."""
    if witness.num_target_vars != target.num_vars:
        return zoo.VerificationReport(False, "det expression: target arity mismatch")
    m = target.degree()
    if m is None or not target.is_homogeneous():
        return zoo.VerificationReport(False, "det expression: target must be homogeneous")
    n = witness.n
    if n < m:
        return zoo.VerificationReport(False, f"det expression: n={n} smaller than degree {m}")
    if len(witness.entries) != n * n:
        return zoo.VerificationReport(False, "det expression: need n^2 entries")
    v1 = target.num_vars + 1
    got = substitute(zoo.det(n), LinearSubstitution(n * n, v1, tuple(witness.entries)))
    want = Polynomial(v1, {e + (n - m,): c for e, c in target.terms.items()})
    return zoo.compare_exact(got, want, f"det_{n} expression")


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_det_expression_matches_the_substitution_oracle(n, v, data):
    """Same verdict and message (which names the first mismatch) as the
    substitution route on random witnesses.  The target is either drawn at
    random or read off the witness's own determinant (a passing witness),
    and then possibly nudged at one monomial."""
    coeff = st.integers(-2, 2).map(Fraction)
    entries = tuple(
        tuple(data.draw(st.lists(coeff, min_size=v + 1, max_size=v + 1)))
        for _ in range(n * n)
    )
    witness = zoo.DetExpressionWitness(n=n, num_target_vars=v, entries=entries)
    m = data.draw(st.integers(0, n))
    if data.draw(st.booleans()):
        target = data.draw(polynomials(num_vars=v, homogeneous_degree=m, max_terms=4))
    else:
        # det with l set to 0 is homogeneous of degree n in the first v variables
        no_l = tuple(form[:v] + (Fraction(0),) for form in entries)
        honest = substitute(zoo.det(n), LinearSubstitution(n * n, v + 1, no_l))
        target = Polynomial(v, {e[:v]: c for e, c in honest.terms.items()})
        witness = zoo.DetExpressionWitness(n=n, num_target_vars=v, entries=no_l)
    if not target.is_zero() and data.draw(st.booleans()):
        e = data.draw(st.sampled_from(sorted(target.terms)))
        target = target + Polynomial(v, {e: Fraction(1)})
    want = verify_det_expression_oracle(witness, target)
    got = zoo.verify_det_expression(witness, target)
    assert (got.ok, got.message) == (want.ok, want.message)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_grenet_witness_expresses_perm(m):
    """dc(perm_m) <= 2^m - 1: Grenet's matrix verifies against perm_m."""
    witness = grenet_witness(m)
    assert witness.n == 2**m - 1
    report = zoo.verify_det_expression(witness, zoo.perm(m))
    assert report.ok, report.message


def test_det_expression_contract_errors():
    """A form of the wrong length and a 0 x 0 witness are usage errors;
    a witness over 15 x 15 is refused before any polynomial is built."""
    f = Fraction
    short = ((f(1),) * 4,) * 4
    with pytest.raises(ValueError):
        zoo.verify_det_expression(zoo.DetExpressionWitness(2, 4, short), zoo.perm(2))
    one = Polynomial.one(2)
    with pytest.raises(ValueError):
        zoo.verify_det_expression(zoo.DetExpressionWitness(0, 2, ()), one)
    big = zoo.DetExpressionWitness(16, 1, ((f(0), f(1)),) * 256)
    with pytest.raises(CapacityError) as exc:
        zoo.verify_det_expression(big, Polynomial.variable(0, 1))
    assert (exc.value.context, exc.value.size, exc.value.cap) == ("det_n expression n", 16, 15)
