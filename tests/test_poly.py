"""Polynomial arithmetic, grevlex order, differential operators, and
serialization round-trips."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gct.monomials import codec, grevlex_key, monomial_count, monomials_of_degree
from gct.poly import (
    PolyMatrix,
    Polynomial,
    apply_diff,
    det_polymatrix,
    dumps,
    from_record,
    loads,
    polarize,
    sum_of_products,
    to_record,
)
from gct.cli import poly_digest
from gct.zoo import fermat

from conftest import LinearSubstitution, mul_oracle, polynomials, pow_oracle, small_fractions, substitute


# ---------------------------------------------------------------------------
# Monomial order
# ---------------------------------------------------------------------------


def test_grevlex_classic_degree_two_order():
    # the textbook grevlex order on degree-2 monomials in x1 > x2 > x3
    want = [
        (2, 0, 0),  # x1^2
        (1, 1, 0),  # x1 x2
        (0, 2, 0),  # x2^2
        (1, 0, 1),  # x1 x3
        (0, 1, 1),  # x2 x3
        (0, 0, 2),  # x3^2
    ]
    assert list(monomials_of_degree(3, 2)) == want


def test_grevlex_degree_dominates():
    assert grevlex_key((3, 0)) < grevlex_key((1, 1))
    assert grevlex_key((0, 4)) < grevlex_key((2, 1))


@given(st.integers(1, 4), st.integers(0, 5))
def test_monomials_of_degree_count_and_order(v, d):
    from math import comb

    monos = monomials_of_degree(v, d)
    assert len(monos) == comb(v + d - 1, d)
    assert len(set(monos)) == len(monos)
    keys = [grevlex_key(m) for m in monos]
    assert keys == sorted(keys)


def monomials_of_degree_oracle(num_vars, degree):
    """The recursive lister ``monomials_of_degree`` replaced: each first
    exponent from high to low, the rest filled recursively, then sorted."""
    if num_vars == 0:
        return ((),) if degree == 0 else ()
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, num_vars)
    return tuple(sorted(out, key=grevlex_key))


def test_monomials_of_degree_matches_the_recursive_oracle():
    for v in range(7):
        for d in range(7):
            assert monomials_of_degree(v, d) == monomials_of_degree_oracle(v, d), (v, d)


def test_monomial_count_matches_the_listing():
    # v = 0 is the case a bare C(v+d-1, d) gets wrong: C(-1, 0) is an error
    for v in range(6):
        for d in range(7):
            assert monomial_count(v, d) == len(monomials_of_degree(v, d))


# ---------------------------------------------------------------------------
# Ring axioms and evaluation (property-based)
# ---------------------------------------------------------------------------


@st.composite
def poly_pairs(draw):
    v = draw(st.integers(1, 3))
    return draw(polynomials(num_vars=v)), draw(polynomials(num_vars=v))


@st.composite
def poly_triples(draw):
    v = draw(st.integers(1, 3))
    return tuple(draw(polynomials(num_vars=v)) for _ in range(3))


@given(poly_triples())
def test_ring_axioms(ps):
    p, q, r = ps
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero(p.num_vars) == p
    assert p * Polynomial.one(p.num_vars) == p
    assert (p - p).is_zero()


@given(poly_pairs(), st.lists(small_fractions(), min_size=3, max_size=3))
def test_evaluation_is_a_ring_morphism(pq, point):
    p, q = pq
    pt = point[: p.num_vars]
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


@given(polynomials(), st.integers(0, 4))
def test_pow_matches_repeated_multiplication(p, k):
    direct = Polynomial.one(p.num_vars)
    for _ in range(k):
        direct = direct * p
    assert p**k == direct


@given(polynomials(max_vars=2, max_exp=2, max_terms=3), st.integers(0, 5))
def test_pow_matches_the_square_and_multiply_oracle(p, k):
    """** is one chain of k factors on the packed kernel; the oracle squares
    and multiplies in Fractions."""
    assert_same_terms(p**k, pow_oracle(p, k))


@pytest.mark.parametrize("k", range(6))
def test_pow_of_zero_and_of_constants_in_no_variables(k):
    for p in (Polynomial.zero(2), Polynomial.zero(0), Polynomial.constant(0, Fraction(-2, 3))):
        assert_same_terms(p**k, pow_oracle(p, k))
    assert Polynomial.zero(0) ** k == Polynomial.constant(0, int(k == 0))


# ---------------------------------------------------------------------------
# The integer kernels against the Fraction loops they replaced
# ---------------------------------------------------------------------------


def apply_diff_oracle(op, target):
    """apply_diff with each falling factorial multiplied out, in Fractions."""
    acc = {}
    for e_op, c_op in op.terms.items():
        for e_t, c_t in target.terms.items():
            if any(k_op > k_t for k_op, k_t in zip(e_op, e_t)):
                continue
            factor = 1
            for k_op, k_t in zip(e_op, e_t):
                for j in range(k_op):
                    factor *= k_t - j
            e = tuple(k_t - k_op for k_op, k_t in zip(e_op, e_t))
            s = acc.get(e, Fraction(0)) + c_op * c_t * factor
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return Polynomial(op.num_vars, acc)


def assert_same_terms(got, want):
    assert got.terms == want.terms
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())


@given(poly_triples())
def test_kernels_match_the_fraction_oracles(ps):
    """Mixed denominators (1..6), cross terms that cancel to zero inside one
    product ((p+q)(p-q) loses pq - qp), and zero operands and results."""
    p, q, r = ps
    zero = Polynomial.zero(p.num_vars)
    for a, b in [(p, q), (p + q, p - q), (p, zero), (zero, r), (q - q, p), (r, r)]:
        assert_same_terms(a * b, mul_oracle(a, b))
        assert_same_terms(apply_diff(a, b), apply_diff_oracle(a, b))
        sums = {e: a.coefficient(e) + b.coefficient(e) for e in {**a.terms, **b.terms}}
        assert_same_terms(a + b, Polynomial(a.num_vars, sums))
        assert_same_terms(-a, Polynomial(a.num_vars, {e: -c for e, c in a.terms.items()}))
    # a second-order operator on a product with cancelled cross terms
    x = Polynomial.variable(0, p.num_vars)
    op = (x * x).scale(Fraction(1, 6)) - p.scale(Fraction(5, 4))
    assert_same_terms(apply_diff(op, (p + r) * (p - r)), apply_diff_oracle(op, (p + r) * (p - r)))


def test_kernel_cancels_to_the_zero_polynomial():
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    p = x.scale(Fraction(1, 3)) + y.scale(Fraction(1, 2))
    q = x.scale(Fraction(3, 2)) - y.scale(Fraction(9, 4))
    assert_same_terms(p * q, mul_oracle(p, q))  # the xy terms cancel: 3/4 - 3/4
    assert (p * q).coefficient((1, 1)) == 0
    assert (p * x - x * p).terms == {}
    assert apply_diff(x * y, x * x + y).terms == {}


@pytest.mark.parametrize("bad", [0.5, 0.1, complex(1, 0), "1/2", float("nan")])
def test_non_rational_scalars_are_refused(bad):
    """A float would enter the integer kernel as a binary fraction (0.1 as
    3602879701896397/2^55); every public way in refuses it."""
    p = Polynomial.variable(0, 1)
    with pytest.raises(TypeError, match="not a rational"):
        Polynomial(1, {(1,): bad})
    with pytest.raises(TypeError, match="not a rational"):
        Polynomial.constant(1, bad)
    with pytest.raises(TypeError, match="not a rational"):
        Polynomial.monomial((1,), bad)
    with pytest.raises(TypeError, match="not a rational"):
        Polynomial.linear_form([1, bad])
    with pytest.raises(TypeError, match="not a rational"):
        p.scale(bad)
    assert p.__mul__(bad) is NotImplemented
    with pytest.raises(TypeError):
        p * bad
    with pytest.raises(TypeError):
        bad * p


@pytest.mark.parametrize("bad", [0.5, 0.1, complex(1, 0), "1/2", float("nan")])
def test_evaluate_refuses_a_non_rational_point(bad):
    """0.1 would be evaluated as 3602879701896397/2^55, not 1/10."""
    with pytest.raises(TypeError, match="not a rational"):
        Polynomial.variable(0, 1).evaluate([bad])
    with pytest.raises(TypeError, match="not a rational"):
        Polynomial.one(2).evaluate([1, bad])


@pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, "x"])
def test_sums_with_a_non_polynomial_are_type_errors(other):
    """A scalar is not promoted to a constant: p + 1 is a TypeError (as
    p * 0.5 is), not an AttributeError from inside __add__."""
    p = Polynomial.variable(0, 1)
    assert p.__add__(other) is NotImplemented
    assert p.__sub__(other) is NotImplemented
    for op in (lambda: p + other, lambda: p - other, lambda: other + p, lambda: other - p):
        with pytest.raises(TypeError):
            op()


def test_rational_scalars_are_taken_as_fractions():
    p = Polynomial(1, {(1,): True, (2,): 3, (0,): Fraction(1, 2)})
    assert all(type(c) is Fraction for c in p.terms.values())
    assert (p * 2).terms == (2 * p).terms == p.scale(Fraction(2)).terms
    assert (p * Fraction(1, 2)).coefficient((0,)) == Fraction(1, 4)


def test_constructors_and_validation():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    assert (x + y).num_terms() == 2
    assert Polynomial.monomial((1, 2), 3).coefficient((1, 2)) == 3
    assert Polynomial.linear_form([1, -1]) == x - y
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial(1, {(-1,): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial.variable(3, 2)
    with pytest.raises(ValueError):
        (x + y).as_scalar()
    assert Polynomial.constant(2, Fraction(5, 3)).as_scalar() == Fraction(5, 3)


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(1, 2), Fraction(2), "1"])
def test_non_int_exponents_are_refused(bad):
    """A float exponent used to give degree 2.0 and print x1^3.0; packed
    monomials need ints."""
    with pytest.raises(TypeError, match="not a tuple of ints"):
        Polynomial(2, {(bad, 0): 1})
    with pytest.raises(TypeError, match="not a tuple of ints"):
        Polynomial.monomial((1, bad))
    with pytest.raises(TypeError, match="not a tuple of ints"):
        Polynomial(2, {(1.5, 0.5): 1})


def test_exponents_are_stored_as_plain_ints():
    p = Polynomial(2, {(True, 2): 1})
    assert list(p.terms) == [(1, 2)]
    assert [type(k) for e in p.terms for k in e] == [int, int]


def test_leading_term_is_grevlex_first():
    p = Polynomial(2, {(1, 1): Fraction(7), (2, 0): Fraction(-1), (0, 1): Fraction(5)})
    assert p.sorted_terms()[0] == ((2, 0), Fraction(-1))
    assert [e for e, _ in p.sorted_terms()] == [(2, 0), (1, 1), (0, 1)]


# ---------------------------------------------------------------------------
# The packed accumulator against the Polynomial sums it replaced
# ---------------------------------------------------------------------------


def det_polymatrix_oracle(m, rows=None, cols=None):
    """The determinant by the Polynomial-sum DP det_polymatrix replaced:
    level i holds every minor on rows[:i], each built with mul_oracle and +."""
    rows = list(range(m.size) if rows is None else rows)
    cols = list(range(m.size) if cols is None else cols)
    k = len(rows)
    minors = {(): Polynomial.one(m.num_vars)}
    for i, ri in enumerate(rows):
        nxt = {}
        for subset in combinations(range(k), i + 1):
            acc = Polynomial.zero(m.num_vars)
            for pos, cj in enumerate(subset):
                term = mul_oracle(m.entries[ri][cols[cj]], minors[subset[:pos] + subset[pos + 1 :]])
                acc = acc + term if (i + pos) % 2 == 0 else acc - term
            nxt[subset] = acc
        minors = nxt
    return minors[tuple(range(k))]


def sum_of_products_oracle(num_vars, terms):
    """sum_i c_i * prod_j f_ij, one mul_oracle product and sum at a time."""
    acc = Polynomial.zero(num_vars)
    for c, factors in terms:
        prod = Polynomial.constant(num_vars, c)
        for f in factors:
            prod = mul_oracle(prod, f)
        acc = acc + prod
    return acc


@st.composite
def poly_matrices(draw, max_size=4):
    """Square matrices over 0..3 variables with mixed denominators, maybe an
    all-zero row, maybe a repeated row (the determinant cancels to zero)."""
    v = draw(st.integers(0, 3))
    size = draw(st.integers(0, max_size))
    rows = [
        [draw(polynomials(num_vars=v, max_exp=2, max_terms=3)) for _ in range(size)]
        for _ in range(size)
    ]
    if size >= 2 and draw(st.booleans()):
        rows[1] = rows[0]
    if size and draw(st.booleans()):
        rows[draw(st.integers(0, size - 1))] = [Polynomial.zero(v)] * size
    return PolyMatrix(v, tuple(map(tuple, rows)))


@given(poly_matrices(), st.data())
@settings(max_examples=80)
def test_det_polymatrix_matches_the_polynomial_sum_oracle(m, data):
    assert_same_terms(det_polymatrix(m), det_polymatrix_oracle(m))
    k = data.draw(st.integers(0, m.size))
    rows = data.draw(st.permutations(range(m.size)))[:k]
    cols = data.draw(st.permutations(range(m.size)))[:k]
    assert_same_terms(det_polymatrix(m, rows, cols), det_polymatrix_oracle(m, rows, cols))


@st.composite
def product_sums(draw):
    """(num_vars, terms): 0..4 products of 0..3 factors with mixed
    denominators; zero coefficients and zero factors included."""
    v = draw(st.integers(0, 3))
    factors = polynomials(num_vars=v, max_exp=2, max_terms=3)
    terms = draw(st.lists(st.tuples(small_fractions(), st.lists(factors, max_size=3)), max_size=4))
    return v, terms


@given(product_sums())
@settings(max_examples=80)
def test_sum_of_products_matches_the_polynomial_oracle(vt):
    v, terms = vt
    assert_same_terms(sum_of_products(v, terms), sum_of_products_oracle(v, terms))
    # every product again with the opposite sign: the sum cancels to zero
    doubled = terms + [(-c, factors[::-1]) for c, factors in terms]
    assert sum_of_products(v, doubled).terms == {}


def test_packed_edge_cases():
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    assert sum_of_products(2, []) == Polynomial.zero(2)
    assert sum_of_products(2, [(Fraction(2, 3), [])]) == Polynomial.constant(2, Fraction(2, 3))
    assert sum_of_products(2, [(1, [x, Polynomial.zero(2)]), (0, [y])]).terms == {}
    half, third = Polynomial.constant(0, Fraction(1, 2)), Polynomial.constant(0, Fraction(1, 3))
    got = sum_of_products(0, [(3, [half, third]), (Fraction(1, 4), [half])])
    assert got == Polynomial.constant(0, Fraction(5, 8))
    assert det_polymatrix(PolyMatrix(0, ((half, third), (third, half)))).as_scalar() == Fraction(5, 36)
    assert det_polymatrix(PolyMatrix(2, ((x, y), (y, x))), (), ()) == Polynomial.one(2)
    with pytest.raises(ValueError, match="arity mismatch: 2 vs 1"):
        sum_of_products(2, [(1, [x, Polynomial.variable(0, 1)])])


@pytest.mark.parametrize("top", [3, 4, 255, 256, 511, 512])
def test_packed_exponents_at_the_field_width(top):
    """x^top and y^top where top is the degree bound: 2^b - 1 fills a field
    of b bits and 2^b needs b + 1 (b = 2, 8, 9).  A carry out of x's field
    would land in y's."""
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    f = Polynomial(3, {(top - 1, 0, 0): 1, (0, top - 1, 0): Fraction(-1, 2), (top - 2, 0, 1): 3})
    g = x + y + z.scale(Fraction(1, 3))
    terms = [(1, [f, g]), (Fraction(2, 5), [g, f])]
    got = sum_of_products(3, terms)
    assert_same_terms(got, sum_of_products_oracle(3, terms))
    assert got.coefficient((top, 0, 0)) == Fraction(7, 5)
    assert got.coefficient((0, top, 0)) == Fraction(-7, 10)
    m = PolyMatrix(3, ((f, z), (y, g)))  # bound: top - 1 + 1
    assert_same_terms(det_polymatrix(m), det_polymatrix_oracle(m))
    assert det_polymatrix(m).coefficient((top, 0, 0)) == 1


# ---------------------------------------------------------------------------
# Linear substitution (the test oracle in conftest.py)
# ---------------------------------------------------------------------------


def identity_substitution(num_vars):
    rows = tuple(tuple(int(i == j) for j in range(num_vars)) for i in range(num_vars))
    return LinearSubstitution(num_vars, num_vars, rows)


def substitution_from_rows(rows):
    return LinearSubstitution(len(rows), len(rows[0]), tuple(map(tuple, rows)))


def compose(outer, inner):
    """The substitution that applies ``outer``, then ``inner``."""
    rows = tuple(
        tuple(
            sum(outer.matrix[i][j] * inner.matrix[j][k] for j in range(outer.num_vars_out))
            for k in range(inner.num_vars_out)
        )
        for i in range(outer.num_vars_in)
    )
    return LinearSubstitution(outer.num_vars_in, inner.num_vars_out, rows)


@given(polynomials(max_vars=2, max_exp=2, max_terms=4))
def test_identity_substitution_fixes(p):
    assert substitute(p, identity_substitution(p.num_vars)) == p


def test_substitution_composition_law():
    p = Polynomial.variable(0, 2) ** 2 + Polynomial.variable(1, 2) * 3
    a = substitution_from_rows([[1, 1, 0], [0, 1, -1]])
    b = substitution_from_rows([[2, 0], [1, 1], [0, 3]])
    assert substitute(substitute(p, a), b) == substitute(p, compose(a, b))


def test_substitution_example():
    # (x+y)^2 expanded through a substitution
    p = Polynomial.variable(0, 1) ** 2
    sub = substitution_from_rows([[1, 1]])
    q = substitute(p, sub)
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    assert q == x * x + 2 * x * y + y * y


# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------


def test_plain_partial_derivatives():
    x = Polynomial.variable(0, 2)
    p = Polynomial.monomial((4, 1))
    assert apply_diff(x, p) == Polynomial.monomial((3, 1), 4)
    assert apply_diff(x * x, p) == Polynomial.monomial((2, 1), 12)


def diff_pairing(op, target):
    """Scalar apolarity pairing: op(d) applied to target, degrees equal."""
    return apply_diff(op, target).as_scalar()


def test_monomial_self_pairing_is_factorial_product():
    m = Polynomial.monomial((2, 3, 1))
    assert diff_pairing(m, m) == 2 * 6 * 1


def test_pairing_kills_lower_degree():
    op = Polynomial.monomial((2, 0))
    tgt = Polynomial.monomial((1, 0))
    assert apply_diff(op, tgt).is_zero()


@given(polynomials(num_vars=2, homogeneous_degree=3, max_terms=4))
@settings(max_examples=40)
def test_euler_identity(p):
    """sum_i x_i dP/dx_i = deg(P) * P for homogeneous P."""
    if p.is_zero():
        return
    v = p.num_vars
    acc = Polynomial.zero(v)
    for i in range(v):
        xi = Polynomial.variable(i, v)
        acc = acc + xi * apply_diff(xi, p)
    assert acc == p.scale(p.degree())


@given(poly_pairs(), polynomials(num_vars=3, max_terms=3))
@settings(max_examples=30)
def test_apply_diff_linear_in_both_slots(pq, r):
    p, q = pq
    if p.num_vars != r.num_vars:
        return
    assert apply_diff(p + q, r) == apply_diff(p, r) + apply_diff(q, r)
    assert apply_diff(r, p + q) == apply_diff(r, p) + apply_diff(r, q)


def test_apply_diff_composition():
    """op1(op2(f)) == (op1*op2)(f): constant-coefficient operators commute."""
    f = (Polynomial.variable(0, 2) + 2 * Polynomial.variable(1, 2)) ** 4
    op1 = Polynomial.monomial((1, 1))
    op2 = Polynomial.monomial((2, 0))
    assert apply_diff(op1, apply_diff(op2, f)) == apply_diff(op1 * op2, f)


# ---------------------------------------------------------------------------
# Catalecticants
# ---------------------------------------------------------------------------


def test_polarize_shape_and_entries():
    # p = x^2 y: P_{1,2} columns are d/dx p = 2xy and d/dy p = x^2
    p = Polynomial.monomial((2, 1))
    fm = polarize(p, 1)
    assert fm.shape == (3, 2)
    # columns are the degree-1 monomials; each row is keyed by its
    # degree-2 monomial packed by codec(2, 2)
    assert monomials_of_degree(2, 1) == ((1, 0), (0, 1))
    row_basis = monomials_of_degree(2, 2)
    assert row_basis == ((2, 0), (1, 1), (0, 2))
    unpack = codec(2, 2)[1]
    rows = {unpack(key): row for key, row in fm.rows.items()}
    assert set(rows) <= set(row_basis)
    col_x = [rows.get(e, {}).get(0, 0) for e in row_basis]
    col_y = [rows.get(e, {}).get(1, 0) for e in row_basis]
    assert col_x == [0, 2, 0]
    assert col_y == [1, 0, 0]


def test_polarize_entries_are_ints_where_integral():
    """Integral entries are ints, so elimination needs no denominators;
    the rest stay Fractions."""
    p = Polynomial(2, {(2, 1): Fraction(3), (0, 3): Fraction(1, 2)})
    entries = [x for row in polarize(p, 1).rows.values() for x in row.values()]
    assert sorted({type(x).__name__ for x in entries}) == ["Fraction", "int"]
    assert all(type(x) is int for x in entries if Fraction(x).denominator == 1)
    assert Fraction(3, 2) in entries  # d/dy of y^3/2


def test_polarize_stores_nonzeros_only():
    """The middle catalecticant of a Fermat sextic in 25 variables has 2925
    rows and 2925 columns but only 25 nonzero entries, one in each of 25
    rows, and stores only those."""
    fm = polarize(fermat(6, 25), 3)
    assert fm.shape == (2925, 2925)
    assert len(fm.rows) == 25
    assert sum(map(len, fm.rows.values())) == 25
    assert all(x for row in fm.rows.values() for x in row.values())


def test_polarize_rejects_bad_input():
    with pytest.raises(ValueError):
        polarize(Polynomial.zero(2), 1)
    inhomog = Polynomial.one(2) + Polynomial.variable(0, 2)
    with pytest.raises(ValueError):
        polarize(inhomog, 1)
    with pytest.raises(ValueError):
        polarize(Polynomial.monomial((2, 0)), 5)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@given(polynomials())
def test_record_round_trip(p):
    assert from_record(to_record(p)) == p
    assert loads(dumps(p)) == p


@given(polynomials())
def test_digest_is_representation_independent(p):
    q = Polynomial(p.num_vars, dict(reversed(list(p.terms.items()))))
    assert poly_digest(p) == poly_digest(q)


def record_digest_oracle(p):
    """The polynomial digest as first defined: SHA-256 of the compact JSON of
    ``to_record(p)`` in the record's own key order, with no key sorting."""
    return hashlib.sha256(json.dumps(to_record(p), separators=(",", ":")).encode()).hexdigest()


@given(polynomials())
def test_digest_is_the_record_digest_oracle(p):
    """The cache's digest of a polynomial has the bytes of the first one, so
    every pinned digest and cache key of a polynomial file stays valid."""
    assert poly_digest(p) == record_digest_oracle(p)


def test_record_terms_are_grevlex_sorted():
    p = Polynomial(2, {(0, 1): Fraction(1), (2, 0): Fraction(1), (1, 1): Fraction(1)})
    rec = to_record(p)
    assert [tuple(t["exps"]) for t in rec["terms"]] == [(2, 0), (1, 1), (0, 1)]
    assert all(isinstance(t["coeff"], str) for t in rec["terms"])


def test_from_record_merges_duplicate_monomials():
    rec = {
        "num_vars": 1,
        "terms": [
            {"coeff": "1/2", "exps": [1]},
            {"coeff": "1/2", "exps": [1]},
        ],
    }
    assert from_record(rec) == Polynomial.monomial((1,), 1)


@pytest.mark.parametrize("exps", [[1.5, 0], [0, 1.9], ["1", 0], [True, 0], [1.0, 0]])
def test_from_record_refuses_exponents_that_are_not_ints(exps):
    """A non-integer exponent is an error in the file, not a truncation."""
    rec = {"num_vars": 2, "terms": [{"coeff": "1", "exps": exps}]}
    with pytest.raises(ValueError, match="not all integers"):
        from_record(rec)


def test_repr_smoke():
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    assert repr(x * x - y) == "x1^2 - x2"
    assert repr(Polynomial.zero(2)) == "0"
