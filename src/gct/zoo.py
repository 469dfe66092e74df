"""Named polynomials and explicit decomposition witnesses.

Variable layouts (all 0-indexed internally, 1-indexed in printed names):

* ``det n`` / ``perm n`` / ``p_lambda n``: the n x n matrix of variables
  x_{ij}, row-major (variable index (i-1)*n + (j-1)).
* ``elem n k``: e^k_n in n variables.
* ``chow n``: x_1 * ... * x_n.
* ``fermat d n``: x_1^d + ... + x_n^d.
* ``sumprod n m``: S^n_m = sum_{i<=m} prod_{j<=n} x_{ij}, nm variables,
  term-major.
* ``imm k n``: trace(X_1 ... X_n) with X_t a k x k variable matrix,
  t-major then row-major.
* ``pascal_det m``: the 4-index Pascal determinant on m^4 variables
  a_{ijkl} (row-major over the four indices).
* ``discriminant``: the quartic discriminant of a binary cubic, in the 4
  coefficient variables x_1..x_4.

Every generator above but ``p_lambda`` and ``discriminant`` is one call of
``_support``, which sums signed monomials given as lists of variable indices.

Decomposition witnesses (Ryser, Fischer, Ben-Or) store exact rational
scalars and linear forms; the verifiers re-expand them and compare
coefficientwise, reporting the first mismatching monomial in grevlex order.
A determinantal expression is expanded as the determinant of its matrix of
linear forms (``gct.poly.det_polymatrix``), never through the n! terms of
det_n.  A Pfaffian is one signed sum over the perfect matchings
(``gct.poly.sum_of_products``), not a recursion of polynomial products.

Witness files are this module's format, as polynomial files are
``gct.poly``'s: a decomposition's ``to_record`` (Waring or Chow), rationals
as strings, read back by ``from_record``, which also reads det expressions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from . import CapacityError
from .monomials import Exponent, grevlex_key
from .poly import PolyMatrix, Polynomial, det_polymatrix, sum_of_products

# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def perm_sign(seq: Sequence[int]) -> int:
    """Sign of a sequence of distinct integers, by inversion parity."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


def _support(v: int, monomials: Iterable[Tuple[Iterable[int], int]]) -> Polynomial:
    """sum c * prod_{i in idx} x_i over the (idx, c) pairs, in v variables: an
    index listed twice squares, equal monomials add, and zero sums are dropped."""
    terms: Dict[Exponent, int] = {}
    for idx, c in monomials:
        e = [0] * v
        for i in idx:
            e[i] += 1
        key = tuple(e)
        terms[key] = terms.get(key, 0) + c
    return Polynomial(v, terms)


def det(n: int) -> Polynomial:
    """Determinant of the generic n x n matrix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    perms = permutations(range(n))
    return _support(n * n, (([i * n + j for i, j in enumerate(s)], perm_sign(s)) for s in perms))


def perm(n: int) -> Polynomial:
    """Permanent of the generic n x n matrix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    perms = permutations(range(n))
    return _support(n * n, (([i * n + j for i, j in enumerate(s)], 1) for s in perms))


def elem(n: int, k: int) -> Polynomial:
    """Elementary symmetric polynomial e^k_n in n variables."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return _support(n, ((s, 1) for s in combinations(range(n), k)))


def chow(n: int) -> Polynomial:
    """x_1 * x_2 * ... * x_n, the generic point of the Chow variety."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _support(n, [(range(n), 1)])


def fermat(d: int, n: int) -> Polynomial:
    """x_1^d + ... + x_n^d."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    return _support(n, (([i] * d, 1) for i in range(n)))


def sumprod(n: int, m: int) -> Polynomial:
    """S^n_m = sum_{i=1}^m prod_{j=1}^n x_{ij} on nm variables."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return _support(n * m, ((range(i * n, i * n + n), 1) for i in range(m)))


def imm(k: int, n: int) -> Polynomial:
    """Iterated matrix multiplication IMM^k_n = trace(X_1 X_2 ... X_n)."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    return _support(n * k * k, (
        ([(t * k + path[t]) * k + path[(t + 1) % n] for t in range(n)], 1)
        for path in product(range(k), repeat=n)
    ))


def pascal_det(m: int) -> Polynomial:
    """4-index Pascal determinant on the m^4 variables a_{ijkl}.

    Pasdet_m = sum over sigma2, sigma3, sigma4 in S_m of
    sgn(sigma2 sigma3 sigma4) * prod_i a_{i, sigma2(i), sigma3(i), sigma4(i)}.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    signs = {s: perm_sign(s) for s in permutations(range(m))}
    return _support(m**4, (
        ([((i * m + s2[i]) * m + s3[i]) * m + s4[i] for i in range(m)], signs[s2] * signs[s3] * signs[s4])
        for s2, s3, s4 in product(signs, repeat=3)
    ))


def pfaffian(rows: List[List[Polynomial]]) -> Polynomial:
    """Pfaffian of a skew-symmetric matrix of polynomials.

    One signed sum over the perfect matchings, each the product of its
    entries rows[i][j] (i < j): the lowest free index is paired with the
    free index at position pos among the rest, with sign (-1)^pos as in
    the first-row expansion; convention Pf([[0, a], [-a, 0]]) = a.
    """
    size = len(rows)
    if size == 0:
        raise ValueError("pass at least a 2x2 matrix (arity is read from entries)")
    if size % 2 != 0:
        raise ValueError("Pfaffian needs an even-size matrix")

    def matchings(idx: Tuple[int, ...]):
        if not idx:
            yield 1, ()
            return
        first, rest = idx[0], idx[1:]
        for pos, j in enumerate(rest):
            for sign, entries in matchings(rest[:pos] + rest[pos + 1 :]):
                yield -sign if pos % 2 else sign, (rows[first][j],) + entries

    return sum_of_products(rows[0][0].num_vars, list(matchings(tuple(range(size)))))


def p_lambda(n: int) -> Polynomial:
    """The Pfaffian-based degeneration witness P_Lambda for odd n.

    Decompose the generic matrix M = M_S + M_Lambda into symmetric and
    skew parts and set P_Lambda(M) = sum_{i,j} (M_S)_{ij} nu_i nu_j where
    nu_i = (-1)^i Pf_i and Pf_i is the Pfaffian of M_Lambda with row and
    column i removed.  The cofactor signs matter: adj(M_Lambda) = nu nu^T,
    which makes this exactly the t-linear coefficient of
    det(M_Lambda + t M_S), i.e. the limit of the determinant under the
    curve scaling the symmetric part (checked numerically in tests).
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("P_Lambda is defined for odd n")
    if n > MAX_P_LAMBDA:
        raise CapacityError("p_lambda n", n, MAX_P_LAMBDA)
    v = n * n
    if n == 1:
        return Polynomial.variable(0, 1)

    def x(i: int, j: int) -> Polynomial:
        return Polynomial.variable(i * n + j, v)

    half = Fraction(1, 2)
    m_sym = [[(x(i, j) + x(j, i)) * half for j in range(n)] for i in range(n)]
    m_skew = [[(x(i, j) - x(j, i)) * half for j in range(n)] for i in range(n)]

    nu: List[Polynomial] = []
    for i in range(n):
        keep = [r for r in range(n) if r != i]
        sub = [[m_skew[a][b] for b in keep] for a in keep]
        p = pfaffian(sub)
        nu.append(p if i % 2 == 0 else -p)

    return sum_of_products(v, [(1, [m_sym[i][j], nu[i], nu[j]]) for i in range(n) for j in range(n)])


def discriminant() -> Polynomial:
    """Discriminant of the binary cubic with coefficients x_1..x_4.

    Delta = 27 x1^2 x4^2 + 4 x1 x3^3 + 4 x2^3 x4 - x2^2 x3^2
            - 18 x1 x2 x3 x4.
    """
    terms = {
        (2, 0, 0, 2): Fraction(27),
        (1, 0, 3, 0): Fraction(4),
        (0, 3, 0, 1): Fraction(4),
        (0, 2, 2, 0): Fraction(-1),
        (1, 1, 1, 1): Fraction(-18),
    }
    return Polynomial(4, terms)


def padded_elem(m: int, k: int) -> Polynomial:
    """l^{m-k} e^k_m on m+1 variables (x_1..x_m, l last): Ben-Or's target."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    return _support(m + 1, ((s + (m,) * (m - k), 1) for s in combinations(range(m), k)))


#: cap on a named polynomial's exponent entries, terms x variables: imm 2 17
#: (8.9M) took 2.6 s and 178 MB, det 9 (29.4M) 7.4 s and 621 MB
MAX_ENTRIES = 10**7
#: cap on its variables, checked first: the largest exact term count it
#: admits, C(10^4, 5000), takes milliseconds and prints in 3010 digits
MAX_VARIABLES = 10**4
#: P_Lambda has no closed-form term count (17, 999, 136107 at n = 3, 5, 7)
MAX_P_LAMBDA = 7
#: name -> (generator, arity, variables, term count); P_Lambda caps its n
_BUILTINS = {
    "det": (det, 1, lambda n: n * n, factorial),
    "perm": (perm, 1, lambda n: n * n, factorial),
    "elem": (elem, 2, lambda n, k: n, comb),
    "chow": (chow, 1, lambda n: n, lambda n: 1),
    "fermat": (fermat, 2, lambda d, n: n, lambda d, n: n),
    "sumprod": (sumprod, 2, lambda n, m: n * m, lambda n, m: m),
    "imm": (imm, 2, lambda k, n: n * k * k, pow),
    "pascal_det": (pascal_det, 1, lambda m: m**4, lambda m: factorial(m) ** 3),
    "p_lambda": (p_lambda, 1, None, None),
    "discriminant": (discriminant, 0, lambda: 4, lambda: 5),
    "padded_elem": (padded_elem, 2, lambda m, k: m + 1, comb),
}


def make(name: str, *params: int) -> Polynomial:
    """Build a named polynomial (layouts: module docstring), refused up front
    past ``MAX_VARIABLES`` variables or ``MAX_ENTRIES`` exponent entries."""
    entry = _BUILTINS.get(name)
    if entry is None:
        raise KeyError(f"unknown polynomial {name!r}; known: {', '.join(sorted(_BUILTINS))}")
    fn, arity, variables, terms = entry
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(params)}")
    if terms is not None and min(params, default=0) >= 0:  # else the generator's ValueError
        what = " ".join(map(str, (name,) + params))
        v = variables(*params)
        if v > MAX_VARIABLES:
            raise CapacityError(f"{what}: variables", v, MAX_VARIABLES)
        t = terms(*params)
        if t * v > MAX_ENTRIES:
            raise CapacityError(f"{what}: {t} terms in {v} variables", t * v, MAX_ENTRIES)
    return fn(*params)


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


class VerificationReport(NamedTuple):
    ok: bool
    message: str

    def __bool__(self) -> bool:
        return self.ok


def compare_exact(got: Polynomial, want: Polynomial, what: str) -> VerificationReport:
    """Exact comparison; on failure reports the grevlex-first bad monomial."""
    if got.num_vars != want.num_vars:
        return VerificationReport(
            False, f"{what}: arity mismatch {got.num_vars} vs {want.num_vars}"
        )
    if got.terms == want.terms:
        return VerificationReport(True, f"{what}: PASS")
    bad = [e for e in got.terms.keys() | want.terms.keys() if got.terms.get(e) != want.terms.get(e)]
    e = min(bad, key=grevlex_key)
    return VerificationReport(
        False,
        f"{what}: FAIL at monomial {e} (want {want.coefficient(e)}, got {got.coefficient(e)})",
    )


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------


class WaringDecomposition(NamedTuple):
    """target = sum_i coeff_i * (form_i)^degree, forms as coefficient rows."""

    num_vars: int
    degree: int
    terms: Tuple[Tuple[Fraction, Tuple[Fraction, ...]], ...]

    def expand(self) -> Polynomial:
        return sum_of_products(
            self.num_vars, [(c, [Polynomial.linear_form(form)] * self.degree) for c, form in self.terms]
        )

    def to_record(self) -> dict:
        """The record ``gct zoo witness`` writes, rationals as strings, keys in file order."""
        return {
            "kind": "waring",
            "num_vars": self.num_vars,
            "degree": self.degree,
            "terms": [{"coeff": str(c), "form": [str(x) for x in form]} for c, form in self.terms],
        }


class ChowDecomposition(NamedTuple):
    """target = sum_i coeff_i * prod_j form_{ij}; each inner tuple of forms."""

    num_vars: int
    terms: Tuple[Tuple[Fraction, Tuple[Tuple[Fraction, ...], ...]], ...]

    def expand(self) -> Polynomial:
        return sum_of_products(
            self.num_vars, [(c, [Polynomial.linear_form(f) for f in forms]) for c, forms in self.terms]
        )

    def to_record(self) -> dict:
        """The record ``gct zoo witness`` writes, rationals as strings, keys in file order."""
        return {
            "kind": "chow",
            "num_vars": self.num_vars,
            "terms": [
                {"coeff": str(c), "forms": [[str(x) for x in f] for f in forms]} for c, forms in self.terms
            ],
        }


class DetExpressionWitness(NamedTuple):
    """target (degree m, v vars) as det_n of an affine-linear matrix.

    ``entries`` lists n^2 linear forms (row-major) in v+1 variables, the
    last variable being the homogenizing/padding variable l.  Validity
    means det_n(entries) = l^{n-m} * target, both sides in v+1 variables.
    """

    n: int
    num_target_vars: int
    entries: Tuple[Tuple[Fraction, ...], ...]


def _checked(value: object, json_type, what: str):
    """``value`` when it has the JSON type ``json_type`` (a bool is no int),
    else a ValueError: a malformed file is a bad argument, exit 2."""
    if not isinstance(value, json_type) or isinstance(value, bool):
        raise ValueError(f"{what} has the wrong JSON type: {value!r}")
    return value


def from_record(rec: dict) -> object:
    """The witness, of any of the three kinds, that a witness file's record
    describes; a malformed JSON shape, a missing field or a negative count
    is a ValueError that names it."""

    def get(obj: dict, name: str) -> object:
        if name not in obj:
            raise ValueError(f"{name} is missing")
        return obj[name]

    kind = get(_checked(rec, dict, "a witness record"), "kind")

    def field(name: str, json_type: type = int):
        value = _checked(get(rec, name), json_type, name)
        if json_type is int and value < 0:
            raise ValueError(f"{name} is negative: {value}")
        return value

    def terms() -> List[dict]:
        return [_checked(t, dict, "a term") for t in field("terms", list)]

    def rational(x: object) -> Fraction:
        return Fraction(_checked(x, (int, str), "a rational"))

    def rationals(xs: object) -> Tuple[Fraction, ...]:
        return tuple(map(rational, _checked(xs, list, "a list of rationals")))

    if kind == "waring":
        return WaringDecomposition(
            num_vars=field("num_vars"),
            degree=field("degree"),
            terms=tuple((rational(get(t, "coeff")), rationals(get(t, "form"))) for t in terms()),
        )
    if kind == "chow":
        return ChowDecomposition(
            num_vars=field("num_vars"),
            terms=tuple(
                (rational(get(t, "coeff")), tuple(map(rationals, _checked(get(t, "forms"), list, "forms"))))
                for t in terms()
            ),
        )
    if kind == "det_expression":
        return DetExpressionWitness(
            n=field("n"),
            num_target_vars=field("num_target_vars"),
            entries=tuple(map(rationals, field("entries", list))),
        )
    raise ValueError(f"unknown witness kind {kind!r}")


def verify_waring(dec: WaringDecomposition, target: Polynomial) -> VerificationReport:
    return compare_exact(dec.expand(), target, "waring decomposition")


def verify_chow(dec: ChowDecomposition, target: Polynomial) -> VerificationReport:
    return compare_exact(dec.expand(), target, "chow decomposition")


def verify_det_expression(
    witness: DetExpressionWitness, target: Polynomial
) -> VerificationReport:
    """Check det_n(entries) = l^{n-m} * target by ``det_polymatrix``.

    The expansion costs about 2^n * n polynomial products (one per subset
    minor), so n is capped at 15, the size of Grenet's witness for perm_4.
    The cap bounds the number of minors, not their size: a dense witness
    with n = 10 in 5 variables (l included) takes 0.7-1.0 s on a 2-vCPU
    Xeon with Python 3.11, Grenet's sparse n = 15 one 0.03-0.06 s.
    """
    if witness.num_target_vars != target.num_vars:
        return VerificationReport(False, "det expression: target arity mismatch")
    m = target.degree()
    if m is None or not target.is_homogeneous():
        return VerificationReport(False, "det expression: target must be homogeneous")
    n = witness.n
    if n < m:
        return VerificationReport(False, f"det expression: n={n} smaller than degree {m}")
    if len(witness.entries) != n * n:
        return VerificationReport(False, "det expression: need n^2 entries")
    if n < 1:
        raise ValueError("det expression: n must be >= 1")
    if n > 15:
        raise CapacityError("det_n expression n", n, 15)
    v1 = target.num_vars + 1
    forms = [Polynomial.linear_form(form) for form in witness.entries]
    rows = tuple(tuple(forms[i * n : (i + 1) * n]) for i in range(n))
    got = det_polymatrix(PolyMatrix(v1, rows))
    want_terms: Dict[Exponent, Fraction] = {}
    for e, c in target.terms.items():
        want_terms[tuple(e) + (n - m,)] = c
    want = Polynomial(v1, want_terms)
    return compare_exact(got, want, f"det_{n} expression")


# ---------------------------------------------------------------------------
# Classical decomposition constructions
# ---------------------------------------------------------------------------


def fischer_decomposition(n: int) -> WaringDecomposition:
    """Fischer's 2^{n-1}-term Waring decomposition of x_1...x_n.

    x_1...x_n = 1/(2^{n-1} n!) * sum over eps in {-1,1}^{n-1} of
    (x_1 + eps_1 x_2 + ... + eps_{n-1} x_n)^n * eps_1...eps_{n-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = Fraction(1, 2 ** (n - 1) * factorial(n))
    terms: List[Tuple[Fraction, Tuple[Fraction, ...]]] = []
    for eps in product((1, -1), repeat=n - 1):
        sign = 1
        for s in eps:
            sign *= s
        form = (Fraction(1),) + tuple(Fraction(s) for s in eps)
        terms.append((scale * sign, form))
    return WaringDecomposition(num_vars=n, degree=n, terms=tuple(terms))


def ryser_decomposition(n: int) -> ChowDecomposition:
    """Ryser's 2^{n-1}-term Chow decomposition of the permanent.

    perm_n = 2^{-n+1} * sum over eps in {-1,1}^n with eps_1 = 1 of
    prod_i ( sum_j eps_i eps_j x_{ij} ).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    v = n * n
    scale = Fraction(1, 2 ** (n - 1))
    terms: List[Tuple[Fraction, Tuple[Tuple[Fraction, ...], ...]]] = []
    for rest in product((1, -1), repeat=n - 1):
        eps = (1,) + rest
        forms: List[Tuple[Fraction, ...]] = []
        for i in range(n):
            row = [Fraction(0)] * v
            for j in range(n):
                row[i * n + j] = Fraction(eps[i] * eps[j])
            forms.append(tuple(row))
        terms.append((scale, tuple(forms)))
    return ChowDecomposition(num_vars=v, terms=tuple(terms))


def _elementary_symmetric(values: Sequence[Fraction], k: int) -> Fraction:
    e = [Fraction(0)] * (k + 1)
    e[0] = Fraction(1)
    for val in values:
        for j in range(min(k, len(e) - 1), 0, -1):
            e[j] += e[j - 1] * val
    return e[k]


def benor_evaluation_points(m: int, k: int) -> List[Fraction]:
    """m distinct rationals u with e_k(u_1..u_m) = 0.

    The vanishing is exactly the consistency condition for an m-term
    decomposition of l^{m-k} e^k_m out of the products g_u (the t^{m-k}
    coefficient of prod(t - u_i) must vanish so the coefficient functional
    lies in the span of the m evaluation functionals).
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if k == m:
        pts = [Fraction(u) for u in range(m)]
    elif k % 2 == 1:
        half = m // 2
        pts = [Fraction(s * u) for u in range(1, half + 1) for s in (1, -1)]
        if m % 2 == 1:
            pts.append(Fraction(0))
    else:
        base = [Fraction(u) for u in range(1, m)]
        num = _elementary_symmetric(base, k)
        den = _elementary_symmetric(base, k - 1)
        pts = base + [-num / den]
    assert len(set(pts)) == m
    assert _elementary_symmetric(pts, k) == 0
    return pts


def benor_decomposition(m: int, k: int) -> ChowDecomposition:
    """Ben-Or's m-term Chow decomposition of l^{m-k} e^k_m.

    Uses g_u(x, l) = prod_i (x_i + u*l) at m points u with e_k(u) = 0;
    lives in m+1 variables with the padding variable l last.  The
    coefficients solve sum_u c_u u^j = delta_{j, m-k} for j < m (the case
    j = m is e_k(u) = 0), so c_u is the t^{m-k} coefficient of the Lagrange
    basis polynomial prod_{w != u} (t - w) / (u - w):

        c_u = (-1)^{k-1} e_{k-1}(w != u) / prod_{w != u} (u - w).

    Some coefficients can be zero (k = m needs a single product); the
    witness still lists all m products.
    """
    pts = benor_evaluation_points(m, k)
    v = m + 1
    terms: List[Tuple[Fraction, Tuple[Tuple[Fraction, ...], ...]]] = []
    for u in pts:
        others = [w for w in pts if w != u]
        c = (-1) ** (k - 1) * _elementary_symmetric(others, k - 1)
        for w in others:
            c /= u - w
        forms = []
        for i in range(m):
            row = [Fraction(0)] * v
            row[i] = Fraction(1)
            row[m] = Fraction(u)
            forms.append(tuple(row))
        terms.append((c, tuple(forms)))
    return ChowDecomposition(num_vars=v, terms=tuple(terms))
