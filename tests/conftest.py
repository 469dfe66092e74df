"""Shared strategies, dense matrices as sparse rows, the Fraction product
oracles, the linear-substitution oracle, Grenet's witnesses and the
acceptance-criteria terminal summary."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, settings, strategies as st

from gct import zoo
from gct.poly import Polynomial

settings.register_profile(
    "exact",
    deadline=None,  # exact arithmetic has high variance per example
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def small_fractions(max_abs: int = 9, max_den: int = 6) -> st.SearchStrategy:
    return st.builds(
        Fraction,
        st.integers(-max_abs, max_abs),
        st.integers(1, max_den),
    )


@st.composite
def polynomials(
    draw,
    num_vars: int = None,
    max_vars: int = 3,
    max_exp: int = 3,
    max_terms: int = 5,
    homogeneous_degree: int = None,
):
    v = num_vars if num_vars is not None else draw(st.integers(1, max_vars))
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        if homogeneous_degree is None:
            e = tuple(
                draw(st.integers(0, max_exp)) for _ in range(v)
            )
        else:
            # split homogeneous_degree into v non-negative parts
            cuts = sorted(
                draw(
                    st.lists(
                        st.integers(0, homogeneous_degree),
                        min_size=v - 1,
                        max_size=v - 1,
                    )
                )
            )
            bounds = [0] + cuts + [homogeneous_degree]
            e = tuple(bounds[i + 1] - bounds[i] for i in range(v))
        c = draw(small_fractions())
        if c != 0:
            terms[e] = c
    return Polynomial(v, terms)


def sparse(matrix):
    """A dense matrix as (rows, width): ``{col: x}`` rows of its nonzero
    entries, the form the library's elimination takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix], len(matrix[0]) if matrix else 0


@st.composite
def fraction_matrices(draw, max_rows: int = 5, max_cols: int = 5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return [
        [draw(small_fractions(max_abs=6, max_den=4)) for _ in range(cols)]
        for _ in range(rows)
    ]


# ---------------------------------------------------------------------------
# Linear substitution: the oracle for determinantal expressions, which the
# library expands as determinants of polynomial matrices instead
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSubstitution:
    """Linear change/embedding of variables.

    Variable ``x_i`` of the source polynomial is replaced by the linear form
    ``sum_j matrix[i][j] * y_j`` in ``num_vars_out`` output variables.
    """

    num_vars_in: int
    num_vars_out: int
    matrix: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.num_vars_in:
            raise ValueError("matrix must have num_vars_in rows")
        rows = tuple(
            tuple(Fraction(c) for c in row) for row in self.matrix
        )
        for row in rows:
            if len(row) != self.num_vars_out:
                raise ValueError("matrix rows must have num_vars_out entries")
        object.__setattr__(self, "matrix", rows)


def mul_oracle(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q, summed term by term in Fractions: no packed monomials."""
    acc: Dict[Tuple[int, ...], Fraction] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = acc.get(e, Fraction(0)) + c1 * c2
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return Polynomial(p.num_vars, acc)


def pow_oracle(p: Polynomial, k: int) -> Polynomial:
    """p**k by square-and-multiply over ``mul_oracle``, as ``**`` once ran."""
    result, base = Polynomial.one(p.num_vars), p
    while k:
        if k & 1:
            result = mul_oracle(result, base)
        k >>= 1
        if k:
            base = mul_oracle(base, base)
    return result


def substitute(p: Polynomial, sub: LinearSubstitution) -> Polynomial:
    """Apply a linear substitution to every variable of ``p``; products by
    ``mul_oracle``, so the oracle shares no kernel with the library."""
    if p.num_vars != sub.num_vars_in:
        raise ValueError("substitution arity does not match polynomial")
    v_out = sub.num_vars_out
    forms = [Polynomial.linear_form(row) for row in sub.matrix]
    power_cache: Dict[Tuple[int, int], Polynomial] = {}

    def form_power(i: int, k: int) -> Polynomial:
        key = (i, k)
        got = power_cache.get(key)
        if got is None:
            got = pow_oracle(forms[i], k)
            power_cache[key] = got
        return got

    acc = Polynomial.zero(v_out)
    for e, c in p.terms.items():
        prod = Polynomial.constant(v_out, c)
        for i, k in enumerate(e):
            if k:
                prod = mul_oracle(prod, form_power(i, k))
        acc = acc + prod
    return acc


def grenet_witness(m: int) -> "zoo.DetExpressionWitness":
    """Grenet's (2^m - 1) x (2^m - 1) determinantal expression for perm_m.

    The vertices are the subsets of [m], with the empty set and [m] merged
    into one vertex (index 0).  The edge S -> S + {j} carries x_{|S|+1, j};
    every other vertex carries l on the diagonal.  The only cycle covers
    are one m-cycle through vertex 0 (a chain of subsets, so a permutation
    of [m]) with l on the other 2^m - 1 - m vertices, so the determinant
    is (-1)^{m-1} l^{2^m-1-m} perm_m.  The first row is negated when m is
    even, which leaves l^{2^m-1-m} perm_m.
    """
    v = m * m + 1  # x_{ij} row-major, then l
    subsets = [frozenset(c) for k in range(1, m) for c in combinations(range(m), k)]
    index = {s: i + 1 for i, s in enumerate(subsets)}
    index[frozenset()] = index[frozenset(range(m))] = 0
    n = len(subsets) + 1
    zero = (Fraction(0),) * v
    entries = [[zero] * n for _ in range(n)]

    def form(var, coeff=1):
        row = [Fraction(0)] * v
        row[var] = Fraction(coeff)
        return tuple(row)

    for s in [frozenset()] + subsets:
        for j in range(m):
            if j not in s:
                entries[index[s]][index[s | {j}]] = form(len(s) * m + j)
    for i in range(1, n):
        entries[i][i] = form(m * m)
    if m % 2 == 0:
        entries[0] = [tuple(-c for c in f) for f in entries[0]]
    flat = tuple(f for row in entries for f in row)
    return zoo.DetExpressionWitness(n=n, num_target_vars=m * m, entries=flat)


# ---------------------------------------------------------------------------
# Acceptance-criteria reporting: tests append lines, the summary hook prints
# them after the run so each criterion shows one pass/fail line in the output.
# ---------------------------------------------------------------------------

ACCEPTANCE_LINES: List[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
