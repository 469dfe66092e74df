"""Tests for gct.hhh, the Hermite--Hadamard--Howe map h_{d,n}.

Independent anchors: Hermite's isomorphism on binary forms, the
characterizing identity h(l_1^n ... l_d^n) = (l_1 ... l_d)^n expanded by
generic polynomial multiplication in "big" variables (one per monomial),
rank duality rank h_{d,n} = rank h_{n,d}, blockwise-vs-full assembly, and
the principal-ideal structure of ker h_{d,2}(C^3) over the symmetric
3x3 determinant, cross-checked against gct.reptheory plethysms.  The
state-merging column builder is checked against the leaf enumeration it
replaced, and the weight blocks against the full map assembled here.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from itertools import combinations_with_replacement, permutations
from math import comb, factorial
from typing import Tuple

import pytest

from gct import flatten, hhh
from gct.flatten import CapacityError, exact_rank, nullspace
from gct.monomials import codec, grevlex_key, monomials_of_degree
from gct.poly import Polynomial, apply_diff
from gct.reptheory import count_weight_multisets, decompose_weight_dims, partitions, plethysm_mult
from conftest import sparse
from test_reptheory import dominates


# ---------------------------------------------------------------------------
# helpers: weights, and h applied column by column
# ---------------------------------------------------------------------------


def weight_of_multiset(ms, v):
    """Total exponent vector of a multiset of monomials."""
    w = [0] * v
    for m in ms:
        for a, e in enumerate(m):
            w[a] += e
    return tuple(w)


def decoded_column(ms, n, v):
    """``hhh_column`` with each key's packed monomials decoded by
    ``codec(v, d)``, d = len(ms): {codomain multiset: coefficient}."""
    unpack = codec(v, len(ms))[1]
    return {tuple(map(unpack, key)): val for key, val in hhh.hhh_column(ms, n, v).items()}


def full_multiset_basis(count, degree, v):
    """Every multiset of ``count`` degree-``degree`` monomials, unrestricted."""
    return list(combinations_with_replacement(monomials_of_degree(v, degree), count))


@dataclass(frozen=True)
class FullMap:
    """h_{d,n} on all of S^d(S^n C^v), on the unrestricted bases."""

    d: int
    n: int
    v: int
    row_basis: Tuple[tuple, ...]
    col_basis: Tuple[tuple, ...]
    entries: Tuple[Tuple[int, ...], ...]

    @property
    def shape(self):
        return (len(self.row_basis), len(self.col_basis))


def full_hhh(d, n, v):
    """Oracle: the full map, column by column from ``hhh_column``; the
    library builds only weight blocks."""
    col_basis = full_multiset_basis(d, n, v)
    row_basis = full_multiset_basis(n, d, v)
    row_index = {ms: i for i, ms in enumerate(row_basis)}
    rows = [[0] * len(col_basis) for _ in row_basis]
    for c, ms in enumerate(col_basis):
        for key, val in decoded_column(ms, n, v).items():
            rows[row_index[key]][c] = val
    return FullMap(d, n, v, tuple(row_basis), tuple(col_basis), tuple(map(tuple, rows)))


def recursive_multiset_basis(count, degree, v, weight):
    """The weighted listing that preceded the suffix-count walk: one frame
    per monomial, in the order the walk must reproduce."""
    monos = monomials_of_degree(v, degree)
    out = []
    w0 = tuple(int(x) for x in weight)
    if len(w0) != v or sum(w0) != count * degree:
        return []

    def rec(i, c, rem, acc):
        if c == 0:
            if not any(rem):
                out.append(tuple(acc))
            return
        if i == len(monos):
            return
        m = monos[i]
        jmax = c
        for a in range(v):
            if m[a]:
                jmax = min(jmax, rem[a] // m[a])
        cur = rem
        for j in range(jmax + 1):
            if j:
                cur = tuple(x - y for x, y in zip(cur, m))
                acc.append(m)
            rec(i + 1, c - j, cur, acc)
        for _ in range(jmax):
            acc.pop()

    rec(0, count, w0, [])
    return out


def column_scale(ms, n):
    """s(ms) = prod over the rows after the first of n! / prod_a m[a]!: the
    integer hhh_column multiplies the column of ms by."""
    s = 1
    for m in ms[1:]:
        ways = factorial(n)
        for e in m:
            ways //= factorial(e)
        s *= ways
    return s


def enumerate_column(ms, n, v):
    """Oracle: the column builder the state merge replaced, h(ms) exactly.

    One leaf per choice of distinct orderings of rows 2..d, the first
    row's letters in a fixed order, each leaf weighted 1/s(ms).
    """

    def letters(m):
        return tuple(a for a, e in enumerate(m) for _ in range(e))

    rest_orderings = [sorted(set(permutations(letters(m)))) for m in ms[1:]]
    leaves = {}

    def rec(i, cols):
        if i == len(rest_orderings):
            key = tuple(sorted(cols))  # the multiset of columns
            leaves[key] = leaves.get(key, 0) + 1
            return
        for ordering in rest_orderings[i]:
            rec(i + 1, [c[:a] + (c[a] + 1,) + c[a + 1:] for c, a in zip(cols, ordering)])

    unit = [(0,) * v] * n
    rec(0, [c[:a] + (1,) + c[a + 1:] for c, a in zip(unit, letters(ms[0]))])
    s = column_scale(ms, n)
    return {
        tuple(sorted(key, key=grevlex_key)): Fraction(count, s) for key, count in leaves.items()
    }


def apply_map(coeffs, n, v):
    """h_{d,n} on C^v applied to a sparse domain vector {multiset: coeff},
    column by column, each integer column divided by its scale s(ms)."""
    out = {}
    for ms, c in coeffs.items():
        if c == 0:
            continue
        s = column_scale(ms, n)
        for key, val in decoded_column(ms, n, v).items():
            acc = out.get(key, Fraction(0)) + c * Fraction(val, s)
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# helpers: symmetric powers as polynomials in one "big" variable per monomial
# ---------------------------------------------------------------------------


def _as_big_linear(u, degree):
    """A degree-`degree` form u in v vars as a linear form in big variables."""
    monos = monomials_of_degree(u.num_vars, degree)
    table = {m: i for i, m in enumerate(monos)}
    terms = {}
    for m, c in u.terms.items():
        e = [0] * len(monos)
        e[table[m]] = 1
        terms[tuple(e)] = c
    return Polynomial(len(monos), terms), monos


def _exp_to_multiset(e, monos):
    out = []
    for i, k in enumerate(e):
        out.extend([monos[i]] * k)
    return tuple(sorted(out, key=grevlex_key))


def symmetric_product(forms, degree):
    """Multiset-basis coordinates of the symmetric product of ``forms``.

    Each form has the given degree; the product is computed as ordinary
    polynomial multiplication of linear forms in big variables, which is
    the same normalization the multiset basis uses.
    """
    acc = None
    monos = None
    for u in forms:
        big, monos = _as_big_linear(u, degree)
        acc = big if acc is None else acc * big
    return {_exp_to_multiset(e, monos): c for e, c in acc.terms.items()}


# ---------------------------------------------------------------------------
# bases and block prediction
# ---------------------------------------------------------------------------


def test_multiset_basis_counts():
    """The weight bases partition the full basis, each multiset sorted."""
    for count, degree, v in [(2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 2)]:
        full = full_multiset_basis(count, degree, v)
        n_monos = comb(v + degree - 1, degree)
        assert len(full) == comb(n_monos + count - 1, count)
        weights = {weight_of_multiset(ms, v) for ms in full}
        basis = [ms for w in sorted(weights) for ms in hhh.multiset_basis(count, degree, v, w)]
        assert sorted(basis) == sorted(full)
        for ms in basis:
            assert len(ms) == count
            assert list(ms) == sorted(ms, key=grevlex_key)
            assert all(sum(m) == degree for m in ms)


def test_multiset_basis_weight_restriction():
    d, n, v = 3, 2, 3
    full = full_multiset_basis(d, n, v)
    for weight in [(2, 2, 2), (3, 2, 1), (6, 0, 0), (4, 1, 1)]:
        got = hhh.multiset_basis(d, n, v, weight)
        want = [ms for ms in full if weight_of_multiset(ms, v) == weight]
        assert sorted(got) == sorted(want)
        assert len(got) == count_weight_multisets(d, n, v, weight)
    assert hhh.multiset_basis(d, n, v, (1, 1, 1)) == []  # wrong total
    for bad in [(2, 2, 2, 0), (2, 2), (7, -1, 0)]:  # wrong length, negative entry
        with pytest.raises(ValueError):
            hhh.multiset_basis(d, n, v, bad)
        with pytest.raises(ValueError):
            count_weight_multisets(d, n, v, bad)


#: the two h_{5,5} blocks of the hhh-blocks benchmark, dominant and relabelled
H55_BENCH_WEIGHTS = [(19, 4, 1, 1, 0), (19, 1, 0, 4, 1), (18, 5, 2, 0, 0), (18, 0, 2, 5, 0)]


def every_weight(total, v):
    """Every exponent vector of length v summing to ``total``: zeros and
    every order of the entries included."""
    if v == 1:
        return [(total,)]
    return [(x, *rest) for x in range(total + 1) for rest in every_weight(total - x, v - 1)]


@pytest.mark.parametrize(
    "d,n,v,weights",
    [(d, n, v, hhh.dominant_weights(d * n, v)) for d, n, v in [(3, 2, 3), (4, 3, 3), (6, 3, 3)]]
    + [(5, 5, 5, H55_BENCH_WEIGHTS)]
    + [(d, n, v, every_weight(d * n, v))
       for d in range(1, 5) for n in range(d, 5) for v in range(1, 5)],
)
def test_multiset_basis_matches_recursive_oracle(d, n, v, weights):
    """Same multisets in the same order as the per-monomial recursion, and
    counted as many, on every weight given.  A weight is counted on its
    sorted nonzero entries and listed on its nonzero coordinates, so the
    cases with d, n <= 4 take every weight, zeros and permutations
    included, and each is counted as its dominant rearrangement is."""
    for w in weights:
        dominant = tuple(sorted(w, reverse=True))
        for count, degree in {(d, n), (n, d)}:
            got = hhh.multiset_basis(count, degree, v, w)
            assert got == recursive_multiset_basis(count, degree, v, w), (count, degree, w)
            assert len(got) == count_weight_multisets(count, degree, v, w)
            assert len(got) == count_weight_multisets(count, degree, v, dominant), (w, dominant)


def test_flattest_h27_block_of_degree_7_monomials():
    """1716 degree-7 monomials in 7 variables: far more than the recursion limit.

    A pair {a, b} with a + b = (2,...,2) is fixed by a, whose entries lie in
    {0, 1, 2} and sum to 7; a = b only for (1,...,1).  So the count is
    (c - 1)/2 + 1 with c the x^7 coefficient of (1 + x + x^2)^7.
    """
    c = (Polynomial.linear_form([Fraction(1)]) ** 2
         + Polynomial.linear_form([Fraction(1)]) + Polynomial.one(1)) ** 7
    assert c.terms[(7,)] == 393
    w = (2,) * 7
    assert count_weight_multisets(2, 7, 7, w) == (393 - 1) // 2 + 1 == 197
    assert len(hhh.multiset_basis(2, 7, 7, w)) == 197
    assert hhh.predicted_block_size(2, 7, 7, w) == (197, 2461)


def test_predicted_block_size_matches_built():
    for d, n, v, w in [(2, 2, 2, (2, 2)), (3, 2, 3, (2, 2, 2)), (2, 3, 2, (3, 3))]:
        dom, cod = hhh.predicted_block_size(d, n, v, w)
        block = hhh.build_hhh(d, n, v, w)
        assert block.shape == (cod, dom)
        assert len(hhh.multiset_basis(d, n, v, w)) == dom
        assert len(hhh.multiset_basis(n, d, v, w)) == cod
        assert max(c for row in block.rows.values() for c in row) == dom - 1
        assert len(block.rows) <= cod


# ---------------------------------------------------------------------------
# the column builder against the leaf enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d,n,v,weights,columns",
    [
        (3, 3, 3, hhh.dominant_weights(9, 3), 53),
        (4, 3, 2, hhh.dominant_weights(12, 2), 20),
        (3, 4, 3, hhh.dominant_weights(12, 3), 156),
        (2, 5, 3, hhh.dominant_weights(10, 3), 51),
        (3, 2, 3, hhh.dominant_weights(6, 3), 16),
        (5, 5, 2, hhh.dominant_weights(25, 2), 126),
        (5, 5, 5, H55_BENCH_WEIGHTS, 152),
    ],
)
def test_column_is_scaled_leaf_enumeration(d, n, v, weights, columns):
    """hhh_column(ms) = s(ms) * h(ms), with h(ms) from the old enumerator,
    on every column of the listed blocks."""
    seen = 0
    for w in weights:
        for ms in hhh.multiset_basis(d, n, v, w):
            got = decoded_column(ms, n, v)
            s = column_scale(ms, n)
            want = {key: val * s for key, val in enumerate_column(ms, n, v).items()}
            assert got == want, ms
            assert all(type(x) is int for x in got.values()), ms
            seen += 1
    assert seen == columns


@pytest.mark.parametrize("d,n,v", [(1, 3, 3), (2, 3, 3), (3, 3, 3), (4, 2, 3), (7, 2, 3), (8, 2, 3)])
def test_packed_keys_are_block_rows_where_the_field_width_steps(d, n, v):
    """codec(v, d) has fields of 1, 2, 2, 3, 3 and 4 bits for these d.  Its
    codes of the degree-d monomials ascend in descending grevlex, so every
    codomain multiset packs to an ascending tuple, and every key
    ``hhh_column`` returns is one of those tuples: a row of the block,
    which decodes to a codomain multiset of the block's weight."""
    pack, unpack = codec(v, d)
    codes = [pack(m) for m in monomials_of_degree(v, d)]
    assert codes == sorted(set(codes))
    for w in hhh.dominant_weights(d * n, v):
        block = hhh.build_hhh(d, n, v, w)
        codomain = hhh.multiset_basis(n, d, v, w)
        rows = {tuple(map(pack, ms)) for ms in codomain}
        assert len(rows) == len(codomain) and all(list(key) == sorted(key) for key in rows), w
        assert {tuple(map(unpack, key)) for key in block.rows} <= set(codomain), w
        entries = 0
        for c, ms in enumerate(hhh.multiset_basis(d, n, v, w)):
            column = hhh.hhh_column(ms, n, v)
            assert column and column.keys() <= rows, ms
            assert all(block.rows[key][c] == x for key, x in column.items()), ms
            entries += len(column)
        assert sum(map(len, block.rows.values())) == entries, w


def test_entries_are_python_ints():
    for d, n, v, w in [(3, 2, 3, (2, 2, 2)), (2, 3, 2, (3, 3)), (5, 5, 5, H55_BENCH_WEIGHTS[0])]:
        block = hhh.build_hhh(d, n, v, w)
        assert all(type(x) is int for row in block.rows.values() for x in row.values()), (d, n, v, w)


def test_h55_script_runs_one_weight_block():
    """The h_{5,5} plan over every dominant weight, from predicted sizes
    alone: 377 nonzero blocks, 221 of them admitted by the capacity rule,
    the widest the 190131-column weight-zero block; and one admitted
    block, (19,4,1,1,0), eliminated to full rank."""
    sizes = [hhh.predicted_block_size(5, 5, 5, w) for w in hhh.dominant_weights(25, 5)]
    sizes = [(dom, cod) for dom, cod in sizes if dom or cod]

    def admitted(dom, cod):
        try:
            flatten.check_capacity("plan", dom, cod)
        except CapacityError:
            return False
        return True

    assert len(sizes) == 377
    assert sum(admitted(dom, cod) for dom, cod in sizes) == 221
    assert flatten.MAX_COLUMNS == 5000
    assert max(map(max, sizes)) == 190131
    block = hhh.build_hhh(5, 5, 5, (19, 4, 1, 1, 0))
    assert (block.shape, block.rank()) == ((36, 36), 36)


def test_dominant_weights():
    ws = hhh.dominant_weights(4, 3)
    assert ws[0] == (4, 0, 0) and (2, 1, 1) in ws and (1, 1, 1) not in ws
    assert all(len(w) == 3 and sum(w) == 4 for w in ws)


def test_weight_multiplicities_grow_down_dominance():
    """The fact the capacity plan rests on: on dominant weights, dim of the
    mu weight space of S^d(S^n C^v) is at least that of lambda when mu is
    dominated by lambda; so the flattest weight has the largest block."""
    pairs = 0
    for d in range(1, 6):
        for n in range(1, 6):
            for v in range(1, 5):
                if d * n > 14:
                    continue
                weights = hhh.dominant_weights(d * n, v)
                size = {w: count_weight_multisets(d, n, v, w) for w in weights}
                for lam in weights:
                    for mu in weights:
                        if lam != mu and dominates(lam, mu):
                            pairs += 1
                            assert size[lam] <= size[mu], (d, n, v, lam, mu)
                q, r = divmod(d * n, v)
                assert size[(q + 1,) * r + (q,) * (v - r)] == max(size.values())
    assert pairs == 2723


def test_refusal_counts_only_the_flattest_weight(monkeypatch):
    calls = []
    predicted = hhh.predicted_block_size

    def counted(d, n, v, w):
        calls.append(tuple(w))
        return predicted(d, n, v, w)

    monkeypatch.setattr(hhh, "predicted_block_size", counted)
    with pytest.raises(CapacityError) as exc:
        hhh.kernel_dims_by_weight(6, 3, 6)
    assert calls == [(3,) * 6]
    assert (exc.value.size, exc.value.cap) == (32152, 5000)
    assert "dominant weight (3, 3, 3, 3, 3, 3)" in exc.value.context
    calls.clear()
    with pytest.raises(CapacityError):
        hhh.hhh_rank(5, 5, 5)
    assert calls == [(5,) * 5]
    calls.clear()
    monkeypatch.setattr(flatten, "MAX_COLUMNS", 5)
    with pytest.raises(CapacityError) as exc:  # dn = 6 = 1*4 + 2
        hhh.kernel_character(3, 2, 4)
    assert calls == [(2, 2, 1, 1)]
    assert (exc.value.size, exc.value.cap) == (6, 5)
    with pytest.raises(ValueError):
        hhh.hhh_rank(2, 2, 0)


def test_capacity_rule_caps_the_domain_and_the_dense_size(monkeypatch):
    """With the width cap at 14: a 17-wide block is refused, a 10-wide block
    with 17 rows is admitted, and a 14-wide block with 25 rows is refused
    for its 350 > 14**2 entries, each from predicted sizes only."""
    w = (2, 2, 2, 2)
    assert hhh.predicted_block_size(4, 2, 4, w) == (17, 10)
    assert hhh.predicted_block_size(2, 4, 4, w) == (10, 17)
    assert hhh.predicted_block_size(2, 5, 4, (3, 3, 2, 2)) == (14, 25)
    ranks = {(2, 4): hhh.build_hhh(2, 4, 4, w).rank(), (4, 2): hhh.build_hhh(4, 2, 4, w).rank()}
    dims = hhh.kernel_dims_by_weight(2, 4, 4)
    monkeypatch.setattr(flatten, "MAX_COLUMNS", 14)
    with pytest.raises(CapacityError) as exc:
        hhh.build_hhh(4, 2, 4, w)
    assert (exc.value.size, exc.value.cap) == (17, 14)
    assert exc.value.context == "h_{4,2} on C^4, weight (2, 2, 2, 2)"
    with pytest.raises(CapacityError) as exc:
        hhh.hhh_rank(4, 2, 4)
    assert (exc.value.size, exc.value.cap) == (17, 14)
    block = hhh.build_hhh(2, 4, 4, w)
    assert block.shape == (17, 10)
    assert block.rank() == ranks[(2, 4)] == ranks[(4, 2)]
    assert hhh.kernel_dims_by_weight(2, 4, 4) == dims
    with pytest.raises(CapacityError) as exc:
        hhh.build_hhh(2, 5, 4, (3, 3, 2, 2))
    assert (exc.value.size, exc.value.cap) == (350, 196)
    assert exc.value.context == "h_{2,5} on C^4, weight (3, 3, 2, 2) entries"


# ---------------------------------------------------------------------------
# the characterizing identity and linearity
# ---------------------------------------------------------------------------


def _random_linear_forms(v, count, rng):
    forms = []
    for _ in range(count):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(v)]
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        forms.append(Polynomial.linear_form(coeffs))
    return forms


@pytest.mark.parametrize("d,n,v", [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 2, 3)])
def test_characterizing_identity_on_split_points(d, n, v):
    """h_{d,n}(l_1^n * ... * l_d^n) = (l_1 * ... * l_d)^n, exactly."""
    rng = random.Random(1000 * d + 10 * n + v)
    h = full_hhh(d, n, v)
    for _ in range(5):
        ls = _random_linear_forms(v, d, rng)
        domain_vec = symmetric_product([l**n for l in ls], n)
        prod = Polynomial.one(v)
        for l in ls:
            prod = prod * l
        want = symmetric_product([prod] * n, d)
        assert apply_map(domain_vec, n, v) == want


def test_apply_matches_matrix_entries():
    d, n, v = 3, 2, 2
    h = full_hhh(d, n, v)
    rng = random.Random(5)
    vec = [Fraction(rng.randint(-4, 4)) for _ in h.col_basis]
    coeffs = {ms: c for ms, c in zip(h.col_basis, vec) if c}
    applied = apply_map(coeffs, n, v)
    # entry (i, j) is h's coefficient times the column scale s(ms_j)
    scales = [column_scale(ms, n) for ms in h.col_basis]
    rows, cols = h.shape
    for i, row_ms in enumerate(h.row_basis):
        entry = sum(
            (Fraction(h.entries[i][j], scales[j]) * vec[j] for j in range(cols)), Fraction(0)
        )
        assert applied.get(row_ms, Fraction(0)) == entry


# ---------------------------------------------------------------------------
# ranks: Hermite, duality, blockwise assembly
# ---------------------------------------------------------------------------


def test_hermite_isomorphism_on_binary_forms():
    """h_{d,n} on C^2 is an isomorphism: rank = dim = C(n+d, d)."""
    for d in range(1, 5):
        for n in range(1, 5):
            if d + n > 7:
                continue
            assert hhh.hhh_rank(d, n, 2) == comb(n + d, d)


def test_long_rows_cost_their_distinct_orderings():
    """A row of n letters can have far fewer than n! distinct orderings, and
    listing them must cost what they number.  h_{2,20} on C^1 is 1 x 1, its
    one row x^20 has one ordering; h_{2,12} on C^2 (Hermite) has rows of 12
    letters with at most C(12, 6) = 924.  A fresh interpreter with a
    timeout: walking all 20! orderings runs in C, past any in-process
    alarm."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "from gct import hhh; print(hhh.hhh_rank(2, 20, 1), hhh.hhh_rank(2, 12, 2))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    ).stdout
    assert out.split() == ["1", str(comb(14, 2))]


def test_rank_duality():
    for d, n, v in [(2, 3, 3), (3, 2, 3), (2, 4, 2), (4, 2, 2), (2, 2, 4)]:
        assert hhh.hhh_rank(d, n, v) == hhh.hhh_rank(n, d, v)


def test_blockwise_equals_full_rank():
    for d, n, v in [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 2, 3)]:
        full = full_hhh(d, n, v)
        assert exact_rank(*sparse(full.entries)) == hhh.hhh_rank(d, n, v)


def test_blocks_are_restrictions_of_the_full_map():
    """Each block stores exactly the nonzero entries of the full map on its
    rows and columns."""
    for d, n, v in [(2, 2, 2), (3, 2, 3), (2, 3, 3)]:
        full = full_hhh(d, n, v)
        row = {ms: r for r, ms in enumerate(full.row_basis)}
        col = {ms: c for c, ms in enumerate(full.col_basis)}
        unpack = codec(v, d)[1]
        for w in hhh.dominant_weights(d * n, v):
            block = hhh.build_hhh(d, n, v, w)
            cols, codomain = hhh.multiset_basis(d, n, v, w), hhh.multiset_basis(n, d, v, w)
            assert block.shape == (len(codomain), len(cols))
            want = {}
            for r in codomain:
                entries = {j: full.entries[row[r]][col[c]] for j, c in enumerate(cols)}
                if any(entries.values()):
                    want[r] = {j: x for j, x in entries.items() if x}
            got = {tuple(map(unpack, key)): x for key, x in block.rows.items()}
            assert got == want, (d, n, v, w)


def phi(ms):
    """aut(ms) * prod_a ms[0][a]!: aut(ms) is the product of the factorials
    of the multiplicities of ms's monomials, ms[0] its leading monomial."""
    out = 1
    for c in Counter(ms).values():
        out *= factorial(c)
    for e in ms[0]:
        out *= factorial(e)
    return out


def block_entries(d, n, v, w):
    """The ``w`` block of h_{d,n} as {(codomain multiset, domain multiset): entry}."""
    unpack = codec(v, d)[1]
    cols = hhh.multiset_basis(d, n, v, w)
    block = hhh.build_hhh(d, n, v, w)
    return {(tuple(map(unpack, key)), cols[c]): x for key, row in block.rows.items() for c, x in row.items()}


@pytest.mark.parametrize(
    "d,n,v,weights",
    [(d, n, v, None) for d, n, v in [(2, 2, 2), (2, 3, 3), (3, 3, 3), (3, 2, 3), (4, 3, 3), (3, 4, 3),
                                     (2, 4, 4), (4, 4, 3), (5, 5, 2), (3, 5, 3)]]
    + [(5, 5, 5, [(19, 4, 1, 1, 0), (18, 5, 2, 0, 0)])],
)
def test_weight_blocks_of_h_dn_and_h_nd_are_scaled_transposes(d, n, v, weights):
    """A = build_hhh(d, n, v, w), B = build_hhh(n, d, v, w):
    A[N][M] * phi(N) = B[M][N] * phi(M), and the supports are transposes
    (proved in the ``gct.hhh`` docstring)."""
    for w in weights or hhh.dominant_weights(d * n, v):
        a = block_entries(d, n, v, w)
        b = {(m, nn): x for (nn, m), x in block_entries(n, d, v, w).items()}
        assert a.keys() == b.keys(), w
        for (nn, m), x in a.items():
            assert x * phi(nn) == b[nn, m] * phi(m), (w, nn, m)


def test_h22_c2_rank_literal():
    h = full_hhh(2, 2, 2)
    assert h.shape == (6, 6)
    assert exact_rank(*sparse(h.entries)) == 6


def test_h32_c3_kernel_is_symmetric_determinant():
    """ker h_{3,2}(C^3) is 1-dim: det of the generic symmetric 3x3 matrix."""
    assert hhh.hhh_rank(3, 2, 3) == 56 - 1
    dims = hhh.kernel_dims_by_weight(3, 2, 3)
    assert {p: k for p, k in dims.items() if k} == {(2, 2, 2): 1}
    assert hhh.kernel_character(3, 2, 3) == {(2, 2, 2): 1}
    # the kernel vector really is the symmetric determinant: extract it
    block = hhh.build_hhh(3, 2, 3, (2, 2, 2))
    kernel = nullspace(list(block.rows.values()), block.shape[1])
    assert len(kernel) == 1
    # a kernel vector y of the column-scaled entries gives x = diag(s) y in ker h
    cols = hhh.multiset_basis(3, 2, 3, (2, 2, 2))
    vec = {ms: c * column_scale(ms, 2) for ms, c in zip(cols, kernel[0]) if c}
    assert apply_map(vec, 2, 3) == {}
    # det [[x^2, xy, xz], [xy, y^2, yz], [xz, yz, z^2]]-style relation:
    # evaluate on a split point u = (ax+by+cz)^2 pairing; must vanish
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    u = (x + 2 * y - z) ** 2
    pairings = {
        m: apply_diff(Polynomial.monomial(m), u).as_scalar()
        for m in monomials_of_degree(3, 2)
    }
    assert _evaluate_on(vec, pairings) == 0


def test_kernel_character_principal_ideal_oracle():
    """ker h_{d,2}(C^3) = (det_sym) * S^{d-3}(S^2 C^3): multiplicities are
    the degree-(d-3) plethysm shifted by (2,2,2)."""
    for d in (3, 4, 5, 7):
        got = hhh.kernel_character(d, 2, 3)
        shifted = {}
        for pi in partitions(2 * (d - 3), max_len=3):
            padded = pi + (0,) * (3 - len(pi))
            shifted[tuple(p + 2 for p in padded)] = plethysm_mult(pi, d - 3, 2)
        shifted = {pi: m for pi, m in shifted.items() if m}
        assert got == shifted, d


#: every (d, n, v) with d, n >= 2, dn <= 12 and 2 <= v <= 4
ORACLE_GRID = [(d, n, v) for d in range(2, 7) for n in range(2, 7) if d * n <= 12 for v in (2, 3, 4)]
#: the grid's maps that are injective and not onto; transposing (d, n) gives
#: the maps that are onto and not injective, and the rest are bijections
INJECTIVE_ONLY = [(2, 3, 3), (2, 3, 4), (2, 4, 3), (2, 4, 4), (2, 5, 3), (2, 5, 4), (2, 6, 3),
                  (2, 6, 4), (3, 4, 3), (3, 4, 4)]
SURJECTIVE_ONLY = [(n, d, v) for d, n, v in INJECTIVE_ONLY]


def block_nullities(d, n, v):
    """Oracle: dim ker h_{d,n} at every dominant weight, each block built
    and eliminated."""
    out = {}
    for w in hhh.dominant_weights(d * n, v):
        block = hhh.build_hhh(d, n, v, w)
        out[tuple(x for x in w if x)] = block.shape[1] - block.rank()
    return out


@pytest.mark.parametrize("d,n,v", ORACLE_GRID)
def test_flattest_block_decides_every_weight(d, n, v):
    """The shortcut from the flattest block, and the per-weight route it
    falls back to, give every block's own nullity; the ranks and kernel
    characters follow.  Each map is injective, onto or both as named."""
    assert set(INJECTIVE_ONLY + SURJECTIVE_ONLY) <= set(ORACLE_GRID)
    want = block_nullities(d, n, v)
    assert hhh.kernel_dims_by_weight(d, n, v) == want
    assert hhh._nullities_by_weight(d, n, v) == want
    kernel = sum(len(set(permutations(w + (0,) * (v - len(w))))) * k for w, k in want.items())
    domain, codomain = comb(comb(n + v - 1, n) + d - 1, d), comb(comb(d + v - 1, d) + n - 1, n)
    assert hhh.hhh_rank(d, n, v) == domain - kernel
    assert hhh.kernel_character(d, n, v) == decompose_weight_dims(want)
    injective, onto = kernel == 0, domain - kernel == codomain
    assert (injective, onto) == ((d, n, v) not in SURJECTIVE_ONLY, (d, n, v) not in INJECTIVE_ONLY)


def test_whole_map_builds_only_its_flattest_block(monkeypatch):
    """h_{6,3} on C^3 is onto and h_{5,5} on C^2 is injective, so each is
    answered by one elimination, of its flattest block."""
    built = []
    build = hhh.build_hhh

    def recorded(d, n, v, weight):
        built.append(tuple(weight))
        return build(d, n, v, weight)

    monkeypatch.setattr(hhh, "build_hhh", recorded)
    assert hhh.kernel_character(6, 3, 3) == {
        (8, 6, 4): 1, (9, 6, 3): 1, (9, 7, 2): 1, (10, 4, 4): 1, (10, 5, 3): 1,
        (10, 6, 2): 1, (11, 4, 3): 1, (11, 5, 2): 1, (12, 4, 2): 1, (13, 3, 2): 1,
    }
    assert built == [(6, 6, 6)]
    built.clear()
    assert hhh.hhh_rank(5, 5, 2) == comb(10, 5)
    assert built == [(13, 12)]


def test_flattest_block_of_neither_rank_eliminates_every_block(monkeypatch):
    """A flattest block with full rank on neither side sends the whole map
    to the per-weight route.  Dropping one row of the (2,2,2) block of
    h_{3,2} on C^3 (4 x 5, rank 4) leaves rank 3: neither."""
    build = hhh.build_hhh

    def row_dropped(d, n, v, weight):
        block = build(d, n, v, weight)
        if tuple(weight) == (2, 2, 2):
            del block.rows[next(iter(block.rows))]
        return block

    routed = []
    monkeypatch.setattr(hhh, "build_hhh", row_dropped)
    monkeypatch.setattr(hhh, "_nullities_by_weight", lambda *dnv: routed.append(dnv) or {})
    assert hhh.kernel_dims_by_weight(3, 2, 3) == {}
    assert routed == [(3, 2, 3)]


def test_kernel_dims_sum_to_total_kernel():
    for d, n, v in [(3, 2, 3), (2, 3, 3), (4, 2, 3)]:
        dims = hhh.kernel_dims_by_weight(d, n, v)
        total = 0
        for part, k in dims.items():
            padded = tuple(part) + (0,) * (v - len(part))
            total += len(set(permutations(padded))) * k
        assert hhh.kernel_dimension(dims, v) == total
        domain_dim = comb(comb(n + v - 1, n) + d - 1, d)
        assert total == domain_dim - exact_rank(*sparse(full_hhh(d, n, v).entries))


# ---------------------------------------------------------------------------
# weight-zero block
# ---------------------------------------------------------------------------


def test_weight_zero_block():
    w = hhh.flattest_weight(6, 3)
    assert w == (2, 2, 2)
    assert hhh.build_hhh(3, 2, 3, w).shape == (4, 5)
    assert hhh.flattest_weight(6, 4) == (2, 2, 1, 1)
    assert hhh.flattest_weight(3, 5) == (1, 1, 1, 0, 0)


# ---------------------------------------------------------------------------
# Chow vanishing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChowVanishingReport:
    ok: bool
    kernel_dim: int
    trials: int
    message: str


def _evaluate_on(ms_coeffs, pairings):
    """A vector {multiset: coeff} of S^d(S^n C^v), as a degree-d polynomial
    on S^n C^v*, at the point whose apolarity pairings are ``pairings``."""
    total = Fraction(0)
    for ms, c in ms_coeffs.items():
        val = c
        for m in ms:
            val *= pairings[m]
            if val == 0:
                break
        total += val
    return total


def kernel_vanishes_on_chow(d, n, v, trials=10, seed=0):
    """Oracle: ker h_{d,n} lies in I_d(Ch_n), checked on random split points.

    Every kernel basis vector, viewed as a degree-d polynomial on S^n C^v*
    via the apolarity pairing <m, u> = m(d/dy) u, must vanish on u = a
    product of n random rational linear forms.  As a sanity check that the
    evaluation has teeth, a random vector outside the kernel must be
    nonzero on some trial (when the kernel is proper).
    """
    h = full_hhh(d, n, v)
    kernel = nullspace(*sparse(h.entries))
    rng = random.Random(seed)
    monos = monomials_of_degree(v, n)

    def random_chow_point():
        u = Polynomial.one(v)
        for _ in range(n):
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(v)]
            if not any(coeffs):
                coeffs[rng.randrange(v)] = Fraction(1)
            u = u * Polynomial.linear_form(coeffs)
        return u

    failures = 0
    sanity_nonzero = False
    for _ in range(trials):
        u = random_chow_point()
        pairings = {
            m: apply_diff(Polynomial.monomial(m), u).as_scalar() for m in monos
        }
        for vec in kernel:  # x = diag(s) y for y in the kernel of the entries
            coeffs = {
                h.col_basis[i]: x * column_scale(h.col_basis[i], n)
                for i, x in enumerate(vec)
                if x != 0
            }
            if _evaluate_on(coeffs, pairings) != 0:
                failures += 1
        if len(kernel) < len(h.col_basis):
            # a random vector; overwhelmingly not in the kernel, and its
            # non-vanishing is only *recorded*, not required per trial
            vec = [Fraction(rng.randint(-3, 3)) for _ in h.col_basis]
            coeffs = {h.col_basis[i]: x for i, x in enumerate(vec) if x != 0}
            if _evaluate_on(coeffs, pairings) != 0:
                sanity_nonzero = True
    ok = failures == 0 and (not kernel or sanity_nonzero or len(kernel) == len(h.col_basis))
    msg = (
        f"h_{{{d},{n}}} on C^{v}: kernel dim {len(kernel)}, {trials} split points, "
        + ("all kernel evaluations zero" if failures == 0 else f"{failures} NONZERO kernel evaluations")
        + ("; non-kernel sanity vector nonzero" if sanity_nonzero else "")
    )
    return ChowVanishingReport(ok=ok, kernel_dim=len(kernel), trials=trials, message=msg)


def test_kernel_vanishes_on_chow():
    report = kernel_vanishes_on_chow(3, 2, 3, trials=6, seed=11)
    assert report.ok
    assert report.kernel_dim == 1
    assert "all kernel evaluations zero" in report.message


def test_kernel_vanishes_trivially_when_injective():
    report = kernel_vanishes_on_chow(2, 2, 2, trials=3, seed=1)
    assert report.ok and report.kernel_dim == 0


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_h55_capacity_reported_up_front():
    import time

    start = time.monotonic()
    with pytest.raises(CapacityError) as exc:
        hhh.hhh_rank(5, 5, 5)
    elapsed = time.monotonic() - start
    assert exc.value.size == 190131
    assert exc.value.size > exc.value.cap
    assert "dominant weight (5, 5, 5, 5, 5)" in str(exc.value)
    assert elapsed < 30.0


def test_build_hhh_validates_arguments():
    with pytest.raises(ValueError):
        hhh.build_hhh(0, 2, 2, (0, 0))
