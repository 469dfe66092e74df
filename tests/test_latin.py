"""Tests for gct.latin.

The sign conventions are pinned by their transformation laws (symbol
relabeling, row permutation, transposition), the counts by the classical
L(n) = 1, 2, 12, 576, 161280, by reduced-vs-exhaustive agreement and by
the all-branches reduced sum (the oracle of the orbit-weighted counter),
the parity-carrying branch counter by completing every square and signing
it, and the differential pairings by the Latin-square expansion oracle.
The square enumerator, the exhaustive oracles and the sign functions of a
single square live here, not in gct.latin: no command needs them.
"""

from itertools import permutations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gct import latin
from gct.flatten import CapacityError

#: exhaustive enumeration cap (n=6 runs go through the reduced counter)
MAX_EXHAUSTIVE = 5


def complete_squares(n, rows, col_used, out):
    """Extend ``rows`` to full Latin squares, rows filled left to right with
    candidate values ascending (deterministic lexicographic order), handing
    each finished square to ``out`` as a tuple of row tuples."""
    if len(rows) == n:
        out(tuple(rows))
        return
    row = [0] * n
    row_used = 0

    def fill(j):
        nonlocal row_used
        if j == n:
            rows.append(tuple(row))
            for jj, x in enumerate(row):
                col_used[jj] |= 1 << x
            complete_squares(n, rows, col_used, out)
            rows.pop()
            for jj, x in enumerate(row):
                col_used[jj] &= ~(1 << x)
            return
        avail = ~(row_used | col_used[j])
        for x in range(1, n + 1):
            if avail & (1 << x):
                row[j] = x
                row_used |= 1 << x
                fill(j + 1)
                row_used &= ~(1 << x)

    fill(0)


def enumerate_latin_squares(n, *, cap=MAX_EXHAUSTIVE):
    """All Latin squares of order n, in lexicographic (row-major) order."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise CapacityError("enumerate_latin_squares", n, cap)
    found = []
    complete_squares(n, [], [0] * n, found.append)
    return iter(found)


def tally_signs(n, squares):
    """(full sign +, full sign -, column sign +, column sign -) over
    ``squares``, each sign a product of ``perm_sign`` over rows and columns."""
    counts = [0, 0, 0, 0]
    for sq in squares:
        rs = 1
        for row in sq:
            rs *= latin.perm_sign(row)
        cs = 1
        for j in range(n):
            cs *= latin.perm_sign([row[j] for row in sq])
        counts[0 if rs * cs > 0 else 1] += 1
        counts[2 if cs > 0 else 3] += 1
    return tuple(counts)


def alon_tarsi_count(n, *, cap=MAX_EXHAUSTIVE):
    """Exhaustive signed count of all Latin squares of order n."""
    return latin.ATCount(n, *tally_signs(n, enumerate_latin_squares(n, cap=cap)))


def count_branch_oracle(n, second_row):
    """Signed counts of the completions of (identity, second_row), from the
    finished squares and a ``perm_sign`` call per row and column."""
    rows = [tuple(range(1, n + 1)), tuple(second_row)]
    col_used = [0] * n
    for row in rows:
        for j, x in enumerate(row):
            if col_used[j] & (1 << x):
                raise ValueError("second row clashes with the first")
            col_used[j] |= 1 << x
    squares = []
    complete_squares(n, rows, col_used, squares.append)
    return tally_signs(n, squares)


def pairing_allvars_oracle(n, *, cap=MAX_EXHAUSTIVE):
    """Independent expansion oracle for pairing_allvars_det.

    Choosing one permutation monomial from each of the n det factors and
    demanding every variable appear once lays the permutations out as the
    rows of a Latin square; the surviving coefficient is the sum of the
    products of row signs.
    """
    total = 0
    for sq in enumerate_latin_squares(n, cap=cap):
        rs = 1
        for row in sq:
            rs *= latin.perm_sign(row)
        total += rs
    return total


SQUARES_3 = list(enumerate_latin_squares(3))


def relabel(square, sigma):
    """Apply the symbol permutation sigma (0-indexed on 1..n) entrywise."""
    return tuple(tuple(sigma[x - 1] for x in row) for row in square)


def reorder_rows(square, sigma):
    return tuple(square[sigma[i]] for i in range(len(square)))


def transpose(square):
    n = len(square)
    return tuple(tuple(square[i][j] for i in range(n)) for j in range(n))


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------


def is_latin_square(square):
    n = len(square)
    want = list(range(1, n + 1))
    for row in square:
        if sorted(row) != want:
            return False
    for j in range(n):
        if sorted(row[j] for row in square) != want:
            return False
    return True


def require_latin(square):
    sq = tuple(tuple(int(x) for x in row) for row in square)
    if not is_latin_square(sq):
        raise ValueError("not a Latin square")
    return sq


def row_sign(square):
    """Product of the n row-permutation signs."""
    s = 1
    for row in require_latin(square):
        s *= latin.perm_sign(row)
    return s


def column_sign(square):
    """Product of the n column-permutation signs."""
    sq = require_latin(square)
    s = 1
    for j in range(len(sq)):
        s *= latin.perm_sign([row[j] for row in sq])
    return s


def sign(square):
    """Product of all 2n row and column permutation signs."""
    return row_sign(square) * column_sign(square)


def cycle_sign(perm):
    """Sign of a permutation of 0..n-1 from its cycle structure."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        cycle_len = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle_len += 1
        if cycle_len % 2 == 0:
            sign = -sign
    return sign


def test_perm_sign_matches_cycle_oracle():
    for n in range(1, 6):
        for p in permutations(range(n)):
            assert latin.perm_sign(p) == cycle_sign(p)


def test_is_latin_square():
    assert is_latin_square(((1, 2), (2, 1)))
    assert not is_latin_square(((1, 2), (1, 2)))  # column repeats
    assert not is_latin_square(((1, 1), (2, 2)))  # row repeats
    assert is_latin_square(())


def test_sign_factorizations():
    for sq in SQUARES_3:
        assert sign(sq) == row_sign(sq) * column_sign(sq)
        assert sign(sq) in (1, -1)


@given(st.permutations(list(range(1, 4))), st.sampled_from(SQUARES_3))
def test_symbol_relabel_laws_n3(sigma, sq):
    s = latin.perm_sign(sigma)
    new = relabel(sq, sigma)
    assert is_latin_square(new)
    # n = 3 odd: row and column signs each pick up sgn(sigma)^3 = sgn(sigma)
    assert row_sign(new) == s * row_sign(sq)
    assert column_sign(new) == s * column_sign(sq)
    assert sign(new) == sign(sq)


@given(st.permutations(list(range(3))), st.sampled_from(SQUARES_3))
def test_row_permutation_laws_n3(sigma, sq):
    s = latin.perm_sign(sigma)
    new = reorder_rows(sq, sigma)
    assert row_sign(new) == row_sign(sq)  # same multiset of rows
    # each of the 3 column words is composed with sigma^{-1}
    assert column_sign(new) == s**3 * column_sign(sq)
    assert sign(new) == s * sign(sq)


def test_row_swap_flips_column_sign_even_n():
    sq4 = next(enumerate_latin_squares(4))
    swapped = reorder_rows(sq4, (1, 0, 2, 3))
    # (-1)^4 = +1: column sign is invariant under a row swap for even n
    assert column_sign(swapped) == column_sign(sq4)
    assert sign(swapped) == sign(sq4)


def test_transpose_swaps_row_and_column_signs():
    for sq in SQUARES_3:
        t = transpose(sq)
        assert is_latin_square(t)
        assert row_sign(t) == column_sign(sq)
        assert column_sign(t) == row_sign(sq)
        assert sign(t) == sign(sq)


# ---------------------------------------------------------------------------
# enumeration and exhaustive counts
# ---------------------------------------------------------------------------


def test_latin_square_counts():
    for n, want in [(1, 1), (2, 2), (3, 12), (4, 576)]:
        squares = list(enumerate_latin_squares(n))
        assert len(squares) == want
        assert len(set(squares)) == want
        assert all(is_latin_square(sq) for sq in squares)


def test_enumeration_cap():
    with pytest.raises(CapacityError) as exc:
        list(enumerate_latin_squares(6))
    assert exc.value.size == 6 and exc.value.cap == 5


def test_alon_tarsi_small_values():
    at2 = alon_tarsi_count(2)
    assert (at2.count_plus, at2.count_minus) == (2, 0)
    at3 = alon_tarsi_count(3)
    assert (at3.count_plus, at3.count_minus) == (6, 6)
    assert at3.total == 12 and at3.difference == 0
    at4 = alon_tarsi_count(4)
    assert (at4.count_plus, at4.count_minus) == (576, 0)
    assert at4.difference == 576
    # column-sign convention is balanced for odd n
    assert at3.column_count_plus == at3.column_count_minus == 6


def test_atcount_arithmetic():
    c = latin.ATCount(3, 4, 2, 5, 1)
    assert c.total == 6 and c.difference == 2 and c.column_difference == 4


# ---------------------------------------------------------------------------
# reduced counting
# ---------------------------------------------------------------------------


def all_branches_count(n):
    """Reduced counts summed over every second-row branch, no orbit weighting."""
    if n == 1:
        return latin.ATCount(1, 1, 0, 1, 0)
    totals = [0, 0, 0, 0]
    for second in latin.second_row_branches(n):
        for i, c in enumerate(latin.count_branch(n, second)):
            totals[i] += c
    fp, fm, fcp, fcm = totals
    full = factorial(n)
    if n % 2 == 0:
        return latin.ATCount(n, full * fp, full * fm, full * fcp, full * fcm)
    half = full // 2
    return latin.ATCount(n, full * fp, full * fm, half * (fcp + fcm), half * (fcp + fcm))


def conjugate(d, sigma):
    """sigma d sigma^{-1} for d on symbols 1..n and sigma on 0..n-1."""
    inverse = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inverse[s] = i
    return tuple(sigma[d[inverse[k]] - 1] + 1 for k in range(len(d)))


def test_second_row_branches_are_derangements():
    for n, want in [(2, 1), (3, 2), (4, 9), (5, 44)]:
        branches = latin.second_row_branches(n)
        assert len(branches) == want  # derangement numbers
        assert branches == sorted(branches)
        for b in branches:
            assert sorted(b) == list(range(1, n + 1))
            assert all(b[j] != j + 1 for j in range(n))


def test_branch_orbit_sizes():
    # S_6 conjugacy classes of derangements: (2,2,2), (4,2), (3,3), (6)
    assert [size for _, size in latin.branch_orbits(6)] == [15, 90, 40, 120]
    # A_5: the 3+2 class stays whole, the 5-cycles split in two
    assert [size for _, size in latin.branch_orbits(5)] == [20, 12, 12]
    for n in range(2, 7):
        orbits = latin.branch_orbits(n)
        assert sum(size for _, size in orbits) == len(latin.second_row_branches(n))
        reps = [rep for rep, _ in orbits]
        assert reps == sorted(reps)


@pytest.mark.parametrize("n", [4, 5])
def test_count_branch_constant_on_orbits(n):
    """Relabelling columns and symbols by one sigma with sgn(sigma)^n = 1
    maps completions of d onto completions of sigma d sigma^{-1}, signs kept."""
    group = [s for s in permutations(range(n)) if cycle_sign(s) ** n == 1]
    for rep, size in latin.branch_orbits(n):
        want = latin.count_branch(n, rep)
        orbit = {conjugate(rep, s) for s in group}
        assert len(orbit) == size
        for d in orbit:
            assert latin.count_branch(n, d) == want


def test_count_branch_rejects_clashing_second_row():
    with pytest.raises(ValueError):
        latin.count_branch(3, (1, 3, 2))  # fixes symbol 1 under column 1


@pytest.mark.parametrize("second", [(3, 3, 1), (2, 3), (2, 3, 1, 4)])
def test_count_branch_rejects_non_permutation_second_row(second):
    """A repeated symbol, a short row and a long row are refused as such,
    not counted, indexed past the end or reported as a clash."""
    with pytest.raises(ValueError, match="permutation of 1..3"):
        latin.count_branch(3, second)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_branch_matches_square_oracle(n):
    """The parity-carrying counter against building every completion and
    signing its rows and columns, on every second-row branch."""
    for second in latin.second_row_branches(n):
        assert latin.count_branch(n, second) == count_branch_oracle(n, second)


def test_count_branch_matches_square_oracle_n6_orbits():
    for rep, _ in latin.branch_orbits(6):
        assert latin.count_branch(6, rep) == count_branch_oracle(6, rep)


def test_reduced_matches_all_branches_oracle():
    for n in range(1, 6):
        assert latin.alon_tarsi_count_reduced(n) == all_branches_count(n)


def test_reduced_matches_exhaustive():
    for n in (2, 3, 4):
        red = latin.alon_tarsi_count_reduced(n)
        full = alon_tarsi_count(n)
        assert (red.count_plus, red.count_minus) == (full.count_plus, full.count_minus)
        assert red.total == full.total
        if n % 2 == 0:
            assert (red.column_count_plus, red.column_count_minus) == (
                full.column_count_plus,
                full.column_count_minus,
            )
        else:
            # odd n: relabeling balances the column statistics
            assert red.column_count_plus == red.column_count_minus
            assert (
                red.column_count_plus + red.column_count_minus
                == full.column_count_plus + full.column_count_minus
            )


def test_reduced_n5():
    at5 = latin.alon_tarsi_count_reduced(5)
    assert at5.total == 161280  # L(5)
    assert (at5.count_plus, at5.count_minus) == (80640, 80640)
    assert at5.difference == 0  # odd order


def test_reduced_n6():
    at6 = latin.alon_tarsi_count_reduced(6)
    assert (
        at6.count_plus,
        at6.count_minus,
        at6.column_count_plus,
        at6.column_count_minus,
    ) == (505958400, 306892800, 306892800, 505958400)
    assert at6.total == 812851200  # L(6)


def test_reduced_n1():
    at1 = latin.alon_tarsi_count_reduced(1)
    assert (at1.count_plus, at1.count_minus) == (1, 0)


def test_reduced_capacity_refused_up_front():
    with pytest.raises(CapacityError) as exc:
        latin.alon_tarsi_count_reduced(7)
    assert exc.value.size == 7 and exc.value.cap == latin.MAX_REDUCED == 6


# ---------------------------------------------------------------------------
# differential pairings
# ---------------------------------------------------------------------------


def test_pairing_perm_det_values():
    assert latin.pairing_perm_det(1) == 1
    assert latin.pairing_perm_det(2) == 4
    assert latin.pairing_perm_det(3) == 0  # odd order
    with pytest.raises(CapacityError):
        latin.pairing_perm_det(4)


def test_pairing_allvars_matches_latin_oracle():
    values = {}
    for n in (1, 2, 3, 4):
        values[n] = latin.pairing_allvars_det(n)
        assert values[n] == pairing_allvars_oracle(n)
    assert values == {1: 1, 2: -2, 3: 0, 4: 576}
    with pytest.raises(CapacityError):
        latin.pairing_allvars_det(5)


def test_allvars_coefficient_is_row_sign_sum():
    """The oracle itself: direct check that the n=2 coefficient is -2."""
    total = 0
    for sq in enumerate_latin_squares(2):
        rs = 1
        for row in sq:
            rs *= latin.perm_sign(row)
        total += rs
    assert total == -2
