"""Latin squares, their signs, Alon--Tarsi counts, and the differential
pairings that tie the Alon--Tarsi conjecture to polynomial identities.

A Latin square of order n has entries 1..n, each row and each column a
permutation.  Its sign is the product of the signs of all 2n row and
column permutations; the column sign uses the n column permutations only.
The counter never builds a square: it carries the two sign parities
through the fill.

The coefficient of the all-variables monomial prod_{ij} x_ij in det_n^n
equals the sum over Latin squares L of the product of the row signs of L
(choose one permutation per det factor; requiring each variable once
forces the chosen permutations to tile a Latin square).  That identity is
implemented here by polynomial expansion; the direct enumeration over
Latin squares is its oracle in the tests.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import List, NamedTuple, Sequence, Tuple

from . import CapacityError
from .poly import apply_diff
from .zoo import det, perm, perm_sign

#: reduced-count cap (n=7 has about 1.2e10 reduced squares)
MAX_REDUCED = 6
#: cap on n for the pairing expansions (degree n^2 polynomials)
MAX_PAIRING_PERM = 3
MAX_PAIRING_ALLVARS = 4


class ATCount(NamedTuple):
    """Alon--Tarsi counts of order n under both sign conventions."""

    n: int
    count_plus: int
    count_minus: int
    column_count_plus: int
    column_count_minus: int

    @property
    def total(self) -> int:
        return self.count_plus + self.count_minus

    @property
    def difference(self) -> int:
        return self.count_plus - self.count_minus

    @property
    def column_difference(self) -> int:
        return self.column_count_plus - self.column_count_minus


# ---------------------------------------------------------------------------
# Reduced (fixed-first-row) counting, one branch per relabelling orbit
# ---------------------------------------------------------------------------
#
# Relabeling the symbols by sigma in S_n permutes Latin squares freely and
# multiplies every row and column permutation by sigma, so the full sign
# picks up sgn(sigma)^{2n} = +1 and the column sign sgn(sigma)^n.  Fixing
# the first row to 1..n therefore divides the count by n! without losing
# the full-sign statistics; the column-sign statistics survive when n is
# even, and for odd n relabeling makes the column-sign counts provably
# equal, (n!/2)(cp_fixed + cm_fixed) each.
#
# Relabeling columns and symbols by the same sigma keeps the identity first
# row, sends the second row d to sigma d sigma^{-1}, keeps every row sign
# and multiplies the product of the column signs by sgn(sigma)^n.  For
# sigma in G = {sigma : sgn(sigma)^n = 1} (S_n for even n, A_n for odd n)
# this is a sign-preserving bijection between the completions of d and of
# sigma d sigma^{-1}, so count_branch is constant on each G-orbit of second
# rows and one representative per orbit suffices.


def second_row_branches(n: int) -> List[Tuple[int, ...]]:
    """Valid second rows under first row (1..n): position derangements,
    in lexicographic order.  The search tree is split at these branches."""
    return [
        p
        for p in permutations(range(1, n + 1))
        if all(p[j] != j + 1 for j in range(n))
    ]


def branch_orbits(n: int) -> List[Tuple[Tuple[int, ...], int]]:
    """(representative, orbit size) for each G-orbit of second_row_branches(n),
    G acting by conjugation; the representative is the orbit's first branch
    in lexicographic order."""
    group = [s for s in permutations(range(n)) if perm_sign(s) ** n == 1]
    seen = set()
    orbits = []
    for d in second_row_branches(n):
        if d in seen:
            continue
        orbit = set()
        for s in group:
            # sigma d sigma^{-1}: column sigma(j) holds symbol sigma(d(j))
            img = [0] * n
            for j in range(n):
                img[s[j]] = s[d[j] - 1] + 1
            orbit.add(tuple(img))
        seen |= orbit
        orbits.append((d, len(orbit)))
    return orbits


def count_branch(n: int, second_row: Sequence[int]) -> Tuple[int, int, int, int]:
    """Signed counts of completions with rows 1..2 fixed to (identity, second_row).

    Cells are filled row by row, left to right, carrying the parities of
    the row and the column inversions: symbol x in cell (i, j) adds one
    inversion per larger symbol already in row i left of j and one per
    larger symbol already in column j above i.  A finished square is
    tallied from the two parities alone.  Returns (full sign +, full sign
    -, column sign +, column sign -).
    """
    if sorted(second_row) != list(range(1, n + 1)):
        raise ValueError(f"second row must be a permutation of 1..{n}")
    if any(x == j + 1 for j, x in enumerate(second_row)):
        raise ValueError("second row clashes with the first")
    # column j reads (j + 1, second_row[j]): one inversion where j + 1 is larger
    col_used = [(1 << (j + 1)) | (1 << x) for j, x in enumerate(second_row)]
    row_par = int(perm_sign(second_row) < 0)
    col_par = sum(x < j + 1 for j, x in enumerate(second_row)) & 1
    symbols = (1 << (n + 1)) - 2
    counts = [0, 0, 0, 0]

    def fill(i: int, j: int, row_used: int, row_par: int, col_par: int) -> None:
        if j == n:
            i, j, row_used = i + 1, 0, 0
        if i == n:
            counts[row_par ^ col_par] += 1
            counts[2 + col_par] += 1
            return
        used = col_used[j]
        avail = symbols & ~(row_used | used)
        while avail:
            bit = avail & -avail
            avail ^= bit
            x = bit.bit_length() - 1
            col_used[j] = used | bit
            fill(
                i,
                j + 1,
                row_used | bit,
                row_par ^ ((row_used >> x).bit_count() & 1),
                col_par ^ ((used >> x).bit_count() & 1),
            )
        col_used[j] = used

    fill(2, 0, 0, row_par, col_par)
    return tuple(counts)  # type: ignore[return-value]


def alon_tarsi_count_reduced(n: int) -> ATCount:
    """Alon--Tarsi counts via fixed-first-row enumeration (handles n=6),
    counting one second-row branch per relabelling orbit."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_REDUCED:
        raise CapacityError("alon_tarsi_count_reduced", n, MAX_REDUCED)
    if n == 1:
        return ATCount(1, 1, 0, 1, 0)
    totals = [0, 0, 0, 0]
    for rep, size in branch_orbits(n):
        counts = count_branch(n, rep)
        for i in range(4):
            totals[i] += size * counts[i]
    fp, fm, fcp, fcm = totals
    full = factorial(n)
    if n % 2 == 0:
        return ATCount(n, full * fp, full * fm, full * fcp, full * fcm)
    half = full // 2
    return ATCount(
        n, full * fp, full * fm, half * (fcp + fcm), half * (fcp + fcm)
    )


# ---------------------------------------------------------------------------
# Differential pairings
# ---------------------------------------------------------------------------


def pairing_perm_det(n: int):
    """The scalar <perm_n^n, det_n^n> under the differential pairing.

    Nonvanishing for even n is equivalent to the Alon--Tarsi conjecture
    at n.  Expands both degree-n^2 polynomials exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_PAIRING_PERM:
        raise CapacityError("pairing_perm_det", n, MAX_PAIRING_PERM)
    p = perm(n) ** n
    d = det(n) ** n
    return apply_diff(p, d).as_scalar()


def pairing_allvars_det(n: int):
    """The scalar <prod_{ij} x_ij, det_n^n>: the all-ones coefficient of
    det_n^n, read off the expansion (the pairing with a squarefree monomial
    is its coefficient, every factorial in it being 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_PAIRING_ALLVARS:
        raise CapacityError("pairing_allvars_det", n, MAX_PAIRING_ALLVARS)
    return (det(n) ** n).coefficient((1,) * (n * n))
