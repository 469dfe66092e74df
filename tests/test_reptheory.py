"""Tests for gct.reptheory.

The heavy machinery (Murnaghan--Nakayama characters, Kronecker sums,
weight-dimension decomposition, plethysm) is validated against classical identities
that are computed here by independent elementary means: hard-coded S_3
and S_4 character tables, column orthogonality, sum-of-squares = n!,
Frobenius--Schur indicators, RSK counting for Kostka numbers, the
Cayley--Sylvester partitions-in-a-box formula for sl_2 plethysms, and
dimension conservation under the Schur-functor decomposition.

The algorithms the library replaced live here as oracles: Kostka numbers
and their unitriangular inversion (for Weyl's character formula in
``decompose_weight_dims``), hook lengths with the hook-content
formula (for Weyl's dimension formula in ``schur_dimension``), the
recursive partition generator (for the iterative ``partitions``), the
memoized Murnaghan--Nakayama recursion on tuples (for the bitmask
character columns and ``character``), and the class-by-class square map
``square_cycle_type`` (for ``_Classes.square_ranks``).
"""

import gc
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import comb, factorial

import pytest

from gct import hhh, reptheory as rt
from gct.flatten import CapacityError
from gct.monomials import monomials_of_degree


def class_size(mu):
    """Size of the conjugacy class of cycle type mu in S_|mu|."""
    return factorial(sum(mu)) // rt.z_order(mu)


def conjugate(p):
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def dominates(a, b):
    """True iff |a| = |b| and a's partial sums are >= b's everywhere."""
    if sum(a) != sum(b):
        return False
    acc_a = acc_b = 0
    for i in range(max(len(a), len(b))):
        acc_a += a[i] if i < len(a) else 0
        acc_b += b[i] if i < len(b) else 0
        if acc_a < acc_b:
            return False
    return True


def hook_lengths(p):
    conj = conjugate(p)
    return [
        [p[i] - j + conj[j] - i - 1 for j in range(p[i])] for i in range(len(p))
    ]


def hook_content_dimension(p, k):
    """Oracle: dim S_p(C^k) by the hook-content formula (0 when l(p) > k)."""
    if len(p) > k:
        return 0
    num = 1
    denom = 1
    hooks = hook_lengths(p)
    for i in range(len(p)):
        for j in range(p[i]):
            num *= k + j - i
            denom *= hooks[i][j]
    dim, rem = divmod(num, denom)
    assert rem == 0
    return dim


@lru_cache(maxsize=None)
def kostka(shape, content):
    """K_{shape,content}: semistandard tableaux of the given shape/content.

    Both arguments must be partitions (content weakly decreasing; Kostka
    numbers are invariant under permuting the content, so callers with
    composition content should sort it first).  Recursion peels the cells
    of the largest letter, which always form a horizontal strip.
    """
    if sum(shape) != sum(content):
        return 0
    if not content:
        return 1 if not shape else 0
    strip = content[-1]
    rest = content[:-1]
    total = 0
    r = len(shape)

    def strips(i, budget, prev_new, acc):
        nonlocal total
        if i == r:
            if budget == 0:
                new_shape = tuple(p for p in acc if p > 0)
                total += kostka(new_shape, rest)
            return
        below = shape[i + 1] if i + 1 < r else 0
        # new row length must stay a partition (<= prev row's new length)
        # and removal must be a horizontal strip (new >= next old row)
        low = max(below, shape[i] - budget)
        high = min(shape[i], prev_new)
        for new_len in range(high, low - 1, -1):
            acc.append(new_len)
            strips(i + 1, budget - (shape[i] - new_len), new_len, acc)
            acc.pop()

    strips(0, strip, shape[0] if shape else 0, [])
    return total


def kostka_inversion(dims):
    """Oracle for ``decompose_weight_dims``: invert
    dim(lambda) = sum_pi mult_pi K_{pi,lambda} for mult.

    Processes the keys down the lexicographic order, which refines
    dominance, so the Kostka system is unitriangular; a missing key counts
    as dimension 0 and gets no multiplicity.  Returns only the nonzero
    multiplicities.
    """
    mults = {}
    for lam in sorted(dims, reverse=True):
        acc = dims[lam]
        for pi, m in mults.items():
            if m and pi != lam and dominates(pi, lam):
                acc -= m * kostka(pi, lam)
        if acc < 0:
            raise ArithmeticError(
                f"negative multiplicity {acc} at {lam}: inconsistent weight dims"
            )
        if acc:
            mults[lam] = acc
    return mults


def dimension(p):
    """Number of standard Young tableaux of shape p, by the hook length
    formula; the tests check it against chi_p at the identity."""
    denom = 1
    for row in hook_lengths(p):
        for h in row:
            denom *= h
    dim, rem = divmod(factorial(sum(p)), denom)
    assert rem == 0
    return dim


# ---------------------------------------------------------------------------
# Partitions and basic combinatorics
# ---------------------------------------------------------------------------


def partitions_oracle(n, max_len=None):
    """The partitions of n with at most max_len parts, descending, by
    recursion on the first part."""
    if n < 0:
        return

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(n, n, n if max_len is None else max_len)


def test_partitions_match_the_recursive_oracle():
    for n in range(-1, 26):
        assert list(rt.partitions(n)) == list(partitions_oracle(n)), n
        for max_len in range(0, max(n, 0) + 2):
            want = list(partitions_oracle(n, max_len))
            assert list(rt.partitions(n, max_len)) == want, (n, max_len)


def test_partition_counts():
    known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}
    for n, count in known.items():
        assert len(list(rt.partitions(n))) == count


def test_partitions_are_sorted_and_filtered():
    parts = list(rt.partitions(6))
    assert parts[0] == (6,) and parts[-1] == (1,) * 6
    assert parts == sorted(parts, reverse=True)
    assert all(p == tuple(sorted(p, reverse=True)) and sum(p) == 6 for p in parts)
    # max_len agrees with brute-force filtering
    for n in range(0, 9):
        allp = list(rt.partitions(n))
        for bound in range(1, n + 1):
            assert list(rt.partitions(n, max_len=bound)) == [
                p for p in allp if len(p) <= bound
            ]


def test_normalize_partition():
    assert rt.normalize_partition([1, 3, 0, 2]) == (3, 2, 1)
    assert rt.normalize_partition(()) == ()
    with pytest.raises(ValueError):
        rt.normalize_partition([2, -1])


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    for n in range(0, 9):
        for p in rt.partitions(n):
            assert conjugate(conjugate(p)) == p
            assert sum(conjugate(p)) == n


def test_dominance():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert not dominates((3,), (2, 2))  # different sizes
    for p in rt.partitions(6):
        assert dominates((6,), p)
        assert dominates(p, (1,) * 6)
        assert dominates(p, p)


def test_class_sizes_partition_the_group():
    for n in range(1, 8):
        assert sum(class_size(mu) for mu in rt.partitions(n)) == factorial(n)
    assert class_size((5,)) == factorial(4)  # (n-1)! n-cycles
    assert rt.z_order((1, 1, 1)) == 6
    assert rt.z_order((3, 1)) == 3


def test_hook_lengths_literal():
    assert hook_lengths((4, 2, 1)) == [[6, 4, 2, 1], [3, 1], [1]]
    assert dimension((4, 2, 1)) == 35
    assert dimension((1,)) == 1
    assert dimension(()) == 1


def test_schur_dimension():
    # dim S_(k)(C^v) = C(v+k-1, k); dim S_(1^k)(C^v) = C(v, k)
    for v in range(1, 5):
        for k in range(0, 5):
            assert rt.schur_dimension((k,) if k else (), v) == comb(v + k - 1, k)
            assert rt.schur_dimension((1,) * k, v) == comb(v, k)
    assert rt.schur_dimension((2, 2), 3) == 6
    assert rt.schur_dimension((3, 2, 1), 2) == 0  # too many rows


def test_schur_dimension_matches_hook_content():
    """Weyl's dimension formula against the hook-content oracle on every
    partition of at most 12 and every k <= 8; l(p) > k gives 0."""
    checked = 0
    for size in range(13):
        for p in rt.partitions(size):
            for k in range(9):
                dim = rt.schur_dimension(p, k)
                assert dim == hook_content_dimension(p, k), (p, k)
                assert (dim == 0) == (len(p) > k), (p, k)
                checked += 1
    assert checked == 272 * 9


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def _partition_from_beta(beta_desc):
    r = len(beta_desc)
    return tuple(p for p in (beta_desc[i] - (r - 1 - i) for i in range(r)) if p > 0)


@lru_cache(maxsize=None)
def _rim_hook_removals(shape, t):
    """All (new_shape, sign) after removing a border strip of size t."""
    r = len(shape)
    beta = [shape[i] + r - 1 - i for i in range(r)]
    bset = set(beta)
    out = []
    for b in beta:
        nb = b - t
        if nb >= 0 and nb not in bset:
            between = sum(1 for x in beta if nb < x < b)
            nbeta = sorted([x for x in beta if x != b] + [nb], reverse=True)
            out.append((_partition_from_beta(nbeta), -1 if between % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def mn_oracle(shape, cycles):
    """chi_shape(cycles) by the Murnaghan--Nakayama recursion on tuples, one
    frame per cycle: the algorithm the bitmask columns replaced."""
    if not cycles:
        return 1 if not shape else 0
    return sum(sign * mn_oracle(new, cycles[1:]) for new, sign in _rim_hook_removals(shape, cycles[0]))


#: the four shapes of the acceptance ``rep obstruct`` runs and the bench
OBSTRUCT_SHAPES = [(9, 9, 2, 2, 2, 2, 2, 2), (10, 10, 10), (11, 11, 2, 2, 2, 2, 2, 1), (11, 11, 11)]


def test_columns_match_the_recursion_oracle():
    """Every (lam, gamma) with |lam| <= 12, by column and by ``character``."""
    checked = 0
    for n in range(13):
        types = list(rt.partitions(n))
        assert [rt._classes(n).rank(gamma) for gamma in types] == list(range(len(types)))
        for lam in types:
            want = [mn_oracle(lam, gamma) for gamma in types]
            assert list(rt._column(lam)) == want, lam
            assert [rt.character(lam, gamma) for gamma in types] == want, lam
            checked += len(types)
    assert checked == sum(rt._partition_count(n) ** 2 for n in range(13)) == 12648


@pytest.mark.parametrize("lam", OBSTRUCT_SHAPES)
def test_obstruct_columns_match_the_recursion_oracle(lam):
    """The full columns at N = 30 and 33, by column and by ``character``."""
    types = tuple(rt.partitions(sum(lam)))
    want = [mn_oracle(lam, gamma) for gamma in types]
    assert list(rt._column(lam)) == want
    assert [rt.character(lam, gamma) for gamma in types] == want


@pytest.mark.parametrize("n", list(range(21)) + [30, 33])
def test_class_ranks_are_positions_in_partitions(n):
    """rank(gamma) is gamma's index in partitions(n), and square_ranks()
    lists the index of square_cycle_type(gamma) for each gamma in turn."""
    classes = rt._classes(n)
    types = list(rt.partitions(n))
    index = {gamma: i for i, gamma in enumerate(types)}
    if n <= 20:
        assert [classes.rank(gamma) for gamma in types] == list(range(len(types)))
    assert classes.square_ranks == [index[square_cycle_type(gamma)] for gamma in types]


def test_square_ranks_are_built_once():
    """square_ranks is built on first read and kept: a second read (each
    ``symmetric_kronecker`` call at one N) is the same list, with no rank
    taken again."""
    classes = rt._Classes(12)
    calls = []
    rank = classes.rank
    classes.rank = lambda gamma: calls.append(gamma) or rank(gamma)
    first = classes.square_ranks
    built = len(calls)
    assert built > 0
    assert classes.square_ranks is first
    assert len(calls) == built
    assert first == [classes.rank(square_cycle_type(gamma)) for gamma in rt.partitions(12)]


def test_no_memo_outlives_the_column():
    """With the collector off, what stays allocated after a column returns
    is the column itself, not the dynamic program's memo."""
    shape = (11, 11, 2, 2, 2, 2, 2, 1)
    rt._classes(sum(shape))
    rt._column.cache_clear()
    enabled = gc.isenabled()
    gc.disable()
    try:
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        col = rt._column(shape)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    own = sys.getsizeof(col) + sum(sys.getsizeof(x) for x in col if not -5 <= x <= 256)
    assert kept <= 2 * own, (kept, own)


@pytest.mark.parametrize(
    "compute",
    [
        lambda: rt.kronecker((3, 1), (2, 2), (2, 1, 1)),
        lambda: rt.symmetric_kronecker((3, 1), (2, 1, 1)),
        lambda: rt.plethysm_mult((4, 2), 3, 2),
    ],
    ids=["kronecker", "symmetric_kronecker", "plethysm_mult"],
)
def test_an_inconsistent_sum_raises_instead_of_flooring(monkeypatch, compute):
    """A column off by one at the identity class leaves a residue in the
    final exact division, which is raised, also under python -O."""
    exact = rt._column

    def off_by_one(shape):
        col = exact(shape)
        return col[:-1] + (col[-1] + 1,)

    monkeypatch.setattr(rt, "_column", off_by_one)
    with pytest.raises(ArithmeticError, match="residue"):
        compute()


S3_TABLE = {
    # chi[pi][mu]
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}

S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


@pytest.mark.parametrize("table", [S3_TABLE, S4_TABLE])
def test_character_tables(table):
    for pi, row in table.items():
        for mu, value in row.items():
            assert rt.character(pi, mu) == value


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        rt.character((2, 1), (2, 2))


def test_dimension_is_character_at_identity():
    """Every shape up to 20 boxes: the one-cycles' closed form against the hook lengths."""
    for n in range(21):
        for pi in rt.partitions(n):
            assert rt.character(pi, (1,) * n) == dimension(pi)


def test_sum_of_squared_dimensions():
    for n in range(1, 9):
        assert sum(dimension(p) ** 2 for p in rt.partitions(n)) == factorial(n)


def test_character_orthogonality():
    for n in range(1, 7):
        parts = list(rt.partitions(n))
        for i, pi in enumerate(parts):
            for rho in parts[i:]:
                inner = sum(
                    class_size(mu) * rt.character(pi, mu) * rt.character(rho, mu)
                    for mu in parts
                )
                assert inner == (factorial(n) if pi == rho else 0)


def test_conjugate_twists_by_sign():
    for n in range(1, 7):
        sign = {mu: (-1) ** (n - len(mu)) for mu in rt.partitions(n)}
        for pi in rt.partitions(n):
            for mu in rt.partitions(n):
                assert rt.character(conjugate(pi), mu) == sign[mu] * rt.character(
                    pi, mu
                )


def test_character_has_no_recursion_depth_limit():
    """One state dict per cycle, no frame per cycle: 500 one-cycles."""
    ones = (1,) * 500
    assert rt.character((500,), ones) == 1
    assert rt.character((499, 1), ones) == 499
    assert rt.character((250, 250), ones) == comb(500, 250) // 251  # Catalan


def test_tall_shapes_cost_their_boxes_not_their_rows_squared():
    """The one-cycles' closed form takes one hook length per box: a
    500-row column is as quick as a 500-box row."""
    col = (1,) * 500
    start = time.perf_counter()
    assert rt.character(col, col) == 1
    assert rt.character(col, (500,)) == -1  # sign of a 500-cycle
    assert rt.character(col, (3,) * 100 + (1,) * 200) == 1
    assert rt.character((2,) + (1,) * 498, col) == 499
    assert time.perf_counter() - start < 0.5


def test_repeated_calls_agree_and_the_column_cache_stays_bounded():
    assert rt.character((3, 1), (2, 2)) == rt.character((3, 1), (2, 2)) == -1
    cap = rt._column.cache_info().maxsize
    assert cap is not None
    first = rt.kronecker((4, 2), (3, 3), (3, 2, 1))
    for lam in rt.partitions(7):  # 15 shapes, more than the cache holds
        rt.kronecker(lam, lam, (7,))
        assert rt._column.cache_info().currsize <= cap
    assert rt.kronecker((4, 2), (3, 3), (3, 2, 1)) == first
    assert rt._classes.cache_info().maxsize is not None
    assert rt._plethysm_cycle_weights.cache_info().maxsize is not None


def test_plethysm_builds_no_class_sizes():
    """plethysm_mult reads only ``fits``; the class sizes N!/z are built on
    their first read, by a Kronecker sum."""
    for cached in (rt._classes, rt._column, rt._plethysm_cycle_weights):
        cached.cache_clear()
    # S^2(S^3 V) = S_6 V + S_(4,2) V
    assert [rt.plethysm_mult(p, 2, 3) for p in [(6,), (5, 1), (4, 2)]] == [1, 0, 1]
    assert rt._classes.cache_info().currsize == 1
    classes = rt._classes(6)
    assert "sizes" not in vars(classes)
    assert rt.kronecker((4, 2), (4, 2), (6,)) == 1
    assert sum(vars(classes)["sizes"]) == factorial(6)


# ---------------------------------------------------------------------------
# square_cycle_type and Frobenius--Schur
# ---------------------------------------------------------------------------


def square_cycle_type(mu):
    """Cycle type of sigma^2 for sigma of cycle type mu: an odd t-cycle
    squares to a t-cycle, an even 2m-cycle to two m-cycles.  The class-by-
    class map that ``_Classes.square_ranks`` replaced."""
    parts = []
    for t in mu:
        if t % 2 == 1:
            parts.append(t)
        else:
            parts.extend((t // 2, t // 2))
    return tuple(sorted(parts, reverse=True))


def _cycle_type(perm):
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


def test_square_cycle_type_bruteforce():
    assert square_cycle_type((4,)) == (2, 2)
    assert square_cycle_type((6,)) == (3, 3)
    assert square_cycle_type((3,)) == (3,)
    for n in range(1, 6):
        for perm in permutations(range(n)):
            sq = tuple(perm[perm[i]] for i in range(n))
            assert _cycle_type(sq) == square_cycle_type(_cycle_type(perm))


def test_frobenius_schur_indicator_is_one():
    """All S_n irreps are real: (1/n!) sum_sigma chi(sigma^2) = 1."""
    for n in range(1, 7):
        for pi in rt.partitions(n):
            total = sum(
                class_size(mu) * rt.character(pi, square_cycle_type(mu))
                for mu in rt.partitions(n)
            )
            assert total == factorial(n)


# ---------------------------------------------------------------------------
# Kronecker and symmetric Kronecker
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cycle_classes(n):
    """(gamma, z_gamma) for every cycle type gamma of S_n."""
    return tuple((gamma, rt.z_order(gamma)) for gamma in rt.partitions(n))


def kronecker_oracle(pi, mu, nu):
    """k_{pi,mu,nu} = sum_gamma chi_pi chi_mu chi_nu / z_gamma, in Fractions."""
    total = Fraction(0)
    for gamma, z in cycle_classes(sum(pi)):
        total += Fraction(mn_oracle(pi, gamma) * mn_oracle(mu, gamma) * mn_oracle(nu, gamma), z)
    assert total.denominator == 1 and total >= 0
    return int(total)


def symmetric_kronecker_oracle(pi, mu):
    """sk^pi_{mu,mu} = (1/2) sum_gamma chi_pi (chi_mu^2 + chi_mu(gamma^2)) / z_gamma."""
    total = Fraction(0)
    for gamma, z in cycle_classes(sum(pi)):
        val = mn_oracle(mu, gamma) ** 2 + mn_oracle(mu, square_cycle_type(gamma))
        total += Fraction(mn_oracle(pi, gamma) * val, z)
    total /= 2
    assert total.denominator == 1 and total >= 0
    return int(total)


def test_kronecker_sums_match_the_fraction_oracles():
    """Every triple (pairs for sk) of partitions of N <= 8.  The oracle's
    sum is the same in every order of its arguments, so it runs once per
    multiset and the library once per ordered triple."""
    checked = 0
    for n in range(9):
        parts = list(rt.partitions(n))
        for pi in parts:
            for mu in parts:
                assert rt.symmetric_kronecker(pi, mu) == symmetric_kronecker_oracle(pi, mu)
        for triple in combinations_with_replacement(parts, 3):
            want = kronecker_oracle(*triple)
            for pi, mu, nu in set(permutations(triple)):
                assert rt.kronecker(pi, mu, nu) == want, (pi, mu, nu)
                checked += 1
    assert checked == sum(len(list(rt.partitions(n))) ** 3 for n in range(9)) == 15859


def test_kronecker_small_identities():
    for n in range(1, 7):
        parts = list(rt.partitions(n))
        for pi in parts:
            for mu in parts:
                # tensoring with the trivial / sign representations
                assert rt.kronecker(pi, mu, (n,)) == (1 if pi == mu else 0)
                assert rt.kronecker(pi, mu, (1,) * n) == (
                    1 if pi == conjugate(mu) else 0
                )


def test_kronecker_permutation_symmetry():
    rng = random.Random(20260813)
    parts6 = list(rt.partitions(6))
    triples = [tuple(rng.choice(parts6) for _ in range(3)) for _ in range(25)]
    parts4 = list(rt.partitions(4))
    triples += [
        (a, b, c) for a in parts4 for b in parts4 for c in parts4
    ]
    for a, b, c in triples:
        k = rt.kronecker(a, b, c)
        assert k >= 0
        for x, y, z in permutations((a, b, c)):
            assert rt.kronecker(x, y, z) == k


def test_kronecker_dimension_conservation():
    """sum_nu k(pi,mu,nu) dim(nu) = dim(pi) dim(mu)."""
    for n in (4, 5):
        parts = list(rt.partitions(n))
        for pi in parts:
            for mu in parts:
                total = sum(rt.kronecker(pi, mu, nu) * dimension(nu) for nu in parts)
                assert total == dimension(pi) * dimension(mu)


def test_kronecker_size_mismatch():
    with pytest.raises(ValueError):
        rt.kronecker((2,), (2,), (3,))


def test_symmetric_kronecker_bounds_and_dimension():
    """0 <= sk <= k, and sum_pi sk(pi,mu) dim(pi) = D(D+1)/2, D = dim(mu)."""
    for n in range(2, 7):
        parts = list(rt.partitions(n))
        for mu in parts:
            d_mu = dimension(mu)
            total = 0
            for pi in parts:
                sk = rt.symmetric_kronecker(pi, mu)
                k = rt.kronecker(pi, mu, mu)
                assert 0 <= sk <= k
                total += sk * dimension(pi)
            assert total == d_mu * (d_mu + 1) // 2


def test_trivial_in_symmetric_square_exactly_once():
    """S_n irreps are orthogonal, so triv appears in S^2 once, never in L^2."""
    for n in range(2, 7):
        for mu in rt.partitions(n):
            sk = rt.symmetric_kronecker((n,), mu)
            k = rt.kronecker((n,), mu, mu)
            assert sk == 1 and k == 1


def test_symmetric_kronecker_size_mismatch():
    with pytest.raises(ValueError):
        rt.symmetric_kronecker((3,), (2, 2))


# ---------------------------------------------------------------------------
# Littlewood--Richardson and Kostka
# ---------------------------------------------------------------------------


def _is_horizontal_strip(outer, inner):
    outer = outer + (0,) * (len(inner) - len(outer))
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    if any(o < i for o, i in zip(outer, inner)):
        return False
    return all(inner[i] >= outer[i + 1] for i in range(len(outer) - 1))


def lr_coeff(pi, mu, nu):
    """Littlewood-Richardson c^pi_{mu,nu} via induced characters.

    c = <chi_pi, Ind_{S_a x S_b}^{S_{a+b}} chi_mu x chi_nu>, evaluated with
    Frobenius reciprocity as a double class sum; the Pieri tests below
    cross-check the character machinery with it.
    """
    p = rt.normalize_partition(pi)
    m = rt.normalize_partition(mu)
    n = rt.normalize_partition(nu)
    if sum(p) != sum(m) + sum(n):
        raise ValueError("sizes must satisfy |pi| = |mu| + |nu|")
    total = Fraction(0)
    for g1 in rt.partitions(sum(m)):
        cm = rt.character(m, g1)
        if not cm:
            continue
        for g2 in rt.partitions(sum(n)):
            cn = rt.character(n, g2)
            if not cn:
                continue
            cp = rt.character(p, g1 + g2)
            if cp:
                total += Fraction(cm * cn * cp, rt.z_order(g1) * rt.z_order(g2))
    assert total.denominator == 1 and total >= 0
    return int(total)


def test_lr_pieri_rule():
    for mu_size in range(1, 5):
        for k in range(1, 4):
            for mu in rt.partitions(mu_size):
                for pi in rt.partitions(mu_size + k):
                    want = 1 if _is_horizontal_strip(pi, mu) else 0
                    assert lr_coeff(pi, mu, (k,)) == want


def test_lr_known_value_and_symmetry():
    assert lr_coeff((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coeff((3, 2, 1), (2, 1), (1, 1, 1)) == 1
    for pi in rt.partitions(5):
        assert lr_coeff(pi, (2, 1), (2,)) == lr_coeff(pi, (2,), (2, 1))
    with pytest.raises(ValueError):
        lr_coeff((3, 1), (2,), (3,))


def test_lr_dimension_conservation():
    """sum_pi c^pi_{mu,nu} dim(pi) = C(a+b, a) dim(mu) dim(nu)."""
    for mu in rt.partitions(3):
        for nu in rt.partitions(2):
            total = sum(
                lr_coeff(pi, mu, nu) * dimension(pi) for pi in rt.partitions(5)
            )
            assert total == comb(5, 3) * dimension(mu) * dimension(nu)


def test_kostka_basics():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 1), (2, 1, 1)) == 2
    for n in range(1, 7):
        for lam in rt.partitions(n):
            for mu in rt.partitions(n):
                k = kostka(lam, mu)
                assert k >= 0
                assert (k > 0) == dominates(lam, mu)
                if lam == mu:
                    assert k == 1


def test_kostka_rsk_counting():
    """sum_lam K_{lam,mu} f^lam = n! / prod(mu_i!) (RSK on words)."""
    for n in range(1, 7):
        for mu in rt.partitions(n):
            words = factorial(n)
            for part in mu:
                words //= factorial(part)
            total = sum(
                kostka(lam, mu) * dimension(lam) for lam in rt.partitions(n)
            )
            assert total == words


# ---------------------------------------------------------------------------
# Weight-dimension inversion
# ---------------------------------------------------------------------------


def test_decompose_weight_dims_roundtrip():
    rng = random.Random(7)
    for n in (3, 4, 5, 6, 12):
        parts = list(rt.partitions(n))
        mults = {p: rng.randrange(0, 4) for p in parts}
        dims = {
            lam: sum(m * kostka(pi, lam) for pi, m in mults.items() if m)
            for lam in parts
        }
        recovered = rt.decompose_weight_dims(dims)
        assert recovered == {p: m for p, m in mults.items() if m}


def _decompose_both_ways(dims):
    """``decompose_weight_dims`` and the Kostka oracle on ``dims``: each
    gives its dict, or its ArithmeticError message."""
    out = []
    for decompose in (rt.decompose_weight_dims, kostka_inversion):
        try:
            out.append(decompose(dims))
        except ArithmeticError as err:
            out.append(str(err))
    return out


def test_decompose_matches_kostka_oracle():
    """Seeded arbitrary integer dims, zero and negative values included,
    give the same multiplicities, or the same refusal at the same weight,
    by Weyl's formula and by Kostka inversion.

    The keys are the upper set of a random floor among the partitions of
    n <= 10 with at most 6 parts, so every other weight is missing.  Weyl's
    formula at a key reads only weights that dominate it, and the oracle
    needs only the multiplicities above it.  Below a missing weight the
    two differ by design: the oracle gives a missing key no multiplicity,
    while Weyl's formula reads its dimension as 0.
    """
    rng = random.Random(20261018)
    raised = 0
    for _ in range(1500):
        n = rng.randrange(0, 11)
        parts = list(rt.partitions(n, max_len=6))
        floor = rng.choice(parts)
        dims = {p: rng.randrange(-2, 6) for p in parts if dominates(p, floor)}
        weyl, oracle = _decompose_both_ways(dims)
        assert weyl == oracle, dims
        raised += isinstance(weyl, str)
    assert raised == 1063  # of 1500; the other 437 decompose
    for d, n, v in [(6, 3, 3), (5, 3, 4), (4, 3, 5), (4, 2, 8)]:
        dims = hhh.kernel_dims_by_weight(d, n, v)
        weyl, oracle = _decompose_both_ways(dims)
        assert weyl == oracle and weyl, (d, n, v)


def test_decompose_weight_dims_rejects_inconsistent():
    dims = {(2,): 1, (1, 1): -1}
    with pytest.raises(ArithmeticError):
        rt.decompose_weight_dims(dims)


def test_count_weight_multisets_bruteforce():
    for d, n, v in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 3)]:
        monos = monomials_of_degree(v, n)
        counts = {}
        for combo in combinations_with_replacement(monos, d):
            w = tuple(sum(col) for col in zip(*combo))
            counts[w] = counts.get(w, 0) + 1
        for w, c in counts.items():
            assert rt.count_weight_multisets(d, n, v, w) == c
        assert rt.count_weight_multisets(d, n, v, (d * n + 1,) + (0,) * (v - 1)) == 0
    with pytest.raises(ValueError):
        rt.count_weight_multisets(2, 2, 2, (1, 1, 1))
    with pytest.raises(ValueError):
        rt.count_weight_multisets(2, 2, 2, (5, -1))


# ---------------------------------------------------------------------------
# Plethysm
# ---------------------------------------------------------------------------


def _partitions_in_box(k, rows, cols):
    """Number of partitions of k with at most `rows` parts, each <= cols."""
    if k == 0:
        return 1
    return sum(1 for p in rt.partitions(k, max_len=rows) if p[0] <= cols)


def plethysm_multiplicities(d, n, v):
    """Oracle: all multiplicities of S_pi, l(pi) <= v, in S^d(S^n C^v).

    The weight route: weight-space dimensions at the dominant weights,
    then unitriangular Kostka inversion.  It shares no code with the
    cycle-index route of ``plethysm_mult``, and it is far slower once dn
    and l(pi) grow.
    """
    dims = {}
    for lam in rt.partitions(d * n, max_len=v):
        dims[lam] = rt.count_weight_multisets(d, n, v, lam + (0,) * (v - len(lam)))
    return kostka_inversion(dims)


def pleth_decomposition(d, n, v):
    """The nonzero plethysm_mult(pi, d, n) over the pi with l(pi) <= v:
    the decomposition of S^d(S^n C^v) by the route that ships."""
    mults = {pi: rt.plethysm_mult(pi, d, n) for pi in rt.partitions(d * n, max_len=v)}
    return {pi: m for pi, m in mults.items() if m}


def plethysm_cycle_weights_oracle(d, n):
    """Z(S_d)[Z(S_n)] as sorted (gamma, w) pairs with Fraction weights."""
    inner = [(rho, Fraction(1, rt.z_order(rho))) for rho in rt.partitions(n)]
    total = {}
    for nu in rt.partitions(d):
        states = {(): Fraction(1, rt.z_order(nu))}
        for r in nu:
            new_states = {}
            for acc, w in states.items():
                for rho, wr in inner:
                    t = rt.normalize_partition(acc + tuple(r * s for s in rho))
                    new_states[t] = new_states.get(t, Fraction(0)) + w * wr
            states = new_states
        for t, w in states.items():
            total[t] = total.get(t, Fraction(0)) + w
    return tuple(sorted(total.items()))


def scaled_cycle_weights(d, n):
    """``_plethysm_cycle_weights`` with each class position read back as its
    cycle type and the common denominator divided out, sorted by type."""
    types = list(rt.partitions(d * n))
    scale = factorial(d) * factorial(n) ** d
    return tuple(sorted((types[i], Fraction(w, scale)) for i, w in rt._plethysm_cycle_weights(d, n)))


def plethysm_mult_oracle(pi, d, n):
    total = sum(w * mn_oracle(pi, gamma) for gamma, w in plethysm_cycle_weights_oracle(d, n))
    assert total.denominator == 1 and total >= 0
    return int(total)


def test_cycle_weights_match_the_fraction_oracle():
    """Every (d, n) with dn <= 16, d = 0 and n = 0 included."""
    pairs = [(d, n) for d in range(17) for n in range(17) if d * n <= 16]
    for d, n in pairs:
        weights = rt._plethysm_cycle_weights(d, n)
        assert all(type(w) is int and w > 0 for _, w in weights)
        assert [i for i, _ in weights] == sorted({i for i, _ in weights})  # one per class, in order
        assert scaled_cycle_weights(d, n) == plethysm_cycle_weights_oracle(d, n), (d, n)
    assert len(pairs) == 83


def test_plethysm_known_decompositions():
    assert pleth_decomposition(2, 2, 2) == {(4,): 1, (2, 2): 1}
    assert pleth_decomposition(3, 2, 3) == {(6,): 1, (4, 2): 1, (2, 2, 2): 1}
    assert pleth_decomposition(2, 3, 2) == {(6,): 1, (4, 2): 1}
    # S^m(S^2) = sum over even partitions (Thrall)
    got = pleth_decomposition(4, 2, 4)
    assert got == {(8,): 1, (6, 2): 1, (4, 4): 1, (4, 2, 2): 1, (2, 2, 2, 2): 1}
    assert rt.plethysm_mult((3, 3, 3), 3, 3) == 0


def test_plethysm_cayley_sylvester():
    """mult(S_(dn-k,k), S^d(S^n C^2)) = p(k;d,n) - p(k-1;d,n)."""
    for d in range(1, 5):
        for n in range(1, 5):
            got = pleth_decomposition(d, n, 2)
            for k in range(0, d * n // 2 + 1):
                want = _partitions_in_box(k, d, n) - (
                    _partitions_in_box(k - 1, d, n) if k else 0
                )
                pi = (d * n - k, k) if k else (d * n,)
                assert got.get(pi, 0) == want, (d, n, k)


def test_plethysm_hermite_reciprocity():
    """S^d(S^n C^2) = S^n(S^d C^2) as GL_2 modules."""
    for d in range(1, 5):
        for n in range(1, 5):
            assert pleth_decomposition(d, n, 2) == pleth_decomposition(n, d, 2)


def test_plethysm_dimension_conservation():
    for d, n, v in [(2, 2, 2), (2, 2, 3), (3, 2, 3), (2, 3, 3), (4, 2, 3), (3, 3, 3)]:
        mults = pleth_decomposition(d, n, v)
        total = sum(m * rt.schur_dimension(p, v) for p, m in mults.items())
        ambient = comb(comb(n + v - 1, n) + d - 1, d)
        assert total == ambient


def test_plethysm_wreath_route_matches_weight_route():
    """Evaluate the cycle-index weights by hand and compare with the oracle."""
    for d, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        weights = scaled_cycle_weights(d, n)
        assert sum(w for _, w in weights) == 1  # total mass of the cycle index
        by_weight = plethysm_multiplicities(d, n, d * n)
        for pi in rt.partitions(d * n):
            total = Fraction(0)
            for gamma, w in weights:
                c = rt.character(pi, gamma)
                if c:
                    total += w * c
            assert total.denominator == 1
            assert by_weight.get(pi, 0) == int(total) == rt.plethysm_mult(pi, d, n), (
                d, n, pi)


@pytest.mark.parametrize("v,max_dn", [(4, 16), (6, 10)])
def test_plethysm_mult_matches_weight_oracle(v, max_dn):
    """Every pi with l(pi) <= v, for every d, n >= 1 with dn <= max_dn."""
    checked = 0
    for d in range(1, max_dn + 1):
        for n in range(1, max_dn // d + 1):
            oracle = plethysm_multiplicities(d, n, v)
            for pi in rt.partitions(d * n, max_len=v):
                assert rt.plethysm_mult(pi, d, n) == oracle.get(pi, 0), (pi, d, n)
                checked += 1
    assert checked == {4: 1362, 6: 410}[v]


def test_plethysm_mult_pinned_values():
    # each computed by both routes
    assert rt.plethysm_mult((4, 4, 4, 4), 4, 4) == 1
    assert rt.plethysm_mult((6, 4, 2, 2, 1, 1), 4, 4) == 0
    assert rt.plethysm_mult((3, 3, 2, 2, 2, 2, 1, 1), 4, 4) == 0
    assert rt.plethysm_mult((2,) * 8, 8, 2) == 1
    # S^0 and S^d(S^0) are the trivial module
    assert rt.plethysm_mult((), 0, 3) == rt.plethysm_mult((), 2, 0) == 1


def test_plethysm_mult_large_uses_wreath_and_is_consistent():
    # dn = 18: S^2(S^9 C^2) by Hermite/Thrall
    assert rt.plethysm_mult((18,), 2, 9) == 1
    assert rt.plethysm_mult((16, 2), 2, 9) == 1
    assert rt.plethysm_mult((17, 1), 2, 9) == 0
    assert rt.plethysm_mult((14, 4), 2, 9) == 1
    with pytest.raises(ValueError):
        rt.plethysm_mult((4, 1), 2, 2)


def test_partition_count_recurrence():
    assert [rt._partition_count(k) for k in range(31)] == [
        sum(1 for _ in rt.partitions(k)) for k in range(31)
    ]
    assert [rt._partition_count(k) for k in (33, 40, 41, 64)] == [10143, 37338, 44583, 1741630]


def test_plethysm_capacity_is_the_cycle_type_count():
    """p(dn) over MAX_CYCLE_TYPES is refused before any cycle type is merged;
    dn = 41 is the first degree refused."""
    for d, n in [(41, 1), (1, 41), (8, 8)]:
        with pytest.raises(CapacityError) as exc:
            rt.plethysm_mult((d * n,), d, n)
        assert exc.value.size == rt._partition_count(d * n)
        assert exc.value.cap == rt.MAX_CYCLE_TYPES == 40_000
    with pytest.raises(CapacityError) as exc:
        rt.plethysm_mult((10**6,), 10**6, 1)  # p(dn) is not even counted
    assert (exc.value.size, exc.value.cap) == (10**6, rt.MAX_COUNTED_DEGREE)


def test_kronecker_capacity_is_the_class_count():
    """p(N) over MAX_CLASSES is refused before any class is listed; N = 50
    (p = 204226) and 51 are admitted, N = 52 is the first degree refused."""
    assert rt._partition_count(51) <= rt.MAX_CLASSES == 250_000 < rt._partition_count(52)
    for call in (lambda: rt.kronecker((100,), (100,), (100,)),
                 lambda: rt.symmetric_kronecker((52,), (26, 26))):
        with pytest.raises(CapacityError) as exc:
            call()
        assert exc.value.size in (rt._partition_count(100), rt._partition_count(52))
        assert exc.value.cap == rt.MAX_CLASSES
    with pytest.raises(CapacityError) as exc:
        rt.kronecker((10**6,), (10**6,), (10**6,))  # p(N) is not even counted
    assert (exc.value.size, exc.value.cap) == (10**6, rt.MAX_COUNTED_DEGREE)


def test_plethysm_mult_rejects_negative_degrees():
    for d, n in [(-2, -2), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="non-negative"):
            rt.plethysm_mult((4,) if d * n else (), d, n)


# ---------------------------------------------------------------------------
# Obstruction report and usefulness filter
# ---------------------------------------------------------------------------


def test_obstruction_report_properties():
    rep = rt.ObstructionReport(pi=(4,), d=2, n=2, mult=2, sym_kron=1)
    assert rep.is_representation_obstruction and not rep.is_occurrence_obstruction
    rep = rt.ObstructionReport(pi=(4,), d=2, n=2, mult=2, sym_kron=0)
    assert rep.is_representation_obstruction and rep.is_occurrence_obstruction
    rep = rt.ObstructionReport(pi=(4,), d=2, n=2, mult=1, sym_kron=1)
    assert not rep.is_representation_obstruction and not rep.is_occurrence_obstruction


def occurrence_obstruction_test(pi, d, n):
    """The report and the Kronecker coefficient k(pi, d^n, d^n) of ``gct rep
    obstruct``, in-process.

    mult(S_pi, S^d(S^n W)) measures occurrence in the ambient coordinate
    ring; sk^pi_{(d^n)(d^n)} bounds the coordinate ring of the det_n orbit.
    """
    p = rt.normalize_partition(pi)
    mu = (d,) * n
    report = rt.ObstructionReport(
        pi=p,
        d=d,
        n=n,
        mult=rt.plethysm_mult(p, d, n),
        sym_kron=rt.symmetric_kronecker(p, mu),
    )
    return report, rt.kronecker(p, mu, mu)


def test_occurrence_obstruction_test_small():
    rep, kron = occurrence_obstruction_test((4,), 2, 2)
    assert rep.mult == 1 and kron >= rep.sym_kron >= 1
    assert not rep.is_representation_obstruction
    rep, _ = occurrence_obstruction_test((2, 2), 2, 2)
    assert rep.mult == 1 and rep.sym_kron >= 1
    with pytest.raises(ValueError):
        occurrence_obstruction_test((3, 1), 2, 3)


@pytest.mark.parametrize("pi,d", [((9, 9, 2, 2, 2, 2, 2, 2), 10), ((11, 11, 2, 2, 2, 2, 2, 1), 11)])
def test_obstruction_data_match_the_fraction_oracles(pi, d):
    """The two ``rep obstruct`` cases of acceptance criterion 14."""
    mu = (d,) * 3
    rep, kron = occurrence_obstruction_test(pi, d, 3)
    assert rep.mult == plethysm_mult_oracle(pi, d, 3) == 1
    assert kron == kronecker_oracle(pi, mu, mu)
    assert rep.sym_kron == symmetric_kronecker_oracle(pi, mu) == 0


def test_gct_useful_filter():
    assert rt.gct_useful_filter((6,), 2, 3, 1)
    assert rt.gct_useful_filter((5, 1), 2, 3, 1)
    assert not rt.gct_useful_filter((4, 1, 1), 2, 3, 1)  # too many rows
    assert not rt.gct_useful_filter((3, 3), 2, 3, 1)  # first part < d(n-m)
    with pytest.raises(ValueError):
        rt.gct_useful_filter((3, 1), 2, 3, 1)
    with pytest.raises(ValueError):
        rt.gct_useful_filter((6,), 2, 3, -1)
    with pytest.raises(ValueError, match="non-negative"):
        rt.gct_useful_filter((4,), -2, -2, 0)
