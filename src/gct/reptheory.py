"""Symmetric-group character calculus and plethysm multiplicities.

Partitions are tuples of weakly decreasing positive ints.  Characters are
computed by the Murnaghan--Nakayama rule on beta-sets (first-column hook
lengths) with global memoization; all inner products run over cycle types
with exact rational 1/z_mu weights.

Plethysm multiplicities mult(S_pi, S^d(S^n V)) come from the plethysm of
cycle indices Z(S_d)[Z(S_n)] = sum_gamma w_gamma p_gamma, evaluated as
mult = sum_gamma w_gamma chi_pi(gamma).  The tests check this against
the weight route (count multisets of d degree-n monomials with prescribed
column sums, then invert the unitriangular Kostka matrix) on every pi
with l(pi) <= 4 for dn <= 16 and every pi with l(pi) <= 6 for dn <= 10.

That route's pieces stay here because ``gct.hhh`` sizes and decomposes
its weight blocks with them: the counts come from one memoized table of
suffix counts (``_suffix_counts``), at most d calls deep, and
``gct.hhh.multiset_basis`` lists the same multisets by walking it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .flatten import CapacityError
from .poly import monomials_of_degree

Partition = Tuple[int, ...]

#: cap on p(dn), the number of cycle types Z(S_d)[Z(S_n)] can have: dn <= 40
MAX_CYCLE_TYPES = 40_000
#: degrees past this are refused without counting p(dn), whose recurrence
#: costs about dn^1.5 steps
MAX_COUNTED_DEGREE = 10_000


# ---------------------------------------------------------------------------
# Partition basics
# ---------------------------------------------------------------------------


def normalize_partition(seq: Sequence[int]) -> Partition:
    parts = tuple(sorted((int(p) for p in seq if int(p) != 0), reverse=True))
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {seq!r}")
    return parts


def partitions(
    n: int, max_part: Optional[int] = None, max_len: Optional[int] = None
) -> Iterator[Partition]:
    """All partitions of n, lexicographically descending (largest first)."""
    if n < 0:
        return
    if max_part is None:
        max_part = n

    def rec(remaining: int, cap: int, slots: int) -> Iterator[Tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(n, max_part, n if max_len is None else max_len)


def _partition_count(total: int) -> int:
    """p(total), by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * total
    for m in range(1, total + 1):
        acc, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            g = k * (3 * k - 1) // 2
            term = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            acc += term if k % 2 else -term
            k += 1
        p[m] = acc
    return p[total]


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def dominates(a: Partition, b: Partition) -> bool:
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


def z_order(mu: Partition) -> int:
    """|centralizer| of the class mu: prod t^{m_t} m_t!."""
    counts: Dict[int, int] = {}
    for t in mu:
        counts[t] = counts.get(t, 0) + 1
    z = 1
    for t, m in counts.items():
        z *= t**m * factorial(m)
    return z


def hook_lengths(p: Partition) -> List[List[int]]:
    conj = conjugate(p)
    return [
        [p[i] - j + conj[j] - i - 1 for j in range(p[i])] for i in range(len(p))
    ]


def schur_dimension(p: Partition, k: int) -> int:
    """dim S_p(C^k), by the hook-content formula (0 when l(p) > k)."""
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


# ---------------------------------------------------------------------------
# Murnaghan--Nakayama characters
# ---------------------------------------------------------------------------


def _partition_from_beta(beta_desc: Sequence[int]) -> Partition:
    r = len(beta_desc)
    return tuple(
        p for p in (beta_desc[i] - (r - 1 - i) for i in range(r)) if p > 0
    )


@lru_cache(maxsize=None)
def _rim_hook_removals(shape: Partition, t: int) -> Tuple[Tuple[Partition, int], ...]:
    """All (new_shape, sign) after removing a border strip of size t."""
    r = len(shape)
    beta = [shape[i] + r - 1 - i for i in range(r)]
    bset = set(beta)
    out: List[Tuple[Partition, int]] = []
    for b in beta:
        nb = b - t
        if nb >= 0 and nb not in bset:
            between = sum(1 for x in beta if nb < x < b)
            nbeta = sorted((x for x in beta if x != b), reverse=True)
            nbeta.append(nb)
            nbeta.sort(reverse=True)
            out.append((_partition_from_beta(nbeta), -1 if between % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _mn(shape: Partition, cycles: Partition) -> int:
    if not cycles:
        return 1 if not shape else 0
    t = cycles[0]
    rest = cycles[1:]
    total = 0
    for new_shape, sign in _rim_hook_removals(shape, t):
        total += sign * _mn(new_shape, rest)
    return total


def character(pi: Sequence[int], mu: Sequence[int]) -> int:
    """chi_pi evaluated on the class of cycle type mu (Murnaghan--Nakayama)."""
    p = normalize_partition(pi)
    m = normalize_partition(mu)
    if sum(p) != sum(m):
        raise ValueError(f"|pi|={sum(p)} but |mu|={sum(m)}")
    return _mn(p, m)


# ---------------------------------------------------------------------------
# Kronecker and symmetric Kronecker coefficients
# ---------------------------------------------------------------------------


def square_cycle_type(mu: Partition) -> Partition:
    """Cycle type of sigma^2 for sigma of cycle type mu.

    An odd t-cycle squares to a t-cycle; an even 2m-cycle squares to two
    m-cycles.
    """
    parts: List[int] = []
    for t in mu:
        if t % 2 == 1:
            parts.append(t)
        else:
            parts.extend((t // 2, t // 2))
    return normalize_partition(parts)


def kronecker(pi: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """k_{pi,mu,nu} = <chi_pi, chi_mu * chi_nu>, exact."""
    p = normalize_partition(pi)
    m = normalize_partition(mu)
    n = normalize_partition(nu)
    if not (sum(p) == sum(m) == sum(n)):
        raise ValueError("all three partitions must have the same size")
    total = Fraction(0)
    for gamma in partitions(sum(p)):
        cp = _mn(p, gamma)
        if not cp:
            continue
        cm = _mn(m, gamma)
        if not cm:
            continue
        cn = _mn(n, gamma)
        if not cn:
            continue
        total += Fraction(cp * cm * cn, z_order(gamma))
    assert total.denominator == 1 and total >= 0
    return int(total)


def symmetric_kronecker(pi: Sequence[int], mu: Sequence[int]) -> int:
    """sk^pi_{mu,mu} = mult of S_pi in the *symmetric* square S^2([mu]).

    Computed as (1/2)[<chi_pi, chi_mu^2> + <chi_pi, sigma -> chi_mu(sigma^2)>].
    """
    p = normalize_partition(pi)
    m = normalize_partition(mu)
    if sum(p) != sum(m):
        raise ValueError("partitions must have the same size")
    total = Fraction(0)
    for gamma in partitions(sum(p)):
        cp = _mn(p, gamma)
        if not cp:
            continue
        cm = _mn(m, gamma)
        cm_sq = _mn(m, square_cycle_type(gamma))
        val = cm * cm + cm_sq
        if val:
            total += Fraction(cp * val, z_order(gamma))
    total = total / 2
    assert total.denominator == 1 and total >= 0
    return int(total)


# ---------------------------------------------------------------------------
# Kostka numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def kostka(shape: Partition, content: Partition) -> int:
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

    def strips(i: int, budget: int, prev_new: int, acc: List[int]):
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


def decompose_weight_dims(dims: Dict[Partition, int]) -> Dict[Partition, int]:
    """Invert  dim(lambda) = sum_pi mult_pi K_{pi,lambda}  for mult.

    ``dims`` must contain every dominant weight with a nonzero weight-space
    dimension (missing keys are treated as 0).  Processes weights down the
    lexicographic order, which refines dominance, so the Kostka system is
    unitriangular.  Returns only the nonzero multiplicities.
    """
    mults: Dict[Partition, int] = {}
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


# ---------------------------------------------------------------------------
# Weight-space dimensions of S^d(S^n C^v)
# ---------------------------------------------------------------------------


#: (degree, v, count, remaining weight) -> the _suffix_counts list; shared
#: across calls, so the weight blocks of one S^d(S^n C^v) reuse subproblems
_WEIGHT_COUNT_MEMO: Dict[Tuple[int, int, int, Tuple[int, ...]], List[int]] = {}


@lru_cache(maxsize=None)
def _monomials(v: int, degree: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(monomials_of_degree(v, degree))


@lru_cache(maxsize=None)
def _monomial_index(v: int, degree: int) -> Dict[Tuple[int, ...], int]:
    return {m: i for i, m in enumerate(_monomials(v, degree))}


def _suffix_counts(degree: int, v: int, count: int, rem: Tuple[int, ...]) -> List[int]:
    """Entry i: the number of ``count``-multisets of monomials_of_degree(v,
    degree)[i:] with column sums ``rem`` (which sums to count * degree).

    Filled from the last monomial down; each recursive call has a smaller
    count, so the recursion is at most ``count`` deep.
    """
    key = (degree, v, count, rem)
    got = _WEIGHT_COUNT_MEMO.get(key)
    if got is not None:
        return got
    monos = _monomials(v, degree)
    if count == 0:  # then rem is zero
        out = [1] * (len(monos) + 1)
    elif count == 1:  # rem is one monomial: counted while it is still free
        i = _monomial_index(v, degree)[rem]
        out = [1] * (i + 1) + [0] * (len(monos) - i)
    else:
        out = [0] * (len(monos) + 1)
        for i in range(len(monos) - 1, -1, -1):
            m = monos[i]
            total = out[i + 1]  # no copy of monos[i]
            jmax = count
            for x, y in zip(rem, m):
                if y:
                    jmax = min(jmax, x // y)
            cur = rem
            for j in range(1, jmax + 1):  # j copies of monos[i], the rest later
                cur = tuple(x - y for x, y in zip(cur, m))
                total += _suffix_counts(degree, v, count - j, cur)[i + 1]
            out[i] = total
    _WEIGHT_COUNT_MEMO[key] = out
    return out


def count_weight_multisets(d: int, n: int, v: int, weight: Sequence[int]) -> int:
    """Number of multisets of d degree-n monomials in v vars with column sums
    ``weight`` -- the dimension of the ``weight`` space of S^d(S^n C^v)."""
    w = tuple(int(x) for x in weight)
    if len(w) != v or any(x < 0 for x in w):
        raise ValueError("weight must be v non-negative integers")
    if sum(w) != d * n:
        return 0
    return _suffix_counts(n, v, d, w)[0]


# ---------------------------------------------------------------------------
# Plethysm multiplicities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _plethysm_cycle_weights(d: int, n: int) -> Tuple[Tuple[Partition, Fraction], ...]:
    """Z(S_d)[Z(S_n)] = sum_gamma w_gamma p_gamma, as (gamma, w) pairs.

    An element of the wreath product S_n wr S_d over a cycle of length r of
    the outer permutation contributes cycles r*rho for the cycle type rho
    of the product of its inner permutations; summing 1/z weights over all
    choices is exactly this plethystic substitution.

    There are at most p(dn) of them, and the merge runs over as many states,
    so a p(dn) over ``MAX_CYCLE_TYPES`` is refused before any is built.
    """
    dn = d * n
    if dn > MAX_COUNTED_DEGREE:
        raise CapacityError(f"plethysm S^{d}(S^{n}): degree dn", dn, MAX_COUNTED_DEGREE)
    types = _partition_count(dn)
    if types > MAX_CYCLE_TYPES:
        raise CapacityError(f"plethysm S^{d}(S^{n}): p({dn}) cycle types", types, MAX_CYCLE_TYPES)
    inner = [(rho, Fraction(1, z_order(rho))) for rho in partitions(n)]
    total: Dict[Partition, Fraction] = defaultdict(Fraction)
    for nu in partitions(d):
        states: Dict[Partition, Fraction] = {(): Fraction(1, z_order(nu))}
        for r in nu:
            new_states: Dict[Partition, Fraction] = defaultdict(Fraction)
            for acc, w in states.items():
                for rho, wr in inner:
                    t = normalize_partition(acc + tuple(r * s for s in rho))
                    new_states[t] += w * wr
            states = new_states
        for t, w in states.items():
            total[t] += w
    return tuple(sorted(total.items()))


def _check_degrees(p: Partition, d: int, n: int) -> None:
    if d < 0 or n < 0:
        raise ValueError(f"degrees d={d} and n={n} must be non-negative")
    if sum(p) != d * n:
        raise ValueError(f"|pi|={sum(p)} must equal d*n={d * n}")


def plethysm_mult(pi: Sequence[int], d: int, n: int) -> int:
    """mult(S_pi, S^d(S^n V)) for any V with dim >= l(pi); exact."""
    p = normalize_partition(pi)
    _check_degrees(p, d, n)
    total = Fraction(0)
    for gamma, w in _plethysm_cycle_weights(d, n):
        c = _mn(p, gamma)
        if c:
            total += w * c
    assert total.denominator == 1 and total >= 0
    return int(total)


# ---------------------------------------------------------------------------
# Obstructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    pi: Partition
    d: int
    n: int
    mult: int
    kron: int
    sym_kron: int

    @property
    def is_representation_obstruction(self) -> bool:
        return self.sym_kron < self.mult

    @property
    def is_occurrence_obstruction(self) -> bool:
        return self.sym_kron == 0 and self.mult > 0


def gct_useful_filter(pi: Sequence[int], d: int, n: int, m: int) -> bool:
    """Necessary conditions for S_pi (|pi| = dn) to be (n,m)-GCT useful.

    (1) l(pi) <= m+1 and (2) pi_1 >= d(n-m).
    """
    p = normalize_partition(pi)
    _check_degrees(p, d, n)
    if m < 0:
        raise ValueError("m must be non-negative")
    first = p[0] if p else 0
    return len(p) <= m + 1 and first >= d * (n - m)
