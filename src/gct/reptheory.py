"""Symmetric-group character calculus and plethysm multiplicities.

Partitions are tuples of weakly decreasing positive ints.  Characters are
computed by the Murnaghan--Nakayama rule on beta-sets (first-column hook
lengths) with global memoization; all inner products run over cycle types
in ints, with weights N!/z_mu, and end in one exact division by N!.

Plethysm multiplicities mult(S_pi, S^d(S^n V)) come from the plethysm of
cycle indices Z(S_d)[Z(S_n)] = sum_gamma w_gamma p_gamma, evaluated as
mult = sum_gamma w_gamma chi_pi(gamma).  The tests check this against
the weight route (count multisets of d degree-n monomials with prescribed
column sums, then invert the unitriangular Kostka matrix) on every pi
with l(pi) <= 4 for dn <= 16 and every pi with l(pi) <= 6 for dn <= 10.

``gct.hhh`` sizes its weight blocks with one memoized table of suffix
counts (``_suffix_counts``), at most d calls deep, which
``gct.hhh.multiset_basis`` walks to list the same multisets, and turns
kernel dimensions into multiplicities by Weyl's character formula
(``decompose_weight_dims``); ``schur_dimension`` is Weyl's dimension
formula.  The tests keep Kostka inversion and hook-content as oracles.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
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


def partitions(n: int, max_len: Optional[int] = None) -> Iterator[Partition]:
    """All partitions of n with at most ``max_len`` parts (any number by
    default), lexicographically descending (largest first).

    Each step lowers the rightmost part that can drop by one while the
    parts after it, refilled greedily with parts no larger, still fit in
    ``max_len``; the greedy refill is the largest completion, so the
    order is descending.
    """
    slots = n if max_len is None else max_len
    if n == 0:
        yield ()
    if n <= 0 or slots < 1:
        return
    a = [n]
    while True:
        yield tuple(a)
        i, rest = len(a), 0  # rest: sum of a[i:]
        while True:
            i -= 1
            if i < 0:
                return
            x = a[i] - 1
            rest += a[i]
            if x and rest - x <= x * (slots - i - 1):
                break
        q, r = divmod(rest - x, x)
        del a[i:]
        a += [x] * (q + 1)
        if r:
            a.append(r)


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


def z_order(mu: Partition) -> int:
    """|centralizer| of the class mu: prod t^{m_t} m_t!."""
    counts: Dict[int, int] = {}
    for t in mu:
        counts[t] = counts.get(t, 0) + 1
    z = 1
    for t, m in counts.items():
        z *= t**m * factorial(m)
    return z


def schur_dimension(p: Partition, k: int) -> int:
    """dim S_p(C^k), by Weyl's dimension formula (0 when l(p) > k): the
    product over i < j <= k of (p_i - p_j + j - i)/(j - i), p padded with
    zeros; a factor with both rows past l(p) is 1."""
    if len(p) > k:
        return 0
    lam = tuple(p) + (0,) * (k - len(p))
    num = denom = 1
    for i in range(len(p)):
        for j in range(i + 1, k):
            num *= lam[i] - lam[j] + j - i
            denom *= j - i
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
    return tuple(sorted(parts, reverse=True))


def kronecker(pi: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """k_{pi,mu,nu} = <chi_pi, chi_mu * chi_nu>, exact."""
    p = normalize_partition(pi)
    m = normalize_partition(mu)
    n = normalize_partition(nu)
    if not (sum(p) == sum(m) == sum(n)):
        raise ValueError("all three partitions must have the same size")
    order = factorial(sum(p))
    total = 0  # order * k: chi chi chi summed with the class sizes order/z
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
        total += cp * cm * cn * (order // z_order(gamma))
    k, rem = divmod(total, order)
    assert rem == 0 and k >= 0
    return k


def symmetric_kronecker(pi: Sequence[int], mu: Sequence[int]) -> int:
    """sk^pi_{mu,mu} = mult of S_pi in the *symmetric* square S^2([mu]).

    Computed as (1/2)[<chi_pi, chi_mu^2> + <chi_pi, sigma -> chi_mu(sigma^2)>].
    """
    p = normalize_partition(pi)
    m = normalize_partition(mu)
    if sum(p) != sum(m):
        raise ValueError("partitions must have the same size")
    order = factorial(sum(p))
    total = 0  # 2 * order * sk
    for gamma in partitions(sum(p)):
        cp = _mn(p, gamma)
        if not cp:
            continue
        cm = _mn(m, gamma)
        cm_sq = _mn(m, square_cycle_type(gamma))
        val = cm * cm + cm_sq
        if val:
            total += cp * val * (order // z_order(gamma))
    sk, rem = divmod(total, 2 * order)
    assert rem == 0 and sk >= 0
    return sk


# ---------------------------------------------------------------------------
# Multiplicities from weight-space dimensions
# ---------------------------------------------------------------------------


def decompose_weight_dims(dims: Dict[Partition, int]) -> Dict[Partition, int]:
    """Multiplicities of the S_lam in a polynomial GL-module, from the
    dimensions ``dims`` of its dominant weight spaces (missing keys are 0),
    by Weyl's character formula on GL_l, l = l(lam):

        mult_lam = sum_{sigma in S_l} sgn(sigma) dims[lam + rho - sigma rho].

    Restricted to GL_l the module keeps every S_pi with l(pi) <= l and its
    weight spaces on the first l coordinates, and its character times a_rho
    is sum_pi mult_pi a_{pi+rho}, where only a_{lam+rho} has the strictly
    decreasing exponent lam + rho.  Entry i of the weight is
    lam_i - i + sigma(i), read at its sorted nonzero parts, so every weight
    read dominates lam.  Rows are filled from the last up, where lam_i is
    smallest, skipping each sigma(i) that makes an entry negative.  Every
    key is decomposed, zero dimensions included; returns only the nonzero
    multiplicities.
    """

    def alternant(lam: Partition, free: Tuple[int, ...], below: Tuple[int, ...]) -> int:
        """sgn(sigma) dims[weight], summed over the ways to fill rows 0..i of
        sigma, i = len(free) - 1, with the values ``free`` (ascending);
        ``below`` holds the weight entries of rows i+1 on."""
        i = len(free) - 1
        if i < 0:
            return dims.get(tuple(sorted(filter(None, below), reverse=True)), 0)
        total = 0
        for k, s in enumerate(free):
            if lam[i] - i + s >= 0:
                term = alternant(lam, free[:k] + free[k + 1 :], (lam[i] - i + s,) + below)
                total += -term if (s - k) % 2 else term  # rows below took s - k smaller values
        return total

    mults: Dict[Partition, int] = {}
    for lam in sorted(dims, reverse=True):
        m = alternant(lam, tuple(range(len(lam))), ())
        if m < 0:
            raise ArithmeticError(f"negative multiplicity {m} at {lam}: inconsistent weight dims")
        if m:
            mults[lam] = m
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
def _plethysm_cycle_weights(d: int, n: int) -> Tuple[Tuple[Partition, int], ...]:
    """Z(S_d)[Z(S_n)] = sum_gamma w_gamma p_gamma, as (gamma, d! (n!)^d w)
    pairs: integer weights over the common denominator d! (n!)^d.

    An element of the wreath product S_n wr S_d over a cycle of length r of
    the outer permutation contributes cycles r*rho for the cycle type rho
    of the product of its inner permutations; summing 1/z weights over all
    choices is exactly this plethystic substitution.  In ints: an outer
    class nu weighs d!/z_nu (n!)^(d - l(nu)), each inner rho n!/z_rho.

    There are at most p(dn) of them, and the merge runs over as many states,
    so a p(dn) over ``MAX_CYCLE_TYPES`` is refused before any is built.
    """
    dn = d * n
    if dn > MAX_COUNTED_DEGREE:
        raise CapacityError(f"plethysm S^{d}(S^{n}): degree dn", dn, MAX_COUNTED_DEGREE)
    types = _partition_count(dn)
    if types > MAX_CYCLE_TYPES:
        raise CapacityError(f"plethysm S^{d}(S^{n}): p({dn}) cycle types", types, MAX_CYCLE_TYPES)
    inner = [(rho, factorial(n) // z_order(rho)) for rho in partitions(n)]
    total: Dict[Partition, int] = defaultdict(int)
    for nu in partitions(d):
        states = {(): factorial(d) // z_order(nu) * factorial(n) ** (d - len(nu))}
        for r in nu:
            new_states: Dict[Partition, int] = defaultdict(int)
            for acc, w in states.items():
                for rho, wr in inner:
                    t = acc + tuple(r * s for s in rho)
                    new_states[tuple(sorted(t, reverse=True))] += w * wr
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
    total = 0
    for gamma, w in _plethysm_cycle_weights(d, n):
        c = _mn(p, gamma)
        if c:
            total += w * c
    mult, rem = divmod(total, factorial(d) * factorial(n) ** d)
    assert rem == 0 and mult >= 0
    return mult


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
