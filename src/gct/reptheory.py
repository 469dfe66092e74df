"""Symmetric-group character calculus and plethysm multiplicities.

Partitions are tuples of weakly decreasing positive ints.  Characters come
from the Murnaghan--Nakayama rule on beta-sets coded as int bitmasks: a
t-rim hook moves a bead down t places.  The Kronecker and plethysm sums
read whole character columns, chi_lam at every class of S_N, each built by
one dynamic program over (mask, largest part) whose memo holds one block
per state and is released when the column returns.  A few finished
columns are kept, and for a few N the class data: the class sizes and
the table of partition counts that finds a class's position, with no
list of the classes themselves.  ``character`` strips one class's cycles
off a {mask: coefficient} dict.  All inner products run over cycle types
in ints, with weights N!/z_mu, and end in one exact division by N!, whose
residue, if any, is raised as an inconsistent sum; a sum over more than
``MAX_CLASSES`` classes is refused before any is listed.

Plethysm multiplicities mult(S_pi, S^d(S^n V)) come from the plethysm of
cycle indices Z(S_d)[Z(S_n)] = sum_gamma w_gamma p_gamma, evaluated as
mult = sum_gamma w_gamma chi_pi(gamma).  The tests check this against
the weight route (count multisets of d degree-n monomials with prescribed
column sums, then invert the unitriangular Kostka matrix) on every pi
with l(pi) <= 4 for dn <= 16 and every pi with l(pi) <= 6 for dn <= 10.

``gct.hhh`` sizes its weight blocks with one memoized table of suffix
counts (``_suffix_counts``), at most d calls deep, which
``multiset_basis`` walks to list the same multisets, and turns
kernel dimensions into multiplicities by Weyl's character formula
(``decompose_weight_dims``); ``schur_dimension`` is Weyl's dimension
formula.  The tests keep Kostka inversion and hook-content as oracles.
A weight is counted on its support, its sorted nonzero entries on C^k,
so weights that differ by a permutation or by zeros share one table,
and listed on its nonzero coordinates in place.  The monomials come from
``gct.monomials``, imported where they are listed, so a ``rep`` command
does not run it.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, lru_cache
from math import factorial
from operator import add, sub
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import CapacityError

Partition = Tuple[int, ...]

#: cap on p(dn), the number of cycle types Z(S_d)[Z(S_n)] can have: dn <= 40
MAX_CYCLE_TYPES = 40_000
#: cap on p(N), the number of classes a Kronecker sum over S_N zips: N <= 51
MAX_CLASSES = 250_000
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


def _exact_quotient(total: int, denom: int) -> int:
    """total / denom, which an exact sum makes a non-negative int; a residue
    or a negative quotient means the sum is inconsistent, and is raised
    rather than floored."""
    quotient, rem = divmod(total, denom)
    if rem or quotient < 0:
        raise ArithmeticError(f"{total} / {denom} leaves residue {rem}: inconsistent sum")
    return quotient


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
    return _exact_quotient(num, denom)


# ---------------------------------------------------------------------------
# Murnaghan--Nakayama characters
# ---------------------------------------------------------------------------


def _check_class_count(context: str, total: int, cap: int) -> None:
    """Refuse a sum over the p(total) cycle types of S_total when p(total)
    exceeds ``cap``, before any is listed; a degree over
    ``MAX_COUNTED_DEGREE`` is refused without counting p(total)."""
    if total > MAX_COUNTED_DEGREE:
        raise CapacityError(f"{context}: degree", total, MAX_COUNTED_DEGREE)
    types = _partition_count(total)
    if types > cap:
        raise CapacityError(f"{context}: p({total}) cycle types", types, cap)


def _beta_mask(shape: Partition) -> int:
    """The beta-set of ``shape`` as an int: a bead at lam_i + l - 1 - i for
    each of its l parts.  The empty shape on l beads is (1 << l) - 1."""
    mask = 0
    for i, part in enumerate(shape):
        mask |= 1 << (part + len(shape) - 1 - i)
    return mask


def _hook_removals(mask: int, t: int) -> Iterator[Tuple[int, int]]:
    """(new mask, sign) for each t-rim hook of the shape coded by ``mask``:
    a bead moves from b + t to an empty b, with sign (-1)^(beads between)."""
    free = mask >> t & ~mask  # bit b: a bead at b + t, none at b
    while free:
        low = free & -free
        free ^= low
        between = mask & ((low << t) - (low << 1))
        yield mask ^ (low << t) ^ low, -1 if between.bit_count() & 1 else 1


class _Classes:
    """The conjugacy classes of S_N in ``partitions(N)`` order: the class
    ``sizes`` N!/z, built when read, and ``fits[m][k]``, the number of
    partitions of m with no part over k.  No class is listed: ``rank`` and
    ``square_ranks`` find positions from ``fits``."""

    def __init__(self, total: int):
        self.fits = [(1,) * (total + 1)]
        for m in range(1, total + 1):
            row = [0]
            for k in range(1, total + 1):
                row.append(row[-1] + (self.fits[m - k][k] if k <= m else 0))
            self.fits.append(tuple(row))

    @cached_property
    def sizes(self) -> Tuple[int, ...]:
        order = factorial(len(self.fits) - 1)
        return tuple(order // z_order(gamma) for gamma in partitions(len(self.fits) - 1))

    def rank(self, gamma: Partition) -> int:
        """The position of gamma in ``partitions(|gamma|)``, |gamma| <= N.

        Before gamma come, at each part i, the partitions of the m_i boxes
        left whose first part lies above gamma_i but not above the previous
        part top_i: fits[m_i][top_i] - fits[m_i][gamma_i], with m_0 = top_0
        = |gamma|.
        """
        left = top = sum(gamma)
        pos = 0
        for part in gamma:
            pos += self.fits[left][top] - self.fits[left][part]
            left -= part
            top = part
        return pos

    @cached_property
    def square_ranks(self) -> List[int]:
        """The rank of the class of sigma^2 for each class of sigma, in
        ``partitions(N)`` order, with no class listed, built when read.

        An odd t-cycle squares to a t-cycle and an even one to two
        t/2-cycles.  ranks(m, top, pending) lists, for each gamma of m boxes
        with no part over ``top`` in turn, the rank of the square of gamma
        with the parts ``pending`` added.  A first part t adds the parts of
        its own square.  The square of the rest has no part over t, or over
        t - 1 when t is even, so the parts at least that large lead the
        square; each shifts the rank by a constant, and the block for t
        is a shifted copy of the ranks of the rest, with the smaller parts
        still pending.  Few (m, top, pending) occur: 541 at N = 33.  The memo
        is released by hand, as in ``_column``.
        """
        fits, memo = self.fits, {}

        def ranks(m, top, pending):
            key = (m, min(top, m), pending)
            if key not in memo:
                got = [] if m else [self.rank(pending)]
                for t in range(key[1], 0, -1):
                    parts = sorted(pending + ((t,) if t % 2 else (t // 2, t // 2)), reverse=True)
                    shift, left = 0, m + sum(pending)
                    while parts and parts[0] >= t - 1 + t % 2:
                        # a first part v of ``left`` boxes: the partitions with
                        # a larger first part come first, less those of the
                        # rest's size that the rest's own rank counts
                        v = parts.pop(0)
                        rest = left - v
                        shift += fits[left][left] - fits[left][v] - fits[rest][rest] + fits[rest][v]
                        left = rest
                    got.extend(map(shift.__add__, ranks(m - t, t, tuple(parts))))
                memo[key] = got
            return memo[key]

        out = ranks(len(fits) - 1, len(fits), ())
        memo.clear()
        return out


_classes = lru_cache(maxsize=4)(_Classes)


@lru_cache(maxsize=8)
def _column(shape: Partition) -> Tuple[int, ...]:
    """chi_shape at every cycle type of S_N, N = |shape|, in ``partitions(N)``
    order.

    The block of a shape at first part t lists chi at the classes whose
    first part is t: the signed sum, over the t-rim hooks, of the smaller
    shape's chi at the classes with no part over t, read as the
    concatenation of that shape's blocks t, t - 1, ..., 1.  The memo keeps
    each shape's blocks once, with no copy of a prefix.  The nested
    function reaches itself through its closure, so it and the memo form a
    reference cycle, which outlives the call until a full garbage
    collection; the memo is cleared by hand before returning, so only the
    finished column stays.
    """
    total = sum(shape)
    fits = _classes(total).fits
    memo = {}  # mask -> its blocks at first parts 1, 2, ...

    def column(mask, size, top):
        """chi at the classes of ``size`` boxes with no part over ``top``: the
        blocks at first parts top, top - 1, ..., 1, concatenated."""
        if size == 0:
            return [1]
        top = min(top, size)
        blocks = memo.get(mask) or memo.setdefault(mask, [])  # no new list per lookup
        for t in range(len(blocks) + 1, top + 1):
            block = None
            for new, sign in _hook_removals(mask, t):
                smaller = column(new, size - t, t)
                if block is None:
                    block = smaller if sign > 0 else [-x for x in smaller]
                else:
                    block = list(map(add if sign > 0 else sub, block, smaller))
            if block is None:  # no t-rim hook: chi vanishes on the block
                block = [0] * fits[size - t][t]
            blocks.append(block)
        out = []
        for part in blocks[top - 1 :: -1]:
            out += part
        return out

    col = tuple(column(_beta_mask(shape), total, total))
    memo.clear()
    return col


def _degree(mask: int, size: int) -> int:
    """f^lambda, chi_lambda at the identity, for the shape of ``size`` boxes
    coded by ``mask``, by the hook length formula: the hooks are b - a for
    each bead b and empty position a < b, one per box."""
    hooks, holes = 1, []
    for b in range(mask.bit_length()):
        if mask >> b & 1:
            for a in holes:
                hooks *= b - a
        else:
            holes.append(b)
    return factorial(size) // hooks


def character(pi: Sequence[int], mu: Sequence[int]) -> int:
    """chi_pi evaluated on the class of cycle type mu (Murnaghan--Nakayama):
    mu's cycles over 1, largest first, strip rim hooks off {beta mask:
    coefficient}; the k one-cycles left then give sum c * f^lambda, chi on
    the identity of S_k."""
    p = normalize_partition(pi)
    m = normalize_partition(mu)
    if sum(p) != sum(m):
        raise ValueError(f"|pi|={sum(p)} but |mu|={sum(m)}")
    states: Dict[int, int] = {_beta_mask(p): 1}
    ones = m.count(1)
    for t in m[: len(m) - ones]:
        nxt: Dict[int, int] = defaultdict(int)
        for mask, c in states.items():
            for new, sign in _hook_removals(mask, t):
                nxt[new] += sign * c
        states = nxt
    return sum(c * _degree(mask, ones) for mask, c in states.items())


# ---------------------------------------------------------------------------
# Kronecker and symmetric Kronecker coefficients
# ---------------------------------------------------------------------------


def kronecker(pi: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """k_{pi,mu,nu} = <chi_pi, chi_mu * chi_nu>, exact."""
    p = normalize_partition(pi)
    m = normalize_partition(mu)
    n = normalize_partition(nu)
    if not (sum(p) == sum(m) == sum(n)):
        raise ValueError("all three partitions must have the same size")
    _check_class_count("Kronecker coefficient", sum(p), MAX_CLASSES)
    total = 0  # N! * k: chi chi chi summed with the class sizes N!/z
    for cp, cm, cn, size in zip(_column(p), _column(m), _column(n), _classes(sum(p)).sizes):
        if cp and cm and cn:
            total += cp * cm * cn * size
    return _exact_quotient(total, factorial(sum(p)))


def symmetric_kronecker(pi: Sequence[int], mu: Sequence[int]) -> int:
    """sk^pi_{mu,mu} = mult of S_pi in the *symmetric* square S^2([mu]).

    Computed as (1/2)[<chi_pi, chi_mu^2> + <chi_pi, sigma -> chi_mu(sigma^2)>].
    """
    p = normalize_partition(pi)
    m = normalize_partition(mu)
    if sum(p) != sum(m):
        raise ValueError("partitions must have the same size")
    _check_class_count("symmetric Kronecker coefficient", sum(p), MAX_CLASSES)
    classes = _classes(sum(p))
    col_m = _column(m)
    # chi_mu(sigma^2) is read at the rank of each square, not from a squared
    # column chi_mu[rank(square of gamma)] built class by class: at S_33,
    # pi = (11,11,2,2,2,2,2,1), mu = (11,11,11) with both columns built, a
    # call took 10-17 ms this way against 48-93 ms with that column (five
    # fresh processes each, 2 vCPUs, Python 3.11.7).
    total = 0  # 2 * N! * sk
    for cp, cm, square, size in zip(_column(p), col_m, classes.square_ranks, classes.sizes):
        if cp:
            val = cm * cm + col_m[square]
            if val:
                total += cp * val * size
    return _exact_quotient(total, 2 * factorial(sum(p)))


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


@lru_cache(maxsize=8)
def _monomial_index(v: int, degree: int) -> Dict[Tuple[int, ...], int]:
    from .monomials import monomials_of_degree  # here: `rep` commands never run it

    return {m: i for i, m in enumerate(monomials_of_degree(v, degree))}


@lru_cache(maxsize=None)  # shared across calls: the weight blocks of one S^d(S^n C^v) reuse subproblems
def _suffix_counts(degree: int, v: int, count: int, rem: Tuple[int, ...]) -> List[int]:
    """Entry i: the number of ``count``-multisets of monomials_of_degree(v,
    degree)[i:] with column sums ``rem`` (which sums to count * degree).

    Filled from the last monomial down; each recursive call has a smaller
    count, so the recursion is at most ``count`` deep.
    """
    from .monomials import monomials_of_degree

    monos = monomials_of_degree(v, degree)
    if count == 0:  # then rem is zero
        out = [1] * (len(monos) + 1)
    elif count == 1:  # rem is one monomial: counted while it is still free
        # The general loop below gives the same list, far slower: the h_{2,8}
        # sweep on C^8 took 29.9-30.6 s without this branch, 2.1-2.2 s with it (2 vCPUs, 3.11.7).
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
    return out


def count_weight_multisets(d: int, n: int, v: int, weight: Sequence[int]) -> int:
    """Number of multisets of d degree-n monomials in v vars with column sums
    ``weight`` -- the dimension of the ``weight`` space of S^d(S^n C^v).

    Counted on the support, the sorted nonzero entries of ``weight`` on C^k:
    a variable of weight 0 occurs in no monomial of the multisets, and
    weight-space dimensions are invariant under permuting the variables.
    """
    w = tuple(int(x) for x in weight)
    if len(w) != v or any(x < 0 for x in w):
        raise ValueError("weight must be v non-negative integers")
    if sum(w) != d * n:
        return 0
    support = tuple(sorted(filter(None, w), reverse=True))
    return _suffix_counts(n, len(support), d, support)[0]


def multiset_basis(
    count: int, degree: int, v: int, weight: Sequence[int]
) -> List[Tuple[Tuple[int, ...], ...]]:
    """All multisets of ``count`` degree-``degree`` monomials in v vars with
    total exponent vector ``weight``, each a tuple of monomials in
    ``monomials_of_degree`` order.

    The basis is listed on the support, the variables of nonzero weight in
    their order, by walking the suffix-count table of
    ``count_weight_multisets``, entering only nonempty branches; then the
    zero coordinates are put back.  Grevlex on a subset of the variables is
    the restriction of grevlex, so the multisets and their order are those
    of the listing on all v variables.
    """
    if not count_weight_multisets(count, degree, v, weight):  # validates weight
        return []
    from .monomials import monomials_of_degree

    w = tuple(int(x) for x in weight)
    support = [a for a, x in enumerate(w) if x]
    k = len(support)
    monos = monomials_of_degree(k, degree)
    full = monos  # monos[p] with the zero coordinates put back
    if k < v:
        full = []
        for m in monos:
            e = [0] * v
            for a, x in zip(support, m):
                e[a] = x
            full.append(tuple(e))

    def walk(i, c, rem, acc):
        """The multisets acc + (c monomials of monos[i:] with column sums
        rem): later first monomials first, then fewer copies of it first.
        Each level takes at least one copy, so this is at most ``count``
        deep."""
        if c == 0:
            yield acc
            return
        counts = _suffix_counts(degree, k, c, rem)
        for p in range(len(monos) - 1, i - 1, -1):
            if counts[p] == counts[p + 1]:  # nothing starts at monos[p]
                continue
            m, cur = monos[p], rem
            for j in range(1, c + 1):
                cur = tuple(x - y for x, y in zip(cur, m))
                if min(cur, default=0) < 0:
                    break
                if _suffix_counts(degree, k, c - j, cur)[p + 1]:
                    yield from walk(p + 1, c - j, cur, acc + (full[p],) * j)

    return list(walk(0, count, tuple(w[a] for a in support), ()))


# ---------------------------------------------------------------------------
# Plethysm multiplicities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _plethysm_cycle_weights(d: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """Z(S_d)[Z(S_n)] = sum_gamma w_gamma p_gamma, as (rank of gamma in
    ``partitions(dn)``, d! (n!)^d w) pairs in rank order: integer weights
    over the common denominator d! (n!)^d.

    An element of the wreath product S_n wr S_d over a cycle of length r of
    the outer permutation contributes cycles r*rho for the cycle type rho
    of the product of its inner permutations; summing 1/z weights over all
    choices is exactly this plethystic substitution.  In ints: an outer
    class nu weighs d!/z_nu (n!)^(d - l(nu)), each inner rho n!/z_rho.

    There are at most p(dn) of them, and the merge runs over as many states,
    so a p(dn) over ``MAX_CYCLE_TYPES`` is refused before any is built.
    """
    _check_class_count(f"plethysm S^{d}(S^{n})", d * n, MAX_CYCLE_TYPES)
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
    return tuple(sorted(zip(map(_classes(d * n).rank, total), total.values())))


def _check_degrees(p: Partition, d: int, n: int) -> None:
    if d < 0 or n < 0:
        raise ValueError(f"degrees d={d} and n={n} must be non-negative")
    if sum(p) != d * n:
        raise ValueError(f"|pi|={sum(p)} must equal d*n={d * n}")


def plethysm_mult(pi: Sequence[int], d: int, n: int) -> int:
    """mult(S_pi, S^d(S^n V)) for any V with dim >= l(pi); exact."""
    p = normalize_partition(pi)
    _check_degrees(p, d, n)
    weights = _plethysm_cycle_weights(d, n)  # refuses before any column
    col = _column(p)
    total = sum(w * col[i] for i, w in weights)
    return _exact_quotient(total, factorial(d) * factorial(n) ** d)


# ---------------------------------------------------------------------------
# Obstructions
# ---------------------------------------------------------------------------


class ObstructionReport(NamedTuple):
    pi: Partition
    d: int
    n: int
    mult: int
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
