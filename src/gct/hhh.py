"""The Hermite--Hadamard--Howe map h_{d,n}: S^d(S^n W) -> S^n(S^d W).

Basis conventions: a basis element of S^d(S^n C^v) is a multiset of d
degree-n exponent tuples, stored as a tuple sorted in descending grevlex
(leading monomial first); bases are sorted the same way.  The map sends

    z_{m_1} ... z_{m_d}  |->  (1/n!)^d  sum over ordered factorizations
    t_i of each m_i into n letters of  prod_j u_{N_j},   N_j = prod_i t_i[j],

the normalization that makes the Exercise identity
h(x_1^n ... x_d^n) = (x_1 ... x_d)^n hold on the nose.

Columns are built scaled, in integers.  A sum over all n! orderings of a
row is invariant under a simultaneous relabeling of the n slots, so the
first row's letters are put in one fixed order and each later row m_i runs
over its distinct orderings only, each standing for prod_a m_i[a]! of the
n! orderings.  The column of ms is then 1/s(ms) times an integer count,

    s(ms) = prod_{i >= 2} n! / prod_a m_i[a]!,

and ``hhh_column`` returns h(ms) * s(ms): for each codomain multiset,
the number of choices of orderings of rows 2..d whose columns form it.
The count is a dynamic program over rows.  A state is the multiset of
the n partial columns: how the remaining rows extend a state depends
only on that multiset, by the same slot symmetry, so after each row the
states are sorted and equal ones merge, adding their counts.  A column
is packed by ``monomials.codec(v, d)``, so a final state is the key
``build_hhh`` gives its codomain row.  Scaling a column by the nonzero
s(ms) changes neither the rank nor the kernel's dimension; x is in ker h
exactly when D^{-1} x is in the kernel of the entries, for D = diag(s).

The blocks of h_{d,n} and h_{n,d} of one weight are scaled transposes.
Let A and B be the integer blocks of h_{d,n} and h_{n,d}, M a domain
multiset of h_{d,n} and N one of h_{n,d}, and X(M, N) the number of
d x n letter arrays whose row contents form M and column contents form N.
Fix the rows' order as in M: the n! orderings of the first row are
permuted by the column permutations, which keep the column multiset, so
each distinct ordering of it is the first row of equally many arrays, A[N][M]
of them; and the d!/aut(M) orders of the rows give disjoint sets of arrays.
So X(M, N) = A[N][M] d! n! / phi(M), where phi(M) = aut(M) prod_a M[0][a]!
and aut(M) is the product of the factorials of the multiplicities in M.
Transposing the arrays counts the same set as X(N, M) = B[M][N] d! n! / phi(N).
Hence A[N][M] phi(N) = B[M][N] phi(M), the supports are transposes, and

    h[N][M] = A[N][M] / s(M) = B[M][N] phi(M) / (phi(N) s(M)).

h is GL(W)-equivariant, so its matrix is block diagonal with respect to
the torus-weight grading, and permuting variables identifies blocks with
permuted weights; kernel dimensions are therefore kept by dominant weight
and summed with orbit multiplicities.  One block decides the whole map.
Write dn = qv + r with 0 <= r < v, and mu0 = (q+1)^r q^(v-r), the flattest
dominant weight.  Every partition lambda of dn with at most v parts
dominates mu0, so the Kostka number K_{lambda,mu0} is at least 1: every
irreducible polynomial GL_v-module of degree dn has a nonzero mu0 weight
space, and a polynomial GL_v-module of degree dn is zero exactly when its
mu0 weight space is.  At each weight w the sequence

    0 -> (ker h)_w -> S^d(S^n W)_w -> S^n(S^d W)_w -> (coker h)_w -> 0

is exact, and ker h and coker h are polynomial modules of degree dn.  So
h is injective exactly when its mu0 block has full column rank, and onto
exactly when that block has full row rank; then (ker h)_w has dimension
dom_w - cod_w, the two sides' counts, at every weight w.  Only when the
mu0 block has neither full rank is every dominant-weight block built and
eliminated; the rank of an injective or onto map is the dimension of its
domain or codomain, with no other weight counted.  All of this is exact,
not an approximation; tests check it against the assembled full matrix
and against every block's elimination on small cases.  Only weight
blocks are ever built, each as a ``flatten.SparseMatrix``: a column per
domain multiset, and a row per codomain multiset that some column
reaches, keyed by its packed tuple.  Only the domain is listed; the
codomain is counted.

A block is admitted by the capacity rule of the package,
``flatten.check_capacity``, on its predicted sizes and before the domain
is listed: its domain is the width elimination pays for, its codomain the
height.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial
from operator import add, sub
from typing import Dict, List, Sequence, Tuple

from .flatten import SparseMatrix, check_capacity
from .monomials import Exponent, codec, monomial_count
from .reptheory import (
    Partition,
    count_weight_multisets,
    decompose_weight_dims,
    multiset_basis,
    normalize_partition,
    partitions,
)

Multiset = Tuple[Exponent, ...]


# ---------------------------------------------------------------------------
# Bases
# ---------------------------------------------------------------------------


def predicted_block_size(d: int, n: int, v: int, weight: Sequence[int]) -> Tuple[int, int]:
    """(domain, codomain) basis sizes of the ``weight`` block, no building."""
    w = tuple(int(x) for x in weight)
    return (
        count_weight_multisets(d, n, v, w),
        count_weight_multisets(n, d, v, w),
    )


# ---------------------------------------------------------------------------
# Column construction
# ---------------------------------------------------------------------------


def _letters(m: Exponent, d: int) -> Tuple[int, ...]:
    """The letters of m, ascending, letter a packed as x_a by ``codec(v, d)``."""
    v = len(m)
    pack = codec(v, d)[0]
    return tuple(pack((0,) * a + (1,) + (0,) * (v - 1 - a)) for a, e in enumerate(m) for _ in range(e))


@lru_cache(maxsize=None)
def _distinct_orderings(m: Exponent, d: int) -> Tuple[Tuple[int, ...], ...]:
    """Distinct sequences of the packed ``_letters(m, d)`` (multiset
    permutations), ascending, at a cost that tracks their number, not n!."""
    letters = _letters(m, d)
    n = len(letters)
    out: List[Tuple[int, ...]] = []
    seq: List[int] = []
    counts = Counter(letters)
    keys = sorted(counts)

    def rec() -> None:
        if len(seq) == n:
            out.append(tuple(seq))
            return
        for a in keys:
            if counts[a]:
                counts[a] -= 1
                seq.append(a)
                rec()
                seq.pop()
                counts[a] += 1

    rec()
    return tuple(out)


def hhh_column(ms: Multiset, n: int, v: int) -> Dict[Tuple[int, ...], int]:
    """Image of the domain basis element ``ms``, times s(ms), as {codomain
    multiset: integer coefficient}, the multiset as the ascending tuple of
    its monomials packed by ``codec(v, d)`` (descending grevlex).

    A state is the sorted tuple of the n packed partial columns, each the
    sum of its letters; no entry passes d, so no field carries.
    """
    d = len(ms)
    states: Dict[Tuple[int, ...], int] = {_letters(ms[0], d): 1}
    for m in ms[1:]:
        orderings = _distinct_orderings(m, d)
        merged: Dict[Tuple[int, ...], int] = {}
        for state, count in states.items():
            for o in orderings:
                key = tuple(sorted(map(add, state, o)))
                merged[key] = merged.get(key, 0) + count
        states = merged
    return states


# ---------------------------------------------------------------------------
# The assembled map
# ---------------------------------------------------------------------------


def sym_sym_dim(outer: int, inner: int, v: int) -> int:
    """dim S^outer(S^inner C^v)."""
    return monomial_count(monomial_count(v, inner), outer)


def build_hhh(d: int, n: int, v: int, weight: Sequence[int]) -> SparseMatrix:
    """Assemble the ``weight`` block of h_{d,n} on C^v.

    Column c is the c-th domain multiset (d degree-n monomials) of
    ``multiset_basis(d, n, v, weight)`` and holds ``hhh_column``, its image
    scaled by s(ms); each row is keyed by the packed codomain multiset
    ``hhh_column`` gives it.  The shape comes from the predicted sizes,
    which ``check_capacity`` admits before the domain is listed.
    """
    if d < 1 or n < 1 or v < 1:
        raise ValueError("d, n, v must be positive")
    w = tuple(int(x) for x in weight)
    dom, cod = predicted_block_size(d, n, v, w)
    check_capacity(f"h_{{{d},{n}}} on C^{v}, weight {w}", dom, cod)
    rows: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for c, ms in enumerate(multiset_basis(d, n, v, w)):
        for key, val in hhh_column(ms, n, v).items():
            rows.setdefault(key, {})[c] = val
    return SparseMatrix(rows, (cod, dom))


def dominant_weights(total: int, v: int) -> List[Tuple[int, ...]]:
    """Partitions of ``total`` with at most v parts, zero-padded to length v,
    in descending lexicographic order."""
    return [p + (0,) * (v - len(p)) for p in partitions(total, max_len=v)]


def flattest_weight(total: int, v: int) -> Tuple[int, ...]:
    """The dominance-minimal dominant weight (q+1)^r q^(v-r), total = qv + r.

    When v divides total it is the weight-zero weight of sl_v, the block
    where the Weyl group S_v still acts.
    """
    q, r = divmod(total, v)
    return (q + 1,) * r + (q,) * (v - r)


def kernel_dimension(dims: Dict[Partition, int], v: int) -> int:
    """dim ker h_{d,n} on C^v from ``kernel_dims_by_weight``: each dominant
    weight counts once per distinct permutation of its v entries."""
    total = 0
    for part, k in dims.items():
        orbit = factorial(v) // factorial(v - len(part))
        for c in Counter(part).values():
            orbit //= factorial(c)
        total += orbit * k
    return total


def hhh_rank(d: int, n: int, v: int) -> int:
    """Exact rank of h_{d,n} on C^v: dim S^d(S^n C^v) minus the kernel.

    The flattest block decides it as it decides ``kernel_dims_by_weight``:
    an injective map has the rank of its domain and an onto map that of
    its codomain, so neither counts another weight.
    """
    # the block first: _flattest_block_rank refuses d, n, v < 1 before
    # sym_sym_dim would count with a negative degree
    rank, cod, dom = _flattest_block_rank(d, n, v)
    if rank in (dom, cod):
        return min(sym_sym_dim(d, n, v), sym_sym_dim(n, d, v))
    return sym_sym_dim(d, n, v) - kernel_dimension(_nullities_by_weight(d, n, v), v)


def _flattest_block_rank(d: int, n: int, v: int) -> Tuple[int, int, int]:
    """(rank, codomain, domain) of the flattest weight block of h_{d,n} on
    C^v, refused before it is built if it is too large (see
    ``kernel_dims_by_weight``)."""
    if d < 1 or n < 1 or v < 1:
        raise ValueError("d, n, v must be positive")
    flattest = flattest_weight(d * n, v)
    check_capacity(
        f"h_{{{d},{n}}} on C^{v}, dominant weight {flattest}",
        *predicted_block_size(d, n, v, flattest),
    )
    block = build_hhh(d, n, v, flattest)
    return (block.rank(), *block.shape)


def kernel_dims_by_weight(d: int, n: int, v: int) -> Dict[Partition, int]:
    """dim ker(h_{d,n}) restricted to each dominant weight of dn.

    Oversized blocks are refused before any is built, from one count: the
    flattest dominant weight mu0 is the dominance minimum, and weight
    multiplicities of a polynomial GL_v-module never shrink down the
    dominance order (Kostka numbers K_{pi,mu} are monotone in mu), so its
    block is the largest on both sides.

    The same block then answers the whole map.  Every pi of dn with at most
    v parts dominates mu0, so K_{pi,mu0} >= 1, and a polynomial module of
    degree dn is zero exactly when its mu0 weight space is.  Weight by
    weight, 0 -> ker -> domain -> codomain -> coker -> 0 is exact.  So the
    mu0 block has full column rank exactly when h is injective (every
    weight gets 0), and full row rank exactly when h is onto (weight w gets
    dom_w - cod_w from ``predicted_block_size``).  Otherwise every block is
    eliminated by ``_nullities_by_weight``.
    """
    rank, cod, dom = _flattest_block_rank(d, n, v)
    if rank == dom:
        return {normalize_partition(w): 0 for w in dominant_weights(d * n, v)}
    if rank == cod:
        return {
            normalize_partition(w): sub(*predicted_block_size(d, n, v, w))
            for w in dominant_weights(d * n, v)
        }
    return _nullities_by_weight(d, n, v)


def _nullities_by_weight(d: int, n: int, v: int) -> Dict[Partition, int]:
    """dim ker(h_{d,n}) at each dominant weight, each block built and
    eliminated: the route for a map that is neither injective nor onto."""
    out: Dict[Partition, int] = {}
    for w in dominant_weights(d * n, v):
        block = build_hhh(d, n, v, w)
        out[normalize_partition(w)] = block.shape[1] - block.rank()
    return out


def kernel_character(d: int, n: int, v: int) -> Dict[Partition, int]:
    """Multiplicities of S_pi in ker h_{d,n} on C^v (nonzero entries only).

    ker h_{d,n} = I_d(Ch_n(C^v*)), the degree-d ideal of the Chow variety.
    Computed from per-weight kernel dimensions by Weyl's character formula
    (``reptheory.decompose_weight_dims``).
    """
    return decompose_weight_dims(kernel_dims_by_weight(d, n, v))
