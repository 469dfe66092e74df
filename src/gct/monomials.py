"""Monomials of one degree: their order, their listing, their count, their code.

The package's one monomial order is *graded reverse lexicographic* order
(grevlex), descending, with ``x1 > x2 > ... > xv``; every basis
enumeration, serialization and elimination uses it, so results are
bit-reproducible.  A monomial is an exponent tuple of length v.

This module imports nothing from ``gct``: the polynomial layer
(``gct.poly``), the weight counts of ``gct.reptheory`` and the h_{d,n}
blocks of ``gct.hhh`` all read it, and a process that builds no
polynomial runs no polynomial code to list a monomial.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul
from typing import List, Tuple

Exponent = Tuple[int, ...]


def grevlex_key(exps: Exponent):
    """Sort key realizing *descending* grevlex when used with sorted().

    Higher total degree sorts first; within a degree, ``m`` precedes ``m'``
    iff the last nonzero entry of ``m - m'`` is negative, which is
    equivalent to ``reversed(m) < reversed(m')`` lexicographically.
    """
    return (-sum(exps), tuple(reversed(exps)))


@lru_cache(maxsize=8)  # polarize lists degrees 0 and k; an h_{d,n} block n, and d to count rows
def monomials_of_degree(num_vars: int, degree: int) -> Tuple[Exponent, ...]:
    """All exponent tuples of the given total degree, descending grevlex."""
    if num_vars == 0:
        return ((),) if degree == 0 else ()
    out: List[Exponent] = []

    def rec(prefix: List[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, num_vars)
    return tuple(sorted(out, key=grevlex_key))


def monomial_count(num_vars: int, degree: int) -> int:
    """len(monomials_of_degree(num_vars, degree)), without listing them."""
    if num_vars == 0:
        return int(degree == 0)
    return comb(num_vars + degree - 1, degree)


def codec(num_vars: int, bound: int):
    """(pack, unpack) for exponent tuples with every entry at most ``bound``:
    variable i is the bit field [i*b, (i+1)*b) of one int, b =
    bound.bit_length() (at least 1), so adding monomials within ``bound``
    never carries from one field into the next; within a degree,
    ascending codes are descending grevlex."""
    b = max(1, bound.bit_length())
    shifts, mask = range(0, b * num_vars, b), (1 << b) - 1
    weights = [1 << s for s in shifts]
    return (lambda e: sum(map(mul, e, weights))), (
        lambda code: tuple(code >> s & mask for s in shifts))
