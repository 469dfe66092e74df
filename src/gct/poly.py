"""Exact sparse multivariate polynomial arithmetic over the rationals.

Conventions used throughout the package:

* A polynomial in ``v`` variables is a sparse dictionary mapping exponent
  tuples (length ``v``, non-negative ints) to nonzero ``Fraction``
  coefficients.  Coefficients are ``Fraction`` at the interface: the
  public constructors, ``scale`` and ``evaluate`` take ints and Fractions
  and refuse a float or any other non-rational with ``TypeError``, as the
  arithmetic operators refuse any operand but a Polynomial (or, for ``*``,
  a rational scalar).  Exponents are ints.  Every product of polynomials
  runs on one kernel, ``_mul_into``, behind ``sum_of_products`` (which
  ``*`` and ``**`` call) and ``det_polymatrix``: packed monomials, one int
  per monomial and one bit field per variable sized by a degree bound
  proved before any product, so a product of monomials is one integer
  addition, with int numerators over one common denominator divided out
  once per result term.  ``apply_diff`` is the one derivative kernel, on
  int numerators over one denominator per operand; sums add the Fractions
  of shared monomials only.  All arithmetic is exact; there are no floats.
* Monomials are ordered by *graded reverse lexicographic* order (grevlex),
  descending, with ``x1 > x2 > ... > xv``.  Every basis enumeration,
  serialization, and elimination in the package uses this single global
  order so that results are bit-reproducible.  The order, the listing and
  count of the monomials of one degree and their packed code (``codec``)
  live in ``gct.monomials``, which imports nothing from ``gct``, so the
  layers that only list or count monomials run no polynomial code.
* Derivatives are plain partial derivatives (no divided-power
  normalization).  This is what makes the classical Cayley identity
  ``det_n(d/dx) det_n(x)^{s+1} = (s+n)!/s! det_n(x)^s`` hold with the
  stated constant.
* Matrices of scalars use the one row format of ``gct.flatten``: rows
  ``{column: coefficient}`` holding nonzero entries only.
  ``PolyMatrix.evaluate`` returns such rows, ``shifted_partials`` those of
  every span of products m'' * d^{m'} p, and ``polarize`` its shift-0 rows
  as a ``gct.flatten.SparseMatrix``, keyed by packed monomial.
* Determinants of polynomial matrices (``det_polymatrix``) are computed
  division-free by dynamic programming over column subsets (Laplace
  expansion shared across rows), so every intermediate object is a
  genuine minor and a k x k determinant costs about 2^k k products, not k!.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm, perm
from numbers import Rational
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from .monomials import Exponent, codec, grevlex_key, monomial_count, monomials_of_degree


def _rational(c) -> Fraction:
    """``c`` as a Fraction; a float or any other non-rational is a TypeError."""
    if not isinstance(c, Rational):
        raise TypeError(f"scalar {c!r} is not a rational number")
    return Fraction(c)


def _numerators(terms: Dict[Exponent, Fraction], den: int = 0) -> Tuple[int, List[Tuple[Exponent, int]]]:
    """(L, [(e, c * L)]): the coefficients as ints over L, a given multiple of
    every denominator or else their lcm."""
    den = den or lcm(*(c.denominator for c in terms.values()))
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q.

    ``terms`` maps exponent tuples to nonzero Fractions.  Do not mutate the
    dict after construction; all operations return fresh objects.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Dict[Exponent, Fraction] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        clean: Dict[Exponent, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != num_vars:
                raise ValueError(f"exponent {exps!r} has wrong arity (want {num_vars})")
            if not all(isinstance(e, int) for e in exps):
                raise TypeError(f"exponent {exps!r} is not a tuple of ints")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps!r}")
            c = _rational(coeff)
            if c != 0:
                clean[tuple(map(int, exps))] = c
        self.num_vars = num_vars
        self.terms = clean

    @staticmethod
    def _trusted(num_vars: int, terms: Dict[Exponent, Fraction]) -> "Polynomial":
        """No checks: ``terms`` already maps valid exponents to nonzero Fractions."""
        p = object.__new__(Polynomial)
        p.num_vars, p.terms = num_vars, terms
        return p

    @staticmethod
    def _over(num_vars: int, acc: Dict[Exponent, int], den: int) -> "Polynomial":
        """The polynomial sum acc[e]/den x^e, zero numerators dropped."""
        return Polynomial._trusted(num_vars, {e: Fraction(c, den) for e, c in acc.items() if c})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(num_vars: int) -> "Polynomial":
        return Polynomial(num_vars, {})

    @staticmethod
    def constant(num_vars: int, c) -> "Polynomial":
        return Polynomial(num_vars, {(0,) * num_vars: c})

    @staticmethod
    def one(num_vars: int) -> "Polynomial":
        return Polynomial.constant(num_vars, 1)

    @staticmethod
    def variable(index: int, num_vars: int) -> "Polynomial":
        if not 0 <= index < num_vars:
            raise ValueError("variable index out of range")
        e = [0] * num_vars
        e[index] = 1
        return Polynomial(num_vars, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(exps: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(len(exps), {tuple(exps): coeff})

    @staticmethod
    def linear_form(coeffs: Sequence) -> "Polynomial":
        """Linear form sum_i coeffs[i] * x_i in len(coeffs) variables."""
        v = len(coeffs)
        terms: Dict[Exponent, Fraction] = {}
        for i, c in enumerate(coeffs):
            c = _rational(c)
            if c != 0:
                e = [0] * v
                e[i] = 1
                terms[tuple(e)] = c
        return Polynomial(v, terms)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def num_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        """Terms in descending grevlex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def leading_term(self) -> Tuple[Exponent, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = min(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def as_scalar(self) -> Fraction:
        """The value of a constant polynomial (zero included)."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            if sum(e) == 0:
                return c
        raise ValueError("polynomial is not constant")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise ValueError(f"arity mismatch: {self.num_vars} vs {other.num_vars}")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:  # s == 0 only where self held -c
                del terms[e]
        return Polynomial._trusted(self.num_vars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other) if isinstance(other, Rational) else NotImplemented
        return sum_of_products(self.num_vars, [(1, (self, other))])

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _rational(c)
        if c == 0:
            return Polynomial.zero(self.num_vars)
        return Polynomial._trusted(self.num_vars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers not supported")
        return sum_of_products(self.num_vars, [(1, (self,) * n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.num_vars:
            raise ValueError("point has wrong arity")
        pt = [_rational(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for x, k in zip(pt, e):
                if k:
                    val *= x**k
            total += val
        return total

    # -- display ------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            factors = [
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            ]
            mono = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                piece = mono
            elif c == -1 and factors:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}" if factors else f"{c}"
            chunks.append(piece)
        out = chunks[0]
        for piece in chunks[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out


# ---------------------------------------------------------------------------
# Packed monomials: chains of products and sums
# ---------------------------------------------------------------------------


def _packed(p: Polynomial, pack, den: int) -> Dict[int, int]:
    """p as {packed monomial: numerator over ``den``}, a multiple of every denominator of p."""
    return {pack(e): c for e, c in _numerators(p.terms, den)[1]}


def _mul_into(acc: Dict[int, int], a: Dict[int, int], b: Dict[int, int], sign: int = 1) -> Dict[int, int]:
    """acc += sign * a * b on packed terms; sums that cancel stay as zeros."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for m1, c1 in a.items():
        c1 *= sign
        for m2, c2 in b.items():
            e = m1 + m2
            acc[e] = get(e, 0) + c1 * c2
    return acc


def sum_of_products(num_vars: int, terms: Sequence[Tuple[object, Sequence[Polynomial]]]) -> Polynomial:
    """sum_i c_i * prod_j f_ij for ``terms`` = [(c_i, [f_i1, f_i2, ...]), ...].

    Every factor is packed over the lcm D of all factor denominators, so
    term i is over den(c_i) * D^len_i; each chain of products runs on packed
    ints and adds its last product straight into one accumulator over the
    lcm of those, divided out once per result term.
    """
    terms = [(_rational(c), fs) for c, fs in terms]
    for _, fs in terms:
        for f in fs:
            if f.num_vars != num_vars:
                raise ValueError(f"arity mismatch: {num_vars} vs {f.num_vars}")
    terms = [(c, fs) for c, fs in terms if c and all(f.terms for f in fs)]
    bound = max((sum(f.degree() for f in fs) for _, fs in terms), default=0)
    den = lcm(*(c.denominator for _, fs in terms for f in fs for c in f.terms.values()))
    dens = [c.denominator * den ** len(fs) for c, fs in terms]
    common = lcm(*dens)
    pack, unpack = codec(num_vars, bound)
    acc: Dict[int, int] = {}
    for (c, fs), d in zip(terms, dens):
        chain = {0: c.numerator * (common // d)}
        for f in fs[:-1]:
            chain = _mul_into({}, chain, _packed(f, pack, den))
        _mul_into(acc, chain, _packed(fs[-1], pack, den) if fs else {0: 1})
    return Polynomial._over(num_vars, {unpack(e): c for e, c in acc.items() if c}, common)


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


class PolyMatrix:
    """A square matrix of polynomials over a shared variable space."""

    __slots__ = ("num_vars", "entries")

    def __init__(self, num_vars: int, entries: Tuple[Tuple[Polynomial, ...], ...]):
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for p in row:
                if p.num_vars != num_vars:
                    raise ValueError("entries must share the variable space")
        self.num_vars = num_vars
        self.entries = entries

    @property
    def size(self) -> int:
        return len(self.entries)

    def evaluate(self, point: Sequence) -> List[Dict[int, Fraction]]:
        """The scalar matrix of every entry at ``point``, as sparse rows
        ``{column: nonzero value}``."""
        return [
            {j: x for j, x in enumerate(p.evaluate(point) for p in row) if x}
            for row in self.entries
        ]


def det_polymatrix(m: PolyMatrix, rows: Optional[Sequence[int]] = None,
                   cols: Optional[Sequence[int]] = None) -> Polynomial:
    """Determinant of (a submatrix of) a polynomial matrix, division-free.

    Dynamic programming over column subsets: level i holds the nonzero
    minors on rows[:i] and the i-subsets of cols (as bitmasks), so the full
    determinant costs sum_i C(k,i)*i polynomial multiplications instead of
    k!.  The selected entries are packed once over the lcm D of their
    denominators, every minor stays packed (level i over D^i), and the
    result is divided by D^k once per term.
    """
    rows = range(m.size) if rows is None else rows
    cols = list(range(m.size) if cols is None else cols)
    picked = [[m.entries[r][c] for c in cols] for r in rows]
    k = len(picked)
    if k != len(cols):
        raise ValueError("determinant needs a square selection")
    # a term of a minor takes one entry per row: its degree is at most the sum of row maxima
    bound = sum(max((p.degree() or 0 for p in row), default=0) for row in picked)
    den = lcm(*(c.denominator for row in picked for p in row for c in p.terms.values()))
    pack, unpack = codec(m.num_vars, bound)
    minors: Dict[int, Dict[int, int]] = {0: {0: 1}}
    for i, row in enumerate(picked):
        entries = [_packed(p, pack, den) for p in row]
        nxt: Dict[int, Dict[int, int]] = {}
        for subset, minor in minors.items():
            for j, entry in enumerate(entries):
                if entry and not subset >> j & 1:
                    # Laplace along row i: sign (-1)^(i + chosen columns left of j)
                    sign = -1 if (i + (subset & ((1 << j) - 1)).bit_count()) & 1 else 1
                    _mul_into(nxt.setdefault(subset | 1 << j, {}), entry, minor, sign)
        minors = {t: kept for t, acc in nxt.items() if (kept := {e: c for e, c in acc.items() if c})}
    full = minors.get((1 << k) - 1, {})
    return Polynomial._over(m.num_vars, {unpack(e): c for e, c in full.items()}, den**k)


# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------


def apply_diff(op: Polynomial, target: Polynomial) -> Polynomial:
    """Apply ``op`` as a constant-coefficient differential operator.

    Variable ``x_i`` of ``op`` acts as d/dx_i (plain partials) on
    ``target``.  Both polynomials must share an arity.  The result has the
    same arity; use ``.as_scalar()`` when the degrees match.
    """
    if op.num_vars != target.num_vars:
        raise ValueError("operator and target arities differ")
    d_op, op_terms = _numerators(op.terms)
    d_t, t_terms = _numerators(target.terms)
    acc: Dict[Exponent, int] = {}
    for e_op, c_op in op_terms:
        for e_t, c_t in t_terms:
            c = c_op * c_t
            for k_op, k_t in zip(e_op, e_t):
                if k_op > k_t:
                    break
                if k_op:
                    c *= perm(k_t, k_op)  # falling factorial k_t (k_t-1) ... (k_t-k_op+1)
            else:
                e = tuple(map(sub, e_t, e_op))
                acc[e] = acc.get(e, 0) + c
    return Polynomial._over(op.num_vars, acc, d_op * d_t)


# ---------------------------------------------------------------------------
# Flattenings (partial derivative / catalecticant matrices)
# ---------------------------------------------------------------------------


def shifted_partials(p: Polynomial, k: int, shift: int) -> Dict[int, Dict[int, object]]:
    """The rows of span{m'' * d^{m'} p}, the catalecticant P_{k,d-k} at shift
    0 and the orbit tangent span{x_i dp/dx_j} of gl(v) at k = shift = 1.

    Column i * C(v-1+shift, shift) + j is the i-th degree-k partial times the
    j-th degree-``shift`` monomial, both in descending grevlex.  Each row is
    keyed by its monomial, packed by ``codec(v, d - k + shift)``, and holds
    its nonzero entries only, ints where integral.
    """
    v = p.num_vars
    pack, _ = codec(v, max((p.degree() or 0) - k + shift, 0))
    shifts = [pack(s) for s in monomials_of_degree(v, shift)]
    rows: Dict[int, Dict[int, object]] = {}
    for i, m in enumerate(monomials_of_degree(v, k)):
        terms = [(pack(e), c.numerator if c.denominator == 1 else c)
                 for e, c in apply_diff(Polynomial.monomial(m), p).terms.items()]
        for col, s in enumerate(shifts, i * len(shifts)):
            for e, c in terms:
                rows.setdefault(e + s, {})[col] = c
    return rows


def polarize(p: Polynomial, k: int) -> "SparseMatrix":
    """Catalecticant P_{k,d-k}: column for monomial m is apply_diff(m, p).

    ``p`` must be homogeneous of degree d; any 0 <= k <= d is accepted,
    the informative range being 1..d-1.  The rows are
    ``shifted_partials(p, k, 0)``, keyed by degree-(d-k) monomials packed
    by ``codec(v, d - k)``; column i is the i-th degree-k monomial in
    descending grevlex.  The capacity rule of ``gct.flatten`` runs on the
    monomial counts before any row is built.
    """
    from .flatten import SparseMatrix, check_capacity  # flatten imports this module

    if p.is_zero():
        raise ValueError("polarize requires a nonzero polynomial")
    if not p.is_homogeneous():
        raise ValueError("polarize requires a homogeneous polynomial")
    d = p.degree()
    if not 0 <= k <= d:
        raise ValueError(f"polarization order k={k} out of range for degree {d}")
    v = p.num_vars
    shape = (monomial_count(v, d - k), monomial_count(v, k))
    check_capacity(f"catalecticant P_{{{k},{d - k}}} on C^{v}", shape[1], shape[0])
    return SparseMatrix(shifted_partials(p, k, 0), shape)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_record(p: Polynomial) -> dict:
    """JSON-ready record; terms in descending grevlex for reproducibility."""
    return {
        "num_vars": p.num_vars,
        "terms": [
            {"coeff": str(c), "exps": list(e)} for e, c in p.sorted_terms()
        ],
    }


def from_record(rec: dict) -> Polynomial:
    # a malformed file is a bad argument (ValueError), not a TypeError inside the reader
    if not (isinstance(rec, dict) and type(rec.get("num_vars")) is int
            and isinstance(rec.get("terms"), list)):
        raise ValueError("a polynomial record is an object with an int num_vars and a list of terms")
    v = rec["num_vars"]
    terms: Dict[Exponent, Fraction] = {}
    for t in rec["terms"]:
        if not (isinstance(t, dict) and isinstance(t.get("exps"), list)):
            raise ValueError(f"term {t!r} is not an object with a list of exps")
        e = tuple(t["exps"])
        if not all(type(x) is int for x in e):
            raise ValueError(f"exponents {t['exps']!r} are not all integers")
        if "coeff" not in t:
            raise ValueError(f"term {t!r} has no coeff")
        c = Fraction(str(t["coeff"]))
        if c != 0:
            terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial(v, terms)


def dumps(p: Polynomial) -> str:
    return json.dumps(to_record(p), indent=2) + "\n"


def loads(text: str) -> Polynomial:
    return from_record(json.loads(text))
