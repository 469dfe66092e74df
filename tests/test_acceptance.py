"""Acceptance criteria.

Each test checks one numbered criterion exactly (rational arithmetic
throughout; the only tolerances are wall-clock budgets, asserted where
the criterion states one) and appends a single human-readable PASS line
to the report printed at the end of the pytest run.

Two criteria are asserted against corrected values with the discrepancy
stated in the printed line and documented in the decisions ledger:
stabilizer_lie_dim(P_Lambda(3)) = 17 (not 15), and cp_9 = -2 det_3^3
(not +2); see notes #7 and #8 there.
"""

import random
import time
from fractions import Fraction
from math import comb

from gct import geometry as geo
from gct import hhh, latin, reptheory, zoo
from gct.flatten import CapacityError
from gct.poly import polarize

from conftest import ACCEPTANCE_LINES
from test_latin import alon_tarsi_count
from test_reptheory import dimension, occurrence_obstruction_test


def record(num, ok, text, elapsed, budget=None):
    stamp = f"{elapsed:.2f}s" + (f" < {budget:.0f}s" if budget else "")
    ACCEPTANCE_LINES.append(
        f"criterion {num:>2}  {'PASS' if ok else 'FAIL'}  {text}  [{stamp}]"
    )
    assert ok, f"criterion {num}: {text}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_01_hadamard_h33_rank():
    t0 = time.monotonic()
    rank = hhh.hhh_rank(3, 3, 3)
    dim = comb(comb(3 + 2, 3) + 2, 3)
    elapsed = time.monotonic() - t0
    record(
        1,
        rank == 220 and dim == 220,
        "h_{3,3} on C^3 has rank 220 = dim (kernel 0)",
        elapsed,
        60,
    )


def test_criterion_02_hermite_reciprocity():
    t0 = time.monotonic()
    ok = True
    for d in range(1, 10):
        for n in range(1, 10):
            if d + n > 10:
                continue
            dim = comb(n + d, d)  # = dim S^d(S^n C^2) = dim S^n(S^d C^2)
            ok = ok and hhh.hhh_rank(d, n, 2) == dim
    elapsed = time.monotonic() - t0
    record(
        2,
        ok,
        "h_{d,n} on C^2 bijective for all d+n <= 10 (rank = C(n+d,d))",
        elapsed,
        60,
    )


def test_criterion_03_rank_duality():
    t0 = time.monotonic()
    ok = True
    pairs = [(d, n) for d in range(1, 13) for n in range(d + 1, 13) if d * n <= 12]
    for d, n in pairs:
        for v in (2, 3, 4):
            ok = ok and hhh.hhh_rank(d, n, v) == hhh.hhh_rank(n, d, v)
    elapsed = time.monotonic() - t0
    record(
        3,
        ok,
        f"rank h_(d,n) = rank h_(n,d) on C^v for {len(pairs)} pairs dn<=12, v<=4",
        elapsed,
    )


def test_criterion_04_flattening_ranks():
    t0 = time.monotonic()
    ok = True
    # middle catalecticants of det_n and perm_n: rank C(n, floor(n/2))^2
    for n in (3, 4):
        k = n // 2
        want = comb(n, k) ** 2
        ok = ok and polarize(zoo.det(n), k).rank() == want
        ok = ok and polarize(zoo.perm(n), k).rank() == want
    # (x_1...x_n)_{k,n-k} has rank C(n,k)
    for n in range(1, 7):
        p = zoo.chow(n)
        for k in range(1, n):
            ok = ok and polarize(p, k).rank() == comb(n, k)
    elapsed = time.monotonic() - t0
    record(
        4,
        ok,
        "catalecticants: det/perm middles 9 and 36; chow_n ranks C(n,k), n<=6",
        elapsed,
        120,
    )


def test_criterion_05_decomposition_witnesses():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 6):
        dec = zoo.ryser_decomposition(n)
        ok = ok and len(dec.terms) == 2 ** (n - 1)
        ok = ok and zoo.verify_chow(dec, zoo.perm(n)).ok
    for n in range(1, 7):
        decf = zoo.fischer_decomposition(n)
        ok = ok and len(decf.terms) == 2 ** (n - 1)
        ok = ok and zoo.verify_waring(decf, zoo.chow(n)).ok
    for m in range(1, 7):
        for k in range(1, m + 1):
            decb = zoo.benor_decomposition(m, k)
            ok = ok and len(decb.terms) == m
            ok = ok and zoo.verify_chow(decb, zoo.padded_elem(m, k)).ok
    elapsed = time.monotonic() - t0
    record(
        5,
        ok,
        "Ryser n<=5, Fischer n<=6, Ben-Or m<=6 (all k) verify; terms 2^(n-1)/2^(n-1)/m",
        elapsed,
    )


def test_criterion_06_alon_tarsi():
    t0 = time.monotonic()
    at2 = alon_tarsi_count(2)
    at3 = alon_tarsi_count(3)
    at4 = alon_tarsi_count(4)
    red4 = latin.alon_tarsi_count_reduced(4)
    ok = (
        at2.difference == 2
        and at3.difference == 0
        and at4.total == 576
        and at4.difference == 576
        and at4.total == 4 * 24 * 6  # 4 * 4! * 3! reduced-square cross-check
        and (red4.count_plus, red4.count_minus) == (at4.count_plus, at4.count_minus)
    )
    elapsed = time.monotonic() - t0
    record(
        6,
        ok,
        "Alon-Tarsi: diff 2 (n=2), 0 (n=3); n=4 total 576 = 4*4!*3!, diff 576",
        elapsed,
        10,
    )


def test_criterion_07_pairings_n2():
    t0 = time.monotonic()
    ok = latin.pairing_perm_det(2) == 4 and latin.pairing_allvars_det(2) == -2
    elapsed = time.monotonic() - t0
    record(
        7,
        ok,
        "pairing_perm_det(2) = 4 != 0 and pairing_allvars_det(2) = -2 != 0",
        elapsed,
    )


def test_criterion_08_cayley_identity():
    t0 = time.monotonic()
    ok = all(geo.cayley_check(n, s) for n in (1, 2, 3) for s in (1, 2))
    elapsed = time.monotonic() - t0
    record(
        8,
        ok,
        "Cayley det(d/dx) det^(s+1) = ((s+n)!/s!) det^s, n<=3, s<=2 (six cases)",
        elapsed,
        300,
    )


def test_criterion_09_sfturbo():
    t0 = time.monotonic()
    r3 = geo.verify_sfturbo(3)  # cp1, cp3, cp2_negative, cp8, cp9
    r4 = geo.verify_sfturbo(4)  # cp1, cp3, cp2_negative
    names3 = " ".join(c.name for c in r3.checks)
    ok = (
        r3.ok
        and r4.ok
        and "cp_8" in names3
        and "cp_9" in names3
        and any("degree 2" in c.name for c in r4.checks if "cp_3" in c.name)
    )
    elapsed = time.monotonic() - t0
    record(
        9,
        ok,
        "H(det_v): cp_1=0, det|cp_3; v=3 cp_8=det^2*tr(AA^T), cp_9=-2det^3 "
        "(sign per ledger #8; spec says +2)",
        elapsed,
        600,
    )


def test_criterion_10_discriminant_identity():
    t0 = time.monotonic()
    ok = geo.verify_discriminant_identity()
    elapsed = time.monotonic() - t0
    record(10, ok, "det(H(Delta)) = 3888*Delta^2 exactly", elapsed, 10)


def test_criterion_11_dual_dimensions():
    t0 = time.monotonic()
    ok = True
    for n in (3, 4):
        rng = random.Random(600 + n)
        for _ in range(3):
            w = geo.sample_det_smooth_zero(n, rng)
            ok = ok and geo.dual_dimension_at(zoo.det(n), w) == 2 * n - 2
    for m in (3, 4):
        w = geo.perm_special_point(m)
        ok = ok and geo.dual_dimension_at(zoo.perm(m), w) == m * m - 2
    elapsed = time.monotonic() - t0
    record(
        11,
        ok,
        "dual dims: det_n -> 2n-2 at sampled rank-(n-1) zeros (n=3,4); "
        "perm_m -> m^2-2 at special points (m=3,4)",
        elapsed,
    )


def test_criterion_12_stabilizer_dims():
    t0 = time.monotonic()
    ok = (
        geo.stabilizer_lie_dim(zoo.det(3)) == 16
        and geo.stabilizer_lie_dim(zoo.perm(3)) == 4
        and geo.stabilizer_lie_dim(zoo.chow(3)) == 2
        and geo.stabilizer_lie_dim(zoo.fermat(3, 3)) == 0
        and geo.stabilizer_lie_dim(zoo.p_lambda(3)) == 17
    )
    elapsed = time.monotonic() - t0
    record(
        12,
        ok,
        "stab dims 16/4/2/0; P_Lambda(3) -> 17 "
        "(spec lists 15; impossible by orbit dimension - ledger #7)",
        elapsed,
        60,
    )


def test_criterion_13_representation_calculus():
    t0 = time.monotonic()
    rng = random.Random(13)
    ok = True
    # 100 random triples, sizes up to 6: three-index symmetry and sk <= k
    for _ in range(100):
        n = rng.randint(2, 6)
        parts = list(reptheory.partitions(n))
        a, b, c = (rng.choice(parts) for _ in range(3))
        k = reptheory.kronecker(a, b, c)
        ok = ok and k == reptheory.kronecker(b, c, a) == reptheory.kronecker(c, a, b)
        ok = ok and reptheory.symmetric_kronecker(a, b) <= reptheory.kronecker(a, b, b)
    # hook-length dimensions against Murnaghan-Nakayama at the identity
    for size in range(1, 11):
        for pi in reptheory.partitions(size):
            ok = ok and dimension(pi) == reptheory.character(
                pi, (1,) * size
            )
    # plethysm multiplicity dimension conservation at v = 3 for dn <= 12
    for d in range(1, 13):
        for n in range(1, 13):
            if d * n > 12:
                continue
            total = sum(
                reptheory.plethysm_mult(p, d, n) * reptheory.schur_dimension(p, 3)
                for p in reptheory.partitions(d * n, max_len=3)
            )
            ok = ok and total == comb(comb(n + 2, 2) + d - 1, d)
    elapsed = time.monotonic() - t0
    record(
        13,
        ok,
        "kron symmetry + sk<=k on 100 triples; hook dims |pi|<=10; "
        "plethysm dim conservation dn<=12 (v=3)",
        elapsed,
    )


def test_criterion_14_ikenmeyer_obstructions():
    t0 = time.monotonic()
    r10, _ = occurrence_obstruction_test((9, 9, 2, 2, 2, 2, 2, 2), 10, 3)
    r11, r11_kron = occurrence_obstruction_test((11, 11, 2, 2, 2, 2, 2, 1), 11, 3)
    ok = (
        r10.mult == 1
        and r10.sym_kron == 0
        and r10.is_occurrence_obstruction
        and r11.mult == 1
        and r11_kron == 1
        and r11.sym_kron == 0
        and r11.is_occurrence_obstruction
    )
    elapsed = time.monotonic() - t0
    record(
        14,
        ok,
        "occurrence obstructions: (9^2,2^6) d=10 mult 1, sk 0; "
        "(11^2,2^5,1) d=11 mult=k=1 > sk=0",
        elapsed,
        7200,
    )


#: ker h_{5,5} on C^5 (Ikenmeyer--Mkrtchyan): eight modules, each of
#: kernel multiplicity one
EXPECTED_KERNEL = (
    (14, 7, 2, 2),
    (13, 7, 2, 2, 1),
    (12, 7, 3, 2, 1),
    (12, 6, 3, 2, 2),
    (12, 5, 4, 3, 1),
    (11, 5, 4, 4, 1),
    (10, 8, 4, 2, 1),
    (9, 7, 6, 3),
)


def test_criterion_15_h55_capacity_reporting():
    t0 = time.monotonic()
    # the weight-zero block of h_{5,5} on C^5 has 190131 columns; the
    # expected kernel character (Ikenmeyer--Mkrtchyan) is EXPECTED_KERNEL,
    # out of reach under the default capacity caps, so the toolkit must
    # say so rather than silently skip.  Each module's multiplicity in
    # S^5(S^5 C^5) bounds the kernel's HWV space of that weight.
    ok = [reptheory.plethysm_mult(pi, 5, 5) for pi in EXPECTED_KERNEL] == [4, 1, 2, 1, 1, 1, 3, 2]
    try:
        hhh.hhh_rank(5, 5, 5)
        ok = False  # must not fit under the default caps
        size = cap = None
    except CapacityError as exc:
        size, cap = exc.size, exc.cap
        ok = (
            ok
            and size == 190131
            and size > cap
            and "dominant weight (5, 5, 5, 5, 5)" in str(exc)
        )
    dom, cod = hhh.predicted_block_size(5, 5, 5, hhh.flattest_weight(25, 5))
    ok = ok and dom == cod == 190131
    elapsed = time.monotonic() - t0
    record(
        15,
        ok,
        f"h_(5,5) weight-zero block 190131 > cap {cap}: capacity reported, "
        "expected 8 kernel partitions incl. (14,7,2,2), (13,7,2,2,1) documented, "
        "their plethysm multiplicities 4,1,2,1,1,1,3,2",
        elapsed,
        60,
    )
