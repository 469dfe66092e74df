"""The benchmark's workloads: seeded inputs, command lists and exact oracles.

A workload is an ordered list of ``Step``s.  Each step is one ``gct``
command line; ``check`` returns ``None`` when the JSON record it printed is
exactly right and a message otherwise.  A ``replay`` step reruns an earlier
cacheable step against the same cache directory and must print the very
bytes that step printed.

Every expected value is pinned here, and cross-checked against a closed
form where one exists (binomials, Weyl dimensions, minor counts), so the
oracle does not rest on the program alone.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

Check = Callable[[dict], Optional[str]]


@dataclass
class Step:
    """One command; ``replay_of`` names the step whose bytes it must repeat."""

    name: str
    args: List[str]
    check: Check
    cacheable: bool = True
    replay_of: Optional[str] = None

    @property
    def is_replay(self) -> bool:
        return self.replay_of is not None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def expect(**fields: object) -> Check:
    """The record holds exactly these fields besides ``command``."""

    def check(rec: dict) -> Optional[str]:
        got = {k: v for k, v in rec.items() if k != "command"}
        if got != fields:
            return f"expected {fields}, got {got}"
        return None

    return check


def expect_digest(digests: Dict[str, str], path: str, **fields: object) -> Check:
    """As ``expect``, plus a ``poly_digest`` that agrees across commands on ``path``."""
    exact = expect(**fields)

    def check(rec: dict) -> Optional[str]:
        rec = dict(rec)
        digest = rec.pop("poly_digest", None)
        return _same_digest(digests, path, digest) or exact(rec)

    return check


def _same_digest(digests: Dict[str, str], path: str, digest: object) -> Optional[str]:
    if not isinstance(digest, str) or not re.fullmatch(r"[0-9a-f]{64}", digest):
        return f"bad digest {digest!r}"
    seen = digests.setdefault(path, digest)
    if seen != digest:
        return f"digest of {path} changed: {seen} then {digest}"
    return None


def weyl_dimension(lam: Sequence[int], v: int) -> int:
    """dim S_lam(C^v) by the Weyl dimension formula."""
    lam = list(lam) + [0] * (v - len(lam))
    num = prod(lam[i] - lam[j] + j - i for i in range(v) for j in range(i + 1, v))
    den = prod(j - i for i in range(v) for j in range(i + 1, v))
    return num // den


def sym_dim(outer: int, inner: int, v: int) -> int:
    """dim S^outer(S^inner C^v)."""
    return comb(comb(inner + v - 1, inner) + outer - 1, outer)


def det_fraction(m: List[List[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over Q."""
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def signed_permutation(text: str, rng: random.Random) -> str:
    """Relabel a polynomial file's variables by a seeded signed permutation.

    x_i -> sign_i * x_{perm(i)} is in GL, so every rank and dimension the
    flatten-elim commands print is unchanged, while the matrices the
    program eliminates are permuted and re-signed.
    """
    rec = json.loads(text)
    v = int(rec["num_vars"])
    perm = list(range(v))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(v)]
    terms = []
    for t in rec["terms"]:
        exps = [0] * v
        sign = 1
        for i, e in enumerate(t["exps"]):
            exps[perm[i]] = e
            if e % 2 and signs[i] < 0:
                sign = -sign
        coeff = Fraction(t["coeff"]) * sign
        terms.append({"coeff": str(coeff), "exps": exps})
    return json.dumps({"num_vars": v, "terms": terms}, indent=2) + "\n"


#: two h_{5,5} kernel-module weights, largest part first, and their block widths
H55_BLOCKS = {(19, 4, 1, 1, 0): 36, (18, 5, 2, 0, 0): 40}


def trailing_relabelling(rng: random.Random, v: int) -> List[int]:
    """A seeded permutation of variables 1..v-1; variable 0 stays first.

    ``kernel_dims_by_weight`` builds dominant weights, whose largest part
    sits on variable 0.  Where that part sits changes the column builder's
    leaf count up to fifteenfold (it decides which row is pinned), so a
    free relabelling would let the seed, not the code, set the wall time.
    Relabelling the trailing variables keeps the block the library builds
    and still varies the bases the program enumerates.
    """
    rest = list(range(1, v))
    rng.shuffle(rest)
    return [0] + rest


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _with_replays(steps: List[Step]) -> List[Step]:
    """Each cacheable step, then at once its replay."""
    out = []
    for s in steps:
        out.append(s)
        if s.cacheable:
            out.append(Step(s.name + "/replay", s.args, s.check, replay_of=s.name))
    return out


def hhh_blocks(seed: int, files: Dict[str, Path]) -> List[Step]:
    """h_{d,n} ranks, a kernel character and h_{5,5} blocks: almost all build_hhh.

    Full-rank blocks (Hermite reciprocity, rank C(10,5)) sit beside the
    onto-but-not-injective h_{6,3}, whose Kostka inversion has ten nonzero
    multiplicities, and two h_{5,5} kernel-module blocks under a seeded
    relabelling.
    """
    rng = random.Random(seed)
    sigma = trailing_relabelling(rng, 5)
    char_mults = {
        "10,4,4": 1, "10,5,3": 1, "10,6,2": 1, "11,4,3": 1, "11,5,2": 1,
        "12,4,2": 1, "13,3,2": 1, "8,6,4": 1, "9,6,3": 1, "9,7,2": 1,
    }
    char_dim = sum(
        m * weyl_dimension([int(x) for x in k.split(",")], 3)
        for k, m in char_mults.items()
    )
    # h_{6,3} on C^3 is onto, so its kernel is exactly dim(domain) - dim(codomain)
    assert char_dim == sym_dim(6, 3, 3) - sym_dim(3, 6, 3) == 945
    # by Hermite reciprocity S^5(S^5 C^2) has dimension C(10,5), and h_{5,5} is injective on it
    assert sym_dim(5, 5, 2) == comb(10, 5) and sym_dim(3, 3, 3) == 220
    steps = []
    for d, n, v in ((3, 3, 3), (5, 5, 2)):
        dim = sym_dim(d, n, v)
        steps.append(
            Step(
                f"hhh rank {d} {n} {v}",
                ["hhh", "rank", str(d), str(n), str(v)],
                expect(
                    d=d, n=n, v=v, rank=dim, domain_dimension=dim,
                    codomain_dimension=sym_dim(n, d, v), kernel_dimension=0,
                ),
            )
        )
    steps.append(
        Step(
            "hhh character 6 3 3",
            ["hhh", "character", "6", "3", "3"],
            expect(d=6, n=3, v=3, kernel_multiplicities=char_mults, kernel_dimension=char_dim),
        )
    )
    for w, size in H55_BLOCKS.items():
        sw = [w[sigma[i]] for i in range(5)]
        steps.append(
            Step(
                f"hhh kernel 5 5 5 --weight {','.join(map(str, w))}",
                ["hhh", "kernel", "5", "5", "5", "--weight", ",".join(map(str, sw))],
                expect(d=5, n=5, v=5, weight=sw, shape=[size, size], kernel_dimension=0),
            )
        )
    return _with_replays(steps)


#: polynomial files of flatten-elim, made by ``gct zoo make`` then relabelled
FLATTEN_INPUTS = {"perm3": ("perm", 3), "det4": ("det", 4)}


def flatten_elim(seed: int, files: Dict[str, Path]) -> List[Step]:
    """Flattening ranks and a stabilizer: almost all of it is Bareiss elimination.

    Full column rank (shifted partials of perm3, 165 of 165) sits beside
    rank deficits (catalecticants of det4, 36 of 100 in the middle; the
    stabilizer system of det4, 226 of 256).
    """
    digests: Dict[str, str] = {}
    f = {k: str(p) for k, p in files.items()}
    # shifted partials fill all C(11,3) cubics in 9 variables, catalecticant
    # ranks of det_n count k-minors C(n,k)^2, stab(det_4) has dim 2n^2-2
    steps = [
        Step("flatten shifted perm3", ["flatten", "shifted", f["perm3"], "--k", "2", "--l", "2"],
             expect_digest(digests, f["perm3"], k=2, shift=2, dimension=comb(11, 3))),
        Step("flatten waring-lb det4", ["flatten", "waring-lb", f["det4"]],
             expect_digest(digests, f["det4"], bound=36, best_k=2,
                           ranks={str(k): comb(4, k) ** 2 for k in (1, 2, 3)})),
        Step("geo stab det4", ["geo", "stab", f["det4"]], _stab_check(digests, f["det4"], 2 * 4 * 4 - 2)),
    ]
    return _with_replays(steps)


def _stab_check(digests: Dict[str, str], path: str, dim: int) -> Check:
    def check(rec: dict) -> Optional[str]:
        m = re.fullmatch(r"<file sha256:([0-9a-f]{12})>", str(rec.get("target")))
        if m is None:
            return f"bad target {rec.get('target')!r}"
        seen = digests.get(path)
        if seen is not None and not seen.startswith(m.group(1)):
            return f"target digest {m.group(1)} disagrees with {seen}"
        return expect(target=rec["target"], stabilizer_lie_dim=dim)(rec)

    return check


def _dualdim_check(n: int, seed: int) -> Check:
    def check(rec: dict) -> Optional[str]:
        point = [Fraction(x) for x in rec.get("point", [])]
        if len(point) != n * n:
            return f"point has {len(point)} coordinates"
        matrix = [point[i * n:(i + 1) * n] for i in range(n)]
        if det_fraction(matrix) != 0:
            return "sampled point is not on the determinant hypersurface"
        # the dual of {det = 0} is the rank-one matrices: projective dim 2n-2
        return expect(
            target=f"det {n}", point=rec["point"], dual_dimension=2 * n - 2,
            point_origin=f"sampled rank-{n - 1} matrix (seed {seed})",
        )(rec)

    return check


def cli_session(seed: int, files: Dict[str, Path]) -> List[Step]:
    """Short commands, each cacheable one stored then replayed: start-up,
    cache reads beside cache writes, Murnaghan-Nakayama characters, polynomial
    products and a small Latin count, in a seeded order."""
    rng = random.Random(seed)
    dual_seed = rng.randrange(1, 10**6)
    sf3 = [
        ("cp_1 = 0", "trace of H(det_3) is 0"),
        ("det_3 | cp_3 with cofactor degree 0", "cofactor degree 0, 1 terms"),
        ("det_3 does not divide cp_2", "division fails as the theorem requires"),
        ("cp_8 = det_3^2 * trace(AA^T)  (= 2 det_3^2 Q with Q = trace(AA^T)/2)", "exact equality"),
        ("cp_9 = det(H(det_3)) = -2 det_3^3  (B. Segre, sign (-1)^{binom(3,2)})", "exact equality"),
    ]
    sf4 = [
        ("cp_1 = 0", "trace of H(det_4) is 0"),
        ("det_4 | cp_3 with cofactor degree 2", "cofactor degree 2, 16 terms"),
        ("det_4 does not divide cp_2", "division fails as the theorem requires"),
    ]

    def checks(pairs):
        return [{"detail": d, "name": n, "ok": True} for n, d in pairs]

    def obstruct(pi: str, d: int, kron: int) -> Step:
        return Step(
            f"rep obstruct d={d}", ["rep", "obstruct", pi, str(d), "3"],
            expect(pi=[int(x) for x in pi.split(",")], d=d, n=3, mult=1,
                   kronecker=kron, symmetric_kronecker=0,
                   representation_obstruction=True, occurrence_obstruction=True),
        )

    at5 = 161280  # the number of 5x5 Latin squares; odd n balances the signs
    cacheable = [
        obstruct("9,9,2,2,2,2,2,2", 10, 0),
        obstruct("11,11,2,2,2,2,2,1", 11, 1),
        Step("geo sfturbo 3", ["geo", "sfturbo", "3"], expect(v=3, checks=checks(sf3), ok=True)),
        Step("geo sfturbo 4", ["geo", "sfturbo", "4"], expect(v=4, checks=checks(sf4), ok=True)),
        Step("geo discriminant", ["geo", "discriminant"],
             expect(identity="det(H(Delta)) = 3888 * Delta^2", ok=True)),
        Step("geo cayley 3 2", ["geo", "cayley", "3", "2"],
             expect(n=3, s=2, identity="det(d/dx) det^{s+1} = ((s+n)!/s!) det^s", ok=True)),
        Step("geo dualdim det 4", ["geo", "dualdim", "det", "4", "--seed", str(dual_seed)],
             _dualdim_check(4, dual_seed)),
        Step("geo stab p_lambda 3", ["geo", "stab", "p_lambda", "3"],
             expect(target="p_lambda 3", stabilizer_lie_dim=17)),
        Step("latin pairing 3", ["latin", "pairing", "3"],
             expect(n=3, pairing="perm-det", description="differential pairing <perm_n^n, det_n^n>",
                    value="0", nonzero=False)),
        Step("latin pairing 3 --all-vars", ["latin", "pairing", "3", "--all-vars"],
             expect(n=3, pairing="allvars-det", description="coefficient pairing <prod x_ij, det_n^n>",
                    value="0", nonzero=False)),
        Step("latin count 5", ["latin", "count", "5"],
             expect(n=5, count_plus=at5 // 2, count_minus=at5 // 2, difference=0,
                    column_count_plus=at5 // 2, column_count_minus=at5 // 2,
                    column_difference=0, total=at5)),
        Step("hhh rank 3 3 3", ["hhh", "rank", "3", "3", "3"],
             expect(d=3, n=3, v=3, rank=220, domain_dimension=220,
                    codomain_dimension=220, kernel_dimension=0)),
    ]
    once = [
        Step("zoo verify ryser5 perm5",
             ["zoo", "verify", str(files["ryser5"]), str(files["perm5"])],
             expect(witness=str(files["ryser5"]), target=str(files["perm5"]), kind="chow",
                    ok=True, message="chow decomposition: PASS"),
             cacheable=False),
        Step("rep kron 6,3,3 4,4,4 4,4,4", ["rep", "kron", "6,3,3", "4,4,4", "4,4,4"],
             expect(pi=[6, 3, 3], mu=[4, 4, 4], nu=[4, 4, 4], value=1), cacheable=False),
    ]
    # each cacheable command appears twice in a seeded order: the first
    # occurrence computes and stores, the second replays the cache entry
    order = [s.name for s in cacheable] * 2 + [s.name for s in once]
    rng.shuffle(order)
    by_name = {s.name: s for s in cacheable + once}
    steps: List[Step] = []
    stored = set()
    for name in order:
        s = by_name[name]
        if name in stored:
            steps.append(Step(name + "/replay", s.args, s.check, replay_of=name))
        else:
            stored.add(name)
            steps.append(s)
    return steps


def useful_step() -> Step:
    """The no-compute command timed as ``setup_s``."""
    return Step("rep useful", ["rep", "useful", "3,1", "2", "2", "2"],
                expect(pi=[3, 1], d=2, n=2, m=2, value=True), cacheable=False)


WORKLOADS = {"hhh-blocks": hhh_blocks, "flatten-elim": flatten_elim, "cli-session": cli_session}

#: input files per workload: name -> (gct args that write it with -o, relabel?)
INPUTS = {
    "hhh-blocks": {},
    "flatten-elim": {k: (["zoo", "make", name, str(n)], True) for k, (name, n) in FLATTEN_INPUTS.items()},
    "cli-session": {"perm5": (["zoo", "make", "perm", "5"], False),
                    "ryser5": (["zoo", "witness", "ryser", "5"], False)},
}
