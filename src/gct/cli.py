"""The ``gct`` command line: dispatch, file I/O, caching, run manifests.

Subcommand tree: ``zoo | flatten | hhh | rep | latin | geo``.  Every command
accepts ``--json`` (machine-readable record instead of the human report),
``--no-cache``, ``--seed`` (all randomness flows through one generator
seeded here, so sampled points are reproducible) and ``--cache-dir``.  The
global flags may appear anywhere on the line.

Exit codes: 0 success, 1 verification failure, 2 unknown command or bad
arguments, 3 capacity error.

Expensive results are cached under ``$GCT_CACHE_DIR`` (default
``~/.cache/gct``), content-addressed by the SHA-256 digest of the manifest
inputs {command, parameters, seed, code_version}, where code_version is the
SHA-256 of this package's ``*.py`` sources (so any change to the code
invalidates every earlier entry).  A cache entry stores the
:class:`RunManifest` (with timing and the result digest) next to the result
record, the rendered human report and the verdict; the digest covers all
three, so a cache hit replays the original bytes or is recomputed.  Commands
whose input is a polynomial file key on the *content* digest of the parsed
polynomial, never on the path.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import zoo
from .flatten import (
    CapacityError,
    chow_border_lower_bound,
    exact_rank,
    shifted_partials_dim,
    waring_border_lower_bound,
)
from .geometry import (
    cayley_check,
    cp_coefficient,
    dual_dimension_at,
    hessian,
    perm_special_point,
    sample_det_smooth_zero,
    stabilizer_lie_dim,
    verify_discriminant_identity,
    verify_sfturbo,
    verify_sylvester_franke,
)
from .hhh import (
    _orbit_size,
    build_hhh,
    hhh_rank,
    kernel_character,
    kernel_dims_by_weight,
    sym_sym_dim,
)
from .latin import (
    alon_tarsi_count_reduced,
    pairing_allvars_det,
    pairing_perm_det,
)
from .poly import Polynomial, dumps, loads, poly_digest, to_record
from .reptheory import (
    ObstructionReport,
    character,
    gct_useful_filter,
    kronecker,
    normalize_partition,
    plethysm_mult,
    schur_dimension,
    symmetric_kronecker,
)

# ---------------------------------------------------------------------------
# Run manifests and the result cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record serialized with every cached result."""

    command: Tuple[str, ...]
    parameters: Dict[str, object]
    seed: int
    code_version: str
    timing_seconds: float
    result_digest: str

    def to_record(self) -> dict:
        return {
            "command": list(self.command),
            "parameters": self.parameters,
            "seed": self.seed,
            "code_version": self.code_version,
            "timing_seconds": self.timing_seconds,
            "result_digest": self.result_digest,
        }


def _canonical(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 of the package's ``*.py`` files, name and bytes, in name order.

    Python sources cannot contain NUL, so it separates the files unambiguously.
    """
    pkg = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            h.update(b"\0" + name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def manifest_key(
    command: Sequence[str], parameters: Dict[str, object], seed: int
) -> str:
    """Content address of a run: digest of the manifest *inputs*."""
    return hashlib.sha256(
        _canonical(
            {
                "command": list(command),
                "parameters": parameters,
                "seed": seed,
                "code_version": code_digest(),
            }
        )
    ).hexdigest()


def entry_digest(record: dict, human: str, ok: bool) -> str:
    """Digest of everything a cache hit replays."""
    return hashlib.sha256(
        _canonical({"record": record, "human": human, "ok": ok})
    ).hexdigest()


def _cache_load(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    manifest = entry.get("manifest", {})
    record = entry.get("record")
    if not isinstance(record, dict) or "human" not in entry or "ok" not in entry:
        return None
    # a corrupted entry must not replay: the stored digest certifies it
    if manifest.get("result_digest") != entry_digest(
        record, entry["human"], entry["ok"]
    ):
        return None
    return entry


def _cache_store(path: str, entry: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Records and rendering
# ---------------------------------------------------------------------------


def _jsonable(x: object) -> object:
    """Coerce Fractions/tuples so records are exact JSON round-trippers."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool) or x is None or isinstance(x, (int, str, float)):
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {_key_str(k): _jsonable(v) for k, v in x.items()}
    return str(x)


def _key_str(k: object) -> str:
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def render_json(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def render_human(record: dict) -> str:
    """Deterministic key/value report; nested maps indent, lists inline."""
    lines: List[str] = []

    def emit(key: str, val: object, depth: int) -> None:
        pad = "  " * depth
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            for k, v in val.items():
                emit(str(k), v, depth + 1)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for item in val:
                parts = "; ".join(f"{k}={v}" for k, v in item.items())
                lines.append(f"{pad}  - {parts}")
        elif isinstance(val, list):
            lines.append(f"{pad}{key}: [{', '.join(str(v) for v in val)}]")
        else:
            lines.append(f"{pad}{key}: {val}")

    for k, v in record.items():
        emit(str(k), v, 0)
    return "\n".join(lines) + "\n"


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class CommandResult:
    record: dict
    human: Optional[str] = None
    ok: bool = True

    def rendered(self, json_mode: bool) -> str:
        if json_mode:
            return render_json(self.record)
        return self.human if self.human is not None else render_human(self.record)


# ---------------------------------------------------------------------------
# Witness files (decompositions as structured text)
# ---------------------------------------------------------------------------


def witness_to_record(w: object) -> dict:
    if isinstance(w, zoo.WaringDecomposition):
        return {
            "kind": "waring",
            "num_vars": w.num_vars,
            "degree": w.degree,
            "terms": [
                {"coeff": str(c), "form": [str(x) for x in form]}
                for c, form in w.terms
            ],
        }
    if isinstance(w, zoo.ChowDecomposition):
        return {
            "kind": "chow",
            "num_vars": w.num_vars,
            "terms": [
                {"coeff": str(c), "forms": [[str(x) for x in f] for f in forms]}
                for c, forms in w.terms
            ],
        }
    if isinstance(w, zoo.DetExpressionWitness):
        return {
            "kind": "det_expression",
            "n": w.n,
            "num_target_vars": w.num_target_vars,
            "entries": [[str(x) for x in row] for row in w.entries],
        }
    raise TypeError(f"not a witness: {type(w).__name__}")


def witness_from_record(rec: dict) -> object:
    kind = rec.get("kind")
    if kind == "waring":
        return zoo.WaringDecomposition(
            num_vars=int(rec["num_vars"]),
            degree=int(rec["degree"]),
            terms=tuple(
                (Fraction(t["coeff"]), tuple(Fraction(x) for x in t["form"]))
                for t in rec["terms"]
            ),
        )
    if kind == "chow":
        return zoo.ChowDecomposition(
            num_vars=int(rec["num_vars"]),
            terms=tuple(
                (
                    Fraction(t["coeff"]),
                    tuple(tuple(Fraction(x) for x in f) for f in t["forms"]),
                )
                for t in rec["terms"]
            ),
        )
    if kind == "det_expression":
        return zoo.DetExpressionWitness(
            n=int(rec["n"]),
            num_target_vars=int(rec["num_target_vars"]),
            entries=tuple(
                tuple(Fraction(x) for x in row) for row in rec["entries"]
            ),
        )
    raise ValueError(f"unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# Shared argument plumbing
# ---------------------------------------------------------------------------


@dataclass
class RunContext:
    seed: int
    rng: random.Random
    cache_dir: str
    json_mode: bool


def _read_poly_file(path: str) -> Polynomial:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


@dataclass
class Target:
    """A polynomial given as ``name params...`` or as a file path."""

    poly: Polynomial
    name: Optional[str]
    params: Tuple[int, ...]

    def manifest_param(self) -> dict:
        if self.name is not None:
            return {"name": self.name, "params": list(self.params)}
        return {"poly_digest": poly_digest(self.poly)}

    def label(self) -> str:
        if self.name is not None:
            return " ".join([self.name, *map(str, self.params)])
        return f"<file sha256:{poly_digest(self.poly)[:12]}>"


def _load_target(tokens: Sequence[str]) -> Target:
    if os.path.isfile(tokens[0]):
        if len(tokens) > 1:
            raise ValueError("a polynomial file target takes no extra parameters")
        return Target(_read_poly_file(tokens[0]), None, ())
    params = tuple(int(t) for t in tokens[1:])
    return Target(zoo.make(tokens[0], *params), tokens[0], params)


def _parse_partition(text: str) -> Tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: use a comma list like 4,2,1") from exc
    return normalize_partition(parts)


def _parse_weight(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_points(text: str) -> List[Fraction]:
    return [Fraction(x) for x in text.split(",")]


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# zoo
# ---------------------------------------------------------------------------


def cmd_zoo_make(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    p = zoo.make(ns.name, *ns.params)
    record = {
        "command": "zoo make",
        "name": ns.name,
        "params": list(ns.params),
        "num_vars": p.num_vars,
        "degree": _jsonable(p.degree()),
        "terms": p.num_terms(),
        "digest": poly_digest(p),
    }
    text = dumps(p)
    if ns.output:
        _write_text(ns.output, text)
        record["written_to"] = ns.output
        return CommandResult(record)
    record["polynomial"] = to_record(p)
    # without -o the human report *is* the polynomial file
    return CommandResult(record, human=text)


def cmd_zoo_witness(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    if ns.scheme == "fischer":
        if len(ns.params) != 1:
            raise ValueError("fischer takes one parameter: n")
        dec: object = zoo.fischer_decomposition(ns.params[0])
        target = "fischer decomposition of x_1...x_n"
    elif ns.scheme == "ryser":
        if len(ns.params) != 1:
            raise ValueError("ryser takes one parameter: n")
        dec = zoo.ryser_decomposition(ns.params[0])
        target = "ryser decomposition of perm_n"
    elif ns.scheme == "benor":
        if len(ns.params) != 2:
            raise ValueError("benor takes two parameters: m k")
        dec = zoo.benor_decomposition(ns.params[0], ns.params[1])
        target = "ben-or decomposition of l^{m-k} e_m^k"
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown scheme {ns.scheme!r}")
    rec_w = witness_to_record(dec)
    text = json.dumps(rec_w, indent=2) + "\n"
    record = {
        "command": "zoo witness",
        "scheme": ns.scheme,
        "params": list(ns.params),
        "describes": target,
        "kind": rec_w["kind"],
        "terms": len(rec_w["terms"]),
    }
    if ns.output:
        _write_text(ns.output, text)
        record["written_to"] = ns.output
        return CommandResult(record)
    record["witness"] = rec_w
    return CommandResult(record, human=text)


def cmd_zoo_verify(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    with open(ns.witness, "r", encoding="utf-8") as fh:
        rec_w = json.load(fh)
    w = witness_from_record(rec_w)
    target = _read_poly_file(ns.target)
    if isinstance(w, zoo.WaringDecomposition):
        report = zoo.verify_waring(w, target)
    elif isinstance(w, zoo.ChowDecomposition):
        report = zoo.verify_chow(w, target)
    else:
        report = zoo.verify_det_expression(w, target)
    record = {
        "command": "zoo verify",
        "witness": ns.witness,
        "target": ns.target,
        "kind": rec_w.get("kind"),
        "ok": report.ok,
        "message": report.message,
    }
    return CommandResult(record, human=report.message + "\n", ok=report.ok)


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------


def _flatten_param(ns: argparse.Namespace) -> Dict[str, object]:
    ns.loaded_poly = _read_poly_file(ns.poly_file)
    params: Dict[str, object] = {"poly_digest": poly_digest(ns.loaded_poly)}
    for attr in ("k", "shift"):
        if hasattr(ns, attr):
            params[attr] = getattr(ns, attr)
    return params


def cmd_flatten_rank(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    from .poly import polarize

    p: Polynomial = ns.loaded_poly
    d = p.degree()
    if d is None or not p.is_homogeneous():
        raise ValueError("need a nonzero homogeneous polynomial")
    k = ns.k if ns.k is not None else d // 2
    fm = polarize(p, k)
    record = {
        "command": "flatten rank",
        "poly_digest": poly_digest(p),
        "degree": d,
        "k": k,
        "shape": list(fm.shape),
        "rank": exact_rank(fm),
    }
    return CommandResult(record)


def cmd_flatten_waring_lb(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    p: Polynomial = ns.loaded_poly
    b = waring_border_lower_bound(p)
    record = {
        "command": "flatten waring-lb",
        "poly_digest": poly_digest(p),
        "bound": b.bound,
        "best_k": b.best_k,
        "ranks": {str(k): b.ranks[k] for k in sorted(b.ranks)},
    }
    return CommandResult(record)


def cmd_flatten_chow_lb(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    p: Polynomial = ns.loaded_poly
    b = chow_border_lower_bound(p)
    record = {
        "command": "flatten chow-lb",
        "poly_digest": poly_digest(p),
        "bound": b.bound,
        "best_k": b.best_k,
        "ranks": {str(k): b.ranks[k] for k in sorted(b.ranks)},
    }
    return CommandResult(record)


def cmd_flatten_shifted(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    p: Polynomial = ns.loaded_poly
    dim = shifted_partials_dim(p, ns.k, ns.shift)
    record = {
        "command": "flatten shifted",
        "poly_digest": poly_digest(p),
        "k": ns.k,
        "shift": ns.shift,
        "dimension": dim,
    }
    return CommandResult(record)


# ---------------------------------------------------------------------------
# hhh
# ---------------------------------------------------------------------------


def cmd_hhh_rank(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    record: Dict[str, object] = {
        "command": "hhh rank",
        "d": ns.d,
        "n": ns.n,
        "v": ns.v,
    }
    if ns.weight:
        w = _parse_weight(ns.weight)
        block = build_hhh(ns.d, ns.n, ns.v, w)
        record["weight"] = list(w)
        record["shape"] = list(block.shape)
        record["rank"] = block.rank()
    else:
        dom = sym_sym_dim(ns.d, ns.n, ns.v)
        r = hhh_rank(ns.d, ns.n, ns.v)
        record["domain_dimension"] = dom
        record["codomain_dimension"] = sym_sym_dim(ns.n, ns.d, ns.v)
        record["rank"] = r
        record["kernel_dimension"] = dom - r
    return CommandResult(record)


def cmd_hhh_kernel(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    record: Dict[str, object] = {
        "command": "hhh kernel",
        "d": ns.d,
        "n": ns.n,
        "v": ns.v,
    }
    if ns.weight:
        w = _parse_weight(ns.weight)
        block = build_hhh(ns.d, ns.n, ns.v, w)
        rows, cols = block.shape
        record["weight"] = list(w)
        record["shape"] = [rows, cols]
        record["kernel_dimension"] = cols - block.rank()
        return CommandResult(record)
    dims = kernel_dims_by_weight(ns.d, ns.n, ns.v)
    ordered = sorted(dims, reverse=True)
    record["kernel_by_dominant_weight"] = {
        _key_str(w): dims[w] for w in ordered if dims[w]
    }
    total = 0
    for w in ordered:
        padded = tuple(w) + (0,) * (ns.v - len(w))
        total += _orbit_size(padded) * dims[w]
    record["kernel_dimension"] = total
    return CommandResult(record)


def cmd_hhh_character(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    ch = kernel_character(ns.d, ns.n, ns.v)
    ordered = sorted(ch, reverse=True)
    record = {
        "command": "hhh character",
        "d": ns.d,
        "n": ns.n,
        "v": ns.v,
        "kernel_multiplicities": {_key_str(pi): ch[pi] for pi in ordered},
        "kernel_dimension": sum(
            m * schur_dimension(pi, ns.v) for pi, m in ch.items()
        ),
    }
    return CommandResult(record)


# ---------------------------------------------------------------------------
# rep
# ---------------------------------------------------------------------------


def cmd_rep_char(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    pi = _parse_partition(ns.pi)
    mu = _parse_partition(ns.mu)
    record = {
        "command": "rep char",
        "pi": list(pi),
        "mu": list(mu),
        "value": character(pi, mu),
    }
    return CommandResult(record)


def cmd_rep_kron(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    pi = _parse_partition(ns.pi)
    mu = _parse_partition(ns.mu)
    nu = _parse_partition(ns.nu)
    record = {
        "command": "rep kron",
        "pi": list(pi),
        "mu": list(mu),
        "nu": list(nu),
        "value": kronecker(pi, mu, nu),
    }
    return CommandResult(record)


def cmd_rep_skron(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    pi = _parse_partition(ns.pi)
    mu = _parse_partition(ns.mu)
    record = {
        "command": "rep skron",
        "pi": list(pi),
        "mu": list(mu),
        "value": symmetric_kronecker(pi, mu),
    }
    return CommandResult(record)


def cmd_rep_pleth(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    pi = _parse_partition(ns.pi)
    record = {
        "command": "rep pleth",
        "pi": list(pi),
        "d": ns.d,
        "n": ns.n,
        "value": plethysm_mult(pi, ns.d, ns.n),
    }
    return CommandResult(record)


def cmd_rep_obstruct(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    pi = _parse_partition(ns.pi)
    if sum(pi) != ns.d * ns.n:
        raise ValueError(f"|pi|={sum(pi)} must equal d*n={ns.d * ns.n}")
    mu = (ns.d,) * ns.n
    _progress(f"[1/3] plethysm multiplicity of {pi} in S^{ns.d}(S^{ns.n}) ...")
    mult = plethysm_mult(pi, ns.d, ns.n)
    _progress(f"      mult = {mult}")
    _progress(f"[2/3] Kronecker coefficient k(pi, {ns.d}^{ns.n}, {ns.d}^{ns.n}) ...")
    kron = kronecker(pi, mu, mu)
    _progress(f"      k = {kron}")
    _progress(f"[3/3] symmetric Kronecker sk(pi, {ns.d}^{ns.n}) ...")
    sk = symmetric_kronecker(pi, mu)
    _progress(f"      sk = {sk}")
    report = ObstructionReport(pi=pi, d=ns.d, n=ns.n, mult=mult, kron=kron, sym_kron=sk)
    record = {
        "command": "rep obstruct",
        "pi": list(pi),
        "d": ns.d,
        "n": ns.n,
        "mult": mult,
        "kronecker": kron,
        "symmetric_kronecker": sk,
        "representation_obstruction": report.is_representation_obstruction,
        "occurrence_obstruction": report.is_occurrence_obstruction,
    }
    return CommandResult(record)


def cmd_rep_useful(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    pi = _parse_partition(ns.pi)
    record = {
        "command": "rep useful",
        "pi": list(pi),
        "d": ns.d,
        "n": ns.n,
        "m": ns.m,
        "value": gct_useful_filter(pi, ns.d, ns.n, ns.m),
    }
    return CommandResult(record)


# ---------------------------------------------------------------------------
# latin
# ---------------------------------------------------------------------------


def cmd_latin_count(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    at = alon_tarsi_count_reduced(ns.n)
    record = {
        "command": "latin count",
        "n": at.n,
        "count_plus": at.count_plus,
        "count_minus": at.count_minus,
        "difference": at.difference,
        "column_count_plus": at.column_count_plus,
        "column_count_minus": at.column_count_minus,
        "column_difference": at.column_difference,
        "total": at.total,
    }
    return CommandResult(record)


def cmd_latin_pairing(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    if ns.all_vars:
        value = pairing_allvars_det(ns.n)
        pairing = "allvars-det"
        description = "coefficient pairing <prod x_ij, det_n^n>"
    else:
        value = pairing_perm_det(ns.n)
        pairing = "perm-det"
        description = "differential pairing <perm_n^n, det_n^n>"
    record = {
        "command": "latin pairing",
        "n": ns.n,
        "pairing": pairing,
        "description": description,
        "value": _jsonable(value),
        "nonzero": value != 0,
    }
    return CommandResult(record)


# ---------------------------------------------------------------------------
# geo
# ---------------------------------------------------------------------------


def _target_param(ns: argparse.Namespace) -> Dict[str, object]:
    ns.loaded_target = _load_target(ns.target)
    params: Dict[str, object] = {"target": ns.loaded_target.manifest_param()}
    for attr in ("s", "point"):
        if hasattr(ns, attr):
            params[attr] = getattr(ns, attr)
    return params


def cmd_geo_hessian(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    tgt: Target = ns.loaded_target
    h = hessian(tgt.poly)
    record: Dict[str, object] = {
        "command": "geo hessian",
        "target": tgt.label(),
        "size": h.size,
        "num_vars": h.num_vars,
        "entry_degree": _jsonable(tgt.poly.degree() - 2),
    }
    full = {
        "size": h.size,
        "num_vars": h.num_vars,
        "entries": [[to_record(e) for e in row] for row in h.entries],
    }
    if ns.output:
        _write_text(ns.output, json.dumps(full, indent=2) + "\n")
        record["written_to"] = ns.output
    else:
        record["entries"] = full["entries"]
    return CommandResult(record)


def cmd_geo_cp(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    tgt: Target = ns.loaded_target
    h = hessian(tgt.poly)
    cp = cp_coefficient(h, ns.s)
    record: Dict[str, object] = {
        "command": "geo cp",
        "target": tgt.label(),
        "s": ns.s,
        "matrix": f"H({tgt.label()})",
        "terms": cp.num_terms(),
        "degree": _jsonable(cp.degree()),
        "digest": poly_digest(cp),
    }
    if ns.output:
        _write_text(ns.output, dumps(cp))
        record["written_to"] = ns.output
    return CommandResult(record)


def cmd_geo_sfturbo(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    checks = tuple(ns.checks.split(",")) if ns.checks else None
    report = verify_sfturbo(ns.v, checks=checks)
    record = {
        "command": "geo sfturbo",
        "v": ns.v,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail}
            for c in report.checks
        ],
        "ok": report.ok,
    }
    return CommandResult(record, human=report.summary() + "\n", ok=report.ok)


def cmd_geo_discriminant(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    ok = verify_discriminant_identity()
    record = {
        "command": "geo discriminant",
        "identity": "det(H(Delta)) = 3888 * Delta^2",
        "ok": ok,
    }
    human = f"det(H(Δ)) = 3888·Δ²: {'PASS' if ok else 'FAIL'}\n"
    return CommandResult(record, human=human, ok=ok)


def cmd_geo_cayley(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    ok = cayley_check(ns.n, ns.s)
    record = {
        "command": "geo cayley",
        "n": ns.n,
        "s": ns.s,
        "identity": "det(d/dx) det^{s+1} = ((s+n)!/s!) det^s",
        "ok": ok,
    }
    human = f"Cayley identity at n={ns.n}, s={ns.s}: {'PASS' if ok else 'FAIL'}\n"
    return CommandResult(record, human=human, ok=ok)


def cmd_geo_sylfranke(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    ok = verify_sylvester_franke(ns.v, ns.k, ns.p)
    record = {
        "command": "geo sylfranke",
        "v": ns.v,
        "k": ns.k,
        "p": ns.p,
        "statement": "det(A)^p divides cp_{C(v-1,k)+p}(compound(A,k))",
        "ok": ok,
    }
    human = (
        f"det^{ns.p} | cp_{comb(ns.v - 1, ns.k) + ns.p}"
        f"(Λ^{ns.k} A) at v={ns.v}: {'PASS' if ok else 'FAIL'}\n"
    )
    return CommandResult(record, human=human, ok=ok)


def cmd_geo_dualdim(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    tgt: Target = ns.loaded_target
    if ns.point:
        point = _parse_points(ns.point)
        origin = "explicit"
    elif tgt.name == "det":
        point = sample_det_smooth_zero(tgt.params[0], ctx.rng)
        origin = f"sampled rank-{tgt.params[0] - 1} matrix (seed {ctx.seed})"
    elif tgt.name == "perm":
        point = perm_special_point(tgt.params[0])
        origin = "all-ones matrix with entry (1,1) = -(m-1)"
    else:
        raise ValueError(
            "dualdim needs --point for targets other than det/perm"
        )
    dd = dual_dimension_at(tgt.poly, point)
    record = {
        "command": "geo dualdim",
        "target": tgt.label(),
        "point": [str(x) for x in point],
        "point_origin": origin,
        "dual_dimension": dd,
    }
    return CommandResult(record)


def cmd_geo_stab(ns: argparse.Namespace, ctx: RunContext) -> CommandResult:
    tgt: Target = ns.loaded_target
    record = {
        "command": "geo stab",
        "target": tgt.label(),
        "stabilizer_lie_dim": stabilizer_lie_dim(tgt.poly),
    }
    return CommandResult(record)


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------

_BOOL_FLAGS = ("--json", "--no-cache")
_VALUE_FLAGS = ("--seed", "--cache-dir")


def _hoist_globals(argv: Sequence[str]) -> List[str]:
    """Move global flags to the front so they may appear anywhere."""
    front: List[str] = []
    rest: List[str] = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in _BOOL_FLAGS:
            front.append(a)
        elif a in _VALUE_FLAGS:
            front.append(a)
            if i + 1 < len(argv):
                i += 1
                front.append(argv[i])
        elif any(a.startswith(f + "=") for f in _VALUE_FLAGS):
            front.append(a)
        else:
            rest.append(a)
        i += 1
    return front + rest


def _leaf(
    sub,
    name: str,
    handler: Callable,
    *,
    command: Tuple[str, ...],
    cacheable: bool = False,
    param_names: Tuple[str, ...] = (),
    param_fn: Optional[Callable] = None,
    help: str = "",
):
    sp = sub.add_parser(name, help=help, description=help)
    sp.set_defaults(
        handler=handler,
        command=command,
        cacheable=cacheable,
        param_names=param_names,
        param_fn=param_fn,
    )
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gct",
        description="Exact-arithmetic toolkit for flattenings, plethysms, "
        "Latin-square sign counting, and determinant geometry.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled points (default 0)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default $GCT_CACHE_DIR or ~/.cache/gct)")
    groups = parser.add_subparsers(dest="group", metavar="GROUP", required=True)

    # --- zoo ---------------------------------------------------------------
    g = groups.add_parser("zoo", help="named polynomials, witnesses, verification")
    sub = g.add_subparsers(dest="cmd", metavar="CMD", required=True)
    sp = _leaf(sub, "make", cmd_zoo_make, command=("zoo", "make"),
               help="emit a named polynomial as a polynomial file")
    sp.add_argument("name", help="det perm elem chow fermat sumprod imm pascal_det p_lambda discriminant padded_elem")
    sp.add_argument("params", nargs="*", type=int)
    sp.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
    sp = _leaf(sub, "witness", cmd_zoo_witness, command=("zoo", "witness"),
               help="emit a classical decomposition witness file")
    sp.add_argument("scheme", choices=("fischer", "ryser", "benor"))
    sp.add_argument("params", nargs="*", type=int)
    sp.add_argument("-o", "--output", default=None)
    sp = _leaf(sub, "verify", cmd_zoo_verify, command=("zoo", "verify"),
               help="verify a witness file against a target polynomial file")
    sp.add_argument("witness")
    sp.add_argument("target")

    # --- flatten -----------------------------------------------------------
    g = groups.add_parser("flatten", help="exact flattening ranks and lower bounds")
    sub = g.add_subparsers(dest="cmd", metavar="CMD", required=True)
    sp = _leaf(sub, "rank", cmd_flatten_rank, command=("flatten", "rank"),
               cacheable=True, param_fn=_flatten_param,
               help="rank of the k-th catalecticant (default middle)")
    sp.add_argument("poly_file")
    sp.add_argument("--k", type=int, default=None)
    sp = _leaf(sub, "waring-lb", cmd_flatten_waring_lb, command=("flatten", "waring-lb"),
               cacheable=True, param_fn=_flatten_param,
               help="Waring border-rank lower bound over all catalecticants")
    sp.add_argument("poly_file")
    sp = _leaf(sub, "chow-lb", cmd_flatten_chow_lb, command=("flatten", "chow-lb"),
               cacheable=True, param_fn=_flatten_param,
               help="Chow border-rank lower bound over all catalecticants")
    sp.add_argument("poly_file")
    sp = _leaf(sub, "shifted", cmd_flatten_shifted, command=("flatten", "shifted"),
               cacheable=True, param_fn=_flatten_param,
               help="dimension of the shifted partial-derivative space")
    sp.add_argument("poly_file")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", dest="shift", type=int, required=True, help="shift degree")

    # --- hhh ---------------------------------------------------------------
    g = groups.add_parser("hhh", help="the Hermite-Hadamard-Howe map h_{d,n}")
    sub = g.add_subparsers(dest="cmd", metavar="CMD", required=True)
    for cname, handler, chelp in (
        ("rank", cmd_hhh_rank, "rank of h_{d,n} on C^v (or of one weight block)"),
        ("kernel", cmd_hhh_kernel, "kernel dimensions by dominant weight"),
        ("character", cmd_hhh_character, "GL-character of ker h_{d,n} as Schur multiplicities"),
    ):
        sp = _leaf(sub, cname, handler, command=("hhh", cname),
                   cacheable=True,
                   param_names=("d", "n", "v", "weight") if cname != "character" else ("d", "n", "v"),
                   help=chelp)
        sp.add_argument("d", type=int)
        sp.add_argument("n", type=int)
        sp.add_argument("v", type=int)
        if cname != "character":
            sp.add_argument("--weight", default=None, help="comma list, e.g. 5,5,5,5,5")

    # --- rep ---------------------------------------------------------------
    g = groups.add_parser("rep", help="symmetric-group multiplicity calculus")
    sub = g.add_subparsers(dest="cmd", metavar="CMD", required=True)
    sp = _leaf(sub, "char", cmd_rep_char, command=("rep", "char"),
               help="irreducible character value chi^pi(mu)")
    sp.add_argument("pi")
    sp.add_argument("mu")
    sp = _leaf(sub, "kron", cmd_rep_kron, command=("rep", "kron"),
               help="Kronecker coefficient k(pi, mu, nu)")
    sp.add_argument("pi")
    sp.add_argument("mu")
    sp.add_argument("nu")
    sp = _leaf(sub, "skron", cmd_rep_skron, command=("rep", "skron"),
               help="symmetric Kronecker coefficient sk(pi, mu)")
    sp.add_argument("pi")
    sp.add_argument("mu")
    sp = _leaf(sub, "pleth", cmd_rep_pleth, command=("rep", "pleth"),
               cacheable=True, param_names=("pi", "d", "n"),
               help="multiplicity of S_pi in S^d(S^n)")
    sp.add_argument("pi")
    sp.add_argument("d", type=int)
    sp.add_argument("n", type=int)
    sp = _leaf(sub, "obstruct", cmd_rep_obstruct, command=("rep", "obstruct"),
               cacheable=True, param_names=("pi", "d", "n"),
               help="occurrence-obstruction data (mult, k, sk) for det_n")
    sp.add_argument("pi")
    sp.add_argument("d", type=int)
    sp.add_argument("n", type=int)
    sp = _leaf(sub, "useful", cmd_rep_useful, command=("rep", "useful"),
               help="necessary (n,m)-GCT-usefulness filter")
    sp.add_argument("pi")
    sp.add_argument("d", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)

    # --- latin -------------------------------------------------------------
    g = groups.add_parser("latin", help="Alon-Tarsi sign counting and pairings")
    sub = g.add_subparsers(dest="cmd", metavar="CMD", required=True)
    sp = _leaf(sub, "count", cmd_latin_count, command=("latin", "count"),
               cacheable=True, param_names=("n",),
               help="signed Latin-square counts (reduced enumeration)")
    sp.add_argument("n", type=int)
    sp = _leaf(sub, "pairing", cmd_latin_pairing, command=("latin", "pairing"),
               cacheable=True, param_names=("n", "all_vars"),
               help="differential pairing <perm^n, det^n> (or all-vars coefficient)")
    sp.add_argument("n", type=int)
    sp.add_argument("--all-vars", action="store_true")

    # --- geo ---------------------------------------------------------------
    g = groups.add_parser("geo", help="Hessians, cp identities, dual/stabilizer dims")
    sub = g.add_subparsers(dest="cmd", metavar="CMD", required=True)
    sp = _leaf(sub, "hessian", cmd_geo_hessian, command=("geo", "hessian"),
               help="Hessian matrix of a target polynomial")
    sp.add_argument("target", nargs="+", help="'det 3', 'perm 3', ... or a polynomial file")
    sp.add_argument("-o", "--output", default=None, help="write entries as JSON")
    sp.set_defaults(param_fn=_target_param)
    sp = _leaf(sub, "cp", cmd_geo_cp, command=("geo", "cp"),
               cacheable=True, param_fn=_target_param,
               help="characteristic coefficient cp_s of the Hessian")
    sp.add_argument("target", nargs="+")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("-o", "--output", default=None, help="write cp_s as a polynomial file")
    sp = _leaf(sub, "sfturbo", cmd_geo_sfturbo, command=("geo", "sfturbo"),
               cacheable=True, param_names=("v", "checks"),
               help="characteristic-coefficient identities for H(det_v)")
    sp.add_argument("v", type=int)
    sp.add_argument("--checks", default=None,
                    help="comma list from cp1,cp2_negative,cp3,cp5,cp8,cp9")
    sp = _leaf(sub, "discriminant", cmd_geo_discriminant, command=("geo", "discriminant"),
               cacheable=True,
               help="verify det(H(Delta)) = 3888 Delta^2 for the binary-cubic discriminant")
    sp = _leaf(sub, "cayley", cmd_geo_cayley, command=("geo", "cayley"),
               cacheable=True, param_names=("n", "s"),
               help="Cayley identity det(d/dx) det^{s+1} = ((s+n)!/s!) det^s")
    sp.add_argument("n", type=int)
    sp.add_argument("s", type=int)
    sp = _leaf(sub, "sylfranke", cmd_geo_sylfranke, command=("geo", "sylfranke"),
               cacheable=True, param_names=("v", "k", "p"),
               help="Sylvester-Franke divisibility for compound matrices")
    sp.add_argument("v", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("p", type=int)
    sp = _leaf(sub, "dualdim", cmd_geo_dualdim, command=("geo", "dualdim"),
               cacheable=True, param_fn=_target_param,
               help="dual-variety dimension at a smooth zero")
    sp.add_argument("target", nargs="+")
    sp.add_argument("--point", default=None, help="comma list of rationals")
    sp = _leaf(sub, "stab", cmd_geo_stab, command=("geo", "stab"),
               cacheable=True, param_fn=_target_param,
               help="dimension of the gl(v) stabilizer Lie algebra")
    sp.add_argument("target", nargs="+")
    return parser


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _resolve_cache_dir(ns: argparse.Namespace) -> str:
    if ns.cache_dir:
        return ns.cache_dir
    env = os.environ.get("GCT_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "gct")


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, run, report; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(_hoist_globals(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    ctx = RunContext(
        seed=ns.seed,
        rng=random.Random(ns.seed),
        cache_dir=_resolve_cache_dir(ns),
        json_mode=ns.json,
    )
    try:
        if ns.param_fn is not None:
            parameters = _jsonable(ns.param_fn(ns))
        else:
            parameters = _jsonable(
                {name: getattr(ns, name) for name in ns.param_names}
            )
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"gct: error: {exc}", file=sys.stderr)
        return 2

    # -o writes a side-effect file, which a cache replay would skip
    use_cache = (
        ns.cacheable and not ns.no_cache and not getattr(ns, "output", None)
    )
    if use_cache:
        key = manifest_key(ns.command, parameters, ns.seed)
        path = os.path.join(ctx.cache_dir, key + ".json")
        entry = _cache_load(path)
        if entry is not None:
            sys.stdout.write(
                render_json(entry["record"]) if ctx.json_mode else entry["human"]
            )
            return 0 if entry["ok"] else 1

    t0 = time.perf_counter()
    try:
        result = ns.handler(ns, ctx)
    except CapacityError as exc:
        record = {
            "error": "capacity",
            "context": exc.context,
            "size": exc.size,
            "cap": exc.cap,
            "message": str(exc),
        }
        sys.stdout.write(
            render_json(record) if ctx.json_mode else render_human(record)
        )
        return 3
    except (OSError, ValueError, KeyError, ZeroDivisionError, json.JSONDecodeError) as exc:
        print(f"gct: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0

    result.record = _jsonable(result.record)
    rendered_human = result.rendered(json_mode=False)
    if use_cache:
        manifest = RunManifest(
            command=tuple(ns.command),
            parameters=parameters,
            seed=ns.seed,
            code_version=code_digest(),
            timing_seconds=round(elapsed, 6),
            result_digest=entry_digest(result.record, rendered_human, result.ok),
        )
        _cache_store(
            path,
            {
                "manifest": manifest.to_record(),
                "ok": result.ok,
                "record": result.record,
                "human": rendered_human,
            },
        )
    sys.stdout.write(
        render_json(result.record) if ctx.json_mode else rendered_human
    )
    return 0 if result.ok else 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
