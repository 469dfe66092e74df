"""The ``gct`` command line: one command table, dispatch, caching, run manifests.

Subcommand tree: ``zoo | flatten | hhh | rep | latin | geo``.  Each command
is declared once, in :data:`COMMANDS` (help, cacheable, argument specs);
:func:`build_parser` reads that table, and ``gct <group> <command>``
runs the module function ``cmd_<group>_<command>`` (dashes become
underscores), looked up by name at dispatch.  After parsing, arguments are
converted by name (partitions, ``--weight``, ``--point``, ``poly_file``,
``target``); a conversion error is a ``gct: error:`` line and exit 2.
File formats belong to their layers, polynomial files to ``poly`` and
witness files to ``zoo``; the commands only call their codecs.

Each command runs in a process of its own, and where no bytecode cache is
written that process compiles every module it runs, so start-up is paid on
every command.  So a process loads only what its command runs.  Every
layer, ``poly`` too, is bound as a lazy module (``importlib.util.LazyLoader``),
registered in ``sys.modules`` at import and run on first attribute access,
so a command runs only the layers it calls (``rep useful`` runs
``reptheory`` alone).  ``fractions`` is imported where a Fraction is built
and SHA-256 where a digest is taken, so a command that neither caches nor
prints a digest loads neither.  Digests come from CPython's built-in
SHA-256 module (``hashlib`` only where it is missing), so no command loads
OpenSSL.  The parser adds a group's commands, and a command's arguments,
only when argparse reaches them on the line; the rest keep the name and
help that ``-h`` and an invalid-choice error print.

Every command accepts ``--json`` (machine-readable record instead of the
human report), ``--no-cache`` and ``--cache-dir``: anywhere on the line
if spelled in full, only before the group if abbreviated (``--js``).
``geo dualdim`` takes ``--seed`` (default 0) for the point it samples, so
sampled points are reproducible.

Exit codes: 0 success, 1 verification failure (the record's ``ok`` is
false), 2 unknown command or bad arguments, 3 capacity error.

Expensive results are cached under ``$GCT_CACHE_DIR`` (default
``~/.cache/gct``), content-addressed by the SHA-256 digest of the manifest
inputs {command, parameters, code_version}.  The cache owns every content
digest: ``_digest`` of canonical JSON keys an entry, certifies it, and
names a polynomial by its record (``poly_digest``).  The parameters are
the declared arguments except ``-o``, after conversion: partitions in
normal form, a polynomial file by the content digest of the parsed
polynomial (never the path), a target by name and parameters or content
digest, and the seed of ``geo dualdim``.  code_version is the SHA-256 of this package's ``*.py``
sources (so any change to the code invalidates every earlier entry).  A
cache entry stores the run manifest (the key's inputs, timing and the result
digest) next to the result record, the rendered human report and the
verdict; the digest covers all three, so a cache hit replays the original
bytes or is recomputed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import json
import os
import re
import sys
import time
import types
from itertools import islice
from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


def _lazy(name: str) -> types.ModuleType:
    """``gct.<name>`` if already imported; else registered and bound on the
    package as an import does, its code run on first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


flatten, geometry, hhh, latin, poly, reptheory, zoo = map(
    _lazy, ("flatten", "geometry", "hhh", "latin", "poly", "reptheory", "zoo")
)
_lazy("monomials")  # the layers' import: bound on the package here, not as one runs

# ---------------------------------------------------------------------------
# Run manifests and the result cache
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _sha256():
    """The SHA-256 constructor of CPython's built-in module, ``_sha2`` from
    3.12 and ``_sha256`` before, imported by the first digest.  ``hashlib``
    is only the fallback, for a CPython built without its built-in hashes:
    its ``sha256`` loads OpenSSL, about 3.5 MB of RSS and 4-5 ms a process
    (2 vCPUs, Python 3.11.7)."""
    for name in ("_sha2", "_sha256"):
        with contextlib.suppress(ImportError):
            return importlib.import_module(name).sha256
    import hashlib

    return hashlib.sha256


def _digest(payload: object) -> str:
    """SHA-256 of ``payload``'s canonical JSON."""
    return _sha256()(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def poly_digest(p: poly.Polynomial) -> str:
    """Content digest of a polynomial: ``_digest`` of its record, whose terms
    are in grevlex order, so equal polynomials share it."""
    return _digest(poly.to_record(p))


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 of the package's ``*.py`` files, name and bytes, in name order.

    Python sources cannot contain NUL, so it separates the files unambiguously.
    """
    pkg = os.path.dirname(os.path.abspath(__file__))
    h = _sha256()()
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            h.update(b"\0" + name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def manifest_key(command: Sequence[str], parameters: Dict[str, object]) -> str:
    """Content address of a run: digest of the manifest *inputs*."""
    return _digest(
        {"command": list(command), "parameters": parameters, "code_version": code_digest()}
    )


def entry_digest(record: dict, human: str, ok: bool) -> str:
    """Digest of everything a cache hit replays."""
    return _digest({"record": record, "human": human, "ok": ok})


def _cache_load(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    # any other shape is a miss, recomputed and overwritten like a bad digest
    if not isinstance(entry, dict) or "ok" not in entry:
        return None
    manifest, record = entry.get("manifest"), entry.get("record")
    if not (isinstance(manifest, dict) and isinstance(record, dict) and isinstance(entry.get("human"), str)):
        return None
    # a corrupted entry must not replay: the stored digest certifies it
    if manifest.get("result_digest") != entry_digest(
        record, entry["human"], entry["ok"]
    ):
        return None
    return entry


def _cache_store(path: str, entry: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"  # one per process: concurrent stores of a key
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:  # a store that fails leaves no temporary file
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Records and rendering
# ---------------------------------------------------------------------------


def _jsonable(x: object) -> object:
    """Coerce tuples and Fractions so records are exact JSON round-trippers:
    a Fraction, like any other value JSON lacks, becomes its ``str``."""
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
        elif isinstance(val, list):
            lines.append(f"{pad}{key}: [{', '.join(str(v) for v in val)}]")
        else:
            lines.append(f"{pad}{key}: {val}")

    for k, v in record.items():
        emit(str(k), v, 0)
    return "\n".join(lines) + "\n"


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class CommandResult(NamedTuple):
    """A handler's record body, and its human report when not the record's."""

    record: dict
    human: Optional[str] = None


# ---------------------------------------------------------------------------
# Argument conversions
# ---------------------------------------------------------------------------


def _read_poly_file(path: str) -> poly.Polynomial:
    with open(path, "r", encoding="utf-8") as fh:
        return poly.loads(fh.read())


class Target(NamedTuple):
    """A polynomial given as ``name params...`` or as a file path."""

    poly: poly.Polynomial
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
    return reptheory.normalize_partition(parts)


def _parse_weight(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_points(text: str) -> List[Fraction]:
    from fractions import Fraction

    return [Fraction(x) for x in text.split(",")]


#: argument name -> its conversion, applied after parsing in declaration order
_CONVERSIONS = {
    "pi": _parse_partition,
    "mu": _parse_partition,
    "nu": _parse_partition,
    "weight": _parse_weight,
    "point": _parse_points,
    "poly_file": _read_poly_file,
    "target": _load_target,
}


def _echo(ns: argparse.Namespace, **fields: object) -> dict:
    """A record that echoes the arguments given (``-o`` aside), then ``fields``."""
    given = {name: getattr(ns, name) for name in ns.arg_names}
    return {**{k: v for k, v in given.items() if v is not None}, **fields}


def _key_value(name: str, value: object) -> object:
    """What the converted argument ``name`` contributes to the cache key."""
    if name == "poly_file":  # by name: no isinstance check that runs gct.poly
        return poly_digest(value)
    if isinstance(value, Target):
        return value.manifest_param()
    return value


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _file_or_stdout(
    ns: argparse.Namespace, record: dict, text: str, field: str, value: object
) -> CommandResult:
    """With ``-o`` write ``text`` there; without, ``text`` is the human
    report and ``value`` joins the record as ``field``."""
    if ns.output:
        _write_text(ns.output, text)
        record["written_to"] = ns.output
        return CommandResult(record)
    record[field] = value
    return CommandResult(record, human=text)


# ---------------------------------------------------------------------------
# zoo
# ---------------------------------------------------------------------------

#: scheme -> (number of parameters, their usage, what the witness describes)
_SCHEMES = {
    "fischer": (1, "one parameter: n", "fischer decomposition of x_1...x_n"),
    "ryser": (1, "one parameter: n", "ryser decomposition of perm_n"),
    "benor": (2, "two parameters: m k", "ben-or decomposition of l^{m-k} e_m^k"),
}


def cmd_zoo_make(ns: argparse.Namespace) -> CommandResult:
    p = zoo.make(ns.name, *ns.params)
    record = _echo(
        ns,
        num_vars=p.num_vars,
        degree=p.degree(),
        terms=p.num_terms(),
        digest=poly_digest(p),
    )
    # without -o the human report *is* the polynomial file
    return _file_or_stdout(ns, record, poly.dumps(p), "polynomial", poly.to_record(p))


def cmd_zoo_witness(ns: argparse.Namespace) -> CommandResult:
    arity, usage, target = _SCHEMES[ns.scheme]
    if len(ns.params) != arity:
        raise ValueError(f"{ns.scheme} takes {usage}")
    rec_w = getattr(zoo, f"{ns.scheme}_decomposition")(*ns.params).to_record()
    record = _echo(ns, describes=target, kind=rec_w["kind"], terms=len(rec_w["terms"]))
    text = json.dumps(rec_w, indent=2) + "\n"
    return _file_or_stdout(ns, record, text, "witness", rec_w)


def cmd_zoo_verify(ns: argparse.Namespace) -> CommandResult:
    with open(ns.witness, "r", encoding="utf-8") as fh:
        rec_w = json.load(fh)
    w = zoo.from_record(rec_w)
    target = _read_poly_file(ns.target_file)
    if isinstance(w, zoo.WaringDecomposition):
        report = zoo.verify_waring(w, target)
    elif isinstance(w, zoo.ChowDecomposition):
        report = zoo.verify_chow(w, target)
    else:
        report = zoo.verify_det_expression(w, target)
    record = {
        "witness": ns.witness,
        "target": ns.target_file,
        "kind": rec_w.get("kind"),
        "ok": report.ok,
        "message": report.message,
    }
    return CommandResult(record, human=report.message + "\n")


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------


def cmd_flatten_rank(ns: argparse.Namespace) -> CommandResult:
    p: poly.Polynomial = ns.poly_file
    d = p.degree()
    if d is None or not p.is_homogeneous():
        raise ValueError("need a nonzero homogeneous polynomial")
    k = ns.k if ns.k is not None else d // 2
    fm = poly.polarize(p, k)
    record = {
        "poly_digest": poly_digest(p),
        "degree": d,
        "k": k,
        "shape": fm.shape,
        "rank": fm.rank(),
    }
    return CommandResult(record)


def _border_bound(p: poly.Polynomial, lower_bound) -> CommandResult:
    b = lower_bound(p)
    record = {
        "poly_digest": poly_digest(p),
        "bound": b.bound,
        "best_k": b.best_k,
        "ranks": {str(k): b.ranks[k] for k in sorted(b.ranks)},
    }
    return CommandResult(record)


def cmd_flatten_waring_lb(ns: argparse.Namespace) -> CommandResult:
    return _border_bound(ns.poly_file, flatten.waring_border_lower_bound)


def cmd_flatten_chow_lb(ns: argparse.Namespace) -> CommandResult:
    return _border_bound(ns.poly_file, flatten.chow_border_lower_bound)


def cmd_flatten_shifted(ns: argparse.Namespace) -> CommandResult:
    p: poly.Polynomial = ns.poly_file
    dim = flatten.shifted_partials_dim(p, ns.k, ns.shift)
    record = {
        "poly_digest": poly_digest(p),
        "k": ns.k,
        "shift": ns.shift,
        "dimension": dim,
    }
    return CommandResult(record)


# ---------------------------------------------------------------------------
# hhh
# ---------------------------------------------------------------------------


def cmd_hhh_rank(ns: argparse.Namespace) -> CommandResult:
    record = _echo(ns)
    r = hhh.hhh_rank(ns.d, ns.n, ns.v)
    dom = hhh.sym_sym_dim(ns.d, ns.n, ns.v)
    record["domain_dimension"] = dom
    record["codomain_dimension"] = hhh.sym_sym_dim(ns.n, ns.d, ns.v)
    record["rank"] = r
    record["kernel_dimension"] = dom - r
    return CommandResult(record)


def cmd_hhh_kernel(ns: argparse.Namespace) -> CommandResult:
    record = _echo(ns)
    if ns.weight:
        block = hhh.build_hhh(ns.d, ns.n, ns.v, ns.weight)
        rows, cols = block.shape
        record["shape"] = [rows, cols]
        record["kernel_dimension"] = cols - block.rank()
        return CommandResult(record)
    dims = hhh.kernel_dims_by_weight(ns.d, ns.n, ns.v)
    record["kernel_by_dominant_weight"] = {
        _key_str(w): dims[w] for w in sorted(dims, reverse=True) if dims[w]
    }
    record["kernel_dimension"] = hhh.kernel_dimension(dims, ns.v)
    return CommandResult(record)


def cmd_hhh_character(ns: argparse.Namespace) -> CommandResult:
    ch = hhh.kernel_character(ns.d, ns.n, ns.v)
    ordered = sorted(ch, reverse=True)
    record = _echo(
        ns,
        kernel_multiplicities={_key_str(pi): ch[pi] for pi in ordered},
        kernel_dimension=sum(m * reptheory.schur_dimension(pi, ns.v) for pi, m in ch.items()),
    )
    return CommandResult(record)


# ---------------------------------------------------------------------------
# rep
# ---------------------------------------------------------------------------


def cmd_rep_char(ns: argparse.Namespace) -> CommandResult:
    return CommandResult(_echo(ns, value=reptheory.character(ns.pi, ns.mu)))


def cmd_rep_kron(ns: argparse.Namespace) -> CommandResult:
    return CommandResult(_echo(ns, value=reptheory.kronecker(ns.pi, ns.mu, ns.nu)))


def cmd_rep_skron(ns: argparse.Namespace) -> CommandResult:
    return CommandResult(_echo(ns, value=reptheory.symmetric_kronecker(ns.pi, ns.mu)))


def cmd_rep_pleth(ns: argparse.Namespace) -> CommandResult:
    return CommandResult(_echo(ns, value=reptheory.plethysm_mult(ns.pi, ns.d, ns.n)))


def cmd_rep_obstruct(ns: argparse.Namespace) -> CommandResult:
    pi, d, n = ns.pi, ns.d, ns.n
    if sum(pi) != d * n:
        raise ValueError(f"|pi|={sum(pi)} must equal d*n={d * n}")
    mu = (d,) * n
    _progress(f"[1/3] plethysm multiplicity of {pi} in S^{d}(S^{n}) ...")
    mult = reptheory.plethysm_mult(pi, d, n)
    _progress(f"      mult = {mult}")
    _progress(f"[2/3] Kronecker coefficient k(pi, {d}^{n}, {d}^{n}) ...")
    kron = reptheory.kronecker(pi, mu, mu)
    _progress(f"      k = {kron}")
    _progress(f"[3/3] symmetric Kronecker sk(pi, {d}^{n}) ...")
    sk = reptheory.symmetric_kronecker(pi, mu)
    _progress(f"      sk = {sk}")
    report = reptheory.ObstructionReport(pi=pi, d=d, n=n, mult=mult, sym_kron=sk)
    record = _echo(
        ns,
        mult=mult,
        kronecker=kron,
        symmetric_kronecker=sk,
        representation_obstruction=report.is_representation_obstruction,
        occurrence_obstruction=report.is_occurrence_obstruction,
    )
    return CommandResult(record)


def cmd_rep_useful(ns: argparse.Namespace) -> CommandResult:
    return CommandResult(_echo(ns, value=reptheory.gct_useful_filter(ns.pi, ns.d, ns.n, ns.m)))


# ---------------------------------------------------------------------------
# latin
# ---------------------------------------------------------------------------


def cmd_latin_count(ns: argparse.Namespace) -> CommandResult:
    at = latin.alon_tarsi_count_reduced(ns.n)
    record = {
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


def cmd_latin_pairing(ns: argparse.Namespace) -> CommandResult:
    if ns.all_vars:
        value = latin.pairing_allvars_det(ns.n)
        pairing = "allvars-det"
        description = "coefficient pairing <prod x_ij, det_n^n>"
    else:
        value = latin.pairing_perm_det(ns.n)
        pairing = "perm-det"
        description = "differential pairing <perm_n^n, det_n^n>"
    record = {
        "n": ns.n,
        "pairing": pairing,
        "description": description,
        "value": value,
        "nonzero": value != 0,
    }
    return CommandResult(record)


# ---------------------------------------------------------------------------
# geo
# ---------------------------------------------------------------------------


def _pass_fail(record: dict, claim: str) -> CommandResult:
    """An identity check: the human report is one PASS/FAIL line."""
    return CommandResult(record, human=f"{claim}: {'PASS' if record['ok'] else 'FAIL'}\n")


def cmd_geo_hessian(ns: argparse.Namespace) -> CommandResult:
    tgt: Target = ns.target
    h = geometry.hessian(tgt.poly)
    record: Dict[str, object] = {
        "target": tgt.label(),
        "size": h.size,
        "num_vars": h.num_vars,
        "entry_degree": tgt.poly.degree() - 2,
    }
    entries = [[poly.to_record(e) for e in row] for row in h.entries]
    if ns.output:
        full = {"size": h.size, "num_vars": h.num_vars, "entries": entries}
        _write_text(ns.output, json.dumps(full, indent=2) + "\n")
        record["written_to"] = ns.output
    else:
        record["entries"] = entries
    return CommandResult(record)


def cmd_geo_cp(ns: argparse.Namespace) -> CommandResult:
    tgt: Target = ns.target
    h = geometry.hessian(tgt.poly)
    cp = geometry.cp_coefficient(h, ns.s)
    record: Dict[str, object] = {
        "target": tgt.label(),
        "s": ns.s,
        "matrix": f"H({tgt.label()})",
        "terms": cp.num_terms(),
        "degree": cp.degree(),
        "digest": poly_digest(cp),
    }
    if ns.output:
        _write_text(ns.output, poly.dumps(cp))
        record["written_to"] = ns.output
    return CommandResult(record)


def cmd_geo_sfturbo(ns: argparse.Namespace) -> CommandResult:
    checks = tuple(ns.checks.split(",")) if ns.checks else None
    report = geometry.verify_sfturbo(ns.v, checks=checks)
    record = {
        "v": ns.v,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail}
            for c in report.checks
        ],
        "ok": report.ok,
    }
    return CommandResult(record, human=report.summary() + "\n")


def cmd_geo_discriminant(ns: argparse.Namespace) -> CommandResult:
    record = {
        "identity": "det(H(Delta)) = 3888 * Delta^2",
        "ok": geometry.verify_discriminant_identity(),
    }
    return _pass_fail(record, "det(H(Δ)) = 3888·Δ²")


def cmd_geo_cayley(ns: argparse.Namespace) -> CommandResult:
    record = _echo(
        ns,
        identity="det(d/dx) det^{s+1} = ((s+n)!/s!) det^s",
        ok=geometry.cayley_check(ns.n, ns.s),
    )
    return _pass_fail(record, f"Cayley identity at n={ns.n}, s={ns.s}")


def cmd_geo_sylfranke(ns: argparse.Namespace) -> CommandResult:
    record = _echo(
        ns,
        statement="det(A)^p divides cp_{C(v-1,k)+p}(compound(A,k))",
        ok=geometry.verify_sylvester_franke(ns.v, ns.k, ns.p),
    )
    claim = f"det^{ns.p} | cp_{comb(ns.v - 1, ns.k) + ns.p}(Λ^{ns.k} A) at v={ns.v}"
    return _pass_fail(record, claim)


def cmd_geo_dualdim(ns: argparse.Namespace) -> CommandResult:
    tgt: Target = ns.target
    if ns.point:
        point = ns.point
        origin = "explicit"
    elif tgt.name == "det":
        import random

        point = geometry.sample_det_smooth_zero(tgt.params[0], random.Random(ns.seed))
        origin = f"sampled rank-{tgt.params[0] - 1} matrix (seed {ns.seed})"
    elif tgt.name == "perm":
        point = geometry.perm_special_point(tgt.params[0])
        origin = "all-ones matrix with entry (1,1) = -(m-1)"
    else:
        raise ValueError(
            "dualdim needs --point for targets other than det/perm"
        )
    dd = geometry.dual_dimension_at(tgt.poly, point)
    record = {
        "target": tgt.label(),
        "point": point,
        "point_origin": origin,
        "dual_dimension": dd,
    }
    return CommandResult(record)


def cmd_geo_stab(ns: argparse.Namespace) -> CommandResult:
    tgt: Target = ns.target
    record = {
        "target": tgt.label(),
        "stabilizer_lie_dim": geometry.stabilizer_lie_dim(tgt.poly),
    }
    return CommandResult(record)


# ---------------------------------------------------------------------------
# The command table and the parser built from it
# ---------------------------------------------------------------------------

Arg = Tuple[Tuple[str, ...], dict]


def _arg(*flags: str, **kwargs: object) -> Arg:
    """One ``add_argument`` call, kept as data."""
    return flags, kwargs


def _ints(*names: str) -> Tuple[Arg, ...]:
    """Integer positional arguments."""
    return tuple(_arg(name, type=int) for name in names)


_DNV = _ints("d", "n", "v")
_POLY_FILE = (_arg("poly_file"),)
_PI_MU = (_arg("pi"), _arg("mu"))
_PI_D_N = (_arg("pi"), *_ints("d", "n"))
_TARGET = _arg("target", nargs="+")

#: group -> (help, {command -> (help, cacheable, argument specs)})
COMMANDS: Dict[str, Tuple[str, Dict[str, Tuple[str, bool, Tuple[Arg, ...]]]]] = {
    "zoo": ("named polynomials, witnesses, verification", {
        "make": ("emit a named polynomial as a polynomial file", False, (
            _arg("name", help="det perm elem chow fermat sumprod imm pascal_det p_lambda "
                 "discriminant padded_elem"),
            _arg("params", nargs="*", type=int),
            _arg("-o", "--output", default=None, help="write to file instead of stdout"),
        )),
        "witness": ("emit a classical decomposition witness file", False, (
            _arg("scheme", choices=("fischer", "ryser", "benor")),
            _arg("params", nargs="*", type=int),
            _arg("-o", "--output", default=None),
        )),
        "verify": ("verify a witness file against a target polynomial file", False, (
            _arg("witness"),
            _arg("target_file", metavar="target"),
        )),
    }),
    "flatten": ("exact flattening ranks and lower bounds", {
        "rank": ("rank of the k-th catalecticant (default middle)", True, (
            *_POLY_FILE,
            _arg("--k", type=int, default=None),
        )),
        "waring-lb": ("Waring border-rank lower bound over all catalecticants", True, _POLY_FILE),
        "chow-lb": ("Chow border-rank lower bound over all catalecticants", True, _POLY_FILE),
        "shifted": ("dimension of the shifted partial-derivative space", True, (
            *_POLY_FILE,
            _arg("--k", type=int, required=True),
            _arg("--l", dest="shift", type=int, required=True, help="shift degree"),
        )),
    }),
    "hhh": ("the Hermite-Hadamard-Howe map h_{d,n}", {
        "rank": ("rank of h_{d,n} on C^v", True, _DNV),
        "kernel": ("kernel dimensions by dominant weight (or of one weight block)", True, (
            *_DNV,
            _arg("--weight", default=None, help="comma list, e.g. 5,5,5,5,5"),
        )),
        "character": ("GL-character of ker h_{d,n} as Schur multiplicities", True, _DNV),
    }),
    "rep": ("symmetric-group multiplicity calculus", {
        "char": ("irreducible character value chi^pi(mu)", False, _PI_MU),
        "kron": ("Kronecker coefficient k(pi, mu, nu)", False, (*_PI_MU, _arg("nu"))),
        "skron": ("symmetric Kronecker coefficient sk(pi, mu)", False, _PI_MU),
        "pleth": ("multiplicity of S_pi in S^d(S^n)", True, _PI_D_N),
        "obstruct": ("occurrence-obstruction data (mult, k, sk) for det_n", True, _PI_D_N),
        "useful": ("necessary (n,m)-GCT-usefulness filter", False, (*_PI_D_N, *_ints("m"))),
    }),
    "latin": ("Alon-Tarsi sign counting and pairings", {
        "count": ("signed Latin-square counts (reduced enumeration)", True, _ints("n")),
        "pairing": ("differential pairing <perm^n, det^n> (or all-vars coefficient)", True, (
            *_ints("n"),
            _arg("--all-vars", action="store_true"),
        )),
    }),
    "geo": ("Hessians, cp identities, dual/stabilizer dims", {
        "hessian": ("Hessian matrix of a target polynomial", False, (
            _arg("target", nargs="+", help="'det 3', 'perm 3', ... or a polynomial file"),
            _arg("-o", "--output", default=None, help="write entries as JSON"),
        )),
        "cp": ("characteristic coefficient cp_s of the Hessian", True, (
            _TARGET,
            _arg("--s", type=int, required=True),
            _arg("-o", "--output", default=None, help="write cp_s as a polynomial file"),
        )),
        "sfturbo": ("characteristic-coefficient identities for H(det_v)", True, (
            *_ints("v"),
            _arg("--checks", default=None,
                 help="comma list from cp1,cp2_negative,cp3,cp5,cp8,cp9"),
        )),
        "discriminant": (
            "verify det(H(Delta)) = 3888 Delta^2 for the binary-cubic discriminant", True, ()
        ),
        "cayley": (
            "Cayley identity det(d/dx) det^{s+1} = ((s+n)!/s!) det^s", True, _ints("n", "s")
        ),
        "sylfranke": (
            "Sylvester-Franke divisibility for compound matrices", True, _ints("v", "k", "p")
        ),
        "dualdim": ("dual-variety dimension at a smooth zero", True, (
            _TARGET,
            _arg("--point", default=None, help="comma list of rationals"),
            _arg("--seed", type=int, default=0, help="seed for sampled points (default 0)"),
        )),
        "stab": ("dimension of the gl(v) stabilizer Lie algebra", True, (_TARGET,)),
    }),
}


def _hoist_globals(argv: Sequence[str]) -> List[str]:
    """Move fully spelled global flags to the front."""
    front: List[str] = []
    rest: List[str] = []
    tokens = iter(argv)
    for a in tokens:
        if a in ("--json", "--no-cache") or a.startswith("--cache-dir="):
            front.append(a)
        elif a == "--cache-dir":
            front.append(a)
            front.extend(islice(tokens, 1))  # its value, if there is one
        else:
            rest.append(a)
    return front + rest


class _Parser(argparse.ArgumentParser):
    """A parser that runs ``fill(self)`` when it is first asked to parse.

    Argparse hands the words after a sub-command's name to that
    sub-command's ``parse_known_args``, so only the group and the command on
    the line are filled in: the others keep the name and help that ``-h``
    and an invalid-choice error print.

    A word that starts like a negative number is a value, never an option,
    so ``-1,3,4`` reaches its conversion; argparse's own pattern takes only
    ``-1`` and ``-1.5`` as numbers.  No option of ``gct`` starts with a digit.
    """

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def parse_known_args(self, args=None, namespace=None):
        fill, self._fill = self._fill, None
        if fill is not None:
            fill(self)
        return super().parse_known_args(args, namespace)


def _add_commands(commands: dict, group: _Parser) -> None:
    sub = group.add_subparsers(dest="cmd", metavar="CMD", required=True)
    for name, (cmd_help, cacheable, args) in commands.items():
        fill = functools.partial(_add_arguments, cacheable, args)
        sub.add_parser(name, help=cmd_help, description=cmd_help, fill=fill)


def _add_arguments(cacheable: bool, args: Tuple[Arg, ...], command: _Parser) -> None:
    dests = [command.add_argument(*flags, **kwargs).dest for flags, kwargs in args]
    # what the cache key and the record echo: all but the -o file
    command.set_defaults(cacheable=cacheable, arg_names=[d for d in dests if d != "output"])


def build_parser() -> argparse.ArgumentParser:
    """The parser of :data:`COMMANDS`; a group's commands and a command's
    arguments are added when argparse reaches them on the line."""
    parser = _Parser(
        prog="gct",
        description="Exact-arithmetic toolkit for flattenings, plethysms, "
        "Latin-square sign counting, and determinant geometry.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default $GCT_CACHE_DIR or ~/.cache/gct)")
    groups = parser.add_subparsers(dest="group", metavar="GROUP", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        groups.add_parser(group, help=group_help, fill=functools.partial(_add_commands, commands))
    return parser


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

#: what a bad argument raises, in a conversion or in a handler: exit code 2
_USAGE_ERRORS = (OSError, ValueError, KeyError, ZeroDivisionError)


def _usage_error(exc: Exception) -> int:
    # str() of a KeyError is the repr of its message: print the message
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"gct: error: {message}", file=sys.stderr)
    return 2


def _resolve_cache_dir(ns: argparse.Namespace) -> str:
    if ns.cache_dir:
        return ns.cache_dir
    env = os.environ.get("GCT_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "gct")


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, run, report; returns the process exit code."""
    # a local name: bound at module level, the class raised the peak RSS of
    # `gct hhh character 6 3 3` by about 0.1 MB (2 vCPUs, Python 3.11.7)
    from . import CapacityError

    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(_hoist_globals(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name in ns.arg_names:
            value = getattr(ns, name)
            if name in _CONVERSIONS and value is not None:
                setattr(ns, name, _CONVERSIONS[name](value))
    except _USAGE_ERRORS as exc:
        return _usage_error(exc)

    command = (ns.group, ns.cmd)
    # -o writes a side-effect file, which a cache replay would skip
    use_cache = (
        ns.cacheable and not ns.no_cache and not getattr(ns, "output", None)
    )
    if use_cache:
        parameters = _jsonable(
            {name: _key_value(name, getattr(ns, name)) for name in ns.arg_names}
        )
        key = manifest_key(command, parameters)
        path = os.path.join(_resolve_cache_dir(ns), key + ".json")
        entry = _cache_load(path)
        if entry is not None:
            sys.stdout.write(
                render_json(entry["record"]) if ns.json else entry["human"]
            )
            return 0 if entry["ok"] else 1

    handler = globals()["cmd_" + "_".join(command).replace("-", "_")]
    t0 = time.perf_counter()
    try:
        result = handler(ns)
    except CapacityError as exc:
        record = {
            "error": "capacity",
            "context": exc.context,
            "size": exc.size,
            "cap": exc.cap,
            "message": str(exc),
        }
        sys.stdout.write(render_json(record) if ns.json else render_human(record))
        return 3
    except _USAGE_ERRORS as exc:
        return _usage_error(exc)
    elapsed = time.perf_counter() - t0

    record = _jsonable({"command": " ".join(command), **result.record})
    human = render_human(record) if result.human is None else result.human
    ok = record.get("ok", True)
    if use_cache:
        # the run manifest: the key's inputs, the timing and the result digest
        manifest = {
            "command": list(command),
            "parameters": parameters,
            "code_version": code_digest(),
            "timing_seconds": round(elapsed, 6),
            "result_digest": entry_digest(record, human, ok),
        }
        try:
            _cache_store(path, {"manifest": manifest, "ok": ok, "record": record, "human": human})
        except OSError as exc:  # the result stands without its cache entry
            print(f"gct: warning: result not cached: {exc}", file=sys.stderr)
    sys.stdout.write(render_json(record) if ns.json else human)
    return 0 if ok else 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
