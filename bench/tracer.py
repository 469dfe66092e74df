"""Run one ``gct`` command in this process with spans around each layer.

Usage:  python3 bench/tracer.py SRC SPANS_OUT SPAWN_T -- GCT_ARGS...

The public functions each layer exposes are replaced, from outside, by
wrappers that record a span (name, start, end, parent) in memory; then
``gct.cli.dispatch`` runs the command exactly as ``python -m gct.cli``
would, printing the same bytes.  At exit the spans and the counts taken at
the same boundaries are written to SPANS_OUT as JSON.  Nothing under
``src/`` is modified.

SPAWN_T is the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide), so the file also gives start-up time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import factorial, gcd

perf = time.perf_counter

#: (span name, module, attribute): the attribute is replaced in every gct
#: module (and class) that binds the same object, so ``from x import f``
#: callers are traced too.  Span names are "<layer>.<function>".
TARGETS = [
    ("cli.dispatch", "gct.cli", "dispatch"),
    ("hhh.build_hhh", "gct.hhh", "build_hhh"),
    ("hhh.hhh_column", "gct.hhh", "hhh_column"),
    ("hhh.predicted_block_size", "gct.hhh", "predicted_block_size"),
    ("hhh.hhh_rank", "gct.hhh", "hhh_rank"),
    ("hhh.kernel_dims_by_weight", "gct.hhh", "kernel_dims_by_weight"),
    ("hhh.kernel_character", "gct.hhh", "kernel_character"),
    ("flatten.exact_rank", "gct.flatten", "exact_rank"),
    ("flatten.nullspace", "gct.flatten", "nullspace"),
    ("flatten.solve_linear", "gct.flatten", "solve_linear"),
    ("flatten.waring_border_lower_bound", "gct.flatten", "waring_border_lower_bound"),
    ("flatten.shifted_partials_dim", "gct.flatten", "shifted_partials_dim"),
    ("reptheory.decompose_weight_dims", "gct.reptheory", "decompose_weight_dims"),
    ("reptheory.count_weight_multisets", "gct.reptheory", "count_weight_multisets"),
    ("reptheory.plethysm_mult", "gct.reptheory", "plethysm_mult"),
    ("reptheory.kronecker", "gct.reptheory", "kronecker"),
    ("reptheory.symmetric_kronecker", "gct.reptheory", "symmetric_kronecker"),
    ("reptheory.character", "gct.reptheory", "character"),
    ("latin.count_branch", "gct.latin", "count_branch"),
    ("latin.alon_tarsi_count_reduced", "gct.latin", "alon_tarsi_count_reduced"),
    ("latin.pairing_perm_det", "gct.latin", "pairing_perm_det"),
    ("latin.pairing_allvars_det", "gct.latin", "pairing_allvars_det"),
    ("poly.mul", "gct.poly", "Polynomial.__mul__"),
    ("poly.apply_diff", "gct.poly", "apply_diff"),
    ("poly.polarize", "gct.poly", "polarize"),
    ("geometry.cp_coefficient", "gct.geometry", "cp_coefficient"),
    ("geometry.divide_exact", "gct.geometry", "divide_exact"),
    ("geometry.verify_sfturbo", "gct.geometry", "verify_sfturbo"),
    ("geometry.verify_discriminant_identity", "gct.geometry", "verify_discriminant_identity"),
    ("geometry.cayley_check", "gct.geometry", "cayley_check"),
    ("geometry.dual_dimension_at", "gct.geometry", "dual_dimension_at"),
    ("geometry.stabilizer_lie_dim", "gct.geometry", "stabilizer_lie_dim"),
    ("zoo.verify_chow", "gct.zoo", "verify_chow"),
    ("zoo.verify_waring", "gct.zoo", "verify_waring"),
]

#: span name of the time the tracer spends on its own counts
BOOKKEEPING = "trace.bookkeeping"


def _entries(matrix):
    """Rows of a matrix argument: FlatteningMatrix, PlethysmMap or nested lists."""
    return getattr(matrix, "entries", matrix)


def _max_entry_bits(rows) -> int:
    """Largest bit-length after clearing each row's denominators, as Bareiss starts."""
    best = 0
    for row in rows:
        nonzero = [x for x in row if x]
        lcm = 1
        for x in nonzero:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        for x in nonzero:
            best = max(best, abs(x.numerator * (lcm // x.denominator)).bit_length())
    return best


def _leaves(ms, n: int) -> int:
    """Orderings ``hhh_column`` enumerates: the first row is pinned."""
    total = 1
    for m in ms[1:]:
        ways = factorial(n)
        for e in m:
            ways //= factorial(e)
        total *= ways
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.column_args: list = []
        self.elim: list = []  # [rows, cols, max entry bits, rank or None]
        self.branches: list = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                self._bookkeep(after, args, result)
            return result

        return traced

    def _bookkeep(self, after, args, result) -> None:
        idx = len(self.spans)
        self.spans.append(None)
        t0 = perf()
        after(args, result)
        self.spans[idx] = (BOOKKEEPING, t0, perf(), self.stack[-1] if self.stack else -1)

    def _after_elim(self, kind: str):
        def record(args, result) -> None:
            rows = _entries(args[0])
            n_rows = len(rows)
            n_cols = len(rows[0]) if n_rows else 0
            if kind == "rank":
                rank = result
            elif kind == "kernel":  # one basis vector per free column
                rank = n_cols - len(result)
            else:  # a solve has no rank to report
                rank = None
            self.elim.append([n_rows, n_cols, _max_entry_bits(rows), rank])

        return record

    def install(self) -> None:
        import gct.cli  # noqa: F401  (imports every layer)

        modules = [m for k, m in sys.modules.items() if k == "gct" or k.startswith("gct.")]
        hooks = {
            "flatten.exact_rank": self._after_elim("rank"),
            "flatten.nullspace": self._after_elim("kernel"),
            "flatten.solve_linear": self._after_elim("solve"),
            "latin.count_branch": lambda args, result: self.branches.append(list(result)),
        }
        targets = list(TARGETS)
        cli = sys.modules["gct.cli"]
        targets += [("cli.handler", "gct.cli", k) for k in vars(cli) if k.startswith("cmd_")]
        for name, modname, attr in targets:
            owner = sys.modules[modname]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self.wrap(name, original, hooks.get(name))
            if name == "hhh.hhh_column":
                wrapped = self._count_columns(wrapped)
            for holder in modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def _count_columns(self, fn):
        args_seen = self.column_args

        @functools.wraps(fn)
        def counted(ms, n, v):
            args_seen.append((ms, n))
            return fn(ms, n, v)

        return counted

    def summary(self, spawn_t: float) -> dict:
        rep = sys.modules.get("gct.reptheory")
        info = getattr(getattr(rep, "_mn", None), "cache_info", None)
        mn = info() if info else None
        return {
            "spawn_t": spawn_t,
            "spans": self.spans,
            "leaves": sum(_leaves(ms, n) for ms, n in self.column_args),
            "elim": self.elim,
            "branches": self.branches,
            "mn": [mn.hits, mn.misses] if mn else [0, 0],
        }


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        print("usage: tracer.py SRC SPANS_OUT SPAWN_T -- GCT_ARGS...", file=sys.stderr)
        return 2
    src, out_path, spawn_t = sys.argv[1], sys.argv[2], float(sys.argv[3])
    sys.path.insert(0, src)
    tracer = Tracer()
    tracer.install()
    import gct.cli

    code = gct.cli.dispatch(sys.argv[5:])
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(spawn_t), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
