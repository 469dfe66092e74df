"""Layout guard: the library holds no function or class that only the
tests call, and no keyword option that only the tests set.  A name that
only tests need belongs in the tests."""

import ast
import re
from pathlib import Path

from gct import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gct"


def _entry_points():
    """Function names of the console scripts declared in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r":(\w+)\"", section.group(1)))


def _traced_names():
    """Library names the benchmark's tracer binds by name (bench/tracer.py)."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "TARGETS":
            return {attr.split(".")[0] for _, _, attr in ast.literal_eval(stmt.value)}
    raise AssertionError("bench/tracer.py defines no TARGETS")


def _used_names(node):
    """Every name a piece of code uses, bare or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreachable_public_names():
    """Public top-level functions and classes of src/gct that no code under
    src/gct reaches, as sorted "module.name" strings.

    Module-level statements and the names looked up by name only (the
    ``COMMANDS`` handlers, the ``_SCHEMES`` constructors, the console entry
    point, the functions the benchmark's tracer wraps) are the roots; a
    definition's body counts only once the definition itself is reached, so
    a helper of an orphan is an orphan.
    """
    roots = _entry_points() | _traced_names()
    for group, (_, commands) in cli.COMMANDS.items():
        roots.update(f"cmd_{group}_{name}".replace("-", "_") for name in commands)
    roots.update(f"{scheme}_decomposition" for scheme in cli._SCHEMES)
    bodies = {}  # name -> the top-level definitions of that name
    public = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, []).append(stmt)
                if not stmt.name.startswith("_"):
                    public.append((path.stem, stmt.name))
            else:
                roots.update(_used_names(stmt))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for stmt in bodies.get(name, ()):
            todo.extend(_used_names(stmt))
    return sorted(f"{module}.{name}" for module, name in public if name not in reached)


def test_every_library_name_has_a_src_caller():
    orphans = unreachable_public_names()
    assert not orphans, f"called only from outside src/gct: {', '.join(orphans)}"


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unset_keyword_parameters():
    """Keyword-only parameters of public functions and methods of src/gct
    that no call under src/gct passes by name, as sorted
    "module.function(parameter)" strings.  A call counts when its callee's
    name (bare or as an attribute) is the function's name."""
    passed, params = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                passed.update((_callee(node), kw.arg) for kw in node.keywords if kw.arg)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    params.extend((path.stem, node.name, a.arg) for a in node.args.kwonlyargs)
    return sorted(f"{m}.{f}({a})" for m, f, a in params if (f, a) not in passed)


def test_every_keyword_option_has_a_src_caller():
    unset = unset_keyword_parameters()
    assert not unset, f"keyword options no call in src/gct sets: {', '.join(unset)}"
