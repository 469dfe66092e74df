"""Layout guard: the library holds no function, class or method that only
the tests call, no NamedTuple field that only the tests read, no keyword
option that only the tests set, no import that its module never reads,
no private name imported from another module, no module-level name that
no library code reads, and no cache that never evicts unless it is on
the allow-list below.  A name that only tests need belongs in the
tests."""

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_names(fn):
    """The names a function binds itself: its parameters, the targets it
    assigns, the handlers it names and the functions and classes it defines.
    Nested scopes are not entered (their own bindings are theirs), and a
    ``global`` declaration keeps a name global."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    declared_global = set()
    todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names - declared_global


def _used_names(node, local=frozenset()):
    """Every name a piece of code reads, bare or as an attribute.  A bare
    name that an enclosing function binds is that function's own (a local
    ``sign`` is not a use of ``latin.sign``)."""
    if isinstance(node, _SCOPES):
        local = local | _bound_names(node)
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in local:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _used_names(child, local)


def unreachable_names():
    """Top-level functions and classes of src/gct, public or private, that no
    code under src/gct reaches, as sorted "module.name" strings.

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
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, []).append(stmt)
                defined.append((path.stem, stmt.name))
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
    return sorted(f"{module}.{name}" for module, name in defined if name not in reached)


def test_every_library_name_has_a_src_caller():
    orphans = unreachable_names()
    assert not orphans, f"called only from outside src/gct: {', '.join(orphans)}"


def unaccessed_methods():
    """Methods of src/gct classes, dunders aside, whose name no attribute
    access under src/gct spells, as sorted "module.Class.method" strings."""
    accessed, methods = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                accessed.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                methods.extend(
                    (path.stem, node.name, stmt.name)
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
                )
    return sorted(f"{m}.{c}.{f}" for m, c, f in methods if f not in accessed)


def test_every_library_method_has_a_src_caller():
    unused = unaccessed_methods()
    assert not unused, f"methods called only from outside src/gct: {', '.join(unused)}"


def unaccessed_fields():
    """Fields of src/gct NamedTuples whose name no attribute access under
    src/gct spells, as sorted "module.Class.field" strings; matched by name,
    as ``unaccessed_methods`` matches methods."""
    accessed, fields = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                accessed.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(base).split(".")[-1] == "NamedTuple" for base in node.bases
            ):
                fields.extend(
                    (path.stem, node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
    return sorted(f"{m}.{c}.{f}" for m, c, f in fields if f not in accessed)


def test_every_named_tuple_field_is_read_in_src():
    unread = unaccessed_fields()
    assert not unread, f"fields read only from outside src/gct: {', '.join(unread)}"


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


def unread_imports():
    """Names bound by a module-level import of a src/gct module that the
    module itself never reads, as sorted "module.name" strings.  ``from
    __future__`` imports are directives, not names."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            and getattr(stmt, "module", None) != "__future__"
            for alias in stmt.names
        ]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread.extend(f"{path.stem}.{name}" for name in imported if name not in read)
    return sorted(unread)


def test_every_import_is_read():
    unread = unread_imports()
    assert not unread, f"imported but never read: {', '.join(unread)}"


def private_imports():
    """Names starting with ``_`` that a src/gct module imports from another
    gct module, as sorted "module: from source import name" strings.  A
    private name is its module's own business; a name another module needs
    is public, or the code that needs it belongs beside it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = "." * node.level + (node.module or "")
            if node.level or source.split(".")[0] == "gct":
                found.extend(
                    f"{path.stem}: from {source} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    return sorted(found)


def test_no_module_imports_private_names():
    crossing = private_imports()
    assert not crossing, f"private names imported across modules: {', '.join(crossing)}"


def unread_module_names():
    """Names a module-level assignment in src/gct binds (dunders aside)
    that no code under src/gct reads, bare or as an attribute, as sorted
    "module.name" strings.  A read inside a function that binds the same
    name itself is that function's own and does not count."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _used_names(tree)}
    assigned = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            else:
                continue
            assigned.extend(
                (module, node.id)
                for target in targets
                for node in ast.walk(target)
                if isinstance(node, ast.Name)
            )
    return sorted(
        f"{module}.{name}"
        for module, name in assigned
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_module_level_name_is_read():
    unread = unread_module_names()
    assert not unread, f"assigned at module level but never read: {', '.join(unread)}"


#: the caches src/gct keeps with no bound, each keyed by the arguments of
#: one run: the package digest, the packed orderings of one row,
#: and the suffix counts the weight blocks of one S^d(S^n C^v) share
UNBOUNDED_CACHES = {"cli.code_digest", "hhh._distinct_orderings", "reptheory._suffix_counts"}


def _never_evicts(wrapper):
    """Whether a decorator or wrapper expression is ``cache`` or
    ``lru_cache(maxsize=None)``, bare or as a ``functools`` attribute."""
    if isinstance(wrapper, ast.Call) and _callee(wrapper) == "lru_cache":
        sizes = [kw.value for kw in wrapper.keywords if kw.arg == "maxsize"] + wrapper.args[:1]
        return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
    return ast.unparse(wrapper).split(".")[-1] == "cache"


def unbounded_caches():
    """Caches of src/gct that never evict, as sorted "module.name" strings:
    functions and methods wrapped by ``cache`` or ``lru_cache(maxsize=None)``,
    as a decorator or a call, and module-level dicts that start empty or
    that code of their module stores into."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found.extend(
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and any(map(_never_evicts, node.decorator_list))
        )
        filled = {
            node.value.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
        } | {
            node.func.value.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("setdefault", "update") and isinstance(node.func.value, ast.Name)
        }
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
                continue
            value = stmt.value
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(value, ast.Dict):
                empty = not value.keys
            elif isinstance(value, ast.Call) and _callee(value) in ("dict", "defaultdict"):
                empty = _callee(value) == "defaultdict" or not (value.args or value.keywords)
            elif isinstance(value, ast.Call) and _never_evicts(value.func):
                empty = True
            else:
                continue
            found.extend(f"{path.stem}.{name}" for name in names if empty or name in filled)
    return sorted(found)


def test_every_unbounded_cache_is_on_the_allow_list():
    found = set(unbounded_caches())
    assert found == UNBOUNDED_CACHES, (
        f"unbounded caches not allowed: {', '.join(sorted(found - UNBOUNDED_CACHES)) or 'none'}; "
        f"allowed but gone: {', '.join(sorted(UNBOUNDED_CACHES - found)) or 'none'}"
    )
