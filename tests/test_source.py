"""Source hygiene: no leftovers of deleted code in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rotquant"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree):
    """Every name the module reads, and every attribute and imported name it uses."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__":  # the package re-exports what it imports
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused


def test_every_private_module_name_is_referenced():
    referenced = set().union(*map(_loaded_names, MODULES.values()))
    orphans = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [n for n in defined if n.startswith("_") and not n.startswith("__")]
            orphans.extend(f"{module}: {name}" for name in private if name not in referenced)
    assert not orphans


def test_every_all_entry_is_bound_in_its_module():
    # a stale entry would be skipped without a word by tools that walk __all__
    stale = []
    for module, tree in MODULES.items():
        bound, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                bound.update(names)
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
        stale.extend(f"{module}: {name}" for name in exported if name not in bound)
    assert not stale


def test_no_public_function_only_forwards_its_parameters():
    # `def f(a, b): return g(a, b)` is a second name for g's job; callers call g
    aliases = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
                continue
            call, args = body[0].value, node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            if not call.keywords and [getattr(a, "id", None) for a in call.args] == params:
                aliases.append(f"{module}.{node.name}")
    assert not aliases


def _importers(*packages):
    """The modules that import any of `packages` (top-level names)."""
    importers = []
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(name.split(".")[0] in packages for name in names):
                importers.append(module)
    return importers


def test_only_optim_imports_ctypes():
    # setting the C allocator is the one process-wide side effect; it stays in one place
    assert _importers("ctypes") == ["optim"]


def test_only_autodiff_starts_threads():
    # parallel_sum's worker pool is the one place that runs code on another thread
    assert sorted(set(_importers("threading", "concurrent", "contextvars"))) == ["autodiff"]


def _calls_by_name():
    """{called name: [ast.Call]} over every Python file of the package, the
    tests, the demos and the benchmark; a method call counts under its
    attribute name."""
    root = PACKAGE.parents[1]
    calls = {}
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, name, index):
    """Whether `call` gives the parameter `name`, at positional `index` (None:
    keyword-only), by keyword, by position or through * / **."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > index


def test_every_defaulted_parameter_of_a_public_function_has_a_caller():
    # a default no call overrides is a setting nobody uses: inline it
    calls = _calls_by_name()
    unused = []
    for module, tree in MODULES.items():
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs.extend(node for node in cls.body if isinstance(node, ast.FunctionDef))
        for node in (node for node in defs if not node.name.startswith("_")):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            skip = 1 if positional[:1] in (["self"], ["cls"]) else 0  # bound by the call, never passed
            first_defaulted = len(positional) - len(args.defaults)
            defaulted = [(p, i - skip) for i, p in enumerate(positional) if i >= first_defaulted]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param, index in defaulted:
                if not any(_passes(call, param, index) for call in calls.get(node.name, [])):
                    unused.append(f"{module}.{node.name}({param})")
    assert not unused


def test_only_autodiff_node_and_parameter_build_a_var():
    # every graph node comes from autodiff._node, which hangs it on its Var operands only
    builders = set()
    for module, tree in MODULES.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Var":
                    builders.add(f"{module}.{getattr(top, 'name', '')}")
    assert builders == {"autodiff._node", "autodiff.parameter"}
