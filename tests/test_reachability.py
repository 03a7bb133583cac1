"""Every piece of package code is reached from a production entry point.

The entry points are the CLI (``python -m serverless_covariate_drift_detection_ray``),
``__ray_entry__.py``, ``bench.py``, ``tools/`` and ``perfbench/``. The walk
follows AST imports only (function-local imports included), so code that
only tests import shows up as unreached.
"""

import ast
import pathlib

import serverless_covariate_drift_detection_ray as pkg

PKG_ROOT = pathlib.Path(pkg.__file__).parent
REPO = PKG_ROOT.parent
PKG = PKG_ROOT.name

# reference implementations the tests compare the production kernels with
EXEMPT = {("functions/codec.py", "psnr"), ("functions/stats.py", "mmd2_biased")}


def _entry_files() -> list[pathlib.Path]:
    files = [PKG_ROOT / "__main__.py", REPO / "__ray_entry__.py",
             REPO / "bench.py"]
    files += sorted((REPO / "tools").glob("*.py"))
    files += sorted((REPO / "perfbench").glob("*.py"))
    return files


def _module_file(dotted: str) -> pathlib.Path | None:
    parts = dotted.split(".")
    if parts[0] != PKG:
        return None
    base = PKG_ROOT.joinpath(*parts[1:])
    for cand in (base.with_suffix(".py"), base / "__init__.py"):
        if cand.is_file():
            return cand
    return None


def _dotted(path: pathlib.Path) -> str:
    rel = path.relative_to(REPO).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: pathlib.Path) -> set[pathlib.Path]:
    """Package module files ``path`` imports, parents' ``__init__`` included."""
    here = _dotted(path).split(".")
    if path.name != "__init__.py":
        here = here[:-1]  # the module's own package
    out: set[pathlib.Path] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        names: list[str] = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(here[:len(here) - node.level + 1]
                                + ([base] if base else []))
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        for name in names:
            parts = name.split(".")
            for i in range(1, len(parts) + 1):
                f = _module_file(".".join(parts[:i]))
                if f is not None:
                    out.add(f)
    return out


def _reached_modules() -> set[pathlib.Path]:
    todo = [f for e in _entry_files() for f in _imports(e)]
    todo.append(PKG_ROOT / "__main__.py")
    seen: set[pathlib.Path] = set()
    while todo:
        f = todo.pop()
        if f not in seen:
            seen.add(f)
            todo.extend(_imports(f))
    return seen


def _names(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.rsplit(".", 1)[-1])
            out.append(node.asname or "")
    return out


def test_every_package_module_is_reached():
    reached = _reached_modules()
    unreached = sorted(str(p.relative_to(PKG_ROOT))
                       for p in PKG_ROOT.rglob("*.py") if p not in reached)
    assert unreached == []


def test_every_top_level_definition_is_used_in_production():
    """A top-level ``def``/``class`` of a reached module must be named
    somewhere in production code outside its own body. A decorated
    definition (``register_check``) registers itself and counts as used."""
    sources = set(_entry_files()) | _reached_modules()
    trees = {p: ast.parse(p.read_text()) for p in sources}
    uses: dict[str, int] = {}
    for tree in trees.values():
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
    unused = []
    for path, tree in trees.items():
        if not path.is_relative_to(PKG_ROOT):
            continue
        rel = str(path.relative_to(PKG_ROOT))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.decorator_list or (rel, node.name) in EXEMPT:
                continue
            own = _names(node).count(node.name)
            if uses.get(node.name, 0) - own <= 0:
                unused.append(f"{rel}:{node.lineno} {node.name}")
    assert unused == []
