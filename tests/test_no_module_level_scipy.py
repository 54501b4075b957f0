"""Lint guard: the serving and CLI import graphs import no scipy.

A cold ``import repro.service`` is most of a server's start time, so a
module it loads imports scipy inside the function that calls it, never
at module level; ``import repro.cli`` follows the same rule.  This test
walks the import statements that run at import time, from
``repro.service`` and ``repro.cli`` through every ``repro`` module they
reach, without importing anything, and fails on any of them that names
scipy.  It covers module-level branches that a runtime probe of
``sys.modules`` does not take.
"""

import ast
import pathlib

SRC_ROOT = pathlib.Path(__file__).parent.parent / "src"

ROOTS = ("repro.service", "repro.cli")


def _source(name):
    """The file of module ``name`` under ``src``, or ``None``."""
    base = SRC_ROOT.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _import_time_imports(tree, package):
    """``(module, lineno)`` for each import that runs when the module is
    imported: everything outside function bodies and outside
    ``if TYPE_CHECKING:`` blocks.  ``from a import b`` yields ``a`` and
    ``a.b``, since ``b`` may be a submodule."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            yield module, node.lineno
            for alias in node.names:
                yield f"{module}.{alias.name}", node.lineno
        else:
            stack.extend(
                child for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.stmt)
            )


def _with_parents(name):
    parts = name.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def test_serving_and_cli_graphs_import_no_scipy_at_module_level():
    seen = set()
    queue = [parent for root in ROOTS for parent in _with_parents(root)]
    offenders = []
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        seen.add(name)
        path = _source(name)
        if path is None:
            continue
        package = (
            name if path.name == "__init__.py" else name.rsplit(".", 1)[0]
        )
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module, lineno in _import_time_imports(tree, package):
            top = module.split(".")[0]
            if top == "scipy":
                relative = path.relative_to(SRC_ROOT).as_posix()
                offenders.append(f"src/{relative}:{lineno} imports {module}")
            elif top == "repro":
                queue.extend(_with_parents(module))
    assert "repro.ctmc.structure" in seen and "repro.cli" in seen
    assert not offenders, (
        "module-level scipy imports on the serving or CLI import graph "
        "(import inside the function that calls it):\n  "
        + "\n  ".join(sorted(set(offenders)))
    )
