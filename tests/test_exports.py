"""Every name that `spectrumshare` exports, and every top-level function and
class of the package, is reached outside the tests: another module of the
package imports it, its own module names it outside its own definition, or
a script imports it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectrumshare"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def imported_names(trees) -> set[str]:
    return {
        alias.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def defined_names(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    if isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return {target.id for target in targets if isinstance(target, ast.Name)}


def named_outside_definition(tree: ast.Module, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for statement in tree.body
        if name not in defined_names(statement)
        for node in ast.walk(statement)
    )


MODULES = {path.stem: parse(path) for path in PACKAGE.glob("*.py")}
FROM_SCRIPTS = imported_names(parse(path) for path in (ROOT / "scripts").glob("*.py"))


def unreached(definitions) -> list[str]:
    """The `module.name` of every (name, module) pair reached nowhere."""
    missed = []
    for name, module in sorted(definitions):
        others = [tree for stem, tree in MODULES.items() if stem not in ("__init__", module)]
        if not (
            name in imported_names(others)
            or named_outside_definition(MODULES[module], name)
            or name in FROM_SCRIPTS
        ):
            missed.append(f"{module}.{name}")
    return missed


def test_every_export_is_reached_outside_the_tests():
    exports = {
        (alias.asname or alias.name, node.module)
        for node in MODULES["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert unreached(exports) == []


def test_every_top_level_definition_is_reached_outside_the_tests():
    definitions = {
        (statement.name, stem)
        for stem, tree in MODULES.items()
        for statement in tree.body
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
    }
    assert definitions
    assert unreached(definitions) == []
