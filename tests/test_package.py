"""The package as a whole: its import layers, its imports used, and what the
README documents of it (the library example, the key table)."""

import ast
import pathlib
import re

import pytest

from polylap import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polylap"

# the modules each module of the package may import from it; each layer sees
# only the ones below it, so the continuum references need no graph or solver
LAYERS = {
    "blocks": set(),
    "geometry": {"blocks"},
    "graph": {"blocks", "geometry"},
    "solver": {"geometry", "graph"},
    "continuum": {"blocks", "geometry"},
    "experiments": {"blocks", "geometry", "graph", "solver", "continuum"},
    "cli": {"blocks", "geometry", "graph", "solver", "continuum", "experiments"},
    "__init__": {"blocks", "geometry", "graph", "solver", "continuum", "experiments"},
}


def package_imports(path):
    """The package modules that the file at path imports, at any depth of its
    syntax tree (a function-local import counts too)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module is None:  # from . import name
            found.update(alias.name for alias in node.names)
        elif node.level == 1:
            found.add(node.module.split(".")[0])
        elif (node.module or "").startswith("polylap."):
            found.add(node.module.split(".")[1])
    return found


# names a module imports without reading them: cli binds build_graph so that
# perfbench/spans.py can wrap it there
UNREAD_IMPORTS = {"cli": {"build_graph"}}


def unread_imports(path):
    """The names that the file at path imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return imported - read


def test_layer_table_names_every_module():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_follow_layers(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    assert imported <= LAYERS[module], f"{module} imports {sorted(imported - LAYERS[module])}"


# the package root imports names to export them
@pytest.mark.parametrize("module", sorted(set(LAYERS) - {"__init__"}))
def test_every_import_is_read(module):
    assert unread_imports(PACKAGE / f"{module}.py") == UNREAD_IMPORTS.get(module, set())


def test_readme_key_table_names_every_key():
    # one row per command, and the every-command row for the keys all share
    rows = dict(re.findall(r"^\| (every command|`\w+`) \| (.*) \|$",
                           (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.M))
    want = {"every command": set(cli._COMMON)}
    want.update({f"`{command}`": keys.keys() - cli._COMMON.keys()
                 for command, keys in cli.KEYS.items()})
    for row, keys in want.items():
        named = set(re.findall(r"`(\w+)`", rows.get(row, "")))
        assert keys <= named, f"README key table row {row} lacks {sorted(keys - named)}"


def test_readme_library_example_runs():
    # the README's one python block imports from the package root
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["report"].final_relative_residual <= 1e-10
