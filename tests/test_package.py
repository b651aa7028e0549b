"""Package-wide static checks: every module-level function and class of
``stmfg`` is used by the package or by the benchmark harness, not only by
the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stmfg"


def referenced_names(paths) -> set[str]:
    """Every name the files use: a bare name, an attribute, an imported
    name, or a string constant that is an identifier (the benchmark hooks
    functions by name)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def test_every_top_level_definition_is_used_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    used = referenced_names([*sources, *sorted((ROOT / "perfbench").glob("*.py"))])
    unused = [f"{path.stem}.{node.name}" for path in sources
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used]
    assert not unused, f"defined in src/stmfg but used only by tests, if at all: {unused}"
