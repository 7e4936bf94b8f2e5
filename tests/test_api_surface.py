"""Every public top-level function and class in ``floatdyn`` has a caller.

A name counts as used when an ``ast.Name`` or ``ast.Attribute`` node in
``src/`` or ``perfbench/`` refers to it outside its own definition, so a
mention in a docstring or comment does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "floatdyn"

# public names kept for the evaluation layer and run directory (ROADMAP item 1)
RESERVED = {
    "numerical_divergence",  # flow recovery: max |div| of the learned flow
    "scenario_from_manifest",  # rebuilding the generating system from a run directory
    "write_log_csv",  # the per-epoch log file of a run directory
}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in a module, except a definition's own name inside itself."""
    names = set()
    for stmt in tree.body:
        found = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        found |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        names |= found
    return names


def test_every_public_definition_has_a_caller():
    public = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                public.add(stmt.name)
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        used |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(public - used - RESERVED) == []
    assert sorted(RESERVED - (public - used)) == [], "drop names from RESERVED once they have a caller"
