"""The public surface of ``floatdyn``: every public top-level function and
class has a caller, and the settable values do not grow.

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


# the count of settable_values() once the loss lost its one-step term, with
# LossWeights.w_step and rk4_step's k1
SETTABLE_VALUES_BOUND = 45


def _is_public(name: str) -> bool:
    """Not underscore-private; dunders such as ``__init__`` are public."""
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _defaulted(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)


def settable_values() -> dict[str, int]:
    """Defaulted parameters of public top-level functions and of the public
    methods of public classes, plus defaulted dataclass fields, in ``src/floatdyn``."""
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef) and _is_public(stmt.name):
                counts[stmt.name] = _defaulted(stmt)
            if not (isinstance(stmt, ast.ClassDef) and _is_public(stmt.name)):
                continue
            for node in stmt.body:
                if isinstance(node, ast.FunctionDef) and _is_public(node.name):
                    counts[f"{stmt.name}.{node.name}"] = _defaulted(node)
                elif isinstance(node, ast.AnnAssign) and node.value is not None and _is_dataclass(stmt):
                    counts[f"{stmt.name}.{node.target.id}"] = 1
    return {name: n for name, n in counts.items() if n}


def test_settable_values_do_not_grow():
    counts = settable_values()
    assert sum(counts.values()) <= SETTABLE_VALUES_BOUND, sorted(counts.items())
