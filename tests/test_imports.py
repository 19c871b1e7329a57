"""No module of the package imports a name it never uses, and no public
name is left for the tests alone without being listed here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bsf"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a re-export listed in __all__ is a use
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [bad for path in paths for bad in _unused_imports(path)] == []


# public names no package code outside __init__ uses: references and checks
# kept on purpose; a new one needs an entry here
TEST_ONLY_API = {
    "chi_square_tail_log_bound",
    "combined_transition_matrix",
    "frechet_mean_spd",
    "log_gaussian_kernel",
    "posterior_concentration_log_bound",
}


def test_public_names_used_only_by_tests_are_pinned():
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                own = stmt.name
                defined.add(own)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    assert defined - used == TEST_ONLY_API
