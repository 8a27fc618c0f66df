"""Every public module-level function and class of the package has a caller
in the package itself. Code that only tests use belongs in `tests/oracles.py`.
Only data.py opens files."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kpivae"


def _names(node) -> set[str]:
    """Identifiers a node refers to: names, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def test_every_public_definition_has_a_caller_in_src():
    defined = []  # (module, name)
    used = []  # (module, enclosing top-level definition or None, identifiers)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined.append((path.stem, owner))
            used.append((path.stem, owner, _names(stmt)))
    assert defined
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if not any(name in ids and (m, o) != (module, name) for m, o, ids in used)
    ]
    assert unused == []


# the calls that open a file: `open`, and pathlib's `Path.open` and its
# one-shot readers and writers
OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def test_only_data_opens_files():
    """Every artifact's format, the checkpoint's too, stays behind the codec
    in data.py, with the CSVs and the SVG; no other module opens a file
    itself, by a bare `open` or by a method such as `Path.write_text`."""
    openers = set()
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id == "open"
                or isinstance(n.func, ast.Attribute) and n.func.attr in OPENERS
            ):
                openers.add(path.name)
    assert openers == {"data.py"}
