"""The package's modules reach each other only through public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nuggetnet"


def test_no_module_imports_a_private_name_from_another():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names if alias.name.startswith("_")
                ]
    assert not offenders, "private names imported across modules:\n" + "\n".join(offenders)
