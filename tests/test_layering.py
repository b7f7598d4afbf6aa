"""The package's modules reach each other only through public names, and every definition has a caller."""

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


# grad_check is the documented finite-difference checker: the tests are its callers
UNREFERENCED_ON_PURPOSE = {"grad_check"}


def _referenced_names(paths) -> list[str]:
    """Every name the code at paths reads (plain or attribute names, not imports or definitions) or lists in __all__."""
    names = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                names += [item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)]
    return names


def test_every_definition_has_a_caller_outside_tests():
    # a module-level function or class of the package that nothing in src/ or perfbench/ (its tests
    # aside) reads or exports is code that only tests call
    root = PACKAGE.parents[1]
    code = [p for d in ("src", "perfbench") for p in sorted((root / d).rglob("*.py")) if "tests" not in p.parts]
    referenced = set(_referenced_names(code))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            is_definition = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_definition and node.name not in referenced | UNREFERENCED_ON_PURPOSE:
                unused.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not unused, "defined but never used outside tests:\n" + "\n".join(unused)


def test_inference_goes_through_predict_corpus():
    # predict_sentence is a one-sentence predict_corpus kept for the benchmark; the package itself
    # predicts many sentences per forward, so nothing in it may call the per-sentence form
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "predict_sentence":
                callers.append(f"{path.name}:{node.lineno}")
    assert not callers, "predict_sentence called inside the package:\n" + "\n".join(callers)
