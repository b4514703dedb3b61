"""Checks on the package source itself."""
import ast
from pathlib import Path

import diracpolar

PACKAGE = Path(diracpolar.__file__).parent


def unread_parameters(tree):
    """(function, parameter) for every parameter of a module-level function
    that its body, nested functions included, never reads.  Methods are left
    out: a duck-typed method such as value(x) of a constant keeps the
    signature of its kind."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        read = {
            name.id
            for statement in node.body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        for param in params:
            if param is not None and param.arg not in read:
                yield node.name, param.arg


def test_no_unread_parameters():
    found = [
        "%s: %s(%s)" % (path.name, function, param)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, param in unread_parameters(ast.parse(path.read_text()))
    ]
    assert found == []


def einsum_callers(tree):
    """Name of every function, method or nested function whose body calls
    einsum, as np.einsum or by a bare name.  Code at module level, such as a
    table built once at import, is not in any body."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "einsum":
                    yield node.name
                    break


def test_kernels_contract_without_einsum():
    # the fixed contractions of the gordon scan and the guidance path are a
    # reshape and one matmul against a table built once
    found = [
        "%s: %s" % (name, function)
        for name in ("gordon.py", "fieldconn.py", "guidance.py")
        for function in einsum_callers(ast.parse((PACKAGE / name).read_text()))
    ]
    bilinears = ast.parse((PACKAGE / "bilinears.py").read_text())
    found += ["bilinears.py: %s" % f for f in einsum_callers(bilinears) if f == "compute_bilinears"]
    assert found == []
