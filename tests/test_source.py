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
