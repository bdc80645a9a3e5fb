"""Tiny arithmetic expression language for scenario data.

Grammar: numeric literals, the coordinates x, y, z, the functions sin and
cos, +, -, *, /, unary minus, parentheses. Compiled through the ast module
with a strict whitelist, the ufunc tables _UNARY, _BINARY and _FUNCS, whose
entries all compile through one _apply; anything else is rejected with a
message that names the source. Compiled expressions evaluate vectorized
over (n, dim) point arrays. Literals are numpy doubles, so 1/0 gives inf as
x/0 does, without a numpy warning; every consumer of the values rejects
non-finite ones (errors.finite_values).
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ValidationError

__all__ = ["compile_expression"]

_UNARY = {ast.USub: np.negative, ast.UAdd: np.positive}
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide}
_FUNCS = {"sin": np.sin, "cos": np.cos}


def _double(value, src) -> np.float64:
    try:
        return np.float64(value)
    except OverflowError:
        raise ValidationError(f"numeric constant out of range in expression {src!r}") from None


def _apply(op, *args):
    """The compiled node op(args...) of compiled argument nodes."""
    return lambda env: op(*(arg(env) for arg in args))


def compile_expression(src, dim: int):
    """Compile a scalar expression of x, y[, z] into f(points) -> values."""
    if isinstance(src, (int, float)):
        const = _double(src, src)
        return lambda pts: np.full(np.asarray(pts).shape[0], const)
    if not isinstance(src, str):
        raise ValidationError(f"expression must be a string or number, got {type(src).__name__}")
    names = ("x", "y", "z")[:dim]
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ValidationError(f"cannot parse expression {src!r}: {e.msg}") from None

    def build(node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                v = _double(node.value, src)
                return lambda env: v
            raise ValidationError(f"non-numeric constant in expression {src!r}")
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise ValidationError(
                    f"unknown name {node.id!r} in expression {src!r}; "
                    f"allowed coordinates: {', '.join(names)}"
                )
            i = names.index(node.id)
            return lambda env: env[i]
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _apply(_UNARY[type(node.op)], build(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _apply(_BINARY[type(node.op)], build(node.left), build(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCS):
            if len(node.args) != 1 or node.keywords:
                raise ValidationError(f"{node.func.id} takes exactly one argument in {src!r}")
            return _apply(_FUNCS[node.func.id], build(node.args[0]))
        raise ValidationError(f"unsupported syntax {ast.unparse(node)!r} in expression {src!r}")

    fn = build(tree.body)

    def evaluate(pts):
        pts = np.asarray(pts, dtype=np.float64)
        env = tuple(pts[:, i] for i in range(dim))
        with np.errstate(all="ignore"):  # non-finite values are reported by finite_values
            out = fn(env)
        return np.broadcast_to(np.asarray(out, dtype=np.float64), (pts.shape[0],)).copy()

    return evaluate
