"""Tiny arithmetic expression language for scenario data.

Grammar: numeric literals, the coordinates x, y, z, the functions sin and
cos, +, -, *, /, unary minus, parentheses. Compiled through the ast module
with a strict whitelist; anything else is rejected. Compiled expressions
evaluate vectorized over (n, dim) point arrays. Literals are numpy doubles,
so 1/0 gives inf as x/0 does; assembly rejects non-finite data values.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ValidationError

__all__ = ["compile_expression"]

_FUNCS = {"sin": np.sin, "cos": np.cos}


def _double(value, src) -> np.float64:
    try:
        return np.float64(value)
    except OverflowError:
        raise ValidationError(f"numeric constant out of range in expression {src!r}") from None


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
        if isinstance(node, ast.Expression):
            return build(node.body)
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
        if isinstance(node, ast.UnaryOp):
            arg = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda env: -arg(env)
            if isinstance(node.op, ast.UAdd):
                return arg
            raise ValidationError(f"unsupported unary operator in {src!r}")
        if isinstance(node, ast.BinOp):
            lhs = build(node.left)
            rhs = build(node.right)
            if isinstance(node.op, ast.Add):
                return lambda env: lhs(env) + rhs(env)
            if isinstance(node.op, ast.Sub):
                return lambda env: lhs(env) - rhs(env)
            if isinstance(node.op, ast.Mult):
                return lambda env: lhs(env) * rhs(env)
            if isinstance(node.op, ast.Div):
                return lambda env: lhs(env) / rhs(env)
            raise ValidationError(f"unsupported operator in expression {src!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ValidationError(f"unsupported function call in expression {src!r}")
            if len(node.args) != 1 or node.keywords:
                raise ValidationError(f"{node.func.id} takes exactly one argument in {src!r}")
            f = _FUNCS[node.func.id]
            arg = build(node.args[0])
            return lambda env: f(arg(env))
        raise ValidationError(f"unsupported syntax in expression {src!r}")

    fn = build(tree)

    def evaluate(pts):
        pts = np.asarray(pts, dtype=np.float64)
        env = tuple(pts[:, i] for i in range(dim))
        out = fn(env)
        return np.broadcast_to(np.asarray(out, dtype=np.float64), (pts.shape[0],)).copy()

    return evaluate
