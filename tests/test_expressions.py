"""Whitelisted expression compiler for scenario data."""

import re

import numpy as np
import pytest

from boxdfm.errors import ValidationError
from boxdfm.expressions import compile_expression

PTS2 = np.array([[0.0, 0.0], [0.25, 1.0], [1.0, 0.5], [0.7, 0.3]])


def test_numbers_pass_through():
    f = compile_expression(3, dim=2)
    assert np.array_equal(f(PTS2), np.full(4, 3.0))
    g = compile_expression(-0.25, dim=3)
    assert np.array_equal(g(np.zeros((2, 3))), np.full(2, -0.25))


def test_constant_string_broadcasts():
    f = compile_expression("-1", dim=2)
    out = f(PTS2)
    assert out.shape == (4,)
    assert np.all(out == -1.0)


def test_coordinates_and_arithmetic():
    f = compile_expression("2*x - y/4 + 1", dim=2)
    assert np.allclose(f(PTS2), 2 * PTS2[:, 0] - PTS2[:, 1] / 4 + 1)
    g = compile_expression("(2*x - 1)*(3*x - 1)", dim=2)
    assert np.allclose(g(PTS2), (2 * PTS2[:, 0] - 1) * (3 * PTS2[:, 0] - 1))


def test_trig_functions():
    f = compile_expression("sin(x)*sin(y) + cos(0.5)*sin(y)", dim=2)
    x, y = PTS2[:, 0], PTS2[:, 1]
    assert np.allclose(f(PTS2), np.sin(x) * np.sin(y) + np.cos(0.5) * np.sin(y))


def test_z_only_in_three_dimensions():
    with pytest.raises(ValidationError):
        compile_expression("x + z", dim=2)
    f = compile_expression("x + z", dim=3)
    pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.5, -1.0]])
    assert np.allclose(f(pts), [4.0, -1.0])


@pytest.mark.parametrize("src", [
    "q + 1",                       # unknown name
    "__import__('os')",            # call of a non-whitelisted function
    "x.real",                      # attribute access
    "x ** 2",                      # operator outside the grammar
    "sin(x, y)",                   # wrong arity
    "x if y else 0",               # conditional
    "[1, 2]",                      # non-scalar literal
    "'text'",                      # non-numeric constant
    "lambda: 1",
])
def test_disallowed_constructs_rejected(src):
    # every message names the rejected source
    with pytest.raises(ValidationError, match=re.escape(repr(src))):
        compile_expression(src, dim=2)


@pytest.mark.parametrize("src, dim, allowed", [("q + 1", 2, "x, y"), ("x + z", 2, "x, y"),
                                               ("sin(w)", 3, "x, y, z")])
def test_unknown_name_lists_the_coordinates(src, dim, allowed):
    with pytest.raises(ValidationError, match=re.escape(f"in expression {src!r}; "
                                                        f"allowed coordinates: {allowed}")):
        compile_expression(src, dim=dim)


def test_malformed_source_rejected():
    with pytest.raises(ValidationError):
        compile_expression("2*(x", dim=2)
    with pytest.raises(ValidationError):
        compile_expression(["x"], dim=2)


def test_output_is_fresh_float_vector():
    f = compile_expression("x", dim=2)
    out = f(PTS2)
    assert out.dtype == np.float64
    out[0] = 99.0
    assert PTS2[0, 0] == 0.0
