import math
import sys

import pytest

from lmomdiv.roots import bracketed_root

EPS = sys.float_info.epsilon


def counted(f):
    """``f`` with a call counter in ``.calls``."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def solve(f, a, b):
    return bracketed_root(f, a, b, f(a), f(b))


@pytest.mark.parametrize("f, a, b, root", [
    (lambda x: x ** 3 - 2.0, 0.0, 2.0, 2.0 ** (1.0 / 3.0)),
    (lambda x: math.exp(x) - 10.0, -5.0, 30.0, math.log(10.0)),
    (lambda x: 1.0 / 3.0 - x, -1e3, 1e3, 1.0 / 3.0),
    (lambda x: math.log(x / 7.5), 1e-300, 1e300, 7.5),
])
def test_monotone_brackets(f, a, b, root):
    f = counted(f)
    x = solve(f, a, b)
    assert abs(x - root) <= 4.0 * EPS * abs(root)
    assert f.calls <= 60


@pytest.mark.parametrize("f, a, b, root", [
    # near-constant on most of the bracket: secant steps crawl along the flat
    # end, and the bisection guarantee takes over
    (lambda x: math.tanh(x - 3.0) - 0.5, -50.0, 1e3, 3.0 + math.atanh(0.5)),
    (lambda x: math.atan(1e6 * (x - 0.999)), 0.0, 1.0, 0.999),
    # a zero of high multiplicity: flat on both sides of the root
    (lambda x: (x - 0.7) ** 9, 0.0, 3.0, 0.7),
])
def test_flat_ended_brackets(f, a, b, root):
    f = counted(f)
    x = solve(f, a, b)
    # the bracket halves at least every four steps
    assert f.calls <= 4 * math.ceil(math.log2((b - a) / (EPS * abs(root))))
    assert abs(x - root) <= 4.0 * EPS * abs(root)


def test_exact_zero_at_an_end_is_returned_without_a_call():
    f = counted(lambda x: x - 1.0)
    assert bracketed_root(f, 1.0, 4.0, 0.0, 3.0) == 1.0
    assert bracketed_root(f, -2.0, 1.0, -3.0, 0.0) == 1.0
    assert f.calls == 0


def test_exact_zero_inside_is_returned():
    # the first secant point of a line is its root
    assert bracketed_root(lambda x: 2.0 * x - 1.0, 0.0, 1.0, -1.0, 1.0) == 0.5


def test_infinite_end_value_stands_for_its_sign():
    # log x at 0 is -inf: the end carries its sign only
    x = bracketed_root(math.log, 0.0, 5.0, -math.inf, math.log(5.0))
    assert abs(x - 1.0) <= 4.0 * EPS


def test_no_sign_change_raises():
    with pytest.raises(ValueError, match="no sign change"):
        bracketed_root(lambda x: x, 1.0, 2.0, 1.0, 2.0)
