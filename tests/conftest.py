import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from protract.expr import parse
from protract.tensor import TensorField
from protract.geometry import ChartGeometry


def _geom(dim, entries):
    return ChartGeometry(TensorField(dim, 0, 2,
                                     [parse(s, dim) for s in entries]))


@pytest.fixture
def deriv_calls(monkeypatch):
    """(node, coordinate) of every Expr._deriv call the test makes. The
    list keeps each node alive, so no id is taken twice."""
    from protract.expr import Add, Call, Const, Mul, Neg, Pow, Var

    calls = []
    for cls in (Const, Var, Add, Mul, Pow, Neg, Call):
        def counted(node, derivs, coord, _deriv=cls._deriv):
            calls.append((node, coord))
            return _deriv(node, derivs, coord)
        monkeypatch.setattr(cls, "_deriv", counted)
    return calls


@pytest.fixture(scope="session")
def flat2():
    return _geom(2, ["1", "0", "0", "1"])


@pytest.fixture(scope="session")
def flat3():
    return _geom(3, ["1", "0", "0", "0", "1", "0", "0", "0", "1"])


@pytest.fixture(scope="session")
def sphere2():
    f = "4/(1+x0^2+x1^2)^2"
    return _geom(2, [f, "0", "0", f])


@pytest.fixture(scope="session")
def sphere3():
    f = "4/(1+x0^2+x1^2+x2^2)^2"
    return _geom(3, [f, "0", "0", "0", f, "0", "0", "0", f])


@pytest.fixture(scope="session")
def non_einstein2():
    return _geom(2, ["1", "0", "0", "1+x0^2"])


@pytest.fixture(scope="session")
def non_einstein3():
    return _geom(3, ["1", "0", "0", "0", "1+x0^2", "0", "0", "0", "1"])


@pytest.fixture(scope="session")
def flat_pulled3():
    """The Euclidean metric pulled back by y = (x0, x1 + x0^2, x2 + x0 x1):
    a flat chart whose Christoffel symbols are not zero."""
    return _geom(3, ["1+4*x0^2+x1^2", "2*x0+x0*x1", "x1",
                     "2*x0+x0*x1", "1+x0^2", "x0",
                     "x1", "x0", "1"])
