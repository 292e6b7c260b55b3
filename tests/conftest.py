import pytest

from webweave import cohomcalc, idealcalc, polycore
from webweave.contactgeom import BiHomogPde, Chart, ChartForm, rehomogenize
from webweave.polycore import MultiPoly, VarTable
from webweave.webanalysis import CiWeb


@pytest.fixture
def narrow_packings(monkeypatch):
    """Start every packing at 1-bit fields, so that runs overflow and
    restart on wider ones.  Returns [packed calls, attempts]: the calls
    made a restart when attempts exceed calls."""
    counts = [0, 0]
    with_packing = polycore._with_packing

    def counting(order, nvars, top, run):
        counts[0] += 1

        def attempt(pk):
            counts[1] += 1
            return run(pk)

        return with_packing(order, nvars, top, attempt)

    monkeypatch.setattr(polycore, "_MIN_WIDTH", 1)
    for module in (polycore, idealcalc, cohomcalc):
        monkeypatch.setattr(module, "_with_packing", counting)
    return counts


@pytest.fixture(scope="session")
def bi2():
    return VarTable.bihomog(2)


@pytest.fixture(scope="session")
def chart02():
    return Chart(2, 0, 2)


@pytest.fixture(scope="session")
def conic_pde(bi2):
    u0, u1, u2 = (MultiPoly.var(bi2, f"u{k}") for k in range(3))
    return BiHomogPde(2, u1**2 + u2**2 - u0**2)


@pytest.fixture(scope="session")
def fermat_pde(bi2):
    u0, u1, u2 = (MultiPoly.var(bi2, f"u{k}") for k in range(3))
    return BiHomogPde(2, u0**3 + u1**3 + u2**3)


@pytest.fixture(scope="session")
def cusp_pde(chart02):
    T = chart02.table
    x1, p1 = MultiPoly.var(T, "x1"), MultiPoly.var(T, "p1")
    return rehomogenize(ChartForm(chart02, p1**2 - x1))


@pytest.fixture(scope="session")
def clairaut_web(conic_pde):
    return CiWeb(2, (conic_pde,))


@pytest.fixture(scope="session")
def cusp_web(cusp_pde):
    return CiWeb(2, (cusp_pde,))


@pytest.fixture(scope="session")
def fermat_web(fermat_pde):
    return CiWeb(2, (fermat_pde,))
