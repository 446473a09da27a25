import pytest

from z2qsim.lattice import Boundary, build_lattice, gauge_fix


@pytest.fixture(scope="session")
def square2():
    """2x2 open square: 4 links, 1 plaquette, 1 free link."""
    lat = build_lattice((2, 2))
    return lat, gauge_fix(lat)


@pytest.fixture(scope="session")
def square3():
    """3x3 open square: 12 links, 4 plaquettes, 4 free links."""
    lat = build_lattice((3, 3))
    return lat, gauge_fix(lat)


@pytest.fixture(scope="session")
def cube2():
    """2x2x2 open cube: 12 links, 6 plaquettes, 5 free links."""
    lat = build_lattice((2, 2, 2))
    return lat, gauge_fix(lat)


@pytest.fixture(scope="session")
def hypercube():
    """2^4 open benchmark lattice: 32 links, 24 plaquettes, 17 free links."""
    lat = build_lattice((2, 2, 2, 2))
    return lat, gauge_fix(lat)


@pytest.fixture(scope="session")
def torus3():
    """3x3 periodic square."""
    lat = build_lattice((3, 3), Boundary.PERIODIC)
    return lat, gauge_fix(lat)


@pytest.fixture(scope="session")
def torus333():
    """3x3x3 periodic cube: 81 links, 81 plaquettes, 55 free links."""
    lat = build_lattice((3, 3, 3), Boundary.PERIODIC)
    return lat, gauge_fix(lat)
