import functools
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from steklovbif import (Mesh, ProductModel, assemble, flat_torus_spectrum, generate_disk,
                        generate_interval)

# every property draws the same examples in every run: no example database,
# and no deadline for a first call that builds caches
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@functools.lru_cache(maxsize=None)
def _disk(level):
    mesh = generate_disk(level)
    return mesh, assemble(mesh)


@functools.lru_cache(maxsize=None)
def _interval(n, L):
    mesh = generate_interval(n, L)
    return mesh, assemble(mesh)


@functools.lru_cache(maxsize=None)
def _torus(cutoff):
    return flat_torus_spectrum(2.0 * math.pi * np.eye(2), cutoff)


@functools.lru_cache(maxsize=None)
def _disk_torus_model(level, cutoff):
    mesh, forms = _disk(level)
    return ProductModel(
        factor=_torus(cutoff), boundary_mesh=mesh, boundary_forms=forms,
        H2=1.0,
    )


@functools.lru_cache(maxsize=None)
def _torus_interval_model(n):
    mesh, forms = _interval(n, 1.0)
    return ProductModel(
        factor=_torus(20.0), boundary_mesh=mesh, boundary_forms=forms,
        H2=0.0,
    )


@pytest.fixture(scope="session")
def disk():
    """Cached (mesh, forms) of the unit disk by refinement level."""
    return _disk


@pytest.fixture(scope="session")
def interval():
    """Cached (mesh, forms) of [0, L] by (n, L)."""
    return _interval


@pytest.fixture(scope="session")
def square_torus():
    """Cached spectrum of the 2pi-square torus by cutoff."""
    return _torus


@pytest.fixture(scope="session")
def disk_torus_model():
    """Disk x 2pi-square-torus model (m1 = m2 = 2, H2 = 1, Hhat = 1/3)."""
    return _disk_torus_model


@pytest.fixture(scope="session")
def torus_interval_model():
    """2pi-square-torus x interval model (Hhat = 0)."""
    return _torus_interval_model


def delaunay_mesh(points: np.ndarray) -> Mesh:
    """The Delaunay triangulation of points in the plane, every cell turned
    positively."""
    from scipy.spatial import Delaunay

    cells = Delaunay(points).simplices
    e1, e2 = points[cells[:, 1]] - points[cells[:, 0]], points[cells[:, 2]] - points[cells[:, 0]]
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]
    return Mesh(vertices=points, cells=cells)


@st.composite
def delaunay_disks(draw) -> Mesh:
    """Delaunay disks of 20 to 150 random points, uniform in the unit disk,
    the vertices of their hull projected to the circle before triangulating."""
    from scipy.spatial import ConvexHull

    n = draw(st.integers(20, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius, phase = np.sqrt(rng.uniform(0.0, 1.0, n)), rng.uniform(0.0, 2.0 * math.pi, n)
    points = np.column_stack([radius * np.cos(phase), radius * np.sin(phase)])
    hull = ConvexHull(points).vertices
    points[hull] /= np.hypot(*points[hull].T)[:, None]
    return delaunay_mesh(points)


@functools.lru_cache(maxsize=None)
def _fuzz_meshes():
    """Two disk meshes without symmetry: disk level 2 with every vertex moved
    by the seed-7 jitter, and a Delaunay triangulation of random points."""
    base = generate_disk(2)
    rng = np.random.default_rng(7)
    x, y = base.vertices.T
    n = base.n_vertices
    theta = np.arctan2(y, x) + rng.uniform(-0.05, 0.05, n)
    r = np.hypot(x, y) * (1 + rng.uniform(-0.04, 0.04, n))
    jittered = Mesh(vertices=np.column_stack([r * np.cos(theta), r * np.sin(theta)]),
                    cells=base.cells)

    rng = np.random.default_rng(11)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 24))
    rim = np.column_stack([np.cos(angles), np.sin(angles)])
    radius = 0.85 * np.sqrt(rng.uniform(0.0, 1.0, 40))
    phase = rng.uniform(0.0, 2.0 * math.pi, 40)
    inner = np.column_stack([radius * np.cos(phase), radius * np.sin(phase)])
    delaunay = delaunay_mesh(np.vstack([rim, inner]))
    return {"jittered": (jittered, assemble(jittered)), "delaunay": (delaunay, assemble(delaunay))}


@pytest.fixture(scope="session")
def fuzz_meshes():
    """(mesh, forms) of non-symmetric disk meshes, by name."""
    return _fuzz_meshes()


@functools.lru_cache(maxsize=None)
def _fuzz_torus_model(name, H2):
    mesh, forms = _fuzz_meshes()[name]
    return ProductModel(factor=_torus(20.0), boundary_mesh=mesh, boundary_forms=forms, H2=H2)


@pytest.fixture(scope="session")
def fuzz_torus_model():
    """Fuzz mesh x 2pi-square-torus model (m1 = m2 = 2), by mesh name and H2."""
    return _fuzz_torus_model
