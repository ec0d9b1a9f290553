import pytest

from cechmod import cyclic_group, symmetric_group, trivial_group
from cechmod.catalog import named_complex, named_crossed_module


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def one():
    return trivial_group()


def dense(rows, width):
    """Sparse rows, as (column, entry) pairs or as dicts from column to
    entry, as dense rows of `width` entries; `dense(*S)` for a
    `SparseMatrix` S."""
    return [[dict(row).get(c, 0) for c in range(width)] for row in rows]


def cm(name):
    return named_crossed_module(name)


def cx(name):
    return named_complex(name)


def assert_image_normal_and_kernel_central(cmx):
    """beta(H) is normal in G and ker(beta) is central in H: both follow
    from the crossed-module axioms, so no validator checks them."""
    G, H = cmx.G, cmx.H
    image = set(cmx.beta.image)
    assert all(G.conj(g, b) in image for g in G.elements() for b in image)
    kernel = cmx.beta.kernel_indices()
    assert all(H.mul(a, h) == H.mul(h, a) for a in kernel for h in H.elements())
