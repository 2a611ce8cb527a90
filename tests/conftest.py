"""Shared fixtures: the reference interface example, a variant with
general coupling tensors, and small grids."""

from __future__ import annotations

import math

import numpy as np
import pytest

from breather.pencil import PencilContext
from breather.resolvent import StaggeredGrid
from breather.susceptibility import (
    Constant,
    MaterialInterface,
    NonlinearSusceptibility,
    TruncatedLorentz,
)

CSTAR = math.sqrt(3.75)
T_REF = 1001 * math.pi / CSTAR
OMEGA0_REF = 1.8178532310080142 - 0.14883348930017135j


def _diag(value, ndim):
    t = np.zeros((3,) * ndim)
    for j in range(3):
        t[(j,) * ndim] = value
    return t


@pytest.fixture(scope="session")
def nl():
    return NonlinearSusceptibility(
        c2=_diag(2000.0, 3),
        c3=_diag(1000.0, 4),
        gamma_tilde=1.0,
        omega_star_tilde=3.0,
        T_N=0.12,
    )


@pytest.fixture(scope="session")
def interface(nl):
    return MaterialInterface(
        minus=TruncatedLorentz(c_L=20.0, gamma=0.5, omega_star=2.0, T=T_REF),
        plus=Constant(alpha=2.0),
        nl_minus=nl,
        nl_plus=nl,
    )


@pytest.fixture(scope="session")
def ctx(interface):
    """Pencil context of the reference example at its base eigenvalue."""
    return PencilContext(interface, k=3.0, omega0=OMEGA0_REF)


@pytest.fixture(scope="session")
def general_coupling_ctx(interface):
    """The reference example with seeded random coupling tensors that are
    not symmetric in their field indices, only TM compatible, and a
    different nonlinear response on each side."""
    rng = np.random.default_rng(2024)

    def random_nl():
        c2 = rng.uniform(-2000.0, 2000.0, (3, 3, 3))
        c3 = rng.uniform(-1000.0, 1000.0, (3, 3, 3, 3))
        c2[2, :2, :2] = 0.0
        c3[2, :2, :2, :2] = 0.0
        return NonlinearSusceptibility(c2=c2, c3=c3, gamma_tilde=1.0,
                                       omega_star_tilde=3.0, T_N=0.12)

    itf = MaterialInterface(minus=interface.minus, plus=interface.plus,
                            nl_minus=random_nl(), nl_plus=random_nl())
    return PencilContext(itf, k=3.0, omega0=OMEGA0_REF)


@pytest.fixture(scope="session")
def probe(interface):
    """Same interface, no stored eigenvalue (for root finding)."""
    return PencilContext(interface, k=3.0, omega0=None)


@pytest.fixture(scope="session")
def grid_small():
    return StaggeredGrid(40.0, 400)


@pytest.fixture(scope="session")
def grid_ref():
    return StaggeredGrid(40.0, 2000)
