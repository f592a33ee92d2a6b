"""Coupled flow state: velocity + director, constraint maintenance and
pressure recovery.

The director is always stored with 3 components (values on the unit
sphere), including for 2-D flows.  Invariants after construction through
the public entry points: the velocity is divergence-free and the director
is unit length at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDirectorError, check_range
from .spectral import Field, Grid, dealias, gradient, laplacian

__all__ = ["PhysicsParams", "FluidState", "normalize_director",
           "recover_pressure", "constraint_residual"]

# Pointwise director magnitudes below this signal loss of resolution, not
# physics; renormalizing through a near-zero would amplify noise.
DEGENERATE_DIRECTOR_THRESHOLD = 1e-6


@dataclass(frozen=True)
class PhysicsParams:
    """Physical parameters: kinematic viscosity (default 1)."""

    nu: float = 1.0

    def __post_init__(self):
        check_range("nu", self.nu, 0 < self.nu < math.inf, "positive and finite")


@dataclass(frozen=True)
class FluidState:
    """Velocity field u (dim components), director d (3 components, unit
    length) and simulation time t on a shared grid."""

    grid: Grid
    u: Field
    d: Field
    t: float = 0.0

    def __post_init__(self):
        if self.u.ncomp != self.grid.dim:
            raise ValueError(
                f"velocity needs {self.grid.dim} components, got {self.u.ncomp}"
            )
        if self.d.ncomp != 3:
            raise ValueError(f"director needs 3 components, got {self.d.ncomp}")


def normalize_director(s: FluidState) -> FluidState:
    """Renormalize the director to unit length pointwise; u and t unchanged.

    Raises DegenerateDirectorError if any grid point has |d| below the
    resolution-loss threshold.
    """
    d = s.d.phys
    mag = np.sqrt(np.sum(d * d, axis=0))
    if float(np.min(mag)) < DEGENERATE_DIRECTOR_THRESHOLD:
        raise DegenerateDirectorError(
            f"min |d| = {np.min(mag):.3e} below {DEGENERATE_DIRECTOR_THRESHOLD}"
        )
    return replace(s, d=Field.from_phys(s.grid, d / mag))


def elastic_force(s: FluidState) -> Field:
    """The director stress forcing of the momentum equation, components
    F_i = sum_m (lap d)_m (grad_i d)_m, evaluated pointwise and dealiased."""
    grid = s.grid
    lap_d = laplacian(s.d).phys
    force = np.empty((grid.dim,) + grid.shape)
    for i in range(grid.dim):
        grad_d_i = gradient(s.d, i).phys
        force[i] = np.sum(lap_d * grad_d_i, axis=0)
    return dealias(Field.from_phys(grid, force))


def advection(grid: Grid, v: Field, f: Field) -> Field:
    """Transport term (v . grad) f, pointwise products dealiased."""
    out = np.zeros((f.ncomp,) + grid.shape)
    v_phys = v.phys
    for j in range(grid.dim):
        out += v_phys[j] * gradient(f, j).phys
    return dealias(Field.from_phys(grid, out))


def recover_pressure(s: FluidState, params: PhysicsParams) -> Field:
    """Solve the spectral pressure Poisson equation
    lap p = -div(u . grad u + lap d . grad d); zero-mean output.

    Diagnostic only: time stepping eliminates the pressure by projection.
    """
    grid = s.grid
    rhs = advection(grid, s.u, s.u).spec[: grid.dim] + elastic_force(s).spec
    div_spec = sum(1j * grid.k_deriv[j] * rhs[j] for j in range(grid.dim))
    return Field.from_spec(grid, (div_spec * grid.inv_k2)[np.newaxis])


def constraint_residual(s: FluidState) -> tuple:
    """(max | |d|-1 |, max | |grad d|^2 + d . lap d |).

    The second entry is the discrete residual of the sphere identity that
    holds exactly for smooth unit-length directors.
    """
    d = s.d.phys
    mag_err = float(np.max(np.abs(np.sqrt(np.sum(d * d, axis=0)) - 1.0)))
    grad_sq = np.zeros(s.grid.shape)
    for i in range(s.grid.dim):
        g = gradient(s.d, i).phys
        grad_sq += np.sum(g * g, axis=0)
    identity = grad_sq + np.sum(d * laplacian(s.d).phys, axis=0)
    return mag_err, float(np.max(np.abs(identity)))
