"""Coupled flow state: velocity + director, constraint maintenance and
pressure recovery.

The director is always stored with 3 components (values on the unit
sphere), including for 2-D flows.  Invariants after construction through
the public entry points: the velocity is divergence-free and the director
is unit length at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateDirectorError, check_range
from .spectral import (Field, Grid, _ifftn, dealias, first_derivatives,
                       gradient, laplacian)

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
    # monitor maxima memoized by `diagnostics`; init=False, so that
    # `dataclasses.replace` starts every new state with an empty memo
    _maxima: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

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
    div_spec = sum(grid.ik_deriv[j] * rhs[j] for j in range(grid.dim))
    return Field.from_spec(grid, (div_spec * grid.inv_k2)[np.newaxis])


def _director_derivatives(s: FluidState) -> tuple:
    """(grad d, lap d) on the grid from one inverse transform of their
    stacked spectra; grad_d[i, m] = d d_m / d x_i."""
    grid = s.grid
    spec = np.empty((3 * grid.dim + 3,) + grid.spec_shape, dtype=np.complex128)
    first_derivatives(grid, s.d.spec,
                      out=spec[3:].reshape((grid.dim, 3) + grid.spec_shape))
    np.multiply(-grid.k2, s.d.spec, out=spec[:3])
    phys = _ifftn(grid, spec)
    return phys[3:].reshape((grid.dim, 3) + grid.shape), phys[:3]


def _sphere_residuals(d: np.ndarray, grad_sq: np.ndarray,
                     lap_d: np.ndarray) -> tuple:
    """(max | |d|-1 |, max | |grad d|^2 + d . lap d |) from physical values;
    `grad_sq` is the pointwise |grad d|^2."""
    mag_err = float(np.max(np.abs(np.sqrt(np.sum(d * d, axis=0)) - 1.0)))
    identity = grad_sq + np.sum(d * lap_d, axis=0)
    return mag_err, float(np.max(np.abs(identity)))


def constraint_residual(s: FluidState) -> tuple:
    """(max | |d|-1 |, max | |grad d|^2 + d . lap d |).

    The second entry is the discrete residual of the sphere identity that
    holds exactly for smooth unit-length directors.
    """
    grad_d, lap_d = _director_derivatives(s)
    grad_sq = np.einsum("im...,im...->...", grad_d, grad_d)
    return _sphere_residuals(s.d.phys, grad_sq, lap_d)
