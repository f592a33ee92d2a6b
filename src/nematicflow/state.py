"""Coupled flow state: velocity + director, its one transform pass,
constraint maintenance and pressure recovery.

The director is always stored with 3 components (values on the unit
sphere), including for 2-D flows.  Invariants after construction through
the public entry points: the velocity is divergence-free and the director
is unit length at every grid point.

Each state is transformed to the grid once (`_pass`), for the first stage
of the next time step, the blow-up monitor, the CFL step, the record and
the recovered pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateDirectorError, check_range
from .spectral import Field, Grid, _fftn, _ifftn, first_derivatives

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
    # the memo of `_pass` and of the oversampled monitor maxima; init=False,
    # so that `dataclasses.replace` starts every new state with an empty memo
    _memo: dict = field(default_factory=dict, init=False, repr=False,
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


def _grid_products(grid: Grid, u_spec: np.ndarray, d_spec: np.ndarray,
                   memo: dict | None = None):
    """The explicit terms on the grid, before dealiasing and projection:
    -(u.grad)u - lap d . grad d (dim components), then |grad d|^2 d -
    (u.grad)d (3 components).

    Two batched inverse transforms: one for the fields plus the director
    Laplacian, one for all first derivatives.  With `memo`, also stores in
    it the products, max|u|, max|omega|, max|grad d|, the grid sums of a
    record and the arrays lap d and |grad d|^2 that it reads pointwise.
    """
    dim = grid.dim
    fields = _ifftn(grid, np.concatenate([u_spec, d_spec, -grid.k2 * d_spec]))
    u, d, lap_d = fields[:dim], fields[dim:dim + 3], fields[dim + 3:]

    # the concatenated spectra die before the transform: a lower peak
    deriv = _ifftn(grid, first_derivatives(
        grid, np.concatenate([u_spec, d_spec])))
    grad_u = deriv[:, :dim]     # [j, i] = d u_i / d x_j
    grad_d = deriv[:, dim:]     # [i, m] = d d_m / d x_i

    conv = np.einsum("j...,ji...->i...", u, grad_u)
    force = np.einsum("m...,im...->i...", lap_d, grad_d)
    grad_sq = np.einsum("im...,im...->...", grad_d, grad_d)
    transport = np.einsum("j...,jm...->m...", u, grad_d)
    products = np.concatenate([-(conv + force), grad_sq * d - transport])
    if memo is not None:
        # pointwise squared magnitudes; omega's components are
        # d_a u_b - d_b u_a over the (a, b) below
        axes = ((0, 1),) if dim == 2 else ((1, 2), (2, 0), (0, 1))
        omega_sq = sum((grad_u[a, b] - grad_u[b, a])**2 for a, b in axes)
        u_sq = np.einsum("i...,i...->...", u, u)
        memo.update(
            u_max=math.sqrt(np.max(u_sq)), u_sq=float(np.sum(u_sq)),
            omega_max=math.sqrt(np.max(omega_sq)),
            omega_sq=float(np.sum(omega_sq)),
            grad_d_max=math.sqrt(np.max(grad_sq)),
            grad_d_sq=float(np.sum(grad_sq)),
            grad_u_sq=float(np.sum(np.einsum("ji...,ji...->...",
                                             grad_u, grad_u))),
            # summed as the record always has: the stationary winding
            # director's envelope fit is exactly 0 only at this roundoff
            lap_d_sq=float(np.sum(lap_d**2)),
            lap_d=lap_d, grad_sq=grad_sq, products=products)
    return products


def _pass(s: FluidState) -> dict:
    """The state's one transform pass, memoized on it: everything
    `_grid_products` of its spectra stores in a memo.  The director enters
    from its spectrum, as in every stage of a step, so that the first stage
    of the next step can use the products; that step then clears the memo,
    whose grid arrays nothing needs after."""
    if "u_max" not in s._memo:
        _grid_products(s.grid, s.u.spec, s.d.spec, memo=s._memo)
    return s._memo


def recover_pressure(s: FluidState, params: PhysicsParams) -> Field:
    """Solve the spectral pressure Poisson equation
    lap p = -div(u . grad u + lap d . grad d); zero-mean output.

    The right side is the divergence of the dealiased momentum products of
    the state's pass (`_pass`), the stepper's first stage, so a state whose
    pass is memoized needs no inverse transform.  Diagnostic only: time
    stepping eliminates the pressure by projection.
    """
    grid = s.grid
    products = _fftn(grid, _pass(s)["products"][:grid.dim])
    products *= grid.dealias_mask
    div_spec = sum(grid.ik_deriv[j] * products[j] for j in range(grid.dim))
    return Field.from_spec(grid, (-div_spec * grid.inv_k2)[np.newaxis])


def constraint_residual(s: FluidState) -> tuple:
    """(max | |d|-1 |, max | |grad d|^2 + d . lap d |).

    The second entry is the discrete residual of the sphere identity that
    holds exactly for smooth unit-length directors.
    """
    d, memo = s.d.phys, _pass(s)
    mag_err = float(np.max(np.abs(np.sqrt(np.sum(d * d, axis=0)) - 1.0)))
    identity = memo["grad_sq"] + np.sum(d * memo["lap_d"], axis=0)
    return mag_err, float(np.max(np.abs(identity)))
