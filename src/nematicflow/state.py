"""Coupled flow state: velocity + director, its one transform pass, the
stress form of the explicit terms, constraint maintenance and pressure.

The director is always stored with 3 components (values on the unit
sphere), including for 2-D flows.  Invariants after construction through
the public entry points: the velocity is divergence-free and the director
is unit length at every grid point.

Stress form: for divergence-free u, (u.grad)u = div(u u^T) and
lap d . grad d = div(grad d^T grad d) - grad(|grad d|^2 / 2), so

    -(u.grad)u - lap d . grad d = -div(sigma - |grad d|^2 I / 2),
    sigma_ab = u_a u_b + d_a d . d_b d     (d_a = d / d x_a).

The projection removes the gradient, so a stage transforms [u, d, grad d]
to the grid as one batch and sigma (dim(dim+1)/2 components) and the
director products back: 17 arrays in 2-D, 24 in 3-D.  The pressure takes
|grad d|^2 / 2 off the diagonal of sigma before its double divergence.

Each state is transformed to the grid once (`_pass`), for the next step's
first stage, the CFL step, the monitor, the record and the pressure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateDirectorError, check_range
from .spectral import Field, Grid, _fftn, _ifftn

__all__ = ["PhysicsParams", "FluidState", "normalize_director",
           "recover_pressure", "constraint_residual"]

# The stored components (a, b), a <= b, of the symmetric stress, row-major
_PAIRS = {dim: tuple(itertools.combinations_with_replacement(range(dim), 2))
          for dim in (2, 3)}

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
    # memo of `_pass` and of the curl and oversampled maxima; init=False,
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
    resolution-loss threshold or not a number.
    """
    d = s.d.phys
    mag = np.sqrt(np.sum(d * d, axis=0))
    if not float(np.min(mag)) >= DEGENERATE_DIRECTOR_THRESHOLD:
        raise DegenerateDirectorError(
            f"min |d| = {np.min(mag):.3e} below {DEGENERATE_DIRECTOR_THRESHOLD}"
        )
    return replace(s, d=Field.from_phys(s.grid, d / mag))


def _grid_fields(grid: Grid, u_spec: np.ndarray, d_spec: np.ndarray) -> tuple:
    """(u, d, grad d) on the grid, grad d[i, m] = d d_m / d x_i, from one
    batched inverse transform of [u, d] whose gradient blocks d d / d x_j
    are formed from d's partly transformed spectrum before the pass along
    axis j (`_ifftn`'s `grad`), so they skip the passes along axes < j."""
    dim = grid.dim
    spec = np.empty((4 * dim + 3,) + grid.spec_shape, np.complex128)
    spec[:dim] = u_spec
    spec[dim:dim + 3] = d_spec
    fields = _ifftn(grid, spec, grad=3)
    return (fields[:dim], fields[dim:dim + 3],
            fields[dim + 3:].reshape((dim, 3) + grid.shape))


def _products(grid: Grid, u: np.ndarray, d: np.ndarray,
              grad_d: np.ndarray) -> tuple:
    """(sigma over `_PAIRS`, |grad d|^2 d - (u.grad)d) on the grid."""
    pairs = _PAIRS[grid.dim]
    sigma = np.empty((len(pairs),) + grid.shape)
    for p, (a, b) in enumerate(pairs):
        np.einsum("m...,m...->...", grad_d[a], grad_d[b], out=sigma[p])
    n_d = sum(sigma[p] for p, (a, b) in enumerate(pairs) if a == b) * d
    n_d -= np.einsum("j...,jm...->m...", u, grad_d)
    for p, (a, b) in enumerate(pairs):
        sigma[p] += u[a] * u[b]
    return sigma, n_d


def _stress_force(grid: Grid, sigma: np.ndarray) -> np.ndarray:
    """-div sigma (dim components) of the dealiased stress, a half spectrum."""
    spec = _fftn(grid, sigma, grid.dealias_cutoff)
    ik = grid.ik_deriv
    force = np.zeros((grid.dim,) + grid.spec_shape, dtype=np.complex128)
    for p, (a, b) in enumerate(_PAIRS[grid.dim]):
        force[a] -= ik[b] * spec[p]
        if a != b:
            force[b] -= ik[a] * spec[p]
    return force


def _pass(s: FluidState) -> dict:
    """The state's one transform pass, memoized on it: `_grid_fields` of its
    spectra ("fields"; d enters from its spectrum, as in every stage),
    |grad d|^2, max|u| and max|grad d|.  The next step clears it."""
    if "fields" not in s._memo:
        u, d, grad_d = _grid_fields(s.grid, s.u.spec, s.d.spec)
        grad_sq = np.einsum("im...,im...->...", grad_d, grad_d)
        s._memo.update(
            fields=(u, d, grad_d), grad_sq=grad_sq,
            u_max=math.sqrt(np.max(np.einsum("i...,i...->...", u, u))),
            grad_d_max=math.sqrt(np.max(grad_sq)))
    return s._memo


def recover_pressure(s: FluidState) -> Field:
    """Solve the spectral pressure Poisson equation
    lap p = -div(u . grad u + lap d . grad d); zero-mean output.

    The force is formed in stress form from the state's pass, so a memoized
    pass needs no inverse transform.  Diagnostic only: time stepping
    eliminates the pressure by projection."""
    grid, memo = s.grid, _pass(s)
    sigma, _ = _products(grid, *memo["fields"])
    sigma[[p for p, (a, b) in enumerate(_PAIRS[grid.dim]) if a == b]] -= \
        0.5 * memo["grad_sq"]
    force = _stress_force(grid, sigma)
    div_spec = sum(grid.ik_deriv[j] * force[j] for j in range(grid.dim))
    return Field.from_spec(grid, (-div_spec * grid.inv_k2)[np.newaxis])


def constraint_residual(s: FluidState, lap_d: np.ndarray | None = None) -> tuple:
    """(max | |d|-1 |, max | |grad d|^2 + d . lap d |).

    The second entry is the discrete residual of the sphere identity that
    holds exactly for smooth unit-length directors.  `lap_d`, lap d on the
    grid, is transformed from d's spectrum unless given.
    """
    d = s.d.phys
    if lap_d is None:
        lap_d = _ifftn(s.grid, -s.grid.k2 * s.d.spec)
    mag_err = float(np.max(np.abs(np.sqrt(np.sum(d * d, axis=0)) - 1.0)))
    identity = _pass(s)["grad_sq"] + np.sum(d * lap_d, axis=0)
    return mag_err, float(np.max(np.abs(identity)))
