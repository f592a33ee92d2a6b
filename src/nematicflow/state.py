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
first stage, the CFL step, the monitor, the record and the pressure.  The
step forms its first-stage products from the pass, spending its grid d,
clears the memo and keeps the pass's batch for its later stages, so a run
holds one [u, d, grad d] batch at a time.

The stage functions write into buffers their caller owns: `_grid_fields`
runs in a [u, d, grad d] batch (`_batch`), `_products` writes sigma and
N_d into one products buffer and the advection term into the spent grid d,
and `_stress_force` writes the force and sigma's spectrum into consecutive
components.  `dynamics.step` passes these buffers, so a stage allocates
only transform scratch and one force term at a time.  Each in-place write
is kept because undoing it alone raised the step's traced peak.
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
    resolution-loss threshold, not a number or too large to square.
    """
    d = s.d.phys
    return replace(s, d=Field.from_phys(s.grid, d / _magnitude(d)))


def _magnitude(d: np.ndarray) -> np.ndarray:
    """|d| pointwise, checked before d is divided by it:
    DegenerateDirectorError where |d| is below
    DEGENERATE_DIRECTOR_THRESHOLD or not a number, or where |d|^2 overflows
    (dividing by an infinite |d| would silently give 0), in place of the
    RuntimeWarnings of that arithmetic."""
    with np.errstate(over="ignore"):
        mag = np.sqrt(np.sum(d * d, axis=0))
    low, high = float(np.min(mag)), float(np.max(mag))
    if not (low >= DEGENERATE_DIRECTOR_THRESHOLD and high < math.inf):
        raise DegenerateDirectorError(
            f"|d| spans [{low:.3e}, {high:.3e}] on the grid; it must be "
            f"finite and at least {DEGENERATE_DIRECTOR_THRESHOLD}")
    return mag


def _batch(grid: Grid) -> np.ndarray:
    """An empty [u, d, grad d] batch: 4 dim + 3 spectral components."""
    return np.empty((4 * grid.dim + 3,) + grid.spec_shape, np.complex128)


def _grid_fields(grid: Grid, u_spec: np.ndarray, d_spec: np.ndarray,
                 out: np.ndarray) -> tuple:
    """(u, d, grad d) on the grid, grad d[i, m] = d d_m / d x_i, from one
    batched inverse transform of [u, d] whose gradient blocks d d / d x_j
    are formed from d's partly transformed spectrum before the pass along
    axis j (`_ifftn`'s `grad`), so they skip the passes along axes < j.

    The transform runs in `out`, a C-contiguous `_batch`, and the fields
    are views of it.  The spectra are copied into its first dim + 3
    components, which is no copy at all when they are those components."""
    dim = grid.dim
    out[:dim] = u_spec
    out[dim:dim + 3] = d_spec
    fields = _ifftn(grid, out, grad=3)
    return (fields[:dim], fields[dim:dim + 3],
            fields[dim + 3:].reshape((dim, 3) + grid.shape))


def _products(grid: Grid, u: np.ndarray, d: np.ndarray, grad_d: np.ndarray,
              out: np.ndarray | None = None) -> tuple:
    """(sigma over `_PAIRS`, |grad d|^2 d - (u.grad)d) on the grid, as views
    of `out`, dim(dim+1)/2 + 3 grid components (fresh by default).

    The advection term (u.grad)d is written into `d`, which is spent once
    |grad d|^2 d is formed: a fresh 3-component array for it raised the
    step's peak by 4 MB at 3-D 64^3.  So `d` holds garbage afterwards; a
    caller whose fields outlive the call passes a copy of it."""
    pairs = _PAIRS[grid.dim]
    if out is None:
        out = np.empty((len(pairs) + 3,) + grid.shape)
    sigma, n_d = out[:len(pairs)], out[len(pairs):]
    for p, (a, b) in enumerate(pairs):
        np.einsum("m...,m...->...", grad_d[a], grad_d[b], out=sigma[p])
    # |grad d|^2 is the trace of sigma so far
    np.multiply(sum(sigma[p] for p, (a, b) in enumerate(pairs) if a == b), d,
                out=n_d)
    np.subtract(n_d, np.einsum("j...,jm...->m...", u, grad_d, out=d), out=n_d)
    for p, (a, b) in enumerate(pairs):
        sigma[p] += u[a] * u[b]
    return sigma, n_d


def _stress_force(grid: Grid, sigma: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """-div sigma (dim components) of the dealiased stress, a half spectrum.

    `out` holds dim + dim(dim+1)/2 spectral components (fresh by default):
    the force is written into the first dim and returned, and sigma's
    spectrum into the others, which the force leaves intact."""
    pairs, ik = _PAIRS[grid.dim], grid.ik_deriv
    if out is None:
        out = np.empty((grid.dim + len(pairs),) + grid.spec_shape,
                       np.complex128)
    force, spec = out[:grid.dim], out[grid.dim:]
    _fftn(grid, sigma, grid.dealias_cutoff, out=spec)
    force[...] = 0.0
    for p, (a, b) in enumerate(pairs):
        force[a] -= ik[b] * spec[p]
        if a != b:
            force[b] -= ik[a] * spec[p]
    return force


def _pass(s: FluidState) -> dict:
    """The state's one transform pass, memoized on it: `_grid_fields` of its
    spectra ("fields"; d enters from its spectrum, as in every stage) with
    the batch they are views of ("batch"), |grad d|^2, max|u| and
    max|grad d|.  The next step clears it and takes over the batch."""
    if "fields" not in s._memo:
        batch = _batch(s.grid)
        u, d, grad_d = _grid_fields(s.grid, s.u.spec, s.d.spec, batch)
        grad_sq = np.einsum("im...,im...->...", grad_d, grad_d)
        s._memo.update(
            batch=batch, fields=(u, d, grad_d), grad_sq=grad_sq,
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
    u, d, grad_d = memo["fields"]
    sigma, _ = _products(grid, u, d.copy(), grad_d)  # the pass outlives it
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
