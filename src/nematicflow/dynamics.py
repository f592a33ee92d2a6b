"""Right-hand-side evaluation and integrating-factor IMEX time stepping.

The semi-discrete system in spectral space is

    u_hat' = -nu |k|^2 u_hat + N_u(u, d)
    d_hat' = -    |k|^2 d_hat + N_d(u, d)

with N_u = P[-(u.grad)u - lap d . grad d] = P[-i k . sigma_hat] (P the
Leray projection, sigma the stress u u^T + grad d^T grad d of `state`)
and N_d = |grad d|^2 d - (u.grad)d.  Diffusion is integrated exactly via the
per-mode factors exp(-nu |k|^2 dt), exp(-|k|^2 dt); the nonlinear parts are
advanced explicitly in Lawson's integrating-factor Runge-Kutta form, IF-RK2
(Heun) and IF-RK4 (classical) being two rows of one table, run by one loop
that keeps one stage tendency alive at a time.  A stage transforms [u, d,
grad d] to the grid as one batch; sigma and the director products are formed
pointwise and dealiased by the 2/3 rule, 17 transformed arrays per stage in
2-D and 24 in 3-D; linear terms are never dealiased.

Where a stage's arrays live: a step runs every stage inside one batch of
4 dim + 3 spectral components, one products buffer of dim(dim+1)/2 + 3 grid
components and the running sum.  The batch is the state's pass batch:
stage 1 reads its grid fields from the pass, then the memo is cleared and
the step keeps the batch, so the pass and the stages never hold two.  The
stage input is written into the batch's u and d slots, which the inverse
transform turns into [u, d, grad d] on the grid; sigma and N_d go into the
products buffer; their spectra come back into the batch, N_u and N_d into
the u and d slots, so k is a view of the batch and the next stage input is
formed over it; the sum terms are formed in the spent stress spectrum, and
y1 in the running sum.

The director is renormalized to unit length once per full step, not per
substage, so the formal RK order is preserved; the radial drift removed by
renormalization is of the same order as the local truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalOverflowError, check_range
from .spectral import Field, Grid, _fftn, project_spec
from .state import (_PAIRS, FluidState, PhysicsParams, _grid_fields,
                    _pass, _products, _stress_force, normalize_director)

__all__ = ["StepPolicy", "momentum_rhs", "director_rhs", "step", "suggest_dt"]

# Tableaus (c, a, b) of explicit Runge-Kutta methods whose stage i+1 reads
# k_i alone: a[i] is the one nonzero entry of row i+1 of the Butcher matrix
_TABLEAUS = {
    "IF-RK2": ((0.0, 1.0), (1.0,), (0.5, 0.5)),  # Heun
    "IF-RK4": ((0.0, 0.5, 0.5, 1.0), (0.5, 0.5, 1.0),
               (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)),  # classical
}
INTEGRATORS = tuple(_TABLEAUS)


@dataclass(frozen=True)
class StepPolicy:
    """Time step policy: a final time, a CFL factor, the integrator tag and
    optionally a fixed dt, which wins over the CFL factor."""

    t_max: float
    dt: float | None = None
    cfl_factor: float = 0.5
    integrator: str = "IF-RK4"

    def __post_init__(self):
        if self.dt is not None:
            check_range("dt", self.dt, 0 < self.dt < math.inf,
                        "positive and finite")
        check_range("cfl_factor", self.cfl_factor, 0 < self.cfl_factor <= 1,
                    "in (0, 1]")
        check_range("t_max", self.t_max, 0 < self.t_max < math.inf,
                    "positive and finite")
        check_range("integrator", self.integrator,
                    self.integrator in INTEGRATORS, f"one of {INTEGRATORS}")


def _nonlinear(grid: Grid, u_spec: np.ndarray, d_spec: np.ndarray,
               work: tuple = (None, None)) -> tuple:
    """Explicitly-treated tendencies (N_u_hat, N_d_hat), dealiased.

    `work` is (batch, products), the buffers of `_grid_fields` and
    `_products`, in which the stage runs: N_u and N_d are returned as views
    of the batch (`_tendencies`).  By default each is allocated fresh."""
    batch, products = work
    fields = _grid_fields(grid, u_spec, d_spec, out=batch)
    return _tendencies(grid, *_products(grid, *fields, out=products),
                       out=batch)


def _tendencies(grid: Grid, sigma: np.ndarray, n_d: np.ndarray,
                out: np.ndarray | None = None) -> tuple:
    """The grid products transformed, dealiased and N_u projected.

    `out` holds at least 2 dim + 3 + dim(dim+1)/2 spectral components
    (fresh by default), laid out as [N_u, N_d, the force, sigma's
    spectrum]: N_d is transformed first, the force is formed over sigma's
    spectrum and projected into N_u, so nothing else is allocated."""
    dim, end = grid.dim, 2 * grid.dim + 3 + len(sigma)
    if out is None:
        out = np.empty((end,) + grid.spec_shape, np.complex128)
    n_d = _fftn(grid, n_d, grid.dealias_cutoff, out=out[dim:dim + 3])
    force = _stress_force(grid, sigma, out=out[dim + 3:end])
    return project_spec(grid, force, out=out[:dim]), n_d


def _stage_one(s: FluidState) -> tuple:
    """`_nonlinear` of the state's own spectra, from the grid fields of its
    pass, which outlive the call (`_products` spends a copy of d).
    Bit-identical to `_nonlinear(s.grid, s.u.spec, s.d.spec)`."""
    u, d, grad_d = _pass(s)["fields"]
    return _tendencies(s.grid, *_products(s.grid, u, d.copy(), grad_d))


@lru_cache(maxsize=4)
def _decay(grid: Grid, coeff: float) -> np.ndarray:
    """Per-mode diffusion factor exp(-coeff |k|^2).  Cached because a
    fixed-dt run reuses the same factors every step: E(1) per field, and
    E(1/2) too for IF-RK4, whose four entries fill the cache; an adaptive
    run, whose factors change every step, keeps no more."""
    out = np.exp(-coeff * grid.k2)
    out.setflags(write=False)
    return out


def momentum_rhs(s: FluidState, params: PhysicsParams) -> Field:
    """Full momentum tendency P[-(u.grad)u - lap d . grad d] + nu lap u."""
    grid = s.grid
    n_u, _ = _stage_one(s)
    return Field.from_spec(grid, n_u - params.nu * grid.k2 * s.u.spec)


def director_rhs(s: FluidState) -> Field:
    """Full director tendency lap d + |grad d|^2 d - (u.grad)d."""
    grid = s.grid
    _, n_d = _stage_one(s)
    return Field.from_spec(grid, n_d - grid.k2 * s.d.spec)


def step(s: FluidState, params: PhysicsParams, dt: float,
         integrator: str = "IF-RK4") -> FluidState:
    """Advance the coupled state by one time step of size dt.

    One loop runs each row (c, a, b) of `_TABLEAUS` in Lawson's form, with
    E(theta) = exp(-rate |k|^2 theta dt) per field (rate nu for u, 1 for d):
    stage i+1 starts from E(c[i+1]) y0 + dt a[i] E(c[i+1] - c[i]) k_i, and
    then k_i joins the sum y1 = E(1) y0 + sum_i dt b[i] E(1 - c[i]) k_i, so
    only one k is alive at a time.

    Raises NumericalOverflowError on non-finite values (reported upstream
    as suspected blow-up or under-resolution) and propagates
    DegenerateDirectorError from the renormalization.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if integrator not in INTEGRATORS:
        raise ValueError(f"integrator must be one of {INTEGRATORS}")
    grid = s.grid
    u1, d1 = _stages(s, params, dt, _TABLEAUS[integrator])

    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(d1))):
        raise NumericalOverflowError(
            f"non-finite values at t = {s.t + dt:.6g}; suspected blow-up or "
            "loss of resolution"
        )

    project_spec(grid, u1, out=u1)  # keep div u at roundoff against drift
    out = FluidState(grid, Field.from_spec(grid, u1), Field.from_spec(grid, d1),
                     t=s.t + dt)
    return normalize_director(out)


def _stages(s: FluidState, params: PhysicsParams, dt: float,
            tableau: tuple) -> tuple:
    """The spectra (u, d) of y1, unprojected, from the stages of `tableau`.

    Every stage runs inside the pass's batch and one products buffer
    (module docstring), which die when this returns; y1 is formed in the
    running sum's arrays."""
    grid, dim = s.grid, s.grid.dim
    c, a, b = tableau
    y0 = (s.u.spec, s.d.spec)
    # stage 1 forms its products from the state's pass, spending its d, and
    # the step takes over the pass's batch: one batch serves both
    memo = _pass(s)
    products = np.empty((len(_PAIRS[dim]) + 3,) + grid.shape)
    sigma, n_d = _products(grid, *memo["fields"], out=products)
    batch = memo["batch"]
    s._memo.clear()
    k = _tendencies(grid, sigma, n_d, out=batch)
    total = (np.empty_like(y0[0]), np.empty_like(y0[1]))
    # k sits where `_grid_fields` reads u and d, so each stage input is
    # formed over it; the sum terms and E y0 go into the spent force and
    # stress spectrum after it
    stage = (batch[:dim], batch[dim:dim + 3])
    spare = batch[dim + 3:dim + 6]
    # the step's factors E(theta), E(0) = 1 being skipped
    thetas = {1.0, *c[1:], *(1.0 - x for x in c),
              *(y - x for x, y in zip(c, c[1:]))} - {0.0}
    factors = [{theta: _decay(grid, rate * theta) for theta in sorted(thetas)}
               for rate in (params.nu * dt, dt)]
    for i in range(len(b)):
        if i:
            k = _nonlinear(grid, *stage, (batch, products))
        for f, e in enumerate(factors):
            free = spare[:len(y0[f])]
            # k's term of the sum first, as the next stage's input is
            # formed over k; k_1's term is the sum
            term = free if i else total[f]
            np.multiply(dt * b[i], k[f], out=term)
            if c[i] != 1.0:
                np.multiply(e[1.0 - c[i]], term, out=term)
            if i:
                np.add(total[f], term, out=total[f])
            if i + 1 < len(b):  # the next stage's input
                np.multiply(dt * a[i], k[f], out=stage[f])
                if c[i + 1] != c[i]:
                    np.multiply(e[c[i + 1] - c[i]], stage[f], out=stage[f])
                np.multiply(e[c[i + 1]], y0[f], out=free)
                np.add(stage[f], free, out=stage[f])
    for f, e in enumerate(factors):  # y1 = E(1) y0 + sum, in the sum
        free = spare[:len(y0[f])]
        np.multiply(e[1.0], y0[f], out=free)
        np.add(free, total[f], out=total[f])
    return total


def suggest_dt(s: FluidState, policy: StepPolicy) -> float:
    """Next time step: CFL-limited by the transport speeds, capped by the
    remaining time to t_max; fixed-dt policies only apply the cap."""
    remaining = policy.t_max - s.t
    if policy.dt is not None:
        return min(policy.dt, remaining)
    memo = _pass(s)
    speed = max(memo["u_max"], memo["grad_d_max"], 1.0)
    return min(policy.cfl_factor * s.grid.dx / speed, remaining)
