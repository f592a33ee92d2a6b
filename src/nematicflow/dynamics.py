"""Right-hand-side evaluation, integrating-factor IMEX time stepping and
the pressure.

The semi-discrete system in spectral space is

    u_hat' = -nu |k|^2 u_hat + N_u(u, d)
    d_hat' = -    |k|^2 d_hat + N_d(u, d)

with N_u = P[-(u.grad)u - lap d . grad d] (P the Leray projection) and
N_d = |grad d|^2 d - (u.grad)d.  Diffusion is integrated exactly via the
per-mode factors exp(-nu |k|^2 dt), exp(-|k|^2 dt); the nonlinear parts are
advanced explicitly in Lawson's integrating-factor Runge-Kutta form, IF-RK2
(Heun) and IF-RK4 (classical) being two rows of one table, run by one loop
that keeps one stage tendency alive at a time.

Stress form: for divergence-free u, (u.grad)u = div(u u^T) and
lap d . grad d = div(grad d^T grad d) - grad(|grad d|^2 / 2), so

    -(u.grad)u - lap d . grad d = -div(sigma - |grad d|^2 I / 2),
    sigma_ab = u_a u_b + d_a d . d_b d     (d_a = d / d x_a),

and N_u = P[-i k . sigma_hat], since the projection removes the gradient.
A stage transforms [u, d, grad d] to the grid as one batch, forms sigma
(dim(dim+1)/2 components, `_PAIRS`) and N_d pointwise and transforms them
back dealiased by the 2/3 rule: 17 arrays in 2-D, 24 in 3-D; linear terms
are never dealiased.  The pressure takes |grad d|^2 / 2 off the diagonal of
sigma before its double divergence.

Each state is transformed to the grid once (`_pass`), for the next step's
first stage, the CFL step, the monitor, the record and the pressure.

Where a stage's arrays live: a step runs every stage inside one batch of
4 dim + 3 spectral components (`_batch`), one products buffer of
dim(dim+1)/2 + 3 grid components and the running sum.  The batch is the
state's pass batch: stage 1 forms its products from the pass, spending its
grid d, then the memo is cleared and the step keeps the batch, so a run
holds one batch at a time.  The stage input is written into the batch's u
and d slots, which the inverse transform turns into [u, d, grad d] on the
grid (`_grid_fields`); sigma and N_d go into the products buffer, and the
advection term into the spent grid d (`_products`); `_tendencies` lays the
batch out as [N_u, N_d, the force, sigma_hat], so k is a view of the batch
and the next stage input is formed over it.  The sum terms, E y0 and the
unprojected u of y1 are formed in the spent force after k (a fresh
3-component buffer for them raised the step's peak by 6.5 MB at 3-D 64^3),
and u's y1 is projected from there into the running sum.  Each in-place
write is kept because undoing it alone raised the step's traced peak.

The director is renormalized to unit length once per full step, not per
substage, so the formal RK order is preserved; the radial drift removed by
renormalization is of the same order as the local truncation error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalOverflowError, check_range
from .spectral import Field, Grid, _fftn, _ifftn, project_spec
from .state import FluidState, PhysicsParams, normalize_director

__all__ = ["StepPolicy", "momentum_rhs", "director_rhs", "step", "suggest_dt",
           "recover_pressure"]

# The stored components (a, b), a <= b, of the symmetric stress, row-major
_PAIRS = {dim: tuple(itertools.combinations_with_replacement(range(dim), 2))
          for dim in (2, 3)}

# Tableaus (c, a, b) of explicit Runge-Kutta methods whose stage i+1 reads
# k_i alone: a[i] is the one nonzero entry of row i+1 of the Butcher matrix
_TABLEAUS = {
    "IF-RK2": ((0.0, 1.0), (1.0,), (0.5, 0.5)),  # Heun
    "IF-RK4": ((0.0, 0.5, 0.5, 1.0), (0.5, 0.5, 1.0),
               (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)),  # classical
}
INTEGRATORS = tuple(_TABLEAUS)


def _check_dt(dt) -> None:
    check_range("dt", dt, 0 < dt < math.inf, "positive and finite")


def _check_integrator(integrator) -> None:
    check_range("integrator", integrator, integrator in INTEGRATORS,
                f"one of {INTEGRATORS}")


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
            _check_dt(self.dt)
        check_range("cfl_factor", self.cfl_factor, 0 < self.cfl_factor <= 1,
                    "in (0, 1]")
        check_range("t_max", self.t_max, 0 < self.t_max < math.inf,
                    "positive and finite")
        _check_integrator(self.integrator)


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


def _nonlinear(grid: Grid, u_spec: np.ndarray, d_spec: np.ndarray,
               work: tuple | None = None) -> tuple:
    """Explicitly-treated tendencies (N_u_hat, N_d_hat), dealiased.

    `work` is (batch, products), the buffers of `_grid_fields` and
    `_products`, in which the stage runs; by default a fresh `_batch` and
    products.  N_u and N_d are returned as views of the batch
    (`_tendencies`), so the stage needs no spectral array of its own."""
    batch, products = (_batch(grid), None) if work is None else work
    fields = _grid_fields(grid, u_spec, d_spec, batch)
    return _tendencies(grid, *_products(grid, *fields, out=products), batch)


def _tendencies(grid: Grid, sigma: np.ndarray, n_d: np.ndarray,
                out: np.ndarray) -> tuple:
    """The grid products transformed, dealiased and N_u projected.

    `out`, a `_batch` whose grid fields are spent, is laid out as [N_u,
    N_d, the force, sigma's spectrum]: N_d is transformed first, the force
    -div sigma is formed one term at a time from sigma's spectrum and
    projected into N_u, so no spectral array is allocated."""
    pairs, ik, dim = _PAIRS[grid.dim], grid.ik_deriv, grid.dim
    end = 2 * dim + 3  # of N_u, N_d and the force
    n_d = _fftn(grid, n_d, grid.dealias_cutoff, out=out[dim:dim + 3])
    force, spec = out[dim + 3:end], out[end:end + len(pairs)]
    _fftn(grid, sigma, grid.dealias_cutoff, out=spec)
    force[...] = 0.0
    for p, (a, b) in enumerate(pairs):
        force[a] -= ik[b] * spec[p]
        if a != b:
            force[b] -= ik[a] * spec[p]
    return project_spec(grid, force, out=out[:dim]), n_d


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
    n_u, _ = _nonlinear(grid, s.u.spec, s.d.spec)
    return Field.from_spec(grid, n_u - params.nu * grid.k2 * s.u.spec)


def director_rhs(s: FluidState) -> Field:
    """Full director tendency lap d + |grad d|^2 d - (u.grad)d."""
    grid = s.grid
    _, n_d = _nonlinear(grid, s.u.spec, s.d.spec)
    return Field.from_spec(grid, n_d - grid.k2 * s.d.spec)


def step(s: FluidState, params: PhysicsParams, dt: float,
         integrator: str = "IF-RK4") -> FluidState:
    """Advance the coupled state by one time step of size dt.

    One loop runs each row (c, a, b) of `_TABLEAUS` in Lawson's form, with
    E(theta) = exp(-rate |k|^2 theta dt) per field (rate nu for u, 1 for d):
    stage i+1 starts from E(c[i+1]) y0 + dt a[i] E(c[i+1] - c[i]) k_i, and
    then k_i joins the sum y1 = E(1) y0 + sum_i dt b[i] E(1 - c[i]) k_i, so
    only one k is alive at a time.

    Raises ValueError on a dt that is not positive and finite or an
    unknown integrator, NumericalOverflowError on non-finite values
    (reported upstream as suspected blow-up or under-resolution), and
    propagates DegenerateDirectorError from the renormalization.
    """
    _check_dt(dt)
    _check_integrator(integrator)
    grid = s.grid
    u1, d1 = _stages(s, params, dt, _TABLEAUS[integrator])

    # a non-finite u stays non-finite through its projection
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(d1))):
        raise NumericalOverflowError(
            f"non-finite values at t = {s.t + dt:.6g}; suspected blow-up or "
            "loss of resolution"
        )
    return normalize_director(FluidState(
        grid, Field.from_spec(grid, u1),
        Field.from_phys(grid, _ifftn(grid, d1)), t=s.t + dt))


def _stages(s: FluidState, params: PhysicsParams, dt: float,
            tableau: tuple) -> tuple:
    """The spectra (u, d) of y1 from the stages of `tableau`, u projected
    to keep div u at roundoff against drift.

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
    # y1 = E(1) y0 + sum: u's in the spare slots, projected into the sum,
    # and then d's in the sum
    free = spare[:dim]
    np.multiply(factors[0][1.0], y0[0], out=free)
    np.add(free, total[0], out=free)
    project_spec(grid, free, out=total[0])
    np.multiply(factors[1][1.0], y0[1], out=spare)
    np.add(spare, total[1], out=total[1])
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


def recover_pressure(s: FluidState) -> Field:
    """Solve the spectral pressure Poisson equation
    lap p = -div(u . grad u + lap d . grad d); zero-mean output.

    p_hat = -k_a k_b sigma'_ab_hat / |k|^2, the double divergence of the
    stress sigma' = sigma - |grad d|^2 I / 2 formed from the state's pass,
    so a memoized pass needs no inverse transform.  Diagnostic only: time
    stepping eliminates the pressure by projection."""
    grid, memo = s.grid, _pass(s)
    pairs, k = _PAIRS[grid.dim], grid.k_deriv
    u, d, grad_d = memo["fields"]
    sigma, _ = _products(grid, u, d.copy(), grad_d)  # the pass outlives it
    sigma[[p for p, (a, b) in enumerate(pairs) if a == b]] -= \
        0.5 * memo["grad_sq"]
    spec = _fftn(grid, sigma, grid.dealias_cutoff)
    # each off-diagonal pair stands for itself and its transpose
    div2 = sum((1.0 if a == b else 2.0) * k[a] * k[b] * spec[p]
               for p, (a, b) in enumerate(pairs))
    return Field.from_spec(grid, (-div2 * grid.inv_k2)[np.newaxis])
