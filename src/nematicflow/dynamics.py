"""Right-hand-side evaluation and integrating-factor IMEX time stepping.

The semi-discrete system in spectral space is

    u_hat' = -nu |k|^2 u_hat + N_u(u, d)
    d_hat' = -    |k|^2 d_hat + N_d(u, d)

with N_u = P[-(u.grad)u - lap d . grad d] = P[-i k . sigma_hat] (P the
Leray projection, sigma the stress u u^T + grad d^T grad d of `state`)
and N_d = |grad d|^2 d - (u.grad)d.  Diffusion is integrated exactly via
the per-mode factors exp(-nu |k|^2 dt), exp(-|k|^2 dt); the nonlinear parts are
advanced explicitly with RK2 (Heun) or classical RK4 on the transformed
variables.  A stage transforms [u, d, grad d] to the grid as one batch;
sigma and the director products are formed pointwise and dealiased by the
2/3 rule, 17 transformed arrays per stage in 2-D and 24 in 3-D; linear
terms are never dealiased.

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
from .state import (FluidState, PhysicsParams, _grid_fields, _pass,
                    _products, _stress_force, normalize_director)

__all__ = ["StepPolicy", "momentum_rhs", "director_rhs", "step", "suggest_dt"]

INTEGRATORS = ("IF-RK2", "IF-RK4")


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


def _nonlinear(grid: Grid, u_spec: np.ndarray, d_spec: np.ndarray) -> tuple:
    """Explicitly-treated tendencies (N_u_hat, N_d_hat), dealiased."""
    return _tendencies(grid, *_products(grid, *_grid_fields(grid, u_spec,
                                                            d_spec)))


def _tendencies(grid: Grid, sigma: np.ndarray, n_d: np.ndarray) -> tuple:
    """The grid products transformed, dealiased and N_u projected."""
    n_d = _fftn(grid, n_d, grid.dealias_cutoff)
    return project_spec(grid, _stress_force(grid, sigma)), n_d


def _stage_one(s: FluidState) -> tuple:
    """`_nonlinear` of the state's own spectra, from the grid fields of its
    pass.  Bit-identical to `_nonlinear(s.grid, s.u.spec, s.d.spec)`."""
    return _tendencies(s.grid, *_products(s.grid, *_pass(s)["fields"]))


@lru_cache(maxsize=4)
def _decay(grid: Grid, coeff: float) -> np.ndarray:
    """Per-mode diffusion factor exp(-coeff |k|^2).  Cached because a
    fixed-dt run reuses the same two factors every step; four entries hold
    those and the ones of a shortened final step, while an adaptive run,
    whose factors change every step, keeps no more."""
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

    Raises NumericalOverflowError on non-finite values (reported upstream
    as suspected blow-up or under-resolution) and propagates
    DegenerateDirectorError from the renormalization.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if integrator not in INTEGRATORS:
        raise ValueError(f"integrator must be one of {INTEGRATORS}")
    grid = s.grid
    u0, d0 = s.u.spec, s.d.spec
    ku1, kd1 = _stage_one(s)
    s._memo.clear()  # its grid arrays would raise the step's peak memory
    # Stage inputs and sums are formed in place, operation by operation in
    # the order of the out-of-place expressions in the comments, so the
    # result is bit-identical to them; `_nonlinear` copies its inputs, so
    # one pair of stage buffers serves every stage.
    su, sd = np.empty_like(u0), np.empty_like(d0)

    if integrator == "IF-RK2":
        eu = _decay(grid, params.nu * dt)
        ed = _decay(grid, dt)
        # stage 2 at e * (y0 + dt * k1)
        for e, y0, k1, out in ((eu, u0, ku1, su), (ed, d0, kd1, sd)):
            np.multiply(dt, k1, out=out)
            np.add(y0, out, out=out)
            np.multiply(e, out, out=out)
        ku2, kd2 = _nonlinear(grid, su, sd)
        # y1 = e * y0 + 0.5 * dt * (e * k1 + k2)
        for e, y0, k1, k2, out in ((eu, u0, ku1, ku2, su),
                                   (ed, d0, kd1, kd2, sd)):
            np.multiply(e, k1, out=k1)
            np.add(k1, k2, out=k1)
            np.multiply(0.5 * dt, k1, out=k1)
            np.multiply(e, y0, out=out)
            np.add(out, k1, out=out)
    else:
        euh = _decay(grid, params.nu * dt / 2)
        edh = _decay(grid, dt / 2)
        euf = euh * euh
        edf = edh * edh
        u_terms = (euh, euf, u0, ku1, su)
        d_terms = (edh, edf, d0, kd1, sd)
        # stage 2 at eh * (y0 + 0.5 * dt * k1); then k1 <- ef * k1, the
        # first term of the final sum
        for eh, ef, y0, k1, out in (u_terms, d_terms):
            np.multiply(0.5 * dt, k1, out=out)
            np.add(y0, out, out=out)
            np.multiply(eh, out, out=out)
            np.multiply(ef, k1, out=k1)
        ku2, kd2 = _nonlinear(grid, su, sd)
        # stage 3 at eh * y0 + 0.5 * dt * k2
        for (eh, _, y0, _, out), k2 in ((u_terms, ku2), (d_terms, kd2)):
            np.multiply(eh, y0, out=out)
            np.add(out, 0.5 * dt * k2, out=out)
        ku3, kd3 = _nonlinear(grid, su, sd)
        # stage 4 at ef * y0 + dt * eh * k3; k1 <- ef * k1 + 2 * eh *
        # (k2 + k3), which frees k2 and k3
        for (eh, ef, y0, k1, out), k2, k3 in ((u_terms, ku2, ku3),
                                              (d_terms, kd2, kd3)):
            np.add(k2, k3, out=k2)
            np.multiply(2.0 * eh, k2, out=k2)
            np.add(k1, k2, out=k1)
            np.multiply(dt * eh, k3, out=k3)
            np.multiply(ef, y0, out=out)
            np.add(out, k3, out=out)
        del ku2, kd2, ku3, kd3, k2, k3  # the loop names hold kd2, kd3
        ku4, kd4 = _nonlinear(grid, su, sd)
        # y1 = ef * y0 + dt / 6 * (ef * k1 + 2 * eh * (k2 + k3) + k4)
        for (eh, ef, y0, k1, out), k4 in ((u_terms, ku4), (d_terms, kd4)):
            np.add(k1, k4, out=k1)
            np.multiply(dt / 6.0, k1, out=k1)
            np.multiply(ef, y0, out=out)
            np.add(out, k1, out=out)
    u1, d1 = su, sd

    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(d1))):
        raise NumericalOverflowError(
            f"non-finite values at t = {s.t + dt:.6g}; suspected blow-up or "
            "loss of resolution"
        )

    u1 = project_spec(grid, u1)  # keep div u at roundoff against drift
    out = FluidState(grid, Field.from_spec(grid, u1), Field.from_spec(grid, d1),
                     t=s.t + dt)
    return normalize_director(out)


def suggest_dt(s: FluidState, policy: StepPolicy) -> float:
    """Next time step: CFL-limited by the transport speeds, capped by the
    remaining time to t_max; fixed-dt policies only apply the cap."""
    remaining = policy.t_max - s.t
    if policy.dt is not None:
        return min(policy.dt, remaining)
    memo = _pass(s)
    speed = max(memo["u_max"], memo["grad_d_max"], 1.0)
    return min(policy.cfl_factor * s.grid.dx / speed, remaining)
