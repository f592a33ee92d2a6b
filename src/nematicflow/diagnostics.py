"""Runtime monitors: blow-up integrands, controlled norms, energy law and
the exponential envelope fit.

The blow-up monitor integrand is dimension dependent:

    dim=3:  max|omega| + (max|grad d|)^2
    dim=2:  (max|grad d|)^2

with L-infinity norms taken as collocation maxima (optionally on a 2x
zero-padded grid).  Its running time integral B(t) is accumulated by the
trapezoid rule and drives the early-stopping rule of the runner: a finite
threshold on B(t) stands in for the unobservable divergence at the first
singular time.

max|grad d| comes from the state's one transform pass (`dynamics._pass`),
which the next step's first stage also uses; max|omega| (a curl batch,
every step in 3-D, only for a record in 2-D) and the oversampled maxima
come from `dynamics._omega_linf` and `dynamics._grad_d_linf`, which keep
them in the named fields of the same per-state record.  `dynamics` writes
every field of that record; this module only reads it.

`measure` is the one place a record is formed: the monitor maxima and
the integrand formed from them (`_integrand`, as `blowup_integrand` forms
it), the controlled norms ||omega||_2 and ||lap d||_2, the energy law
(E, D) and the sphere errors.  It sums squares in spectral space
(Parseval), the tension's too, and transforms only lap d back to the grid.
Every state's u is divergence free, so ||omega||_2 = ||grad u||_2 is read
from the sum the dissipation forms, and a state's vorticity is formed at
most once, for max|omega|.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import EnvelopeUndefinedError
from .dynamics import _grad_d_linf, _omega_linf, _pass
from .spectral import Grid, _fftn, _ifftn
from .state import FluidState

__all__ = [
    "DiagnosticsRecord",
    "blowup_integrand",
    "accumulate_monitor",
    "energy_residual",
    "gronwall_envelope",
    "measure",
]

# growth of the envelope's left side below this many ulps is roundoff
_GROWTH_ULPS = 8


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-step ledger of norms, energy budget and monitor values."""

    t: float
    u_l2: float
    grad_d_l2: float
    omega_l2: float
    omega_linf: float
    grad_d_linf: float
    hess_d_l2: float
    energy: float
    dissipation: float
    monitor_integrand: float
    monitor_accum: float
    sphere_norm_err: float
    sphere_identity_err: float

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(f.name for f in dataclass_fields(cls))

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.field_names())


def _integrand(dim: int, g: float, omega) -> float:
    """The monitor integrand from max|grad d| = g and max|omega| = omega,
    which 2-D does not read."""
    return g * g if dim == 2 else omega + g * g


def blowup_integrand(s: FluidState, oversample: bool = False) -> float:
    """Pointwise-supremum integrand of the blow-up monitor."""
    g = _grad_d_linf(s, oversample)
    # no curl is formed for a 2-D integrand
    omega = _omega_linf(s, oversample) if s.grid.dim == 3 else None
    return _integrand(s.grid.dim, g, omega)


def accumulate_monitor(accum: float, prev_integrand: float,
                       curr_integrand: float, dt: float) -> float:
    """Trapezoidal update of the accumulated monitor B over a step dt."""
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    return accum + 0.5 * dt * (prev_integrand + curr_integrand)


def _l2_sq(grid: Grid, spec: np.ndarray, weight=1.0) -> float:
    """Squared L^2 norm over one torus cell, all components summed, of the
    field with half spectrum `spec`, each mode times `weight` (Parseval)."""
    power = np.sum(spec.real**2 + spec.imag**2, axis=0)
    return grid.volume * float(np.sum(grid.hermitian_weights * weight * power))


def energy_residual(history) -> float:
    """Max over recorded times of the relative defect in the energy
    identity E(t) + int_0^t D - E(0), with the time integral by trapezoid."""
    if len(history) == 0:
        raise ValueError("history is empty")
    times = [r.t for r in history]
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise ValueError("history times must be strictly increasing")
    e0 = history[0].energy
    scale = max(e0, 1.0)
    worst = 0.0
    integral = 0.0
    for prev, curr in zip(history, history[1:]):
        integral += 0.5 * (curr.t - prev.t) * (prev.dissipation + curr.dissipation)
        worst = max(worst, abs(curr.energy + integral - e0) / scale)
    return worst


def gronwall_envelope(history) -> float:
    """Minimal C >= 0 such that

        omega_l2(t)^2 + hess_d_l2(t)^2 <= (initial value) * exp(C * B(t))

    holds at every recorded time.  Returns 0 when the left side never
    exceeds its initial value by more than a few ulps (roundoff of a
    stationary state is not growth); inf when the initial value is zero but
    the left side grew.  Raises EnvelopeUndefinedError when B is identically
    zero while the left side grew (no envelope of this form exists).
    """
    if len(history) == 0:
        raise ValueError("history is empty")
    lhs0 = history[0].omega_l2 ** 2 + history[0].hess_d_l2 ** 2
    no_growth = lhs0 * (1.0 + _GROWTH_ULPS * sys.float_info.epsilon)
    c = 0.0
    for rec in history[1:]:
        lhs = rec.omega_l2 ** 2 + rec.hess_d_l2 ** 2
        if lhs <= no_growth:
            continue
        if rec.monitor_accum <= 0.0:
            raise EnvelopeUndefinedError(
                f"monitored norms grew at t = {rec.t:.6g} while the "
                "accumulated monitor is zero"
            )
        if lhs0 == 0.0:
            return math.inf
        c = max(c, math.log(lhs / lhs0) / rec.monitor_accum)
    return c


def measure(s: FluidState, monitor_accum: float, *,
            oversample: bool = False) -> DiagnosticsRecord:
    """Evaluate every recorded norm of the current state.  The monitor
    integrand is formed from the record's own maxima; its running integral
    `monitor_accum` is accumulated by the caller (it needs the step
    history).

    The dissipation sums the tension spectrum -|k|^2 d_hat + dealiased
    |grad d|^2 d by Parseval; only lap d goes back to the grid, for the
    grid sums: ||lap d||_2, which equals the L^2 norm of the full Hessian
    of d for periodic fields, and the sphere errors max | |d| - 1 | and
    max | |grad d|^2 + d . lap d |, the residual of an identity that holds
    exactly for smooth unit-length directors.

    ||omega||_2 is read from the ||grad u||_2 sum of the dissipation.
    That relies on every state's u being divergence free, k . u_hat = 0
    for the derivative wavenumbers, as `project_spec` leaves it: per mode
    |k x u_hat|^2 = |k|^2 |u_hat|^2 - |k . u_hat|^2 (Lagrange's identity)."""
    omega_linf = _omega_linf(s, oversample)
    grad_d_linf = _grad_d_linf(s, oversample)
    grid, u_spec, d_spec, d = s.grid, s.u.spec, s.d.spec, s.d.phys
    k2 = grid.k2_deriv
    tension = _fftn(grid, _pass(s).grad_sq * d, grid.dealias_cutoff)
    lap_d_spec = -grid.k2 * d_spec
    tension += lap_d_spec
    lap_d = _ifftn(grid, lap_d_spec)
    u_sq, grad_d_sq = _l2_sq(grid, u_spec), _l2_sq(grid, d_spec, k2)
    grad_u_sq = _l2_sq(grid, u_spec, k2)
    # reduced to floats here, so no grid array of theirs outlives them
    norm_err = float(np.max(np.abs(
        np.sqrt(np.einsum("i...,i...->...", d, d)) - 1.0)))
    identity_err = float(np.max(np.abs(
        _pass(s).grad_sq + np.einsum("i...,i...->...", d, lap_d))))
    return DiagnosticsRecord(
        t=s.t, u_l2=math.sqrt(u_sq), grad_d_l2=math.sqrt(grad_d_sq),
        omega_l2=math.sqrt(grad_u_sq),
        omega_linf=omega_linf, grad_d_linf=grad_d_linf,
        # summed as the record always has: the stationary winding
        # director's envelope fit is exactly 0 only at this roundoff
        hess_d_l2=math.sqrt(grid.cell_volume * float(np.sum(lap_d**2))),
        energy=u_sq + grad_d_sq, monitor_accum=monitor_accum,
        dissipation=2.0 * (grad_u_sq + _l2_sq(grid, tension)),
        monitor_integrand=_integrand(grid.dim, grad_d_linf, omega_linf),
        sphere_norm_err=norm_err, sphere_identity_err=identity_err)
