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

max|grad d| comes from the state's one transform pass (`state._pass`),
which the next step's first stage also uses; max|omega| (a curl batch,
every step in 3-D, only for a record in 2-D) and the oversampled maxima
are memoized on the state.  A record sums squares in spectral space
(Parseval), the tension's too, and transforms only lap d back to the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import EnvelopeUndefinedError
from .spectral import (Field, Grid, _fftn, _ifftn, curl, first_derivatives,
                       linf_norm)
from .state import FluidState, _pass, constraint_residual

__all__ = [
    "DiagnosticsRecord",
    "blowup_integrand",
    "accumulate_monitor",
    "energy_and_dissipation",
    "energy_residual",
    "lemma21_norms",
    "gronwall_envelope",
]


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


def _sup_norm(s: FluidState, name: str, oversample: bool) -> float:
    """Max pointwise magnitude of omega ("omega") or grad d ("grad_d"), on
    the grid or, with `oversample`, on the 2x finer grid."""
    key = name + ("_fine" if oversample else "_max")
    if key == "grad_d_max":
        return _pass(s)[key]
    if key not in s._memo:
        grid = s.grid
        f = curl(s.u) if name == "omega" else Field.from_spec(
            grid, first_derivatives(grid, s.d.spec).reshape(
                (-1,) + grid.spec_shape))
        s._memo[key] = linf_norm(f, oversample=oversample)
    return s._memo[key]


def blowup_integrand(s: FluidState, oversample: bool = False) -> float:
    """Pointwise-supremum integrand of the blow-up monitor."""
    g = _sup_norm(s, "grad_d", oversample)
    if s.grid.dim == 2:
        return g * g
    return _sup_norm(s, "omega", oversample) + g * g


def accumulate_monitor(accum: float, prev_integrand: float,
                       curr_integrand: float, dt: float) -> float:
    """Trapezoidal update of the accumulated monitor B over a step dt."""
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    return accum + 0.5 * dt * (prev_integrand + curr_integrand)


def _l2_sq(grid: Grid, spec: np.ndarray, weight=1.0) -> float:
    """Squared L^2 norm over one torus cell, all components summed, of the
    field with half spectrum `spec`, each mode times `weight` (Parseval)."""
    hermitian = np.where(grid.k_int[-1] % (grid.res // 2) == 0, 1.0, 2.0)
    power = np.sum(spec.real**2 + spec.imag**2, axis=0)
    return grid.volume * float(np.sum(hermitian * weight * power))


def _record_fields(s: FluidState) -> dict:
    """Every record field but t and the monitor values.  The dissipation
    sums the tension spectrum -|k|^2 d_hat + dealiased |grad d|^2 d by
    Parseval; only lap d goes back to the grid, for the grid sums below."""
    grid, u_spec, d_spec = s.grid, s.u.spec, s.d.spec
    k2 = sum(k * k for k in grid.k_deriv)
    tension = _fftn(grid, _pass(s)["grad_sq"] * s.d.phys)
    tension *= grid.dealias_mask
    lap_d_spec = -grid.k2 * d_spec
    tension += lap_d_spec
    lap_d = _ifftn(grid, lap_d_spec)
    u_sq, grad_d_sq = _l2_sq(grid, u_spec), _l2_sq(grid, d_spec, k2)
    norm_err, identity_err = constraint_residual(s, lap_d)
    return dict(
        u_l2=math.sqrt(u_sq), grad_d_l2=math.sqrt(grad_d_sq),
        omega_l2=math.sqrt(_l2_sq(grid, curl(s.u).spec)),
        # summed as the record always has: the stationary winding
        # director's envelope fit is exactly 0 only at this roundoff
        hess_d_l2=math.sqrt(grid.cell_volume * float(np.sum(lap_d**2))),
        energy=u_sq + grad_d_sq,
        dissipation=2.0 * (_l2_sq(grid, u_spec, k2) + _l2_sq(grid, tension)),
        sphere_norm_err=norm_err,
        sphere_identity_err=identity_err,
    )


def energy_and_dissipation(s: FluidState) -> tuple:
    """(E, D): kinetic-plus-elastic energy and twice the instantaneous
    dissipation rate, integrated over one torus cell."""
    fields = _record_fields(s)
    return fields["energy"], fields["dissipation"]


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


def lemma21_norms(s: FluidState) -> tuple:
    """(L^2 norm of the vorticity, L^2 norm of lap d).

    The latter equals the L^2 norm of the full second-derivative tensor of
    d for periodic fields, so the Hessian is never assembled.
    """
    fields = _record_fields(s)
    return fields["omega_l2"], fields["hess_d_l2"]


def gronwall_envelope(history) -> float:
    """Minimal C >= 0 such that

        omega_l2(t)^2 + hess_d_l2(t)^2 <= (initial value) * exp(C * B(t))

    holds at every recorded time.  Returns 0 when the left side never
    exceeds its initial value; inf when the initial value is zero but the
    left side grew.  Raises EnvelopeUndefinedError when B is identically
    zero while the left side grew (no envelope of this form exists).
    """
    if len(history) == 0:
        raise ValueError("history is empty")
    lhs0 = history[0].omega_l2 ** 2 + history[0].hess_d_l2 ** 2
    c = 0.0
    for rec in history[1:]:
        lhs = rec.omega_l2 ** 2 + rec.hess_d_l2 ** 2
        if lhs <= lhs0:
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


def measure(s: FluidState, monitor_integrand: float,
            monitor_accum: float, oversample: bool = False) -> DiagnosticsRecord:
    """Evaluate every recorded norm of the current state.  The monitor
    values are accumulated by the caller (they need the step history)."""
    return DiagnosticsRecord(t=s.t,
                             omega_linf=_sup_norm(s, "omega", oversample),
                             grad_d_linf=_sup_norm(s, "grad_d", oversample),
                             monitor_integrand=monitor_integrand,
                             monitor_accum=monitor_accum, **_record_fields(s))
