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
are kept in the named fields of the same per-state record
(`dynamics._memo_of`).  A record sums squares in spectral space
(Parseval), the tension's too, and transforms only lap d back to the grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import EnvelopeUndefinedError
from .dynamics import _memo_of, _pass
from .spectral import Field, Grid, _fftn, _ifftn, curl, gradient, linf_norm
from .state import FluidState

__all__ = [
    "DiagnosticsRecord",
    "blowup_integrand",
    "constraint_residual",
    "accumulate_monitor",
    "energy_and_dissipation",
    "energy_residual",
    "lemma21_norms",
    "gronwall_envelope",
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


def _omega_linf(s: FluidState, oversample: bool) -> float:
    """max|omega| on the grid or, with `oversample`, on the 2x finer grid,
    kept in the state's record."""
    memo = _memo_of(s)
    if oversample and memo.omega_fine is None:
        memo.omega_fine = linf_norm(curl(s.u), oversample=True)
    if not oversample and memo.omega_max is None:
        memo.omega_max = linf_norm(curl(s.u))
    return memo.omega_fine if oversample else memo.omega_max


def _grad_d_linf(s: FluidState, oversample: bool) -> float:
    """max|grad d|: the pass's or, with `oversample`, on the 2x finer grid,
    kept in the state's record."""
    if not oversample:
        return _pass(s).grad_d_max
    memo = _memo_of(s)
    if memo.grad_d_fine is None:
        grad_d = Field.from_spec(s.grid, np.concatenate(
            [gradient(s.d, j).spec for j in range(s.grid.dim)]))
        memo.grad_d_fine = linf_norm(grad_d, oversample=True)
    return memo.grad_d_fine


def blowup_integrand(s: FluidState, oversample: bool = False) -> float:
    """Pointwise-supremum integrand of the blow-up monitor."""
    g = _grad_d_linf(s, oversample)
    if s.grid.dim == 2:
        return g * g
    return _omega_linf(s, oversample) + g * g


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


def constraint_residual(s: FluidState,
                        lap_d: np.ndarray | None = None) -> tuple:
    """(max | |d|-1 |, max | |grad d|^2 + d . lap d |).

    The second entry is the discrete residual of the sphere identity that
    holds exactly for smooth unit-length directors.  `lap_d`, lap d on the
    grid, is transformed from d's spectrum unless given.
    """
    d = s.d.phys
    if lap_d is None:
        lap_d = _ifftn(s.grid, -s.grid.k2 * s.d.spec)
    mag_err = float(np.max(np.abs(np.sqrt(np.sum(d * d, axis=0)) - 1.0)))
    identity = _pass(s).grad_sq + np.sum(d * lap_d, axis=0)
    return mag_err, float(np.max(np.abs(identity)))


def _record_fields(s: FluidState) -> dict:
    """Every record field but t and the monitor values.  The dissipation
    sums the tension spectrum -|k|^2 d_hat + dealiased |grad d|^2 d by
    Parseval; only lap d goes back to the grid, for the grid sums below."""
    grid, u_spec, d_spec = s.grid, s.u.spec, s.d.spec
    k2 = grid.k2_deriv
    tension = _fftn(grid, _pass(s).grad_sq * s.d.phys, grid.dealias_cutoff)
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


def measure(s: FluidState, monitor_integrand: float,
            monitor_accum: float, oversample: bool = False) -> DiagnosticsRecord:
    """Evaluate every recorded norm of the current state.  The monitor
    values are accumulated by the caller (they need the step history)."""
    return DiagnosticsRecord(t=s.t,
                             omega_linf=_omega_linf(s, oversample),
                             grad_d_linf=_grad_d_linf(s, oversample),
                             monitor_integrand=monitor_integrand,
                             monitor_accum=monitor_accum, **_record_fields(s))
