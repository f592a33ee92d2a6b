"""Built-in verification suites with analytic oracles.

Four suites mirror the library layers: `spectral` (operator exactness),
`dynamics` (reduction benchmarks and temporal order), `energy` (discrete
energy law and constraint maintenance) and `monitor` (blow-up functionals,
controlled norms, envelope fit).  Each check returns (name, passed,
detail) tuples; the CLI prints one line per check and the test suite
asserts them.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np

from . import diagnostics, dynamics, runner, scenarios, spectral, state
from .config import SimulationConfig
from .diagnostics import DiagnosticsRecord
from .scenarios import ScenarioSpec
from .spectral import Field, Grid

__all__ = ["SUITES"]

# the random_smooth spec of every verification run
RANDOM_SMOOTH = ScenarioSpec("random_smooth",
                             {"seed": 7, "slope": 4.0, "amplitude": 0.5})


def _check(name: str, err: float, tol: float):
    return (name, err < tol, f"error {err:.3e} (tol {tol:.0e})")


def _bounds_check(name: str, value: float, lo: float, hi: float):
    return (name, lo <= value <= hi, f"value {value:.4f} (allowed [{lo}, {hi}])")


def _run(scenario: ScenarioSpec, t_max: float, res: int = 32,
         dt: float | None = None) -> runner.RunReport:
    """A 2-D run that records every step, in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return runner.run(SimulationConfig(
            dim=2, res=res, scenario=scenario, t_max=t_max, dt=dt,
            record_every=1, output_dir=tmp))


# ----------------------------------------------------------------- spectral

def check_spectral():
    results = []
    grid = Grid(2, 32)
    x0, x1 = grid.coords()

    f = Field.from_phys(grid, np.sin(2 * x0) * np.cos(x1) + 0 * x1)
    exact = 2 * np.cos(2 * x0) * np.cos(x1) + 0 * x1
    err = np.max(np.abs(spectral.gradient(f, 0).phys[0] - exact))
    results.append(_check("gradient of resolved trig polynomial", err, 1e-11))

    g = Field.from_phys(grid, np.sin(x0) * np.sin(x1) + 0 * x0)
    err = np.max(np.abs(spectral.laplacian(g).phys[0]
                        - (-2.0) * np.sin(x0) * np.sin(x1)))
    results.append(_check("laplacian of resolved trig polynomial", err, 1e-11))

    tg = scenarios.taylor_green(grid).u
    err = np.max(np.abs(spectral.divergence(tg).phys))
    results.append(_check("divergence of Taylor-Green velocity", err, 1e-11))
    err = np.max(np.abs(spectral.curl(tg).phys[0] - 2 * np.sin(x0) * np.sin(x1)))
    results.append(_check("curl of Taylor-Green velocity", err, 1e-11))

    rng = np.random.Generator(np.random.PCG64(1))
    rand = Field.from_phys(grid, rng.standard_normal(grid.shape))
    phys_sq = grid.cell_volume * np.sum(rand.phys**2)
    # Hermitian weights: each interior half-spectrum column also stands for
    # its unstored conjugate partner
    weights = np.full(grid.spec_shape, 2.0)
    weights[:, [0, grid.res // 2]] = 1.0
    spec_sq = grid.volume * np.sum(weights * np.abs(rand.spec) ** 2)
    err = abs(phys_sq - spec_sq) / phys_sq
    results.append(_check("Parseval identity", err, 1e-10))

    v = Field.from_phys(grid, rng.standard_normal((2,) + grid.shape))
    pv = spectral.leray_project(v)
    err = np.max(np.abs(spectral.divergence(pv).phys))
    results.append(_check("projected field is divergence-free", err, 1e-12))
    err = np.max(np.abs(spectral.leray_project(pv).phys - pv.phys))
    results.append(_check("Leray projection idempotent", err, 1e-12))
    return results


# ----------------------------------------------------------------- dynamics

def _integrate_fixed(st, params, dt, t_end, integrator):
    while st.t < t_end - 1e-12:
        st = dynamics.step(st, params, min(dt, t_end - st.t),
                           integrator=integrator)
    return st


def check_navier_stokes_reduction():
    results = []
    grid = Grid(2, 64)
    params = state.PhysicsParams(nu=1.0)
    st = scenarios.taylor_green(grid)
    u0 = st.u.phys.copy()
    st = _integrate_fixed(st, params, 1e-3, 1.0, "IF-RK4")

    decay = math.exp(-2.0)
    err = np.max(np.abs(st.u.phys - decay * u0)) / np.max(np.abs(decay * u0))
    results.append(_check("Taylor-Green velocity matches exp(-2t) decay",
                          err, 1e-6))

    # p = +(cos 2x + cos 2y)/4 e^{-4t} for this velocity phase convention;
    # verified against a finite-difference momentum-balance oracle
    x0, x1 = grid.coords()
    p_exact = 0.25 * (np.cos(2 * x0) + np.cos(2 * x1)) * math.exp(-4.0)
    p = dynamics.recover_pressure(st).phys[0]
    err = np.max(np.abs(p - p_exact))
    results.append(_check("recovered Taylor-Green pressure", err, 1e-5))
    return results


def check_harmonic_map_reduction():
    results = []
    grid = Grid(2, 32)
    params = state.PhysicsParams()
    policy = dynamics.StepPolicy(t_max=1.0, cfl_factor=0.5)
    st = scenarios.winding_director(grid, k=1)
    d0 = st.d.phys.copy()
    d_err = 0.0
    u_err = 0.0
    while st.t < policy.t_max - 1e-12:
        st = dynamics.step(st, params, dynamics.suggest_dt(st, policy))
        d_err = max(d_err, float(np.max(np.abs(st.d.phys - d0))))
        u_err = max(u_err, float(np.max(np.abs(st.u.phys))))
    results.append(_check("winding director stays stationary", d_err, 1e-8))
    results.append(_check("velocity stays at rest", u_err, 1e-10))
    return results


def _coupled_initial(grid: Grid):
    """Taylor-Green velocity transporting a winding director: every
    explicitly-treated term is active, so temporal order is measurable."""
    tg = scenarios.taylor_green(grid)
    wd = scenarios.winding_director(grid, k=1)
    return state.FluidState(grid, tg.u, wd.d)


def check_temporal_convergence():
    # The constant-director Taylor-Green flow of the Navier-Stokes
    # reduction is integrated exactly by the integrating-factor scheme
    # (its nonlinear term is a pure gradient), so order is measured by
    # Richardson self-convergence on a coupled variant of that benchmark.
    results = []
    grid = Grid(2, 32)
    params = state.PhysicsParams()
    t_end = 0.4
    dts = (0.02, 0.01, 0.005)
    for integrator, lo, hi in (("IF-RK2", 3.5, 4.5), ("IF-RK4", 13.0, 19.0)):
        ref = _integrate_fixed(_coupled_initial(grid), params, dts[-1] / 16,
                               t_end, integrator)
        errs = []
        for dt in dts:
            st = _integrate_fixed(_coupled_initial(grid), params, dt,
                                  t_end, integrator)
            errs.append(np.max(np.abs(st.u.phys - ref.u.phys))
                        + np.max(np.abs(st.d.phys - ref.d.phys)))
        for coarse, fine in zip(errs, errs[1:]):
            ratio = coarse / fine
            results.append(_bounds_check(
                f"{integrator} error ratio under dt halving", ratio, lo, hi))
    return results


# ------------------------------------------------------------------- energy

def check_energy_identity():
    results = []
    reports = {}
    for label, scenario in (("taylor_green", ScenarioSpec("taylor_green")),
                            ("random_smooth", RANDOM_SMOOTH)):
        base = _run(scenario, 1.0, 64, 1e-3)
        fine_dt = _run(scenario, 1.0, 64, 5e-4)
        fine_res = _run(scenario, 1.0, 128, 1e-3)
        reports[label] = base
        results.append(_check(f"energy residual on {label}",
                              base.energy_residual, 1e-3))
        results.append((
            f"dt refinement shrinks {label} residual",
            fine_dt.energy_residual <= base.energy_residual,
            f"{base.energy_residual:.3e} -> {fine_dt.energy_residual:.3e}",
        ))
        # spatially exact scenarios sit on a time-quadrature floor, so res
        # refinement is only required not to regress
        results.append((
            f"res refinement does not degrade {label} residual",
            fine_res.energy_residual <= base.energy_residual * 1.01 + 1e-12,
            f"{base.energy_residual:.3e} -> {fine_res.energy_residual:.3e}",
        ))
    return results, reports


def check_constraint(reports) -> list:
    results = []
    for label, report in reports.items():
        norm_err = max(r.sphere_norm_err for r in report.history)
        ident_err = max(r.sphere_identity_err for r in report.history)
        results.append(_check(f"unit-length director on {label}",
                              norm_err, 1e-8))
        results.append(_check(f"sphere identity residual on {label}",
                              ident_err, 1e-6))
    return results


def check_energy_suite():
    energy_results, reports = check_energy_identity()
    return energy_results + check_constraint(reports)


# ------------------------------------------------------------------ monitor

def check_monitor():
    results = []
    rep1 = _run(ScenarioSpec("winding_director", {"k": 1}), 2.0)
    err = abs(rep1.final_record.monitor_accum - 2.0)
    results.append(_check("accumulated monitor, winding k=1", err, 1e-8))

    rep2 = _run(ScenarioSpec("winding_director", {"k": 2}), 2.0)
    err = abs(rep2.final_record.monitor_accum - 8.0)
    results.append(_check("accumulated monitor, winding k=2", err, 1e-7))

    grid3 = Grid(3, 16)
    x = grid3.coords()
    u = np.zeros((3,) + grid3.shape)
    u[2] = np.sin(x[0]) + 0 * x[1] + 0 * x[2]
    st3 = state.FluidState(grid3, Field.from_phys(grid3, u),
                           scenarios.winding_director(grid3, k=1).d)
    err = abs(diagnostics.blowup_integrand(st3) - 2.0)
    results.append(_check("3-D frozen-field integrand", err, 1e-10))
    return results, rep1


def check_lemma_norms():
    results = []
    grid = Grid(2, 32)
    wd = scenarios.winding_director(grid, k=1)
    rec = diagnostics.measure(wd, 0.0)
    err = abs(rec.omega_l2 - 0.0) + abs(rec.hess_d_l2 - 2.0 * math.pi)
    results.append(_check("controlled norms, winding director", err, 1e-10))

    tg = scenarios.taylor_green(grid)
    rec = diagnostics.measure(tg, 0.0)
    err = abs(rec.omega_l2 - 2.0 * math.pi) + abs(rec.hess_d_l2 - 0.0)
    results.append(_check("controlled norms, Taylor-Green", err, 1e-10))
    return results


def check_envelope(winding_report):
    results = []
    results.append(_check("envelope constant on stationary run",
                          abs(winding_report.gronwall_c), 1e-9))

    tg_report = _run(ScenarioSpec("taylor_green"), 1.0)
    results.append(_check("envelope constant on decaying run",
                          abs(tg_report.gronwall_c), 1e-9))

    # synthetic history: left side exactly exp(2 B(t)) times its initial value
    base = dict(u_l2=0, grad_d_l2=0, omega_linf=0, grad_d_linf=0, energy=0,
                dissipation=0, sphere_norm_err=0, sphere_identity_err=0)
    records = []
    for i, t in enumerate(np.linspace(0.0, 1.0, 11)):
        b = 0.3 * t
        lhs = 2.5 * math.exp(2.0 * b)
        records.append(DiagnosticsRecord(
            t=float(t), omega_l2=math.sqrt(0.5 * lhs),
            hess_d_l2=math.sqrt(0.5 * lhs), monitor_integrand=0.3,
            monitor_accum=b, **base))
    c = diagnostics.gronwall_envelope(records)
    results.append(_check("envelope fit on synthetic exponential history",
                          abs(c - 2.0), 1e-9))

    rs_report = _run(RANDOM_SMOOTH, 0.5)
    finite = (rs_report.halt_reason == runner.HALT_TMAX
              and rs_report.gronwall_c is not None
              and math.isfinite(rs_report.gronwall_c))
    results.append(("envelope finite on random smooth run", finite,
                    f"C = {rs_report.gronwall_c}"))
    return results


def check_monitor_suite():
    monitor_results, winding_report = check_monitor()
    return (monitor_results + check_lemma_norms()
            + check_envelope(winding_report))


def check_dynamics_suite():
    return (check_navier_stokes_reduction() + check_harmonic_map_reduction()
            + check_temporal_convergence())


SUITES = {
    "spectral": check_spectral,
    "dynamics": check_dynamics_suite,
    "energy": check_energy_suite,
    "monitor": check_monitor_suite,
}
