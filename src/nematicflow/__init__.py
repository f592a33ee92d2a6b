"""Pseudo-spectral solver for the coupled incompressible flow / director
heat-flow system of nematic liquid crystals on a periodic torus, with
runtime singularity monitors and energy-law verification."""

from .config import SimulationConfig, load_config
from .diagnostics import (DiagnosticsRecord, accumulate_monitor,
                          blowup_integrand, energy_residual, gronwall_envelope,
                          measure)
from .dynamics import StepPolicy, recover_pressure, rhs, step, suggest_dt
from .runner import RunReport, read_snapshot, run, write_snapshot, write_timeseries
from .scenarios import (ScenarioSpec, build_scenario, random_smooth,
                        taylor_green, winding_director)
from .spectral import (Field, Grid, curl, dealias, divergence, gradient,
                       l2_norm, laplacian, leray_project, linf_norm)
from .state import FluidState, PhysicsParams, normalize_director

__version__ = "0.1.0"
