"""Tests for the monitor integrand, energy budget and envelope fit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nematicflow import diagnostics, dynamics, spectral
from nematicflow.diagnostics import (DiagnosticsRecord, accumulate_monitor,
                                     blowup_integrand, energy_residual,
                                     gronwall_envelope, measure)
from nematicflow.errors import EnvelopeUndefinedError
from nematicflow.scenarios import random_smooth, taylor_green, winding_director
from nematicflow.spectral import (Field, Grid, curl, dealias, gradient,
                                  l2_norm, laplacian, linf_norm)
from nematicflow.state import FluidState


@pytest.fixture
def grid():
    return Grid(2, 32)


def make_record(t, accum=0.0, omega_l2=0.0, hess_d_l2=0.0, energy=0.0,
                dissipation=0.0):
    return DiagnosticsRecord(
        t=t, u_l2=0.0, grad_d_l2=0.0, omega_l2=omega_l2, omega_linf=0.0,
        grad_d_linf=0.0, hess_d_l2=hess_d_l2, energy=energy,
        dissipation=dissipation, monitor_integrand=0.0,
        monitor_accum=accum, sphere_norm_err=0.0, sphere_identity_err=0.0)


class TestIntegrand:
    def test_winding_director_2d(self, grid):
        # |grad d| = |k| everywhere, so the 2-D integrand is k^2
        assert abs(blowup_integrand(winding_director(grid, k=1)) - 1.0) < 1e-12
        assert abs(blowup_integrand(winding_director(grid, k=2)) - 4.0) < 1e-11

    def test_2d_ignores_vorticity(self, grid):
        s = taylor_green(grid)  # max |omega| = 2 but grad d = 0
        assert abs(blowup_integrand(s)) < 1e-12

    def test_3d_adds_vorticity(self):
        grid = Grid(3, 16)
        x = grid.coords()
        u = np.zeros((3,) + grid.shape)
        u[2] = np.sin(x[0]) + 0 * x[1] + 0 * x[2]  # max |omega| = 1
        s = FluidState(grid, Field.from_phys(grid, u),
                       winding_director(grid, k=1).d)
        assert abs(blowup_integrand(s) - 2.0) < 1e-11

    def test_memo_is_not_carried_to_a_new_state(self, grid):
        s = winding_director(grid, k=1)
        assert abs(blowup_integrand(s) - 1.0) < 1e-12
        s2 = replace(s, d=winding_director(grid, k=2).d)
        assert abs(blowup_integrand(s2) - 4.0) < 1e-11

    def test_oversampling_agrees_on_resolved_data(self, grid):
        s = winding_director(grid, k=1)
        coarse = blowup_integrand(s)
        fine = blowup_integrand(s, oversample=True)
        assert abs(coarse - fine) < 1e-10


class TestAccumulate:
    def test_trapezoid(self):
        assert abs(accumulate_monitor(3.0, 1.0, 2.0, 0.1) - 3.15) < 1e-14

    def test_zero_dt(self):
        assert accumulate_monitor(3.0, 1.0, 5.0, 0.0) == 3.0

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            accumulate_monitor(0.0, 0.0, 1.0, -0.1)


class TestEnergy:
    def test_taylor_green_energy(self, grid):
        # integral of |u|^2 over the cell is (2 pi)^2 / 2; grad d = 0
        rec = measure(taylor_green(grid), 0.0)
        assert abs(rec.energy - 2 * math.pi**2) < 1e-10
        # D = 2 * integral |grad u|^2 = 2 * (2 pi)^2
        assert abs(rec.dissipation - 8 * math.pi**2) < 1e-9

    def test_winding_director_energy(self, grid):
        # |grad d|^2 = 1 everywhere and the heat-flow tendency vanishes
        rec = measure(winding_director(grid, k=1), 0.0)
        assert abs(rec.energy - 4 * math.pi**2) < 1e-10
        assert abs(rec.dissipation) < 1e-10

    def test_residual_zero_for_exact_linear_decay(self):
        # E(t) = E0 - c t with constant dissipation c satisfies the
        # trapezoid-discretized identity exactly
        records = [make_record(t, energy=5.0 - 0.4 * t, dissipation=0.4)
                   for t in np.linspace(0, 1, 6)]
        assert energy_residual(records) < 1e-14

    def test_residual_detects_energy_gain(self):
        records = [make_record(0.0, energy=1.0, dissipation=0.0),
                   make_record(1.0, energy=1.5, dissipation=0.0)]
        assert abs(energy_residual(records) - 0.5) < 1e-14

    def test_residual_input_validation(self):
        with pytest.raises(ValueError):
            energy_residual([])
        with pytest.raises(ValueError):
            energy_residual([make_record(0.0), make_record(0.0)])


class TestLemmaNorms:
    def test_winding_director(self, grid):
        rec = measure(winding_director(grid, k=1), 0.0)
        assert abs(rec.omega_l2) < 1e-12
        assert abs(rec.hess_d_l2 - 2 * math.pi) < 1e-11

    def test_taylor_green(self, grid):
        rec = measure(taylor_green(grid), 0.0)
        assert abs(rec.omega_l2 - 2 * math.pi) < 1e-11
        assert abs(rec.hess_d_l2) < 1e-12


class TestEnvelope:
    def test_zero_for_non_growing_history(self):
        records = [make_record(t, accum=t, omega_l2=1.0 - 0.1 * t)
                   for t in np.linspace(0, 1, 5)]
        assert gronwall_envelope(records) == 0.0

    def test_exact_exponential_rate(self):
        records = []
        for t in np.linspace(0.0, 1.0, 11):
            b = 0.5 * t
            lhs = 3.0 * math.exp(2.0 * b)
            records.append(make_record(t, accum=b,
                                       omega_l2=math.sqrt(lhs)))
        assert abs(gronwall_envelope(records) - 2.0) < 1e-12

    def test_roundoff_growth_is_no_growth(self):
        # one ulp above the initial value: 1 + 2^-52 = 1^2 + (2^-26)^2
        records = [make_record(0.0, omega_l2=1.0),
                   make_record(1.0, omega_l2=1.0, hess_d_l2=2.0**-26,
                               accum=0.5)]
        assert 1.0 + (2.0**-26) ** 2 == math.nextafter(1.0, 2.0)
        assert gronwall_envelope(records) == 0.0

    def test_growth_without_monitor_is_undefined(self):
        records = [make_record(0.0, omega_l2=1.0),
                   make_record(1.0, omega_l2=2.0, accum=0.0)]
        with pytest.raises(EnvelopeUndefinedError):
            gronwall_envelope(records)

    def test_growth_from_zero_is_infinite(self):
        records = [make_record(0.0, omega_l2=0.0),
                   make_record(1.0, omega_l2=1.0, accum=0.5)]
        assert gronwall_envelope(records) == math.inf

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            gronwall_envelope([])


class TestMeasure:
    def test_integrand_is_not_a_parameter(self, grid):
        # an old call that passed the integrand first fails, rather than
        # passing it as the accumulated monitor
        with pytest.raises(TypeError):
            measure(taylor_green(grid), 0.25, 0.5)

    def test_record_is_consistent(self, grid):
        s = winding_director(grid, k=1)
        blowup_integrand(s)
        rec = measure(s, 0.0)
        assert rec.t == 0.0
        assert abs(rec.u_l2) < 1e-13
        assert abs(rec.grad_d_l2 - 2 * math.pi) < 1e-11
        assert abs(rec.grad_d_linf - 1.0) < 1e-12
        assert abs(rec.hess_d_l2 - 2 * math.pi) < 1e-11
        assert abs(rec.monitor_integrand - 1.0) < 1e-12
        assert rec.sphere_norm_err < 1e-13

    def test_field_names_match_record_order(self):
        names = DiagnosticsRecord.field_names()
        assert names[0] == "t"
        assert names[-2:] == ("sphere_norm_err", "sphere_identity_err")
        rec = make_record(1.5)
        assert rec.as_tuple()[0] == 1.5
        assert len(rec.as_tuple()) == len(names)


def _grad_d_oracle(s):
    """All first derivatives of d stacked as one field, axis by axis."""
    return Field.from_phys(s.grid, np.concatenate(
        [gradient(s.d, i).phys for i in range(s.grid.dim)]))


def _energy_oracle(s):
    """(E, D) assembled term by term from the spectral operators."""
    grid = s.grid
    cell = grid.cell_volume
    grad_u = [gradient(s.u, i).phys for i in range(grid.dim)]
    grad_d = [gradient(s.d, i).phys for i in range(grid.dim)]
    grad_sq = sum(np.sum(g * g, axis=0) for g in grad_d)
    cubic = dealias(Field.from_phys(grid, grad_sq * s.d.phys))
    tension = Field.from_spec(grid, laplacian(s.d).spec + cubic.spec).phys
    energy = cell * (np.sum(s.u.phys**2) + np.sum(grad_sq))
    dissipation = 2.0 * cell * (sum(np.sum(g * g) for g in grad_u)
                                + np.sum(tension**2))
    return energy, dissipation


def _sphere_oracle(s):
    """(max | |d| - 1 |, max | |grad d|^2 + d . lap d |) on the grid, from
    the spectral operators."""
    d = s.d.phys
    grad_sq = sum(np.sum(gradient(s.d, i).phys ** 2, axis=0)
                  for i in range(s.grid.dim))
    identity = grad_sq + np.sum(d * laplacian(s.d).phys, axis=0)
    return (np.max(np.abs(np.sqrt(np.sum(d * d, axis=0)) - 1.0)),
            np.max(np.abs(identity)))


class TestRecordOracle:
    @pytest.mark.parametrize("oversample", [False, True])
    @pytest.mark.parametrize("dim,res", [(2, 32), (3, 16)])
    def test_every_field_matches_its_operator(self, dim, res, oversample):
        # a unit director, and one scaled to |d| = 1.1, whose norm error
        # tells | |d| - 1 | from | |d|^2 - 1 |
        unit = random_smooth(Grid(dim, res), seed=5)
        for s in (unit, replace(unit, d=Field.from_phys(unit.grid,
                                                        1.1 * unit.d.phys))):
            rec = measure(s, 0.5, oversample=oversample)
            omega, grad_d = curl(s.u), _grad_d_oracle(s)
            energy, dissipation = _energy_oracle(s)
            norm_err, identity_err = _sphere_oracle(s)
            expected = {
                "u_l2": l2_norm(s.u),
                "grad_d_l2": l2_norm(grad_d),
                "omega_l2": l2_norm(omega),
                "omega_linf": linf_norm(omega, oversample=oversample),
                "grad_d_linf": linf_norm(grad_d, oversample=oversample),
                "hess_d_l2": l2_norm(laplacian(s.d)),
                "energy": energy,
                "dissipation": dissipation,
            }
            for name, value in expected.items():
                assert getattr(rec, name) == pytest.approx(value, rel=1e-12), \
                    name
            # the integrand formed from the record's own maxima
            assert (rec.t, rec.monitor_integrand, rec.monitor_accum) == \
                (s.t, blowup_integrand(s, oversample), 0.5)
            assert abs(rec.sphere_norm_err - norm_err) < 1e-12
            assert abs(rec.sphere_identity_err - identity_err) < 1e-12

    @pytest.mark.parametrize("oversample", [False, True])
    @pytest.mark.parametrize("dim,res", [(2, 32), (3, 16)])
    def test_vorticity_formed_once_per_state(self, dim, res, oversample,
                                             monkeypatch):
        calls = []
        form = dynamics.curl

        def counting(v):
            calls.append(v)
            return form(v)

        monkeypatch.setattr(dynamics, "curl", counting)
        s = random_smooth(Grid(dim, res), seed=5)
        blowup_integrand(s, oversample)
        measure(s, 0.0, oversample=oversample)
        # max|omega| forms it; ||omega||_2 reads the ||grad u||_2 sum
        assert len(calls) == 1

    @pytest.mark.parametrize("dim,res", [(2, 32), (3, 16)])
    def test_omega_l2_is_the_grad_u_sum(self, dim, res):
        grid = Grid(dim, res)
        for s in (random_smooth(grid, seed=5), taylor_green(grid)):
            rec = measure(s, 0.0)
            assert rec.omega_l2 == math.sqrt(
                diagnostics._l2_sq(grid, s.u.spec, grid.k2_deriv))

    @pytest.mark.parametrize("dim,res", [(2, 32), (3, 16)])
    def test_oversampled_grad_d_transformed_once(self, dim, res, monkeypatch):
        fine_shape = (2 * res,) * dim
        fine_batches = []
        inverse = spectral._ifftn

        def counting(grid, spec, *args, **kwargs):
            if grid.shape == fine_shape:
                fine_batches.append(spec.shape[0])
            return inverse(grid, spec, *args, **kwargs)

        monkeypatch.setattr(spectral, "_ifftn", counting)
        s = random_smooth(Grid(dim, res), seed=5)
        integrand = blowup_integrand(s, oversample=True)
        rec = measure(s, 0.0, oversample=True)
        # grad d (3 dim components) once; omega once, with its components
        assert sorted(fine_batches) == sorted([3 * dim, 1 if dim == 2 else 3])
        if dim == 2:
            assert integrand == rec.grad_d_linf ** 2
        else:
            assert integrand == rec.omega_linf + rec.grad_d_linf ** 2
