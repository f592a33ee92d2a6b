"""Tests for the per-state transform pass: the first stage of a step, the
monitor maxima, the CFL speed and the record all read one evaluation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematicflow import diagnostics, runner
from nematicflow.config import load_config
from nematicflow.diagnostics import blowup_integrand, measure
from nematicflow.dynamics import (StepPolicy, _nonlinear, _stage_one,
                                  director_rhs, momentum_rhs, step, suggest_dt)
from nematicflow.scenarios import random_smooth
from nematicflow.spectral import (Field, Grid, curl, dealias, gradient,
                                  l2_norm, laplacian, linf_norm)
from nematicflow.state import PhysicsParams, _pass, recover_pressure

GRIDS = {2: Grid(2, 16), 3: Grid(3, 8)}


def _stacked_gradient(f):
    """All first derivatives of `f` stacked as one field, axis by axis."""
    return Field.from_phys(f.grid, np.concatenate(
        [gradient(f, i).phys for i in range(f.grid.dim)]))


@pytest.fixture
def transforms(monkeypatch):
    """Log (phase, kind, arrays, res) of every transform; the phase is the
    runner-level call in progress, or None."""
    log = []
    phase = [None]

    def counting(fn, kind):
        def counted(a, *args, **kwargs):
            batch = a.shape[:a.ndim - len(kwargs["axes"])]
            res = kwargs["s"][0] if "s" in kwargs else a.shape[-1]
            log.append((phase[0], kind, int(np.prod(batch)), res))
            return fn(a, *args, **kwargs)
        return counted

    def in_phase(fn, name):
        def wrapped(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = None
        return wrapped

    monkeypatch.setattr(np.fft, "rfftn", counting(np.fft.rfftn, "forward"))
    monkeypatch.setattr(np.fft, "irfftn", counting(np.fft.irfftn, "inverse"))
    for module, name in ((runner, "build_scenario"), (runner, "step"),
                         (runner, "suggest_dt"),
                         (diagnostics, "blowup_integrand"),
                         (diagnostics, "measure")):
        monkeypatch.setattr(module, name, in_phase(getattr(module, name), name))
    return log


@pytest.mark.parametrize("dim", [2, 3])
def test_stage_one_is_bit_identical_to_nonlinear(dim):
    s = random_smooth(GRIDS[dim], seed=4)
    blowup_integrand(s)  # memoizes the pass before stage 1 reads it
    ku, kd = _stage_one(s)
    eu, ed = _nonlinear(s.grid, s.u.spec, s.d.spec)
    assert np.array_equal(ku, eu)
    assert np.array_equal(kd, ed)


@pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
@pytest.mark.parametrize("dim", [2, 3])
def test_step_on_memoized_state_is_bit_identical(dim, integrator):
    s = random_smooth(GRIDS[dim], seed=4)
    measure(s, blowup_integrand(s), 0.0)
    out = step(s, PhysicsParams(), 0.01, integrator=integrator)
    assert "fields" not in s._memo  # the step released the pass's arrays
    fresh = step(replace(s), PhysicsParams(), 0.01, integrator=integrator)
    assert np.array_equal(out.u.spec, fresh.u.spec)
    assert np.array_equal(out.d.phys, fresh.d.phys)


def test_rhs_pair_shares_one_pass(transforms):
    s = random_smooth(GRIDS[2], seed=4)
    transforms.clear()
    momentum_rhs(s, PhysicsParams())
    director_rhs(s)
    # one pass: [u, d] (5 arrays) and grad d (6)
    assert [n for _, kind, n, _ in transforms if kind == "inverse"] == [5, 6]


@pytest.mark.parametrize("dim, arrays", [(2, 17), (3, 24)])
def test_nonlinear_stage_transforms_its_budget(transforms, dim, arrays):
    s = random_smooth(GRIDS[dim], seed=4)
    u_spec, d_spec = s.u.spec, s.d.spec
    transforms.clear()
    _nonlinear(s.grid, u_spec, d_spec)
    # inverse [u, d] and grad d; forward the dim(dim+1)/2 stress
    # components and the 3 director products
    stress = dim * (dim + 1) // 2
    assert [(kind, n) for _, kind, n, _ in transforms] == [
        ("inverse", dim + 3), ("inverse", 3 * dim), ("forward", 3),
        ("forward", stress)]
    assert sum(n for _, _, n, _ in transforms) == arrays


@pytest.mark.parametrize("dim", [2, 3])
def test_pressure_reads_a_memoized_pass(transforms, dim):
    s = random_smooth(GRIDS[dim], seed=4)
    blowup_integrand(s)  # memoizes the pass
    transforms.clear()
    recover_pressure(s)
    # only the forward transform of the dim(dim+1)/2 stress components
    assert [(kind, n) for _, kind, n, _ in transforms] == \
        [("forward", dim * (dim + 1) // 2)]


@pytest.mark.parametrize("dim", [2, 3])
def test_random_smooth_transforms_its_budget(transforms, dim):
    s = random_smooth(GRIDS[dim], seed=4)
    # forward: the u and d noise, then d at half-band steps 2 and 3;
    # inverse: u for max|u|, d for max|d - e_z|, d at each half-band step
    assert [(kind, n) for _, kind, n, _ in transforms] == [
        ("forward", dim), ("inverse", dim), ("forward", 3), ("inverse", 3),
        ("inverse", 3), ("forward", 3), ("inverse", 3), ("forward", 3),
        ("inverse", 3)]
    transforms.clear()
    _pass(s)
    # u keeps its spectrum, so the pass forward-transforms d only
    assert [(kind, n) for _, kind, n, _ in transforms] == [
        ("forward", 3), ("inverse", dim + 3), ("inverse", 3 * dim)]


def _batches(transforms, phase, kind, res=16):
    return sorted(n for p, k, n, r in transforms
                  if (p, k, r) == (phase, kind, res))


def test_fixed_dt_run_transforms_each_state_once(tmp_path, transforms):
    text = (f"dim = 2\nres = 16\nscenario = random_smooth\n"
            f"dt = {2.0 ** -10!r}\nt_max = {4 * 2.0 ** -10!r}\n"
            f"integrator = IF-RK4\nrecord_every = 2\noutput_dir = {tmp_path}\n")
    report = runner.run(load_config(text))
    assert len(report.history) == 3

    def batches(phase, kind):
        return _batches(transforms, phase, kind)

    assert all(p is not None for p, _, _, r in transforms if r == 16)
    assert all(r == 16 for _, _, _, r in transforms)
    assert batches("suggest_dt", "inverse") == []
    assert batches("suggest_dt", "forward") == []
    # the 2-D monitor reads the pass of each of the 5 states: [u, d] and
    # grad d, no batch of its own
    assert batches("blowup_integrand", "inverse") == [5] * 5 + [6] * 5
    # each record adds the cubic term's forward transform, lap d (the
    # tension is summed by Parseval) and the 2-D omega for max|omega|
    assert batches("measure", "forward") == [3] * 3
    assert batches("measure", "inverse") == [1] * 3 + [3] * 3
    # stages 2-4 and the renormalized director; stage 1 is the pass
    assert batches("step", "inverse") == sorted([5, 6] * 3 * 4 + [3] * 4)
    # each stage: the 3 stress components and the 3 director products
    assert batches("step", "forward") == [3] * 2 * 4 * 4


def test_adaptive_run_computes_the_pass_in_suggest_dt(tmp_path, transforms):
    # suggest_dt runs first after each step, so it transforms each state;
    # the oversampled monitor and record add only their fine-grid maxima
    text = (f"dim = 2\nres = 16\nscenario = random_smooth\nt_max = 0.2\n"
            f"cfl_factor = 0.1\nrecord_every = 1\noversample_linf = true\n"
            f"output_dir = {tmp_path}\n")
    report = runner.run(load_config(text))
    states = len(report.history)
    assert states > 2
    assert _batches(transforms, "suggest_dt", "inverse") == \
        [5] * states + [6] * states
    assert _batches(transforms, "blowup_integrand", "inverse") == []
    assert _batches(transforms, "blowup_integrand", "inverse", 32) == \
        [6] * states
    assert _batches(transforms, "measure", "inverse") == [3] * states
    assert _batches(transforms, "measure", "inverse", 32) == [1] * states


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       amplitude=st.floats(0.1, 3.0))
def test_pass_scalars_match_their_operators(dim, seed, amplitude):
    s = random_smooth(GRIDS[dim], seed=seed, amplitude=amplitude)
    # the maxima of the pass and of the curl batch, and the record's
    # spectral sums (Parseval) against grid sums of the operators
    memo, rec = _pass(s), measure(s, 0.0, 0.0)
    grid = s.grid
    omega, grad_u, grad_d = curl(s.u), _stacked_gradient(s.u), \
        _stacked_gradient(s.d)
    k2 = sum(k * k for k in grid.k_deriv)
    # the tension on the grid: lap d plus the dealiased |grad d|^2 d
    cubic = np.sum(grad_d.phys**2, axis=0) * s.d.phys
    tension = laplacian(s.d).phys + dealias(Field.from_phys(grid, cubic)).phys
    expected = {
        "u_max": (memo["u_max"], linf_norm(s.u)),
        "omega_max": (rec.omega_linf, linf_norm(omega)),
        "grad_d_max": (memo["grad_d_max"], linf_norm(grad_d)),
        "u_l2": (rec.u_l2, l2_norm(s.u)),
        "grad_u_sq": (diagnostics._l2_sq(grid, s.u.spec, k2),
                      l2_norm(grad_u) ** 2),
        "omega_l2": (rec.omega_l2, l2_norm(omega)),
        "grad_d_l2": (rec.grad_d_l2, l2_norm(grad_d)),
        "hess_d_l2": (rec.hess_d_l2, l2_norm(laplacian(s.d))),
        "dissipation": (rec.dissipation, 2.0 * (
            l2_norm(grad_u) ** 2 + grid.cell_volume * np.sum(tension**2))),
    }
    for name, (value, oracle) in expected.items():
        assert value == pytest.approx(oracle, rel=1e-12), name


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       amplitude=st.floats(0.1, 3.0), oversample=st.booleans(),
       order=st.permutations(["measure", "blowup_integrand", "suggest_dt",
                              "step"]))
def test_record_does_not_depend_on_first_consumer(dim, seed, amplitude,
                                                  oversample, order):
    def build():
        return random_smooth(GRIDS[dim], seed=seed, amplitude=amplitude)

    reference = measure(build(), 0.25, 0.5, oversample=oversample)
    s = build()
    consumers = {
        "measure": lambda: measure(s, 0.25, 0.5, oversample=oversample),
        "blowup_integrand": lambda: blowup_integrand(s, oversample=oversample),
        "suggest_dt": lambda: suggest_dt(s, StepPolicy(t_max=1.0)),
        "step": lambda: step(s, PhysicsParams(), 1e-3),
    }
    for name in order:
        consumers[name]()
    assert measure(s, 0.25, 0.5, oversample=oversample) == reference
