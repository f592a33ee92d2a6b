"""Initial-condition generators.

Each generator returns a FluidState that already satisfies the state
invariants (divergence-free velocity, unit-length director) without
further processing.

The random generator uses numpy's PCG64 bit generator with an explicit
seed, so identical seeds reproduce bit-identical states across platforms.
No generator claims finite-time blow-up; `random_smooth` with large
amplitude is a monitor-growth stress test, not a singularity candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigRangeError, UnderResolvedError, check_positive,
                     check_range, is_integer, is_real)
from .spectral import Field, Grid, _fftn, _ifftn, project_spec
from .state import FluidState, _magnitude, normalize_director

__all__ = ["ScenarioSpec", "SCENARIO_NAMES", "build_scenario", "check_scenario",
           "taylor_green", "winding_director", "random_smooth"]


@dataclass(frozen=True)
class ScenarioSpec:
    """Scenario selection: registered name plus numeric parameters."""

    name: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        check_range("scenario", self.name, self.name in SCENARIO_NAMES,
                    f"one of {sorted(SCENARIO_NAMES)}")


def _angles(grid: Grid) -> tuple:
    """The coordinates scaled by 2 pi / L, so that their sines and cosines
    are periodic on the torus (the scale is exactly 1 at L = 2 pi)."""
    scale = 2.0 * np.pi / grid.length
    return tuple(x * scale for x in grid.coords())


def taylor_green(grid: Grid, amplitude: float = 1.0) -> FluidState:
    """Taylor-Green vortex velocity, one period across the torus, with a
    constant director (0, 0, 1).

    With the director constant the coupling terms vanish identically and
    the run reduces to plain Navier-Stokes; in 2-D the velocity decays as
    exp(-2 nu (2 pi / L)^2 t) times the initial profile.
    """
    _check_amplitude(grid, amplitude)
    x = _angles(grid)
    shape = grid.shape
    u = np.zeros((grid.dim,) + shape)
    # cos x_2 in 3-D; times 1.0, which is exact, in 2-D
    z = np.cos(x[2]) if grid.dim == 3 else 1.0
    u[0] = amplitude * np.sin(x[0]) * np.cos(x[1]) * z
    u[1] = -amplitude * np.cos(x[0]) * np.sin(x[1]) * z
    d = np.zeros((3,) + shape)
    d[2] = 1.0
    return FluidState(grid, Field.from_phys(grid, u), Field.from_phys(grid, d))


def winding_director(grid: Grid, k: int = 1) -> FluidState:
    """Quiescent fluid with the director winding k times along x_0 across
    the torus: d = (cos 2 pi k x_0 / L, sin 2 pi k x_0 / L, 0).

    A stationary harmonic map: lap d = -(2 pi k / L)^2 d and |grad d|^2 =
    (2 pi k / L)^2, so the heat-flow tendency vanishes, as does the elastic
    forcing on u.
    """
    _check_k(grid, k)
    k = int(k)
    x0 = _angles(grid)[0]
    shape = grid.shape
    d = np.zeros((3,) + shape)
    d[0] = np.cos(k * x0)
    d[1] = np.sin(k * x0)
    u = np.zeros((grid.dim,) + shape)
    return FluidState(grid, Field.from_phys(grid, u), Field.from_phys(grid, d))


def _smooth_noise(grid: Grid, rng: np.random.Generator, ncomp: int,
                  slope: float) -> np.ndarray:
    """Half spectrum of a real random field, magnitude ~ (1 + |k|)^{-slope},
    |k| in integer mode units, truncated to the dealiased band so the
    generated data is fully resolved (pointwise renormalization of a
    near-cutoff tail would otherwise leave an O(k^2 tail) residual in the
    sphere identity)."""
    spec = _fftn(grid, rng.standard_normal((ncomp,) + grid.shape),
                 grid.dealias_cutoff)
    k_int = np.sqrt(sum(k * k for k in grid.k_int))
    spec *= (1.0 + k_int) ** (-slope)
    return spec


def random_smooth(grid: Grid, seed: int = 0, slope: float = 4.0,
                  amplitude: float = 0.5) -> FluidState:
    """Random smooth divergence-free velocity and a randomly tilted
    director about (0, 0, 1).

    Both fields are drawn with spectral slope `slope` and rescaled so
    their pointwise maxima equal `amplitude`; the velocity mean is zeroed.
    u keeps its projected spectrum next to its grid values.
    """
    _check_seed(grid, seed)
    _check_slope(grid, slope)
    _check_amplitude(grid, amplitude)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    origin = (0,) * grid.dim  # mode 0, the mean of each component

    u_spec = _smooth_noise(grid, rng, grid.dim, slope)
    u_spec[(slice(None),) + origin] = 0.0
    u_spec = project_spec(grid, u_spec)
    u = _ifftn(grid, u_spec.copy(), grid.dealias_cutoff)
    scale = amplitude / _peak(u, slope)
    # new arrays: scaling in place raised peak RSS at 3-D 64^3 (heap layout)
    u, u_spec = u * scale, u_spec * scale

    d_spec = _smooth_noise(grid, rng, 3, slope)
    pert = _ifftn(grid, d_spec.copy(), grid.dealias_cutoff)
    d_spec *= amplitude / _peak(pert, slope)
    d_spec[(2,) + origin] += 1.0
    d = Field.from_phys(grid, _half_band_unit(grid, d_spec))
    return normalize_director(FluidState(grid, Field(grid, u, u_spec), d))


def _half_band_unit(grid: Grid, d_spec: np.ndarray) -> np.ndarray:
    """From the spectrum `d_spec`, alternate band-limiting to half the Nyquist
    band with pointwise normalization, three times.  A unit-at-collocation
    director limited to |k_j| <= (res/2 - 1)/2 has |d|^2 - 1 exactly
    representable on the grid, so the discrete sphere identity holds to near
    roundoff instead of being polluted by aliasing of near-cutoff modes."""
    cutoff = (grid.res // 2 - 1) // 2
    for i in range(3):
        spec = _fftn(grid, d, cutoff) if i else d_spec * grid.band_mask(cutoff)
        d = _ifftn(grid, spec, cutoff)
        d = d / _magnitude(d)
    return d


def _peak(noise: np.ndarray, slope: float) -> float:
    """max |noise| over the grid, which a scale divides by; refused when it
    is not finite and positive (a steep slope makes |noise|^2 underflow to
    0 on a coarse grid)."""
    peak = np.sqrt(np.max(np.einsum("i...,i...->...", noise, noise)))
    check_range("slope", slope, 0 < peak < math.inf,
                f"shallow enough to leave noise on {noise.shape[1:]} points")
    return float(peak)


def _check_amplitude(grid: Grid, amplitude) -> None:
    check_positive("amplitude", amplitude)


def _integral(value) -> bool:
    """Whether `value` is an integer: an int that is not a bool
    (`is_integer`), or a float with an integer value such as 2.0 (not 1.5,
    inf or nan, which int() would truncate or refuse)."""
    return (is_integer(value)
            or isinstance(value, float) and value.is_integer())


def _check_k(grid: Grid, k) -> None:
    check_range("k", k, _integral(k) and abs(k) >= 1,
                "an integer with |k| >= 1")
    if not abs(k) < grid.res / 3:
        raise UnderResolvedError("k", f"below res/3 in magnitude to be "
                                 f"resolved at res {grid.res}", k)


def _check_seed(grid: Grid, seed) -> None:
    check_range("seed", seed, _integral(seed) and seed >= 0,
                "a non-negative integer")


def _check_slope(grid: Grid, slope) -> None:
    bound = grid.dim / 2 + 1
    check_range("slope", slope, is_real(slope) and bound < slope < math.inf,
                f"finite and above dim/2 + 1 = {bound} for smooth data")


# parameter -> (config type, check), in the order a config collects them;
# each check raises ParameterRangeError naming the parameter
_PARAMETERS = {
    "k": (int, _check_k),
    "amplitude": (float, _check_amplitude),
    "seed": (int, _check_seed),
    "slope": (float, _check_slope),
}

# registered name -> (builder, the parameters it takes)
_BUILDERS = {
    "taylor_green": (taylor_green, ("amplitude",)),
    "winding_director": (winding_director, ("k",)),
    "random_smooth": (random_smooth, ("seed", "slope", "amplitude")),
}

SCENARIO_NAMES = frozenset(_BUILDERS)


def check_scenario(grid: Grid, spec: ScenarioSpec) -> None:
    """Check the parameters `spec` passes to its builder on `grid`, without
    building the state.  A parameter the builder does not take is a
    ConfigRangeError naming its dotted key; a value out of range is a
    ParameterRangeError naming the parameter."""
    _, taken = _BUILDERS[spec.name]
    for key, value in spec.parameters.items():
        if key not in taken:
            raise ConfigRangeError(
                f"scenario.{key}",
                f"scenario {spec.name!r} does not take this parameter")
        _PARAMETERS[key][1](grid, value)


def build_scenario(grid: Grid, spec: ScenarioSpec) -> FluidState:
    """Instantiate the initial state named by `spec` on `grid`."""
    check_scenario(grid, spec)
    builder, _ = _BUILDERS[spec.name]
    return builder(grid, **spec.parameters)
