"""Periodic-torus spectral discretization.

Transforms, exact spectral differential operators, Leray projection and
2/3-rule dealiasing on a uniform grid over [0, L)^dim with dim in {2, 3}.

Half-spectrum layout: every field is real, so its spectrum is Hermitian,
f_hat(-k) = conj(f_hat(k)), and only half of it is stored.  Spectral arrays
have shape `Grid.spec_shape`: the leading spatial axes hold all `res` modes
in FFT order (0, 1, ..., res/2-1, -res/2, ..., -1), the last axis only the
modes 0, 1, ..., res/2.  Every wavenumber table of `Grid` has this layout.

`_fftn`/`_ifftn` are the one transform pair of the package: numpy's rfftn
and irfftn sequences of 1-D passes, done in place, and run only on the
lines whose result is kept.  The inverse consumes the spectrum it is
given: its leading passes run inside it and its last-axis `irfft` writes
the grid values over it, component by component, so the result shares the
spectrum's buffer and needs one component of scratch beyond it.

- band-limited forward: given a cutoff (the 2/3 rule's res/3 for every
  dealiased product), a leading-axis pass transforms only the lines inside
  |k_j| <= cutoff on the axes already transformed and the rest is set to
  0, bit-identical to the full transform times the band's mask;
- band-limited inverse: a spectrum declared band-limited (zero-padded to
  the 2x grid, random data drawn in a band) skips the lines that are all
  zero, bit-identically, since ifft(0) = 0;
- passes: the pair is built from in-place 1-D passes that a caller may
  also run on its own, on any rows of a spectrum: `_inverse_pass` and
  `_forward_pass` along one leading axis, `_irfft` along the last axis
  into a real buffer, and `_fftn_rows`, every forward pass but the one
  along axis 0.  After the inverse's pass along axis 0, and before the
  forward's, every x0 row is independent, so a caller can run the rest
  one chunk of rows at a time in chunk-sized buffers; every 1-D line sees
  the same data whatever the chunk height, so the values do not depend on
  it (`dynamics._chunks` runs the nonlinear stage so).

Normalization convention: the forward transform divides by the number of
grid points, so the mode-0 coefficient equals the field mean.  Under this
convention discrete Parseval reads

    sum_x |f(x)|^2 * cell_volume == volume * sum_k w_k |f_hat(k)|^2

with Hermitian weights w_k (`Grid.hermitian_weights`) = 1 on the last-axis
columns 0 and res/2 (their conjugate partners are stored in the same
column) and w_k = 2 on every interior column (each stands for itself and
its unstored partner).

First-derivative wavenumber tables have the Nyquist mode zeroed on every
axis, the last one included, so that derivatives of real fields stay
real-to-real symmetric.  The Laplacian and the pure second derivatives
keep the Nyquist contribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import check_positive, check_range, is_integer

__all__ = [
    "Grid",
    "Field",
    "gradient",
    "laplacian",
    "second_derivative",
    "divergence",
    "curl",
    "leray_project",
    "dealias",
    "l2_norm",
    "linf_norm",
]


def _axis_profile(values: np.ndarray, axis: int, dim: int) -> np.ndarray:
    """Reshape a 1-D table so it broadcasts along spatial `axis` of `dim` axes."""
    shape = [1] * dim
    shape[axis] = len(values)
    return values.reshape(shape)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with precomputed half-spectrum wavenumber tables.

    Parameters
    ----------
    dim : 2 or 3.
    res : samples per axis; power of two, >= 8.
    length : torus side length (default 2*pi); positive and finite, with
        the volume, the cell volume and the largest |k|^2 normal floats.
    """

    dim: int
    res: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        # an integer or a real: a str would raise TypeError below
        check_range("dim", self.dim, is_integer(self.dim)
                    and self.dim in (2, 3), "2 or 3")
        check_range("res", self.res, is_integer(self.res)
                    and self.res >= 8 and (self.res & (self.res - 1)) == 0,
                    "a power of two >= 8")
        check_positive("length", self.length)
        # else `length**dim` raises OverflowError, or |k|^2 overflows or a
        # volume underflows and a run turns to nan; the products below
        # overflow to inf instead of raising
        k_max = math.pi * self.res / self.length
        sizes = (math.prod([self.length] * self.dim),
                 math.prod([self.dx] * self.dim), self.dim * k_max * k_max)
        check_range("length", self.length,
                    all(np.finfo(float).tiny <= x < math.inf for x in sizes),
                    "such that the volume, the cell volume and the largest "
                    "|k|^2 are normal floats")

    @property
    def shape(self) -> tuple:
        return (self.res,) * self.dim

    @property
    def spec_shape(self) -> tuple:
        """Shape of a spectral array: the last axis holds modes 0..res/2."""
        return (self.res,) * (self.dim - 1) + (self.res // 2 + 1,)

    @property
    def spatial_axes(self) -> tuple:
        """Axes of the spatial dimensions in (ncomp, *shape) arrays."""
        return tuple(range(-self.dim, 0))

    @property
    def dx(self) -> float:
        return self.length / self.res

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def volume(self) -> float:
        return self.length**self.dim

    @cached_property
    def k_int(self) -> tuple:
        """Per-axis integer mode indices, broadcastable over `spec_shape`:
        FFT order 0, 1, ..., res/2-1, -res/2, ..., -1 on the leading axes,
        0, 1, ..., res/2 on the last."""
        full = np.rint(np.fft.fftfreq(self.res) * self.res).astype(np.int64)
        half = np.arange(self.res // 2 + 1)
        return tuple(
            _axis_profile(half if ax == self.dim - 1 else full, ax, self.dim)
            for ax in range(self.dim)
        )

    @cached_property
    def k_full(self) -> tuple:
        """Per-axis physical wavenumbers (2*pi/L scaling), Nyquist included."""
        scale = 2.0 * np.pi / self.length
        return tuple(k * scale for k in self.k_int)

    @cached_property
    def k_deriv(self) -> tuple:
        """First-derivative wavenumber tables with the Nyquist mode zeroed
        on every axis."""
        nyquist = self.res // 2
        return tuple(np.where(np.abs(ki) == nyquist, 0.0, k)
                     for ki, k in zip(self.k_int, self.k_full))

    @cached_property
    def ik_deriv(self) -> tuple:
        """The first-derivative multipliers i*k of `k_deriv`."""
        return tuple(1j * k for k in self.k_deriv)

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 including the Nyquist mode (used by the Laplacian and the
        integrating factors)."""
        return sum(k * k for k in self.k_full)

    @cached_property
    def k2_deriv(self) -> np.ndarray:
        """|k|^2 of the first-derivative tables (Nyquist modes zeroed): the
        multiplier of |grad f|^2 in Parseval sums."""
        return sum(k * k for k in self.k_deriv)

    @cached_property
    def inv_k2(self) -> np.ndarray:
        """1/|k|^2 built from the derivative tables, so that spectral Poisson
        inversions (the Leray projection, the pressure solve) stay consistent
        with gradient/divergence; 0 where that |k|^2 vanishes (mode 0 and
        pure Nyquist modes)."""
        k2 = self.k2_deriv
        return np.divide(1.0, k2, out=np.zeros(self.spec_shape), where=k2 > 0)

    @cached_property
    def hermitian_weights(self) -> np.ndarray:
        """Parseval weights of the half spectrum, broadcastable over
        `spec_shape`: 1 on the last-axis columns 0 and res/2, 2 on the
        others, which also stand for their unstored conjugate partners."""
        return np.where(self.k_int[-1] % (self.res // 2) == 0, 1.0, 2.0)

    @property
    def dealias_cutoff(self) -> int:
        """The 2/3 rule's band: modes with |k_j| <= res/3 are kept."""
        return self.res // 3

    def band_mask(self, cutoff: int) -> np.ndarray:
        """Boolean mask keeping modes with |k_j| <= cutoff on every axis."""
        keep = np.ones(self.spec_shape, dtype=bool)
        for k in self.k_int:
            keep &= np.abs(k) <= cutoff
        return keep

    def coords(self) -> tuple:
        """Broadcastable coordinate arrays x_0, ..., x_{dim-1}."""
        x1 = np.arange(self.res) * self.dx
        return tuple(_axis_profile(x1, ax, self.dim) for ax in range(self.dim))


def _band(n: int, cutoff: int) -> tuple:
    """Slices of an FFT-ordered axis of `n` modes that hold |k| <= cutoff;
    one slice for the whole axis when the band covers it."""
    if 2 * cutoff + 1 >= n:
        return (slice(None),)
    return (slice(0, cutoff + 1), slice(n - cutoff, n))


def _lines(grid: Grid, axis: int, cutoff: int):
    """Index tuples of the 1-D lines along spatial `axis` that cross the
    band |k_j| <= cutoff on every later axis; the earlier axes are taken
    whole.  The last axis holds modes 0..res/2, so its band is one slice."""
    later = [_band(grid.res, cutoff) for _ in range(axis + 1, grid.dim - 1)]
    later.append((slice(0, cutoff + 1),))
    head = (Ellipsis,) + (slice(None),) * (axis + 1)
    return [head + sel for sel in itertools.product(*later)]


def _fftn(grid: Grid, phys: np.ndarray,
          cutoff: int | None = None) -> np.ndarray:
    """Forward transform of real (ncomp, *shape) data to its half spectrum,
    band-limited to the modes with |k_j| <= `cutoff` on every axis (all of
    them by default); the others are 0.

    numpy's rfftn sequence of 1-D passes into a fresh complex128 array:
    `rfft` along the last axis, then `fft` along each leading axis, last
    to first, in place.  A leading-axis pass transforms only the lines
    inside the band on the axes already transformed, so each kept mode is
    bit-identical to `rfftn(phys) * mask`.  `_fftn_rows` and the
    `_forward_pass` along axis 0 are its two halves, for a caller that
    forms `phys` one chunk of x0 rows at a time.
    """
    cutoff = grid.res // 2 if cutoff is None else cutoff
    out = np.empty(phys.shape[:-grid.dim] + grid.spec_shape, np.complex128)
    _fftn_rows(grid, phys, cutoff, out)
    _forward_pass(grid, out, 0, cutoff)
    return out


def _fftn_rows(grid: Grid, phys: np.ndarray, cutoff: int,
               out: np.ndarray) -> None:
    """Every pass of `_fftn` but the one along axis 0, into `out`: each x0
    row is transformed on its own, so `phys` and `out` may be a chunk of
    rows (ncomp, rows, *shape[1:]) and its place in the spectrum."""
    np.fft.rfft(phys, axis=-1, norm="forward", out=out)
    out[..., cutoff + 1:] = 0.0
    for axis in range(grid.dim - 2, 0, -1):
        _forward_pass(grid, out, axis, cutoff)


def _forward_pass(grid: Grid, spec: np.ndarray, axis: int,
                  cutoff: int) -> None:
    """`fft` along spatial `axis`, in place, on the lines inside the band;
    then the modes outside the band along `axis` are set to 0."""
    dim, res = grid.dim, grid.res
    for line in _lines(grid, axis, cutoff):
        view = spec[line]
        np.fft.fft(view, axis=axis - dim, norm="forward", out=view)
    if 2 * cutoff + 1 < res:
        spec[(Ellipsis, slice(cutoff + 1, res - cutoff))
             + (slice(None),) * (dim - 1 - axis)] = 0.0


def _inverse_pass(grid: Grid, spec: np.ndarray, axis: int,
                  cutoff: int) -> None:
    """`ifft` along leading spatial `axis`, in place, on the lines that
    cross the band |k_j| <= cutoff."""
    for line in _lines(grid, axis, cutoff):
        view = spec[line]
        np.fft.ifft(view, axis=axis - grid.dim, norm="forward", out=view)


def _ifftn(grid: Grid, spec: np.ndarray,
           cutoff: int | None = None) -> np.ndarray:
    """Inverse of `_fftn`: a half spectrum back to real physical values.

    numpy's irfftn sequence of 1-D passes, done in place: each leading
    spatial axis is transformed inside `spec`, then the last axis component
    by component into the bytes of `spec` itself.  The result is a float64
    view of `spec`'s buffer (of a C-contiguous copy, when `spec` is not
    C-contiguous), and `spec` holds garbage afterwards.  `spec` must be a
    writable complex128 array; a caller whose spectrum outlives the call
    passes a copy.

    A real component takes res^dim doubles and a complex one more
    (res^(dim-1) * (res/2+1) pairs), so real component c covers only
    spectrum components <= c.  Component c is copied into one scratch
    component and its `irfft` written from there (numpy would allocate a
    copy of an overlapping operand on every call): the values are those of
    irfftn, and the call needs one component of memory beyond `spec`.

    `cutoff` declares `spec` band-limited to |k_j| <= cutoff on every axis:
    the lines that cross no mode of the band are all zero, so the leading
    passes skip them (ifft(0) = 0, so the values are unchanged).
    """
    dim = grid.dim
    cutoff = grid.res // 2 if cutoff is None else cutoff
    spec = np.ascontiguousarray(spec)
    for axis in range(dim - 1):
        _inverse_pass(grid, spec, axis, cutoff)
    comps = spec.reshape((-1,) + grid.spec_shape)
    phys = spec.reshape(-1).view(np.float64)[:comps.shape[0] * grid.res**dim]
    phys = phys.reshape((-1,) + grid.shape)
    scratch = np.empty(grid.spec_shape, np.complex128)
    for comp, out in zip(comps, phys):
        np.copyto(scratch, comp)
        _irfft(grid, scratch, out)
    return phys.reshape(spec.shape[:-dim] + grid.shape)


def _irfft(grid: Grid, spec: np.ndarray, out: np.ndarray) -> None:
    """`irfft` along the last spatial axis, the inverse's last pass, from
    `spec` into the real `out`, which must not overlap it."""
    np.fft.irfft(spec, n=grid.res, axis=-1, norm="forward", out=out)


def _coerce(data, dtype, shape: tuple) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.shape == shape:
        arr = arr[np.newaxis]
    if arr.ndim != len(shape) + 1 or arr.shape[1:] != shape:
        raise ValueError(f"array shape {arr.shape} does not match {shape}")
    return arr


class Field:
    """Scalar or multi-component field with paired physical and spectral
    representations.

    Physical data has layout (ncomp, *grid.shape), spectral data
    (ncomp, *grid.spec_shape); inputs without a component axis are promoted
    to ncomp = 1.  Representations are computed lazily and cached, so a
    Field is cheap to pass around and never transforms twice.  Operations
    treat Fields as immutable values.
    """

    __slots__ = ("grid", "_phys", "_spec")

    def __init__(self, grid: Grid, phys=None, spec=None):
        if phys is None and spec is None:
            raise ValueError("Field needs a physical or spectral array")
        self.grid = grid
        self._phys = (_coerce(phys, np.float64, grid.shape)
                      if phys is not None else None)
        self._spec = (_coerce(spec, np.complex128, grid.spec_shape)
                      if spec is not None else None)

    @classmethod
    def from_phys(cls, grid: Grid, phys) -> "Field":
        return cls(grid, phys=phys)

    @classmethod
    def from_spec(cls, grid: Grid, spec) -> "Field":
        return cls(grid, spec=spec)

    @classmethod
    def zeros(cls, grid: Grid, ncomp: int = 1) -> "Field":
        return cls(grid, phys=np.zeros((ncomp,) + grid.shape))

    @property
    def ncomp(self) -> int:
        return (self._phys if self._phys is not None else self._spec).shape[0]

    @property
    def phys(self) -> np.ndarray:
        if self._phys is None:
            self._phys = _ifftn(self.grid, self._spec.copy())
        return self._phys

    @property
    def spec(self) -> np.ndarray:
        if self._spec is None:
            self._spec = _fftn(self.grid, self._phys)
        return self._spec


def gradient(f: Field, axis: int) -> Field:
    """Partial derivative along `axis` by multiplication with i*k in
    spectral space (Nyquist derivative zeroed)."""
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    return Field.from_spec(f.grid, f.grid.ik_deriv[axis] * f.spec)


def laplacian(f: Field) -> Field:
    """Laplacian: multiplication by -|k|^2 per mode."""
    return Field.from_spec(f.grid, -f.grid.k2 * f.spec)


def second_derivative(f: Field, axis_a: int, axis_b: int) -> Field:
    """Direct second derivative d^2 f / dx_a dx_b.  Pure derivatives keep
    the Nyquist mode, so that the trace reproduces `laplacian` exactly;
    mixed ones are the composition of two first derivatives (Nyquist
    zeroed), whose multiplier is even in k as a real result needs."""
    grid = f.grid
    for ax in (axis_a, axis_b):
        if not 0 <= ax < grid.dim:
            raise ValueError(f"axis {ax} out of range for dim {grid.dim}")
    k = grid.k_full if axis_a == axis_b else grid.k_deriv
    return Field.from_spec(grid, -k[axis_a] * k[axis_b] * f.spec)


def _check_vector(name: str, v: Field) -> None:
    """ValueError unless `v` has one component per axis of its grid."""
    if v.ncomp != v.grid.dim:
        raise ValueError(f"{name} needs {v.grid.dim} components, got {v.ncomp}")


def divergence(v: Field) -> Field:
    """Divergence of a dim-component vector field."""
    _check_vector("divergence", v)
    grid = v.grid
    spec = sum(grid.ik_deriv[j] * v.spec[j] for j in range(grid.dim))
    return Field.from_spec(grid, spec[np.newaxis])


# the (j, k) axis pairs of the curl's components d_j v_k - d_k v_j
_CURL_PAIRS = {2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}


def curl(v: Field) -> Field:
    """Vorticity: 3-component curl for dim=3, scalar d1 v2 - d2 v1 for dim=2."""
    _check_vector("curl", v)
    grid = v.grid
    ik, s = grid.ik_deriv, v.spec
    return Field.from_spec(grid, np.stack(
        [ik[j] * s[k] - ik[k] * s[j] for j, k in _CURL_PAIRS[grid.dim]]))


def project_spec(grid: Grid, v_spec: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Array-level Leray projection P = I - k (k . v)/|k|^2, into `out`:
    fresh by default, or any array that does not overlap `v_spec`
    (ValueError otherwise).

    Modes where every derivative wavenumber vanishes (mode 0 and pure
    Nyquist modes) pass through unchanged.  k . v and each product are
    formed in the rows of `out`, so nothing else is allocated: allocating
    them raised the step's peak by 2.3 MB at 3-D 64^3.
    """
    k = grid.k_deriv
    out = np.empty_like(v_spec) if out is None else out
    if np.may_share_memory(out, v_spec):
        raise ValueError("project_spec's out must not overlap v_spec")
    kdotv = out[-1]  # written last
    kdotv[...] = 0.0
    for j in range(grid.dim):
        np.multiply(k[j], v_spec[j], out=out[0])
        np.add(kdotv, out[0], out=kdotv)
    np.multiply(kdotv, grid.inv_k2, out=kdotv)
    for j in range(grid.dim):
        np.multiply(k[j], kdotv, out=out[j])
        np.subtract(v_spec[j], out[j], out=out[j])
    return out


def leray_project(v: Field) -> Field:
    """Project a vector field onto its divergence-free part."""
    _check_vector("leray_project", v)
    return Field.from_spec(v.grid, project_spec(v.grid, v.spec))


def dealias(f: Field) -> Field:
    """Zero all modes with |k_j| > res/3 on any axis (2/3 rule)."""
    grid = f.grid
    return Field.from_spec(grid, f.spec * grid.band_mask(grid.dealias_cutoff))


def l2_norm(f: Field) -> float:
    """L^2 norm over one torus cell, all components summed."""
    return float(np.sqrt(f.grid.cell_volume * np.sum(f.phys**2)))


def oversampled_phys(f: Field) -> np.ndarray:
    """Physical samples on a 2x finer grid via spectral zero-padding.
    Used for sharper L-infinity estimates near singular times.

    Each Nyquist mode of `f` is split evenly between -res/2 and +res/2 of
    the finer grid: half of the spectrum is padded with the Nyquist rows of
    the leading axes at +res/2, the other half with those rows at -res/2
    and the last axis's Nyquist column left out.  This is the real part of
    padding the full spectrum with every Nyquist at -res/2.
    """
    grid = f.grid
    fine = Grid(grid.dim, grid.res * 2, grid.length)
    half = grid.res // 2
    shift = fine.res - grid.res
    big = np.zeros((f.ncomp,) + fine.spec_shape, dtype=np.complex128)
    spec = 0.5 * f.spec
    for split in (half + 1, half):  # Nyquist rows at +res/2, then -res/2
        # rows below `split` keep their index, the others move up by `shift`
        halves = ((0, split, 0), (split, grid.res, shift))
        for rows in itertools.product(halves, repeat=grid.dim - 1):
            src = tuple(slice(a, b) for a, b, _ in rows)
            dst = tuple(slice(a + s, b + s) for a, b, s in rows)
            big[(slice(None),) + dst + (slice(0, half + 1),)] += \
                spec[(slice(None),) + src]
        spec[..., half] = 0.0
    return _ifftn(fine, big, half)


def linf_norm(f: Field, oversample: bool = False) -> float:
    """Max over collocation points of the pointwise Euclidean magnitude
    across components.  With `oversample`, evaluated on a 2x zero-padded
    grid instead."""
    phys = oversampled_phys(f) if oversample else f.phys
    return float(np.sqrt(np.max(np.einsum("i...,i...->...", phys, phys))))
