"""Lattice geometry, periodic driving forces, and Peierls-phased tunneling.

A time-periodic in-plane force F(t) acting on particles hopping on a
hexagonal lattice multiplies each nearest-neighbor tunneling amplitude by
a phase factor exp(i*chi_k(t)), where chi_k is the zero-mean time integral
of F(t).a_k along bond k.  This module builds drive specifications, the
closed-form Peierls phases, and the Fourier components of the modulated
tunneling rates g_k(t) = j0 * exp(i*chi_k(t)).

Conventions: hbar = 1.  Harmonic amplitudes are stored as dimensionless
multiples of the base frequency omega (units omega/a), so every derived
ratio (j1/j0, j2*omega/j0^2, ...) is independent of omega and of the
lattice constant.  `force_at` returns the force in absolute units,
i.e. amp * omega along the unit drive axes.

All functions here are pure and all containers immutable after
construction; values can be shared freely across parallel workers.
`drive_from_json` refuses a malformed drive (a missing field, a list of
the wrong length, a value of the wrong type, a key it does not read, a
non-integral harmonic multiple) with a ValueError.

This module is the one home of the drive-layer rules that `optimizer`
and `validate` build on:
- the angle fold to (-P/2, P/2], `_fold` (`wrap_angle` is P = 2 pi,
  `validate.fold_quasienergy` is P = omega)
- the family layout: harmonic integers 1, 2, 4, 5, ..., equal axis
  amplitudes, delta_1 = 0 and axis lags +-(-1)^n pi/2
  (`_family_harmonics`, used by `build_family_drive`, the family check
  and `_family_bond_amplitudes`)
- the rate phasor j0 e^{i chi} as cos chi + i sin chi, `_phasor`
- the grid rule `_grid_size` and the key it reads a drive by, `_grid_key`:
  the pair (ceil(zmax), ceil(bandwidth))
- the truncation limit: the weight outside the retained orders stays
  within 1e-8 j0^2, `_tail_fits`
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)

FAMILIES = ("plus", "minus", "custom")


#: largest Fourier grid of a drive: a (3, M) complex array of this size
#: takes 48 MiB
MAX_SAMPLES = 1 << 20


class SpectrumTruncationError(ValueError):
    """Requested Fourier window is too small to hold the spectral weight."""


@dataclass(frozen=True)
class LatticeGeometry:
    """Hexagonal-lattice vectors: NN bonds a1..a3, Bravais/NNN vectors
    b1..b3, orthogonal drive axes e1, e2 and reciprocal vectors G1, G2
    (b_i . G_j = 2*pi*delta_ij for i, j in {1, 2})."""

    a: float
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    G1: np.ndarray
    G2: np.ndarray

    def bond(self, k: int) -> np.ndarray:
        """NN bond vector a_k, k in {1, 2, 3}."""
        return (self.a1, self.a2, self.a3)[_bond_row(k)]


def _bond_row(k: int) -> int:
    """Row k - 1 of bond k's entry in the per-bond arrays, for k in
    {1, 2, 3}; any other k raises ValueError."""
    if k not in (1, 2, 3):
        raise ValueError(f"bond index must be 1, 2 or 3, got {k}")
    return k - 1


def build_geometry(a: float = 1.0) -> LatticeGeometry:
    """Construct the hexagonal-lattice geometry for NN distance `a`.

    a1 = (a/2)(sqrt3, 1), a2 = (a/2)(-sqrt3, 1), a3 = -a1 - a2;
    b1 = a(sqrt3, 0), b2 = (a/2)(-sqrt3, 3), b3 = -b1 - b2;
    e1 = (a1 - a2)/sqrt3, e2 = -a3.
    """
    if not a > 0:
        raise ValueError(f"lattice constant must be positive, got {a}")
    a1 = np.array([SQRT3, 1.0]) * (a / 2)
    a2 = np.array([-SQRT3, 1.0]) * (a / 2)
    a3 = -a1 - a2
    b1 = np.array([SQRT3, 0.0]) * a
    b2 = np.array([-SQRT3, 3.0]) * (a / 2)
    b3 = -b1 - b2
    e1 = (a1 - a2) / SQRT3
    e2 = -a3
    # reciprocal basis of (b1, b2): rows of 2*pi * inv([b1; b2])^T
    B = np.array([b1, b2])
    G = 2 * np.pi * np.linalg.inv(B).T
    geom = LatticeGeometry(a=a, a1=a1, a2=a2, a3=a3, b1=b1, b2=b2, b3=b3,
                           e1=e1, e2=e2, G1=G[0], G2=G[1])
    for v in (geom.a1, geom.a2, geom.a3, geom.b1, geom.b2, geom.b3,
              geom.e1, geom.e2, geom.G1, geom.G2):
        v.setflags(write=False)
    return geom


_DEFAULT_GEOM = build_geometry(1.0)


def default_geometry() -> LatticeGeometry:
    """Shared a = 1 geometry."""
    return _DEFAULT_GEOM


def _fold(x, period):
    """Fold to (-period/2, period/2]: the one angle-fold rule."""
    half = period / 2
    return half - np.mod(half - np.asarray(x), period)


def wrap_angle(x):
    """Wrap to (-pi, pi]."""
    return _fold(x, 2 * np.pi)


def family_harmonic_integer(n: int) -> int:
    """n-th allowed harmonic integer: 1, 2, 4, 5, 7, 8, ... (skipping
    multiples of 3), via m_n = (6n - (-1)^n - 3)/4."""
    if n < 1:
        raise ValueError("harmonic index starts at 1")
    return (6 * n - (-1) ** n - 3) // 4


@dataclass(frozen=True)
class Harmonic:
    """One frequency component of the drive.

    m       : positive integer multiple of the base frequency (an
              integral float such as 2.0 is stored as the int 2)
    amp_x/y : amplitudes along e1/e2 in units of omega/a
    phase_x/y : phase lags (radians) of the cosine on each axis
    """

    m: int
    amp_x: float
    phase_x: float
    amp_y: float
    phase_y: float

    def __post_init__(self):
        # an infinite or NaN m fails the bounds, and so does an integer too
        # large for a float, which the drive arrays could not hold
        if not (1 <= self.m <= sys.float_info.max and self.m % 1 == 0):
            raise ValueError(f"harmonic multiple must be a positive integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        for v in (self.amp_x, self.amp_y, self.phase_x, self.phase_y):
            if not math.isfinite(v):
                raise ValueError("harmonic amplitudes and phases must be finite")


@dataclass(frozen=True)
class DriveSpec:
    """A periodic driving force as a list of harmonics.

    family 'plus'/'minus' enforces the isotropy-preserving structure
    (harmonic integers 1, 2, 4, 5, ..., equal per-axis amplitudes, and
    per-axis phase offsets +-(-1)^n pi/2); 'custom' allows any harmonic
    content, including multiples of 3.
    """

    family: str
    omega: float
    harmonics: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        if self.family in ("plus", "minus"):
            self._check_family_structure()

    def _check_family_structure(self):
        offsets = _family_harmonics(self.family, len(self.harmonics))[1].tolist()
        for idx, (h, off) in enumerate(zip(self.harmonics, offsets), start=1):
            if h.m != family_harmonic_integer(idx):
                raise ValueError(
                    f"family {self.family!r} harmonic {idx} must have m = "
                    f"{family_harmonic_integer(idx)}, got {h.m}")
            if idx == 1 and abs(h.phase_x) > 1e-12:
                raise ValueError("first harmonic phase must be 0 for plus/minus families")
            if abs(h.amp_x - h.amp_y) > 1e-12 * max(1.0, abs(h.amp_x)):
                raise ValueError("plus/minus families carry equal amplitudes on both axes")
            want = h.phase_x + off
            if abs(wrap_angle(h.phase_y - want)) > 1e-9:
                raise ValueError(
                    f"family {self.family!r} harmonic {idx} has phase_y = {h.phase_y}, "
                    f"expected {want}")

    @property
    def period(self) -> float:
        return 2 * np.pi / self.omega


def build_family_drive(sign: str, omega: float, amps, phases) -> DriveSpec:
    """Assemble a plus/minus-family drive from per-harmonic amplitudes
    (units omega/a) and phase lags delta_n (phases[0] must be 0)."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"family sign must be 'plus' or 'minus', got {sign!r}")
    amps = [float(x) for x in amps]
    phases = [float(x) for x in phases]
    if len(amps) != len(phases):
        raise ValueError(f"amps ({len(amps)}) and phases ({len(phases)}) differ in length")
    if len(amps) < 1:
        raise ValueError("at least one harmonic is required")
    if abs(phases[0]) > 1e-12:
        raise ValueError(f"first phase must be 0, got {phases[0]}")
    offsets = _family_harmonics(sign, len(amps))[1].tolist()
    harms = []
    for idx, (A, d, off) in enumerate(zip(amps, phases, offsets), start=1):
        harms.append(Harmonic(m=family_harmonic_integer(idx),
                              amp_x=A, phase_x=d, amp_y=A, phase_y=d + off))
    return DriveSpec(family=sign, omega=float(omega), harmonics=tuple(harms))


@functools.lru_cache(maxsize=16)
def _family_harmonics(family: str, N: int):
    """Harmonic integers m_n and axis lags phase_y - phase_x =
    +-(-1)^n pi/2 of the first N harmonics of the plus/minus family, as
    read-only arrays (N,)."""
    sgn = 1.0 if family == "plus" else -1.0
    ms = np.array([family_harmonic_integer(n) for n in range(1, N + 1)], dtype=float)
    offsets = np.array([sgn * (-1) ** n * np.pi / 2 for n in range(1, N + 1)])
    ms.setflags(write=False)
    offsets.setflags(write=False)
    return ms, offsets


def build_custom_drive(omega: float, harmonics) -> DriveSpec:
    """Free-form drive; `harmonics` is an iterable of Harmonic or of
    (m, amp_x, phase_x, amp_y, phase_y) tuples."""
    hs = tuple(h if isinstance(h, Harmonic) else Harmonic(*h) for h in harmonics)
    return DriveSpec(family="custom", omega=float(omega), harmonics=hs)


def force_at(spec: DriveSpec, t, geom: LatticeGeometry | None = None) -> np.ndarray:
    """Driving force at time(s) t, in absolute units (amp * omega along
    the unit drive axes); shape (..., 2)."""
    geom = geom or default_geometry()
    t = np.asarray(t, dtype=float)
    u1 = geom.e1 / geom.a
    u2 = geom.e2 / geom.a
    out = np.zeros(t.shape + (2,))
    for h in spec.harmonics:
        wx = np.cos(h.m * spec.omega * t - h.phase_x)
        wy = np.cos(h.m * spec.omega * t - h.phase_y)
        out += spec.omega * (h.amp_x * wx[..., None] * u1 + h.amp_y * wy[..., None] * u2)
    return out


def _bond_projections(geom: LatticeGeometry):
    """(p1, p2): projections u1.a_k and u2.a_k of the unit drive axes on
    the three NN bonds, each of shape (3,)."""
    u1 = geom.e1 / geom.a
    u2 = geom.e2 / geom.a
    p1 = np.array([u1 @ geom.bond(k) for k in (1, 2, 3)])
    p2 = np.array([u2 @ geom.bond(k) for k in (1, 2, 3)])
    return p1, p2


def _axis_bond_amplitudes(proj, amp_x, phase_x, amp_y, phase_y) -> np.ndarray:
    """Complex bond amplitudes Z (..., 3, H) from per-harmonic axis
    amplitudes and phase lags (arrays of shape (..., H)) and
    `_bond_projections`."""
    p1, p2 = proj
    zx = amp_x * np.exp(-1j * phase_x)
    zy = amp_y * np.exp(-1j * phase_y)
    return p1[:, None] * zx[..., None, :] + p2[:, None] * zy[..., None, :]


def _bond_amplitudes(spec: DriveSpec, geom: LatticeGeometry):
    """Harmonic integers m (H,) and complex bond amplitudes Z (3, H) with
    F(t).a_k / omega = sum_h Re[Z_kh e^{i m_h omega t}].

    The zero-mean Peierls phase follows as
    chi_k(t) = Im[sum_h (Z_kh / m_h) e^{i m_h omega t}].
    """
    hs = spec.harmonics
    ms = np.array([h.m for h in hs], dtype=float)
    amp_x = np.array([h.amp_x for h in hs], dtype=float)
    phase_x = np.array([h.phase_x for h in hs], dtype=float)
    amp_y = np.array([h.amp_y for h in hs], dtype=float)
    phase_y = np.array([h.phase_y for h in hs], dtype=float)
    return ms, _axis_bond_amplitudes(_bond_projections(geom), amp_x, phase_x, amp_y, phase_y)


#: drive-axis projections on the bonds of the a = 1 geometry
_DEFAULT_PROJ = _bond_projections(_DEFAULT_GEOM)


def _family_bond_amplitudes(family: str, N: int, P):
    """Harmonic integers (N,) and bond amplitudes Z (..., 3, N) on the
    a = 1 geometry of the family drives with parameter vectors
    P (..., 2N - 1) = (A_1 .. A_N, delta_2 .. delta_N): delta_1 = 0 and
    the deltas wrapped."""
    ms, offsets = _family_harmonics(family, N)
    amps = P[..., :N]
    deltas = np.concatenate((np.zeros(P.shape[:-1] + (1,)), wrap_angle(P[..., N:])), axis=-1)
    return ms, _axis_bond_amplitudes(_DEFAULT_PROJ, amps, deltas, amps, deltas + offsets)


def _peierls_phases(ms, Z, omega: float, t) -> np.ndarray:
    """chi_k(t) = Im[sum_h (Z_kh / m_h) e^{i m_h omega t}] of the three
    bonds at the times t (T,), from the harmonic integers ms (H,) and bond
    amplitudes Z (3, H) of `_bond_amplitudes`; shape (3, T)."""
    return ((Z / ms) @ np.exp(1j * omega * np.outer(ms, t))).imag


def chi(spec: DriveSpec, geom: LatticeGeometry, k: int, t) -> np.ndarray:
    """Peierls phase chi_k(t) along bond k, evaluated in closed form.

    Equal to the time integral of F(tau).a_k from 0 to t minus its own
    period average, so the period average of chi_k is zero.
    """
    row = _bond_row(k)
    t = np.asarray(t, dtype=float)
    chi_t = _peierls_phases(*_bond_amplitudes(spec, geom), spec.omega, t.ravel())
    return chi_t[row].reshape(t.shape)


@functools.lru_cache(maxsize=8)
def _unit_roots(M: int) -> np.ndarray:
    """e^{2 pi i j / M} for j = 0 .. M-1; read-only, shared between calls.
    A family drive with |A_i/w| <= 5 needs at most four grid sizes."""
    base = np.exp(2j * np.pi / M * np.arange(M))
    base.setflags(write=False)
    return base


def _chi_samples(ms, Z, M):
    """chi_k on the uniform period grid t_j = j T / M, shape (..., 3, M)
    for bond amplitudes Z (..., 3, H).

    chi_k(t_j) = Im[sum_h (Z_kh / m_h) e^{2 pi i m_h j / M}]; the harmonic
    rows are built from the fundamental by repeated multiplication, which
    beats an (H, M) complex exp for the small m of interest.  The sum
    starts from its first term, not from zeros.
    """
    if len(ms) == 0:
        return np.zeros(Z.shape[:-1] + (M,))
    base = _unit_roots(M)
    W = Z / ms
    acc = None
    row = base
    power = 1
    for h in np.argsort(ms):
        m = int(ms[h])
        for _ in range(m - power):
            row = row * base
        power = m
        term = W[..., h, None] * row
        if acc is None:
            acc = term
        else:
            acc += term
    return acc.imag


def _quadrature_sizes(ms, Z):
    """(total modulation index, spectral bandwidth, largest harmonic); the
    first two over the leading axes of Z (..., 3, H)."""
    if len(ms) == 0:
        zero = np.zeros(Z.shape[:-2])
        return zero, zero, 1
    absZ = np.abs(Z)
    with np.errstate(over="ignore"):
        # an inf here is refused by `_grid_size`'s MAX_SAMPLES cap
        zmax = (absZ / ms).sum(axis=-1).max(axis=-1)
        bandwidth = absZ.sum(axis=-1).max(axis=-1)
    return zmax, bandwidth, int(ms.max())


@dataclass(frozen=True)
class TunnelingSpectrum:
    """Fourier components of the Peierls-modulated NN tunneling rates.

    g[k-1, n_max + n] holds g_k^n = (1/T) int_0^T j0 e^{i chi_k(t)} e^{-i n omega t} dt
    for n in [-n_max, n_max].  Since |g_k(t)| = j0, the components satisfy
    Parseval: sum_n |g_k^n|^2 = j0^2.
    """

    j0: float
    omega: float
    n_max: int
    g: np.ndarray

    def component(self, k: int, n: int) -> complex:
        """g_k^n for bond k in {1,2,3}."""
        row = _bond_row(k)
        if abs(n) > self.n_max:
            raise ValueError(f"|n| exceeds n_max = {self.n_max}")
        return self.g[row, self.n_max + n]

    def negated_bond(self, k: int) -> np.ndarray:
        """Components of g_{-a_k}(t) = conj(g_k(t)): conj(g_k^{-n}), for
        bond k in {1,2,3}."""
        return np.conj(self.g[_bond_row(k), ::-1])

    def parseval_defect(self) -> float:
        """max_k |sum_n |g_k^n|^2 - j0^2| / j0^2."""
        total = np.sum(np.abs(self.g) ** 2, axis=1)
        return float(np.max(np.abs(total - self.j0 ** 2)) / self.j0 ** 2)


def fourier_components(spec: DriveSpec, geom: LatticeGeometry, j0: float,
                       n_max: int | None = None,
                       samples: int | None = None) -> TunnelingSpectrum:
    """Fourier components of g_k(t) = j0 exp(i chi_k(t)) by uniform-grid DFT.

    Parameters
    ----------
    j0 : bare tunneling amplitude, > 0.
    n_max : retained order; the default covers the spectral bandwidth
        sum_h m_h z_h plus a Bessel-tail margin that grows with the
        largest harmonic integer (a factor at harmonic m spreads its
        tail at spacing m, so a flat margin leaks weight for m > 1).
    samples : optional power-of-two override of the automatic grid size.

    Raises
    ------
    SpectrumTruncationError
        when the weight outside [-n_max, n_max] exceeds 1e-8 * j0^2.
    """
    if not (j0 > 0 and math.isfinite(j0)):
        raise ValueError(f"j0 must be positive and finite, got {j0}")
    ms, Z = _bond_amplitudes(spec, geom)
    zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
    n_max, M = _grid_size(mmax, zmax, bandwidth, n_max, samples)
    g, tail = _peierls_components(ms, Z, j0, n_max, M)
    error = _truncation_error(tail, n_max, j0)
    if error:
        raise error
    g.setflags(write=False)
    return TunnelingSpectrum(j0=float(j0), omega=spec.omega, n_max=int(n_max), g=g)


def _grid_key(zmax, bandwidth):
    """The (ceil(zmax), ceil(bandwidth)) pair of each drive, as a list:
    `_grid_size` reads a drive's modulation index and bandwidth through
    these two integers only, so drives with equal keys share a grid."""
    return list(zip(np.ceil(zmax).tolist(), np.ceil(bandwidth).tolist()))


def _grid_size(mmax: int, zmax: float, bandwidth: float, n_max: int | None = None,
               samples: int | None = None):
    """(n_max, M) of one drive from its `_quadrature_sizes`: the retained
    order and grid-size rules of `fourier_components`, or its overrides.
    A grid above MAX_SAMPLES raises ValueError before anything of its
    size is allocated."""
    M = samples
    if M is None:
        # power of two >= 64*(largest harmonic + ceil(total modulation index));
        # Peierls spectra decay superexponentially past the modulation index,
        # which keeps aliasing below 1e-12 at this rate.  The cap is tested
        # on the unrounded index (mmax + ceil(zmax) <= MAX_SAMPLES / 64 exactly
        # when mmax + zmax is), so that an overflowing index is refused too.
        if not mmax + zmax <= MAX_SAMPLES // 64:
            raise ValueError(f"a drive of modulation index {zmax:.6g} needs more than "
                             f"{MAX_SAMPLES} Fourier samples")
        M = max(256, 1 << math.ceil(math.log2(64 * (mmax + math.ceil(zmax)))))
    if M & (M - 1) or not 4 <= M <= MAX_SAMPLES:
        raise ValueError(f"sample count must be a power of two in [4, {MAX_SAMPLES}], got {M}")
    if n_max is None:
        n_max = math.ceil(bandwidth) + 20 + 4 * mmax
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if 2 * n_max + 1 > M:
        raise ValueError(f"n_max = {n_max} does not fit in {M} samples")
    return n_max, M


@functools.lru_cache(maxsize=64)
def _window(n_max: int, M: int) -> np.ndarray:
    """FFT bins of the orders -n_max .. n_max on an M-point grid."""
    bins = np.arange(-n_max, n_max + 1) % M
    bins.setflags(write=False)
    return bins


def _phasor(chi, j0: float) -> np.ndarray:
    """j0 e^{i chi} elementwise, as a new complex array of chi's shape.

    Built in place as cos chi + i sin chi: the complex exp of i chi
    computes the same sin and cos, and exp(0) = 1 exactly; chi + 0.0
    turns -0.0 into the +0.0 that the product i chi carries.  Bit for bit
    j0 * np.exp(1j * chi).
    """
    z = np.empty(chi.shape, dtype=complex)
    np.add(chi, 0.0, out=z.imag)
    np.cos(z.imag, out=z.real)
    np.sin(z.imag, out=z.imag)
    if j0 != 1.0:
        np.multiply(j0, z, out=z)
    return z


def _peierls_components(ms, Z, j0: float, n_max: int, M: int):
    """(g, tail) for harmonic integers `ms` and bond amplitudes Z (..., 3, H)
    (see `_bond_amplitudes`) on one grid: g[..., k-1, n_max + n] = g_k^n
    and the largest weight of a bond outside |n| <= n_max, over the leading
    axes of Z.  Each drive's values do not depend on the others'."""
    # in place where the arithmetic allows, to hold fewer block-sized
    # arrays: the samples of chi are released when `_phasor` returns
    z = _phasor(_chi_samples(ms, Z, M), j0)
    # the forward norm scales by 1/M inside the transform: M is a power of
    # two, so that is the exact division F / M
    F = np.fft.fft(z, axis=-1, norm="forward")
    del z
    window = _window(n_max, M)
    g = F[..., window]
    weight = np.abs(F)
    del F
    np.square(weight, out=weight)
    tail = (weight.sum(axis=-1) - weight[..., window].sum(axis=-1)).max(axis=-1)
    return g, tail


#: largest spectral weight a bond may keep outside the retained orders,
#: in units of j0^2
_TAIL_TOL = 1e-8


def _tail_fits(tail, j0: float):
    """tail <= _TAIL_TOL * j0^2, elementwise: the truncation limit.  A NaN
    tail does not fit, and j0^2 overflows to inf, not OverflowError."""
    return tail <= _TAIL_TOL * (j0 * j0)


def _truncation_error(tail: float, n_max: int, j0: float):
    """The SpectrumTruncationError of a drive whose weight outside
    |n| <= n_max is `tail`, or None when `_tail_fits`."""
    if _tail_fits(tail, j0):
        return None
    return SpectrumTruncationError(
        f"spectral weight {tail:.3e} outside |n| <= {n_max} "
        f"(exceeds 1e-8 * j0^2 = {_TAIL_TOL * (j0 * j0):.3e})")


# ---------------------------------------------------------------------------
# JSON interface

def drive_to_json(spec: DriveSpec) -> dict:
    return {
        "family": spec.family,
        "omega": spec.omega,
        "harmonics": [
            {"m": h.m, "ax": [h.amp_x, h.phase_x], "ay": [h.amp_y, h.phase_y]}
            for h in spec.harmonics
        ],
    }


def drive_from_json(data) -> DriveSpec:
    """Parse a drive from a JSON dict or string.

    Full form: {"family": ..., "omega": w, "harmonics": [{"m": m,
    "ax": [amp, phase], "ay": [amp, phase]}, ...]}.  For plus/minus
    families the shorthand {"family": "plus", "omega": w, "A": [...],
    "delta": [...]} is expanded via `build_family_drive`.  A missing
    field, a list of the wrong length or a value of the wrong type raises
    ValueError: a number must be a JSON number (not a string or a
    boolean), and a list a JSON array.  So does a key the form does not
    read, named: one unknown to it, or "A" or "delta" beside "harmonics".
    """
    def number(x):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"expected a number, got {x!r}")
        return x

    def array(x):
        if not isinstance(x, list):
            raise TypeError(f"expected an array, got {x!r}")
        return x

    def fields(x, known):
        if not isinstance(x, dict):
            raise TypeError(f"expected an object, got {x!r}")
        for key in x:
            if key not in known:
                raise ValueError(f"drive JSON key {key!r} is not read here "
                                 f"(keys: {', '.join(known)})")

    def amp_phase(h, key):
        x = array(h[key])
        if len(x) != 2:
            raise ValueError(f"drive JSON key {key!r} must be [amplitude, phase], got {x!r}")
        return float(number(x[0])), float(number(x[1]))

    def harmonic(h):
        fields(h, ("m", "ax", "ay"))
        return Harmonic(number(h["m"]), *amp_phase(h, "ax"), *amp_phase(h, "ay"))

    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("drive JSON must be an object")
    fields(data, ("family", "omega") + (("harmonics",) if "harmonics" in data else ("A", "delta")))
    try:
        family, omega = data["family"], float(number(data["omega"]))
        if "harmonics" in data:
            harms = [harmonic(h) for h in array(data["harmonics"])]
            return DriveSpec(family=family, omega=omega, harmonics=tuple(harms))
        if family in ("plus", "minus"):
            return build_family_drive(family, omega, [number(x) for x in array(data["A"])],
                                      [number(x) for x in array(data["delta"])])
    except (KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"malformed drive JSON: {type(e).__name__} {e}") from None
    raise ValueError("custom drives require an explicit 'harmonics' list")
