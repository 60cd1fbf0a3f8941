"""Closed-form and reference computations the benchmark checks outputs against.

Everything here is written from the physics of the shaken hexagonal
lattice (hbar = 1, a = 1, omega = j0 = 1 unless stated), not from the
floqchern sources, and imports nothing from the package:

- `bessel_R` / `bessel_optimum`: R(A) of a monochromatic circular drive,
  R = 2 |sum_{n>=1} J_n(A)^2 sin(2 pi n / 3) / n| / |J0(A)|, and its
  maximum under the NN floor |J0(A)| >= r_th.
- `dirac_mass_chern`: C = (sign m(K') - sign m(K)) / 2 from the sigma_z
  coefficient at the two Dirac points (Haldane 1988).
- `reference_rates`: drive parameters -> Peierls phases -> Fourier
  components by direct time quadrature -> commutator NNN rate tau_1.
- `undriven_quasienergy`: |h(k)| of the static lattice, whose Floquet
  quasienergies are exactly +-|h(k)|.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import jv

SQRT3 = math.sqrt(3.0)

#: NN bond vectors a1, a2, a3 of the a = 1 lattice
BONDS = np.array([[SQRT3 / 2, 0.5], [-SQRT3 / 2, 0.5], [0.0, -1.0]])

#: Bravais (NNN) vectors b1, b2
B1 = np.array([SQRT3, 0.0])
B2 = np.array([-SQRT3 / 2, 1.5])

#: Dirac points K, K' as (k.b1, k.b2)
K_POINTS = ((2 * math.pi / 3, 2 * math.pi / 3), (-2 * math.pi / 3, -2 * math.pi / 3))


def wrap(x):
    """Angle wrapped to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2 * np.pi)


# ---------------------------------------------------------------------------
# Monochromatic drive: Bessel closed form

def bessel_R(A, n_terms: int = 80):
    """R(A) = 2 |sum_n J_n(A)^2 sin(2 pi n/3) / n| / |J0(A)|, elementwise."""
    A = np.asarray(A, dtype=float)
    n = np.arange(1, n_terms + 1).reshape((-1,) + (1,) * A.ndim)
    s = np.sum(jv(n, A) ** 2 * np.sin(2 * np.pi * n / 3) / n, axis=0)
    return 2 * np.abs(s) / np.abs(jv(0, A))


def bessel_optimum(r_th: float, amp_max: float = 3.5) -> float:
    """max R(A) over A in (0, amp_max] with |J0(A)| >= r_th.

    The best point of a fine grid is polished: by the root of
    |J0(A)| = r_th when a grid neighbour is infeasible, else by a bounded
    scalar search between its neighbours.
    """
    grid = np.linspace(1e-3, amp_max, 3501)
    feasible = np.abs(jv(0, grid)) >= r_th
    i = int(np.argmax(np.where(feasible, bessel_R(grid), -np.inf)))
    for j in (i - 1, i + 1):
        if 0 <= j < len(grid) and not feasible[j]:
            root = brentq(lambda a: abs(jv(0, a)) - r_th, *sorted((grid[i], grid[j])),
                          xtol=1e-15)
            return float(bessel_R(root))
    res = minimize_scalar(lambda a: -bessel_R(a), bounds=(grid[i - 1], grid[i + 1]),
                          method="bounded", options={"xatol": 1e-12})
    return float(-res.fun)


# ---------------------------------------------------------------------------
# Chern number from the Dirac masses

def model_h3(kind: str, phi: float, ratio: float, kb1, kb2, j2: float = 1.0):
    """sigma_z coefficient at (k.b1, k.b2) of the driven-hexagonal model,
    h3 = delta + 2 j2 sum_i cos(k.b_i + phi) with delta = ratio * j2, or of
    the Haldane reference, h3' = h3 - 2 j2 cos(phi) sum_i cos(k.b_i)."""
    kbs = (kb1, kb2, -kb1 - kb2)
    h3 = ratio * j2 + 2 * j2 * sum(np.cos(kb + phi) for kb in kbs)
    if kind == "haldane_reference":
        h3 = h3 - 2 * j2 * np.cos(phi) * sum(np.cos(kb) for kb in kbs)
    elif kind != "driven_hexagonal":
        raise ValueError(f"unknown model kind {kind!r}")
    return h3


def dirac_mass_chern(kind: str, phi: float, ratio: float) -> int:
    """C = (sign m(K') - sign m(K)) / 2 with m the Dirac mass h3."""
    (k1, k2), (q1, q2) = K_POINTS
    m_k = model_h3(kind, phi, ratio, k1, k2)
    m_kp = model_h3(kind, phi, ratio, q1, q2)
    return int((np.sign(m_kp) - np.sign(m_k)) / 2)


# ---------------------------------------------------------------------------
# Peierls -> tau reference chain

def harmonic_integers(N: int) -> list:
    """The first N positive integers that are not multiples of 3."""
    out, m = [], 0
    while len(out) < N:
        m += 1
        if m % 3:
            out.append(m)
    return out


def peierls_phases(family: str, amps, deltas, t) -> np.ndarray:
    """chi_k(t), shape (3, len(t)), of a plus/minus family drive at omega = 1.

    Harmonic n (frequency m_n) pushes with amplitude A_n along e1 = x with
    lag delta_n and along e2 = y with lag delta_n + s (-1)^n pi/2, s = +1
    for the plus family and -1 for the minus family.  chi_k is the
    zero-mean antiderivative of F(t).a_k.
    """
    sign = {"plus": 1.0, "minus": -1.0}[family]
    t = np.asarray(t, dtype=float)
    chi = np.zeros((3, len(t)))
    for n, (A, d, m) in enumerate(zip(amps, deltas, harmonic_integers(len(amps))), start=1):
        lag_y = d + sign * (-1) ** n * np.pi / 2
        sx = np.sin(m * t - d) / m
        sy = np.sin(m * t - lag_y) / m
        chi += A * (BONDS[:, 0:1] * sx + BONDS[:, 1:2] * sy)
    return chi


def reference_rates(family: str, amps, deltas, samples: int = 1024, orders: int = 160):
    """(R, j1, phi, j2, tau0) at omega = j0 = 1 by direct time quadrature.

    g_k^n = (1/T) int_0^T exp(i chi_k(t)) exp(-i n t) dt on a uniform grid
    (exact for a band-limited integrand), then the commutator rate
    tau_1 = sum_{n>=1} (g_2^{-n} h^{n} - h^{-n} g_2^{n}) / n with h the
    components of the reversed bond -a3, h^n = conj(g_3^{-n}), and
    tau_0 = sum_k of the same pairing of a_k with -a_k.
    """
    t = 2 * np.pi * np.arange(samples) / samples
    ns = np.arange(-orders, orders + 1)
    kernel = np.exp(-1j * np.outer(t, ns)) / samples
    g = np.exp(1j * peierls_phases(family, amps, deltas, t)) @ kernel   # (3, 2L+1)
    c = orders
    pos = np.arange(1, orders + 1)

    def w(ga, gb):
        return np.sum((ga[c - pos] * gb[c + pos] - gb[c - pos] * ga[c + pos]) / pos)

    rev = np.conj(g[:, ::-1])       # components of g_{-a_k}
    tau1 = w(g[1], rev[2])
    tau0 = sum(w(g[k], rev[k]) for k in range(3))
    j1 = abs(np.mean(g[:, c]))
    j2 = abs(tau1)
    return j2 / j1, j1, float(np.angle(tau1)), j2, complex(tau0)


# ---------------------------------------------------------------------------
# Static lattice

def undriven_quasienergy(k, j0: float, delta: float) -> np.ndarray:
    """|h(k)| = sqrt(delta^2 + j0^2 |1 + e^{i k.b1} + e^{-i k.b2}|^2) at
    Cartesian momenta k, shape (..., 2)."""
    k = np.asarray(k, dtype=float)
    a, b = k @ B1, k @ B2
    s = 3 + 2 * np.cos(a) + 2 * np.cos(b) + 2 * np.cos(a + b)
    return np.sqrt(delta ** 2 + j0 ** 2 * s)
