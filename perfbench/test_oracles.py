"""Pin the benchmark's oracles to closed-form facts (run from the repo root:
`python3 -m pytest perfbench/test_oracles.py`).  Nothing here reads
floqchern output."""

import math

import numpy as np
import pytest
from scipy.special import jv

import oracles as o


def test_bessel_small_amplitude_limit():
    # J1(A) ~ A/2, so R ~ 2 (A/2)^2 sin(2 pi/3) = (sqrt3/4) A^2
    for A in (1e-3, 3e-3):
        assert o.bessel_R(A) / A ** 2 == pytest.approx(math.sqrt(3) / 4, rel=1e-5)


def test_bessel_constrained_optimum():
    assert o.bessel_optimum(0.25) == pytest.approx(1.919460, abs=5e-7)
    assert o.bessel_optimum(0.5) == pytest.approx(0.992023, abs=5e-7)
    # the optimum sits where the NN floor binds: J0(A*) = r_th
    A = np.linspace(0.01, 1.9548318, 400)
    assert o.bessel_R(A).max() <= o.bessel_optimum(0.25) + 1e-12


def test_reference_chain_monochromatic_is_bessel():
    for fam, sign in (("plus", 1), ("minus", -1)):
        for A in (0.4, 1.3, 2.2):
            R, j1, phi, j2, tau0 = o.reference_rates(fam, [A], [0.0])
            assert j1 == pytest.approx(abs(jv(0, A)), abs=1e-13)
            assert R == pytest.approx(o.bessel_R(A), rel=1e-12)
            # a monochromatic drive gives a purely imaginary NNN rate
            assert phi == pytest.approx(sign * math.pi / 2, abs=1e-12)


def test_circular_drive_phase_amplitude():
    # a monochromatic family drive is circular, so every bond (|a_k| = 1)
    # sees chi_k(t) = A sin(t - theta_k) and |g_k^n| = |J_n(A)|
    A = 2.0
    t = 2 * np.pi * np.arange(512) / 512
    chi = o.peierls_phases("plus", [A], [0.0], t)
    g = np.fft.fft(np.exp(1j * chi), axis=1) / 512
    ns = np.arange(-15, 16)
    assert np.abs(np.abs(g[:, ns % 512]) - np.abs(jv(ns, A))).max() < 1e-13


def test_reference_chain_mirror_and_parseval():
    # the minus family at (A, -delta) is the time-reverse of the plus family
    p = o.reference_rates("plus", [1.1, 0.8], [0.0, 0.7])
    m = o.reference_rates("minus", [1.1, 0.8], [0.0, -0.7])
    assert m[0] == pytest.approx(p[0], rel=1e-12)
    assert m[2] == pytest.approx(-p[2], abs=1e-12)
    t = 2 * np.pi * np.arange(1024) / 1024
    g = np.fft.fft(np.exp(1j * o.peierls_phases("plus", [1.1, 0.8], [0.0, 0.7], t)), axis=1)
    assert np.sum(np.abs(g / 1024) ** 2, axis=1) == pytest.approx(np.ones(3), abs=1e-13)


def test_dirac_mass_chern_convention_and_boundaries():
    for kind in ("driven_hexagonal", "haldane_reference"):
        assert o.dirac_mass_chern(kind, math.pi / 2, 0.0) == 1
        assert o.dirac_mass_chern(kind, -math.pi / 2, 0.0) == -1
        assert o.dirac_mass_chern(kind, math.pi / 2, 6.0) == 0
    # Haldane (1988): transitions at delta / j2 = +-3 sqrt3 sin(phi)
    b = 3 * math.sqrt(3) * math.sin(1.0)
    assert o.dirac_mass_chern("haldane_reference", 1.0, b - 1e-6) == 1
    assert o.dirac_mass_chern("haldane_reference", 1.0, b + 1e-6) == 0
    # driven model: the K-point mass vanishes at delta / j2 = 3 cos(phi) + 3 sqrt3 sin(phi)
    b = 3 * math.cos(1.0) + 3 * math.sqrt(3) * math.sin(1.0)
    assert o.dirac_mass_chern("driven_hexagonal", 1.0, b - 1e-6) == 1
    assert o.dirac_mass_chern("driven_hexagonal", 1.0, b + 1e-6) == 0


def test_undriven_quasienergy_special_points():
    j0 = 0.02
    gamma = np.zeros(2)
    K = np.linalg.solve(np.array([o.B1, o.B2]), np.array(o.K_POINTS[0]))
    assert o.undriven_quasienergy(gamma, j0, 0.0) == pytest.approx(3 * j0, rel=1e-15)
    assert o.undriven_quasienergy(K, j0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert o.undriven_quasienergy(K, j0, 0.01) == pytest.approx(0.01, rel=1e-12)
