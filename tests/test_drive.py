import json
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from floqchern import (
    DriveSpec,
    Harmonic,
    SpectrumTruncationError,
    build_custom_drive,
    build_family_drive,
    build_geometry,
    chi,
    default_geometry,
    drive_from_json,
    drive_to_json,
    family_harmonic_integer,
    force_at,
    fourier_components,
)

GEOM = default_geometry()


# ---------------------------------------------------------------------------
# geometry

def test_geometry_bond_identities():
    g = build_geometry(1.0)
    assert np.array_equal(g.a3, -g.a1 - g.a2)
    assert np.array_equal(g.b3, -g.b1 - g.b2)
    assert np.allclose(g.a1, [np.sqrt(3) / 2, 0.5])
    assert np.allclose(g.a3, [0.0, -1.0])
    assert abs(g.e1 @ g.e2) < 1e-15
    assert np.array_equal(g.bond(3), g.a3)
    with pytest.raises(ValueError, match="bond index must be 1, 2 or 3, got 4"):
        g.bond(4)


def test_geometry_reciprocal_identities():
    g = build_geometry(2.5)
    for bi, row in ((g.b1, [2 * np.pi, 0.0]), (g.b2, [0.0, 2 * np.pi])):
        assert abs(bi @ g.G1 - row[0]) < 1e-12
        assert abs(bi @ g.G2 - row[1]) < 1e-12


def test_geometry_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        build_geometry(0.0)
    with pytest.raises(ValueError):
        build_geometry(-1.0)


# ---------------------------------------------------------------------------
# drive families

def test_harmonic_integer_sequence():
    seq = [family_harmonic_integer(n) for n in range(1, 9)]
    assert seq == [1, 2, 4, 5, 7, 8, 10, 11]
    assert all(m % 3 != 0 for m in seq)
    with pytest.raises(ValueError, match="harmonic index starts at 1"):
        family_harmonic_integer(0)


def test_family_drive_n3_harmonics():
    spec = build_family_drive("plus", 1.0, [1.0, 0.5, 0.2], [0.0, 0.3, -1.0])
    assert [h.m for h in spec.harmonics] == [1, 2, 4]


def test_family_drive_phase_offsets():
    # first harmonic of the plus family lags the y axis by -pi/2: a circular
    # component A (cos wt e1 + cos(wt + pi/2) e2)
    spec = build_family_drive("plus", 1.0, [1.3], [0.0])
    assert spec.harmonics[0].phase_y == pytest.approx(-np.pi / 2)
    # minus family differs by pi on every harmonic
    p = build_family_drive("plus", 1.0, [1.0, 1.0], [0.0, 0.4])
    m = build_family_drive("minus", 1.0, [1.0, 1.0], [0.0, 0.4])
    for hp, hm in zip(p.harmonics, m.harmonics):
        d = (hm.phase_y - hp.phase_y) % (2 * np.pi)
        assert d == pytest.approx(np.pi)


def test_family_drive_rejects_bad_input():
    with pytest.raises(ValueError):
        build_family_drive("plus", 1.0, [1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        build_family_drive("plus", 1.0, [1.0], [0.3])
    with pytest.raises(ValueError):
        build_family_drive("plus", -1.0, [1.0], [0.0])
    with pytest.raises(ValueError):
        build_family_drive("circular", 1.0, [1.0], [0.0])
    with pytest.raises(ValueError, match="at least one harmonic"):
        build_family_drive("plus", 1.0, [], [])


def test_drivespec_validates_family_structure():
    h = Harmonic(m=3, amp_x=1.0, phase_x=0.0, amp_y=1.0, phase_y=0.0)
    with pytest.raises(ValueError):
        DriveSpec(family="plus", omega=1.0, harmonics=(h,))
    with pytest.raises(ValueError, match="unknown family 'circular'"):
        DriveSpec(family="circular", omega=1.0, harmonics=(h,))
    # the plus layout of the first harmonic is phase_x = 0, equal axis
    # amplitudes and phase_y = phase_x - pi/2
    DriveSpec(family="plus", omega=1.0, harmonics=(Harmonic(1, 1.0, 0.0, 1.0, -np.pi / 2),))
    for h, message in ((Harmonic(1, 1.0, 0.3, 1.0, 0.3 - np.pi / 2), "first harmonic phase"),
                       (Harmonic(1, 1.0, 0.0, 0.5, -np.pi / 2), "equal amplitudes"),
                       (Harmonic(1, 1.0, 0.0, 1.0, np.pi / 2), "phase_y")):
        with pytest.raises(ValueError, match=message):
            DriveSpec(family="plus", omega=1.0, harmonics=(h,))
    # a harmonic refuses a non-finite amplitude and a non-integral,
    # infinite or float-overflowing multiple, and keeps an integral float
    # multiple as an int
    for args in ((1, np.inf, 0.0, 1.0, 0.0), (1.5, 1.0, 0.0, 1.0, 0.0),
                 (np.inf, 1.0, 0.0, 1.0, 0.0), (np.nan, 1.0, 0.0, 1.0, 0.0),
                 (10 ** 400, 1.0, 0.0, 1.0, 0.0)):
        with pytest.raises(ValueError, match="harmonic multiple|amplitudes and phases"):
            Harmonic(*args)
    m = Harmonic(2.0, 1.0, 0.0, 1.0, 0.0).m
    assert m == 2 and type(m) is int
    # custom accepts multiples of 3
    spec = build_custom_drive(1.0, [(3, 1.0, 0.0, 0.5, 0.2)])
    assert spec.harmonics[0].m == 3


# ---------------------------------------------------------------------------
# force evaluation

def test_force_empty_spec_is_zero():
    spec = build_custom_drive(1.0, [])
    assert np.array_equal(force_at(spec, 0.7), np.zeros(2))


def test_force_single_harmonic_at_t0():
    spec = build_custom_drive(2.0, [(1, 0.8, 0.0, 0.0, 0.0)])
    F = force_at(spec, 0.0)
    # amplitude is in units of omega along the unit e1 axis
    assert F[0] == pytest.approx(0.8 * 2.0)
    assert F[1] == pytest.approx(0.0)


def test_force_periodicity():
    rng = np.random.default_rng(3)
    spec = build_family_drive("minus", 1.7, rng.uniform(0.1, 3, 3), [0.0, 1.2, -2.0])
    t = np.linspace(0, spec.period, 257)
    F0 = force_at(spec, t)
    F1 = force_at(spec, t + spec.period)
    scale = np.abs(F0).max()
    assert np.abs(F0 - F1).max() < 1e-12 * scale


# ---------------------------------------------------------------------------
# Peierls phase

def test_chi_zero_force():
    spec = build_custom_drive(1.0, [])
    t = np.linspace(0, 10, 11)
    for k in (1, 2, 3):
        assert np.array_equal(chi(spec, GEOM, k, t), np.zeros(11))


def test_chi_rejects_bad_bond():
    spec = build_family_drive("plus", 1.0, [1.0], [0.0])
    with pytest.raises(ValueError):
        chi(spec, GEOM, 4, 0.0)


def test_chi_zero_mean():
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = build_family_drive("plus", rng.uniform(0.5, 2), rng.uniform(0.1, 3, 2),
                                  [0.0, rng.uniform(-np.pi, np.pi)])
        t = (np.arange(4096) + 0.5) / 4096 * spec.period
        for k in (1, 2, 3):
            c = chi(spec, GEOM, k, t)
            assert abs(c.mean()) < 1e-10 * np.abs(c).max()


def test_chi_matches_double_integral_oracle():
    # independent oracle: adaptive quadrature of the defining double integral
    rng = np.random.default_rng(5)
    spec = build_family_drive("plus", 1.3, rng.uniform(0.3, 2.0, 2),
                              [0.0, rng.uniform(-np.pi, np.pi)])
    T = spec.period
    k = 2
    ak = GEOM.bond(k)

    def f_dot_ak(tau):
        return force_at(spec, tau) @ ak

    def inner(t):
        val, _ = quad(f_dot_ak, 0.0, t, limit=200)
        return val

    mean, _ = quad(inner, 0.0, T, limit=200)
    mean /= T
    for t in [0.13 * T, 0.41 * T, 0.77 * T]:
        oracle = inner(t) - mean
        assert chi(spec, GEOM, k, t) == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# Fourier components

def test_zero_force_spectrum():
    spec = build_custom_drive(1.0, [])
    sp = fourier_components(spec, GEOM, 2.0, n_max=4)
    for k in (1, 2, 3):
        assert sp.component(k, 0) == pytest.approx(2.0)
        for n in (-3, -1, 1, 2):
            assert abs(sp.component(k, n)) < 1e-14


def test_bessel_oracle_single_axis():
    # drive along e1: bond 1 sees modulation index z = A * sqrt(3)/2, and
    # g^n = j0 * J_n(z) with theta = 0
    for z in [0.5, 2.0, 5.0, 10.0]:
        A = z / (np.sqrt(3) / 2)
        spec = build_custom_drive(1.0, [(1, A, 0.0, 0.0, 0.0)])
        sp = fourier_components(spec, GEOM, 1.0)
        ns = np.arange(-20, 21)
        got = np.array([sp.component(1, n) for n in ns])
        oracle = jv(ns, z)
        assert np.abs(got - oracle).max() < 1e-8


def test_bessel_zero_kills_static_component():
    z = 2.405  # first zero of J0
    A = z / (np.sqrt(3) / 2)
    spec = build_custom_drive(1.0, [(1, A, 0.0, 0.0, 0.0)])
    sp = fourier_components(spec, GEOM, 1.0)
    assert abs(sp.component(1, 0)) < 1e-3


def test_parseval_random_family_drives():
    rng = np.random.default_rng(21)
    for _ in range(20):
        N = rng.integers(1, 4)
        spec = build_family_drive(rng.choice(["plus", "minus"]), 1.0,
                                  rng.uniform(0, 4, N),
                                  np.concatenate(([0.0], rng.uniform(-np.pi, np.pi, N - 1))))
        sp = fourier_components(spec, GEOM, 1.0)
        assert sp.parseval_defect() < 1e-10


def test_reflection_rule_against_direct_quadrature():
    # components of g_{-a_k}(t) from conjugate reflection vs direct DFT of
    # j0 exp(-i chi_k(t)) on the negated bond
    spec = build_family_drive("plus", 1.0, [1.5, 0.8], [0.0, 0.9])
    sp = fourier_components(spec, GEOM, 1.0)
    M = 4096
    t = np.arange(M) / M * spec.period
    for k in (1, 2, 3):
        gneg_t = np.exp(-1j * chi(spec, GEOM, k, t))
        F = np.fft.fft(gneg_t) / M
        ns = np.arange(-sp.n_max, sp.n_max + 1)
        direct = F[ns % M]
        assert np.abs(sp.negated_bond(k) - direct).max() < 1e-10


def test_resolution_independence():
    spec = build_family_drive("minus", 1.0, [2.0, 1.1], [0.0, -0.7])
    sp1 = fourier_components(spec, GEOM, 1.0, samples=2048)
    sp2 = fourier_components(spec, GEOM, 1.0, samples=4096)
    assert np.abs(sp1.g - sp2.g).max() < 1e-12


def test_truncation_flag():
    spec = build_family_drive("plus", 1.0, [3.0], [0.0])
    with pytest.raises(SpectrumTruncationError):
        fourier_components(spec, GEOM, 1.0, n_max=1)


def test_truncation_error_refuses_nan_and_survives_huge_j0():
    from floqchern.drive import _truncation_error
    assert isinstance(_truncation_error(np.nan, 5, 1.0), SpectrumTruncationError)
    assert _truncation_error(0.0, 5, 1.0) is None
    # j0^2 overflows to inf rather than raising OverflowError
    assert _truncation_error(1.0, 5, 1e300) is None


def test_tail_limit_shared_by_both_callers(monkeypatch):
    # fourier_components and the optimizer's kernel block accept the same
    # tails: up to 1e-8 j0^2 inclusive, not the next float, and not NaN
    from floqchern import optimizer
    from floqchern.drive import (_family_bond_amplitudes, _peierls_components,
                                 _truncation_error)
    limit = 1e-8
    tails = [0.0, limit, np.nextafter(limit, 1.0), 2 * limit, np.nan]
    accepted = [True, True, False, False, False]
    assert [_truncation_error(t, 5, 1.0) is None for t in tails] == accepted
    assert [_truncation_error(t * 9.0, 5, 3.0) is None for t in tails[:2]] == [True, True]
    ms, Z = _family_bond_amplitudes("plus", 2, np.array([[0.5, 0.2, 0.3]]))
    g, _ = _peierls_components(ms, Z, 1.0, 40, 256)
    for tail, ok in zip(tails, accepted):
        monkeypatch.setattr(optimizer, "_peierls_components",
                            lambda *args, tail=tail: (g, np.array([tail])))
        _, _, error = optimizer._candidate_block("plus", ms, Z, 40, 256)
        assert (error is None) == ok
        assert ok or isinstance(error, SpectrumTruncationError)


def test_grid_key_determines_the_grid():
    from floqchern.drive import _grid_key, _grid_size
    rng = np.random.default_rng(18)
    zmax = np.concatenate((rng.uniform(0, 12, 500), np.arange(13.0)))
    bandwidth = np.concatenate((rng.uniform(0, 40, 500), np.arange(0.0, 39.0, 3.0)))
    keys = _grid_key(zmax, bandwidth)
    assert len(keys) == len(zmax)
    for mmax in (1, 2, 4):
        for z, b, (kz, kb) in zip(zmax.tolist(), bandwidth.tolist(), keys):
            assert _grid_size(mmax, kz, kb) == _grid_size(mmax, z, b)


def test_spectrum_input_validation():
    spec = build_family_drive("plus", 1.0, [1.0], [0.0])
    with pytest.raises(ValueError):
        fourier_components(spec, GEOM, 0.0)
    with pytest.raises(ValueError):
        fourier_components(spec, GEOM, 1.0, n_max=0)
    with pytest.raises(ValueError):
        fourier_components(spec, GEOM, 1.0, samples=1000)  # not a power of two
    with pytest.raises(ValueError):
        fourier_components(spec, GEOM, 1.0, samples=1 << 21)  # above MAX_SAMPLES
    with pytest.raises(ValueError, match="n_max = 200 does not fit in 256 samples"):
        fourier_components(spec, GEOM, 1.0, n_max=200, samples=256)
    sp = fourier_components(spec, GEOM, 1.0, n_max=12)
    with pytest.raises(ValueError, match="exceeds n_max = 12"):
        sp.component(1, -13)


def test_grid_cap_raises_before_allocation():
    # A = 2e4 would need 2^21 samples (96 MiB per (3, M) complex array);
    # two amplitudes of 1e308 overflow the spectral bandwidth to inf
    for amps in ([2e4], [1e308, 1e308]):
        spec = build_family_drive("plus", 1.0, amps, [0.0] * len(amps))
        tracemalloc.start()
        try:
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="Fourier samples"):
                fourier_components(spec, GEOM, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_tunneling_rate_periodicity():
    # g_k(t) = j0 exp(i chi_k) inherits the drive period
    spec = build_family_drive("plus", 2.0, [1.0, 2.0], [0.0, 0.5])
    t = np.linspace(0, spec.period, 97)
    for k in (1, 2, 3):
        g0 = np.exp(1j * chi(spec, GEOM, k, t))
        g1 = np.exp(1j * chi(spec, GEOM, k, t + spec.period))
        assert np.abs(g0 - g1).max() < 1e-12


# ---------------------------------------------------------------------------
# JSON

def test_json_roundtrip():
    spec = build_family_drive("minus", 1.5, [1.0, 0.3], [0.0, 2.2])
    data = drive_to_json(spec)
    back = drive_from_json(json.dumps(data))
    assert back == spec


def test_json_family_shorthand():
    spec = drive_from_json({"family": "plus", "omega": 2.0, "A": [1.0, 0.5],
                            "delta": [0.0, 1.0]})
    assert spec == build_family_drive("plus", 2.0, [1.0, 0.5], [0.0, 1.0])


def test_json_errors():
    with pytest.raises(ValueError, match="must be an object"):
        drive_from_json("[]")
    with pytest.raises(ValueError):
        drive_from_json({"omega": 1.0})
    with pytest.raises(ValueError):
        drive_from_json({"family": "custom", "omega": 1.0})
    with pytest.raises(ValueError):
        drive_from_json({"family": "plus", "omega": 1.0,
                         "harmonics": [{"m": 1, "ax": [1.0]}]})
