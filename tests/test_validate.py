import contextlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from floqchern import (
    PropagatorSettings,
    StepCountError,
    bloch_hamiltonian_t,
    build_custom_drive,
    build_family_drive,
    chern_number,
    compare_effective,
    default_geometry,
    derive_rates,
    floquet_chern,
    fold_quasienergy,
    fourier_components,
    model_from_rates,
    omega_ladder,
    period_propagator,
    torus_grid,
    wrap_angle,
)
from floqchern import validate
from floqchern.cli import main as cli_main
from floqchern.drive import _bond_amplitudes, _peierls_phases, _phasor
from floqchern.validate import _bond_phases, _effective_h, _propagators

GEOM = default_geometry()
K_POINT = (GEOM.G1 + GEOM.G2) / 3
ZERO = build_custom_drive(1.0, [])


def mat_norm(M):
    return np.linalg.norm(M, 2)


def expm_h(H, t):
    """exp(-i H t) for Hermitian 2x2 via eigendecomposition."""
    w, v = np.linalg.eigh(H)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


# ---------------------------------------------------------------------------
# instantaneous Hamiltonian

def test_hamiltonian_hermitian_bitwise():
    spec = build_family_drive("plus", 1.0, [1.5, 0.5], [0.0, 0.7])
    rng = np.random.default_rng(0)
    for _ in range(5):
        H = bloch_hamiltonian_t(spec, GEOM, 1.0, 0.3, rng.normal(size=2), rng.uniform(0, 6))
        assert np.array_equal(H, H.conj().T)


def test_hamiltonian_one_k_matches_its_row():
    # H(k_i, t_i) from one k and from row i of a k-array: the same bytes
    # (the times go in whole both ways, so that only k.b could differ)
    spec = build_family_drive("plus", 1.0, [1.5, 0.5], [0.0, 0.7])
    rng = np.random.default_rng(13)
    ks, ts = rng.uniform(-4, 4, size=(200, 2)), rng.uniform(0, 6, size=200)
    rows = bloch_hamiltonian_t(spec, GEOM, 1.0, 0.3, ks, ts)
    single = np.stack([bloch_hamiltonian_t(spec, GEOM, 1.0, 0.3, k, ts)[i]
                       for i, k in enumerate(ks)])
    assert single.tobytes() == rows.tobytes()


def test_hamiltonian_scalar_t_keeps_k_axis():
    # a scalar t broadcasts against the k axis like a one-element t
    spec = build_family_drive("minus", 1.3, [1.2, 0.8], [0.0, -0.4])
    ks = np.random.default_rng(15).uniform(-4, 4, size=(3, 2))
    for t in (0.0, 0.5, 2.7):
        H = bloch_hamiltonian_t(spec, GEOM, 0.7, 0.2, ks, t)
        assert H.shape == (3, 2, 2)
        assert H.tobytes() == bloch_hamiltonian_t(spec, GEOM, 0.7, 0.2, ks, [t]).tobytes()
    assert bloch_hamiltonian_t(spec, GEOM, 0.7, 0.2, ks[0], 0.5).shape == (2, 2)
    assert bloch_hamiltonian_t(spec, GEOM, 0.7, 0.2, ks[0], [0.5, 1.0]).shape == (2, 2, 2)


def test_bond_rates_match_complex_exp():
    # the in-place phasor of `drive` gives the bytes of j0 exp(i chi)
    rng = np.random.default_rng(16)
    specs = [ZERO]
    for family in ("plus", "minus"):
        for N in (1, 2, 3):
            for omega in (1.0, 1.3, 8.0):
                specs.append(build_family_drive(family, omega, rng.uniform(-4, 4, N),
                                                [0.0, *rng.uniform(-np.pi, np.pi, N - 1)]))
    for spec in specs:
        for steps in (256, 1024, 8192):
            t = (np.arange(steps) + 0.5) * (spec.period / steps)
            for j0 in (1.0, 0.02, 0.7):
                chi = _peierls_phases(*_bond_amplitudes(spec, GEOM), spec.omega, t)
                want = j0 * np.exp(1j * chi)
                assert _phasor(chi, j0).tobytes() == want.tobytes()


def test_hamiltonian_undriven_limits():
    H0 = bloch_hamiltonian_t(ZERO, GEOM, 1.0, 0.0, np.zeros(2), 0.0)
    assert abs(H0[1, 0]) == pytest.approx(3.0)
    HK = bloch_hamiltonian_t(ZERO, GEOM, 1.0, 0.0, K_POINT, 0.0)
    assert abs(HK[1, 0]) < 1e-12


def test_hamiltonian_average_matches_static_part():
    # time average over one period equals the Fourier n = 0 matrix
    spec = build_family_drive("plus", 1.0, [2.0, 1.0], [0.0, 1.1])
    sp = fourier_components(spec, GEOM, 1.0)
    g0 = sp.component(1, 0)
    rng = np.random.default_rng(1)
    M = 4096
    t = (np.arange(M) + 0.5) / M * spec.period
    for _ in range(10):
        k = rng.normal(size=2) * 2
        Ht = bloch_hamiltonian_t(spec, GEOM, 1.0, 0.2, k, t)
        avg = Ht.mean(axis=0)
        G0 = g0 * (1 + np.exp(1j * (k @ GEOM.b1)) + np.exp(-1j * (k @ GEOM.b2)))
        want = np.array([[0.2, np.conj(G0)], [G0, -0.2]])
        assert np.abs(avg - want).max() < 1e-10


# ---------------------------------------------------------------------------
# propagator

def test_settings_validation():
    with pytest.raises(ValueError):
        PropagatorSettings(steps_per_period=100)
    with pytest.raises(ValueError):
        PropagatorSettings(steps_per_period=300)


def test_propagator_zero_force_commuting_limit():
    settings = PropagatorSettings(steps_per_period=512)
    rng = np.random.default_rng(2)
    for _ in range(4):
        k = rng.normal(size=2)
        U = period_propagator(ZERO, GEOM, 0.7, 0.2, k, settings)
        H = bloch_hamiltonian_t(ZERO, GEOM, 0.7, 0.2, k, 0.0)
        assert mat_norm(U - expm_h(H, ZERO.period)) < 1e-10


def test_propagator_unitary():
    spec = build_family_drive("plus", 1.0, [2.0, 1.5], [0.0, -0.9])
    settings = PropagatorSettings(steps_per_period=1024)
    rng = np.random.default_rng(3)
    for _ in range(4):
        U = period_propagator(spec, GEOM, 0.3, 0.1, rng.normal(size=2), settings)
        assert np.abs(np.abs(np.linalg.det(U)) - 1) < 1e-10
        assert mat_norm(U.conj().T @ U - np.eye(2)) < 1e-10


def test_backward_stepping_inverts_propagator():
    # group property: stepping the same midpoints with dt -> -dt in reverse
    # order builds U^{-1}
    spec = build_family_drive("plus", 1.0, [2.0, 1.0], [0.0, 0.4])
    k = np.array([0.3, -0.8])
    steps = 512
    dt = spec.period / steps
    U = _propagators(spec, GEOM, 0.4, 0.2, [k], steps)[0]
    Uback = np.eye(2, dtype=complex)
    for n in reversed(range(steps)):
        H = bloch_hamiltonian_t(spec, GEOM, 0.4, 0.2, k, (n + 0.5) * dt)
        Uback = expm_h(H, -dt) @ Uback
    assert mat_norm(Uback @ U - np.eye(2)) < 1e-9


def test_second_order_convergence():
    # strong drive so the splitting error dominates roundoff
    spec = build_family_drive("plus", 1.0, [2.5, 1.5], [0.0, 1.3])
    k = np.array([0.7, 0.2])
    ref = _propagators(spec, GEOM, 0.4, 0.1, [k], 8192)[0]
    e256 = mat_norm(_propagators(spec, GEOM, 0.4, 0.1, [k], 256)[0] - ref)
    e512 = mat_norm(_propagators(spec, GEOM, 0.4, 0.1, [k], 512)[0] - ref)
    assert 3.0 < e256 / e512 < 5.0


def test_richardson_check():
    spec = build_family_drive("plus", 1.0, [3.0, 2.0], [0.0, 0.8])
    bad = PropagatorSettings(steps_per_period=256, richardson_check=True)
    with pytest.raises(StepCountError):
        period_propagator(spec, GEOM, 0.6, 0.0, np.array([0.5, 0.5]), bad)
    good = PropagatorSettings(steps_per_period=4096, richardson_check=True)
    period_propagator(spec, GEOM, 0.02, 0.0, np.array([0.5, 0.5]), good)


def test_period_propagator_batch_matches_single_k():
    spec = build_family_drive("plus", 1.0, [3.0, 2.0], [0.0, 0.8])
    ks = np.vstack([np.random.default_rng(5).normal(size=(3, 2)), [0.5, 0.5]])
    settings = PropagatorSettings(steps_per_period=256)
    U = period_propagator(spec, GEOM, 0.6, 0.0, ks, settings)
    assert np.array_equal(U, _propagators(spec, GEOM, 0.6, 0.0, ks, 256))
    single = np.stack([period_propagator(spec, GEOM, 0.6, 0.0, k, settings) for k in ks])
    assert np.array_equal(single, np.stack([_propagators(spec, GEOM, 0.6, 0.0, [k], 256)[0]
                                            for k in ks]))
    # one k rounds k.b as the rows of a 4-row call do: the same bytes
    assert [u.tobytes() for u in single] == [u.tobytes() for u in U]
    # the k that fails test_richardson_check fails the batch that holds it
    with pytest.raises(StepCountError):
        period_propagator(spec, GEOM, 0.6, 0.0, ks,
                          PropagatorSettings(steps_per_period=256, richardson_check=True))


def test_richardson_check_refuses_nan(monkeypatch):
    U = np.full((1, 2, 2), np.nan + 0j)
    monkeypatch.setattr("floqchern.validate._propagators", lambda *args: U)
    with pytest.raises(StepCountError):
        period_propagator(ZERO, GEOM, 1.0, 0.0, np.zeros((1, 2)),
                          PropagatorSettings(steps_per_period=256, richardson_check=True))


def test_ladder_of_an_exact_model_is_undefined():
    # no drive: the effective model is exact, and its deviations are
    # rounding or exactly 0; no log or division of a 0 runs (warnings
    # are errors here)
    lad = omega_ladder(ZERO, GEOM, 0.05, 0.0, 2, PropagatorSettings(steps_per_period=256))
    zero = lad.deviations == 0
    assert zero.any()
    assert np.isnan(lad.exponent)
    assert np.array_equal(np.isnan(lad.shrink_factors), zero[1:])


def test_step_blocks_match_one_block(monkeypatch):
    # 7 k-points in one block of all 256 steps, then in blocks of 128 steps
    # (1,000 samples)
    spec = build_family_drive("plus", 1.0, [2.0, 1.0], [0.0, 0.4])
    ks = np.random.default_rng(6).normal(size=(7, 2))
    whole = _propagators(spec, GEOM, 0.4, 0.2, ks, 256)
    monkeypatch.setattr("floqchern.validate.STEP_BLOCK_SAMPLES", 1000)
    assert np.array_equal(_propagators(spec, GEOM, 0.4, 0.2, ks, 256), whole)


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_step_block_size_moves_no_bit(delta, monkeypatch):
    # the 24^2 grid in blocks of 4, 8 and 32 steps (2^10, 2^13 and 2^15
    # samples): the same bytes, at delta = 0 and away from it
    spec = build_family_drive("plus", 1.0, [2.0, 1.0], [0.0, 0.4])
    ks = torus_grid(GEOM, 24, 24)
    runs = []
    for samples in (1 << 10, 1 << 13, 1 << 15):
        monkeypatch.setattr(validate, "STEP_BLOCK_SAMPLES", samples)
        runs.append(_propagators(spec, GEOM, 0.02, delta, ks, 256).tobytes())
    assert runs[0] == runs[1] == runs[2]


def test_propagator_memory_does_not_grow_with_steps():
    # 12^2 k-points x 2,048 steps: whole (Nk, steps) arrays would take ~30 MiB
    spec = build_family_drive("plus", 1.0, [2.0, 1.0], [0.0, 0.4])
    ks = torus_grid(GEOM, 12, 12)
    tracemalloc.start()
    try:
        _propagators(spec, GEOM, 0.02, 0.0, ks, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("harmonics, kgrid, steps, block",
                         [(50, 1, 2048, 512), (2, 24, 2048, 32), (2, 96, 256, 4)])
def test_propagator_evaluates_rates_in_step_blocks(harmonics, kgrid, steps, block, monkeypatch):
    # the bond rates come a power-of-two block of steps at a time, of at
    # most STEP_BLOCK_SAMPLES k-point steps or harmonic terms (4 steps at
    # least), not for the whole period at once
    spec = build_family_drive("plus", 1.0, [0.01] * harmonics, [0.0] * harmonics)
    times = []
    built = []

    def recorded(ms, Z, omega, t):
        times.append(len(t))
        return _peierls_phases(ms, Z, omega, t)

    def counted(spec, geom):
        built.append(spec)
        return _bond_amplitudes(spec, geom)
    monkeypatch.setattr(validate, "_peierls_phases", recorded)
    monkeypatch.setattr(validate, "_bond_amplitudes", counted)
    _propagators(spec, GEOM, 0.02, 0.0, torus_grid(GEOM, kgrid, kgrid), steps)
    assert max(times) == block and sum(times) == steps
    # the bond amplitudes are built once per propagation, not per block
    assert built == [spec]


def _fresh_block_propagators(spec, geom, j0, delta, ks, steps):
    """`_propagators` as it was written with fresh arrays for every block
    and four k-vector products per step: the oracle of the in-place
    version."""
    ks = np.atleast_2d(np.asarray(ks, dtype=float))
    dt = spec.period / steps
    ph1, ph2 = _bond_phases(ks, geom)
    ms, Z = _bond_amplitudes(spec, geom)
    u11 = np.ones(len(ks), dtype=complex)
    u12 = np.zeros(len(ks), dtype=complex)
    u21 = np.zeros(len(ks), dtype=complex)
    u22 = np.ones(len(ks), dtype=complex)
    fits = max(1, validate.STEP_BLOCK_SAMPLES // max(len(ks), len(spec.harmonics)))
    block = min(steps, max(4, 1 << (fits.bit_length() - 1)))
    for n0 in range(0, steps, block):
        chi = _peierls_phases(ms, Z, spec.omega, (np.arange(n0, n0 + block) + 0.5) * dt)
        g = _phasor(chi, j0)[:, :, None]
        G = g[2] + g[1] * ph1 + g[0] * ph2
        h1 = G.real
        h2 = G.imag
        E = np.sqrt(h1 ** 2 + h2 ** 2 + delta ** 2)
        c = np.cos(E * dt)
        s = np.where(E > 0, np.sin(E * dt) / np.where(E > 0, E, 1.0), dt)
        m11 = c - 1j * s * delta
        m12 = -1j * s * (h1 - 1j * h2)
        m21 = -1j * s * (h1 + 1j * h2)
        m22 = c + 1j * s * delta
        for a11, a12, a21, a22 in zip(m11, m12, m21, m22):
            u11, u12, u21, u22 = (a11 * u11 + a12 * u21, a11 * u12 + a12 * u22,
                                  a21 * u11 + a22 * u21, a21 * u12 + a22 * u22)
    U = np.empty((len(ks), 2, 2), dtype=complex)
    U[:, 0, 0], U[:, 0, 1] = u11, u12
    U[:, 1, 0], U[:, 1, 1] = u21, u22
    return U


@pytest.mark.parametrize("delta", [0.0, 1e-3, -1e-3])
@pytest.mark.parametrize("family", ["plus", "minus", "zero"])
def test_in_place_step_blocks_move_no_bit(family, delta):
    # both families and the zero drive, k-grids of 1, 3^2 and 12^2 points,
    # 256 and 2,048 steps, a weak and a strong j0/omega
    spec = ZERO if family == "zero" else build_family_drive(family, 1.0, [2.0, 1.0], [0.0, 0.4])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for kgrid in (1, 3, 12):
            ks = torus_grid(GEOM, kgrid, kgrid)
            for steps in (256, 2048):
                for j0 in (0.02, 0.4):
                    U = _propagators(spec, GEOM, j0, delta, ks, steps)
                    oracle = _fresh_block_propagators(spec, GEOM, j0, delta, ks, steps)
                    assert U.tobytes() == oracle.tobytes(), (kgrid, steps, j0)


@contextlib.contextmanager
def _ladder_rungs(monkeypatch, threads):
    """FCF_THREADS = threads and a short GIL switch interval for the body,
    which gets the set of threads that ran a rung (`compare_effective`);
    no thread may outlive the body.  With more than one thread the first
    rung to start waits (at most 30 s) until a second one has, so that one
    thread cannot take every rung, whatever the scheduling."""
    ran = set()
    compare = validate.compare_effective
    second = threading.Event()

    def recorded(*args):
        ran.add(threading.get_ident())
        if len(ran) > 1:
            second.set()
        elif threads > 1:
            second.wait(30)
        return compare(*args)
    monkeypatch.setattr(validate, "compare_effective", recorded)
    monkeypatch.setenv("FCF_THREADS", str(threads))
    interval = sys.getswitchinterval()
    alive = threading.active_count()
    sys.setswitchinterval(1e-6)
    try:
        yield ran
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == alive
    if threads == 1:
        assert ran == {threading.get_ident()}
    else:
        assert len(ran) > 1


def _ladder_bytes(lad):
    rep = lad.report
    return ([lad.omegas.tobytes(), lad.deviations.tobytes(), lad.shrink_factors.tobytes(),
             np.float64(lad.exponent).tobytes()]
            + [getattr(rep, f).tobytes() for f in
               ("ks", "eps_exact", "eps_eff", "deviation", "pairing_flag")]
            + [rep.max_abs_deviation, rep.mean_abs_deviation, rep.unitarity_defect, rep.omega])


def test_ladder_threads_move_no_bit(monkeypatch):
    spec = build_family_drive("plus", 1.0, [1.95483, 0.0], [0.0, 0.0])
    settings = PropagatorSettings(steps_per_period=512)
    runs = []
    for threads in (1, 2):
        with _ladder_rungs(monkeypatch, threads):
            runs.append(_ladder_bytes(omega_ladder(spec, GEOM, 0.02, 0.001, 6, settings)))
    assert runs[0] == runs[1]


def test_cli_ladder_threads_move_no_bit(monkeypatch, tmp_path, capsys):
    drive = '{"family":"plus","omega":1.0,"A":[1.95483,0.0],"delta":[0.0,0.0]}'
    outputs = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        with _ladder_rungs(monkeypatch, threads):
            assert cli_main(["validate", "--drive", drive, "--j0-over-omega", "0.02",
                             "--kgrid", "6", "--steps", "512", "--ladder",
                             "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, (out / "validate.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("threads", [1, 2])
def test_ladder_raises_the_first_failing_rung(threads, monkeypatch):
    # rungs 2 and 4 fail; on two threads rung 2 fails only after rung 4
    # has, and the ladder still raises rung 2's error, as the loop would
    fourth = threading.Event()

    def failing(spec, *args):
        rung = round(spec.omega)
        if rung == 2:
            if threads > 1:
                assert fourth.wait(30)
            raise ArithmeticError("rung 2")
        if rung == 4:
            fourth.set()
            raise ArithmeticError("rung 4")
        return None
    monkeypatch.setattr(validate, "compare_effective", failing)
    monkeypatch.setenv("FCF_THREADS", str(threads))
    alive = threading.active_count()
    with pytest.raises(ArithmeticError, match="rung 2"):
        omega_ladder(ZERO, GEOM, 0.05, 0.0, 2, PropagatorSettings(steps_per_period=256),
                     factors=(1.0, 2.0, 3.0, 4.0))
    assert threading.active_count() == alive
    assert fourth.is_set() == (threads > 1)


def test_fold_quasienergy_window():
    w = 2.0
    assert fold_quasienergy(1.0, w) == pytest.approx(1.0)
    assert fold_quasienergy(-1.0, w) == pytest.approx(1.0)   # maps to +w/2
    assert fold_quasienergy(1.2, w) == pytest.approx(-0.8)
    assert fold_quasienergy(0.0, w) == pytest.approx(0.0)


def test_wrap_angle_is_the_quasienergy_fold_at_two_pi():
    x = np.concatenate((np.random.default_rng(17).uniform(-50, 50, 10000),
                        [np.pi, -np.pi, 0.0, -0.0, 2 * np.pi, -2 * np.pi, 3 * np.pi,
                         np.nextafter(np.pi, 4), np.nextafter(-np.pi, -4), 1e-300, 1e300, -1e300]))
    assert wrap_angle(x).tobytes() == fold_quasienergy(x, 2 * np.pi).tobytes()
    for v in (np.pi, -np.pi, -0.0, 1e300):
        assert np.asarray(wrap_angle(v)).tobytes() == np.asarray(
            fold_quasienergy(v, 2 * np.pi)).tobytes()


# ---------------------------------------------------------------------------
# exact vs effective

def test_zero_force_effective_is_exact():
    settings = PropagatorSettings(steps_per_period=512)
    rep = compare_effective(ZERO, GEOM, 0.05, 0.01, 6, settings)
    assert rep.max_abs_deviation < 1e-10
    assert rep.unitarity_defect < 1e-10


def test_effective_h_one_k_matches_its_row():
    rates = derive_rates(fourier_components(
        build_family_drive("plus", 1.0, [1.5, 0.5], [0.0, 0.7]), GEOM, 0.05))
    ks = np.random.default_rng(14).uniform(-4, 4, size=(200, 2))
    rows = _effective_h(rates, 0.01, GEOM, ks)
    single = np.concatenate([_effective_h(rates, 0.01, GEOM, ks[i:i + 1]) for i in range(200)])
    assert single.tobytes() == rows.tobytes()


def test_compare_refuses_anisotropic_drive_before_propagating(monkeypatch):
    def no_propagation(*args, **kwargs):
        raise AssertionError("an anisotropic drive was propagated")
    monkeypatch.setattr(validate, "_propagators", no_propagation)
    single_axis = build_custom_drive(1.0, [(1, 1.5, 0.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="isotropic"):
        compare_effective(single_axis, GEOM, 0.02, 0.0, 4, PropagatorSettings(256))


def test_compare_rejects_empty_kgrid():
    settings = PropagatorSettings(steps_per_period=256)
    for kgrid in (0, -3):
        with pytest.raises(ValueError, match="k-grid"):
            compare_effective(ZERO, GEOM, 0.05, 0.01, kgrid, settings)


def test_circular_drive_quasienergy_deviation():
    spec = build_family_drive("plus", 1.0, [1.5], [0.0])
    j0 = 0.02
    settings = PropagatorSettings(steps_per_period=2048)
    rep = compare_effective(spec, GEOM, j0, 0.0, 12, settings)
    assert rep.max_abs_deviation <= 5e-3 * j0
    assert rep.unitarity_defect < 1e-10
    assert not rep.pairing_flag.any()


def test_deviation_scaling_one_doubling():
    spec = build_family_drive("plus", 1.0, [2.302, 1.09], [0.0, -2.884])
    settings = PropagatorSettings(steps_per_period=2048)
    lad = omega_ladder(spec, GEOM, 0.02, 0.0, 6, settings, factors=(1.0, 2.0))
    assert 2.8 <= lad.shrink_factors[0] <= 5.2


def test_gauge_robustness():
    # conjugating the exact propagator by the sublattice gauge leaves the
    # quasienergy comparison untouched
    spec = build_family_drive("plus", 1.0, [2.0, 1.0], [0.0, 0.9])
    j0 = 0.02
    rates = derive_rates(fourier_components(spec, GEOM, j0))
    ks = torus_grid(GEOM, 4, 4)
    U = _propagators(spec, GEOM, j0, 0.0, ks, 1024)
    V = np.diag([1.0, np.exp(1j * rates.gauge_phase)])
    T = spec.period
    for i in range(len(ks)):
        e1 = np.sort(fold_quasienergy(-np.angle(np.linalg.eigvals(U[i])) / T, 1.0))
        Ug = V @ U[i] @ V.conj().T
        e2 = np.sort(fold_quasienergy(-np.angle(np.linalg.eigvals(Ug)) / T, 1.0))
        assert np.abs(e1 - e2).max() < 1e-12


def test_stroboscopic_growth_bounded():
    spec = build_family_drive("plus", 1.0, [1.8], [0.0])
    j0 = 0.02
    rates = derive_rates(fourier_components(spec, GEOM, j0))
    settings = PropagatorSettings(steps_per_period=1024)
    rng = np.random.default_rng(4)
    from floqchern.validate import _effective_h
    for _ in range(3):
        k = rng.normal(size=2)
        U = period_propagator(spec, GEOM, j0, 0.0, k, settings)
        He = _effective_h(rates, 0.0, GEOM, np.array([k]))[0]
        V = np.diag([1.0, np.exp(1j * rates.gauge_phase)])
        E = V @ expm_h(He, spec.period) @ V.conj().T
        base = mat_norm(U - E)
        Um, Em = np.eye(2), np.eye(2)
        for m in range(1, 51):
            Um = Um @ U
            Em = Em @ E
            assert mat_norm(Um - Em) <= 1.5 * m * base + 1e-12


# ---------------------------------------------------------------------------
# exact-band Chern

def test_floquet_chern_zero_force_trivial():
    settings = PropagatorSettings(steps_per_period=512)
    assert floquet_chern(ZERO, GEOM, 0.05, 0.02, 12, settings) == 0


def test_floquet_chern_grid_validation():
    # the plaquette rule needs the 12^2 grid chern_number requires; a 1^2
    # grid would report C = 0 for this C = +1 drive
    spec = build_family_drive("plus", 1.0, [1.2], [0.0])
    for grid in (1, 4, 11):
        with pytest.raises(ValueError, match="12"):
            floquet_chern(spec, GEOM, 0.05, 0.0, grid, PropagatorSettings(steps_per_period=256))


def test_floquet_chern_matches_effective_and_flips():
    j0 = 0.05
    settings = PropagatorSettings(steps_per_period=1024)
    for family, sign in (("plus", +1), ("minus", -1)):
        spec = build_family_drive(family, 1.0, [1.2], [0.0])
        rates = derive_rates(fourier_components(spec, GEOM, j0))
        model = model_from_rates(rates, 0.0, geom=GEOM)
        c_eff = chern_number(model, 24, 24)
        c_exact = floquet_chern(spec, GEOM, j0, 0.0, 12, settings)
        assert c_exact == c_eff == sign
