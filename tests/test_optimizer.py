import collections
import contextlib
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import jv

from floqchern import (
    OptimizationProblem,
    build_family_drive,
    default_geometry,
    derive_rates,
    evaluate_candidate,
    family_harmonic_integer,
    fourier_components,
    maximize,
    phase_map,
    random_search_best,
    sweep_targets,
    wrap_angle,
)
from floqchern.cli import main as cli_main
from floqchern import optimizer
from floqchern.drive import SpectrumTruncationError, _grid_size, _quadrature_sizes
from floqchern.optimizer import _candidate_batch, _family_bond_amplitudes, sobol_starts


def _one(family, N, p):
    """(R, j1/j0, phi, phi_defined) of one parameter vector as Python
    scalars: a one-row `_candidate_batch`."""
    return tuple(v.item() for v in _candidate_batch(family, N, [p], 1))


def test_wrap_angle_window():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# candidate evaluation

def test_candidate_zero_amplitudes():
    R, j1, phi = evaluate_candidate("plus", 2, np.zeros(3))
    assert R == 0
    assert j1 == pytest.approx(1.0)
    assert np.isnan(phi)


def test_candidate_circular_phase_is_exactly_half_pi():
    R, j1, phi = evaluate_candidate("plus", 1, [1.0])
    assert phi == pytest.approx(np.pi / 2, abs=1e-12)
    R, j1, phi = evaluate_candidate("minus", 1, [1.0])
    assert phi == pytest.approx(-np.pi / 2, abs=1e-12)


def _chain(family, N, p):
    """`derive_rates` of parameter vector p through the three-bond chain
    build_family_drive -> fourier_components -> derive_rates."""
    deltas = np.concatenate(([0.0], wrap_angle(p[N:])))
    spec = build_family_drive(family, 1.0, p[:N], deltas)
    return derive_rates(fourier_components(spec, default_geometry(), 1.0))


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_candidate_rates_match_reference_chain(family, N):
    # the candidate kernel skips the DriveSpec and reads bond 1's power
    # spectrum only, so it meets the three-bond chain within a tolerance:
    # on these drives R differs by at most 4.0e-15 relative, phi by
    # 6.7e-15 and j1 by 2.2e-16; the bounds are about twice that.
    # phi_defined must agree exactly
    rng = np.random.default_rng(100 + N)
    for _ in range(40):
        p = np.concatenate((rng.uniform(0.0, 5.0, N), rng.uniform(-4.0, 4.0, N - 1)))
        r = _chain(family, N, p)
        R, j1, phi, defined = _one(family, N, p)
        assert defined == r.phi_defined
        assert abs(R - r.j2 / r.j1) <= 1e-14 * (r.j2 / r.j1)
        assert abs(wrap_angle(phi - r.phi)) <= 1e-14
        assert abs(j1 - r.j1) <= 5e-16


def _family_vectors():
    """(family, N, p) with N = 1-4, amplitudes in [0, 7] (grids M = 256,
    512 and 1024) and phases in [-pi, pi]."""
    def vector(N):
        return st.tuples(st.lists(st.floats(0.0, 7.0), min_size=N, max_size=N),
                         st.lists(st.floats(-np.pi, np.pi), min_size=N - 1, max_size=N - 1))
    return st.tuples(st.sampled_from(["plus", "minus"]), st.integers(1, 4)).flatmap(
        lambda fN: st.tuples(st.just(fN[0]), st.just(fN[1]),
                             vector(fN[1]).map(lambda v: np.array(v[0] + v[1]))))


def _at_grid_edges(test):
    """`test` with the examples of both families at the largest amplitudes
    of the 256- and 512-point grids and at the next floats: N = 1 changes
    grid at zmax = A_1 = 3 and 7, N = 2 at 2 and 6."""
    edges = [(1, [3.0]), (1, [np.nextafter(3.0, 4.0)]), (1, [7.0]),
             (2, [2.0, 0.0, 0.5]), (2, [np.nextafter(2.0, 3.0), 0.0, -1.0]),
             (2, [6.0, 0.0, 2.0]), (2, [np.nextafter(6.0, 7.0), 0.0, -3.0])]
    for family in ("plus", "minus"):
        for N, p in edges:
            test = example((family, N, np.array(p)))(test)
    return test


@_at_grid_edges
@settings(max_examples=80, deadline=None)
@given(_family_vectors())
@example(("plus", 1, np.zeros(1)))
def test_candidate_rates_meet_reference_chain_anywhere(case):
    # the tolerance pin over both families, N = 1-4 and amplitudes across
    # the grid edges.  Compared as tau1 = R j1 e^{i phi}, not R and phi,
    # which are ill-conditioned where j1 or j2 is small; over 2,400 such
    # drives tau1 differed by at most 3.3e-16 and j1 by 2.2e-16
    family, N, p = case
    r = _chain(family, N, p)
    R, j1, phi, defined = _one(family, N, p)
    assert defined == r.phi_defined
    assert abs(j1 - r.j1) <= 5e-16
    if defined:
        assert abs(R * j1 * np.exp(1j * phi) - r.tau[0]) <= 1e-15


@settings(max_examples=80, deadline=None)
@given(_family_vectors())
def test_family_bonds_are_third_period_shifts(case):
    # the candidate kernel's premise: no harmonic integer is a multiple of
    # 3, and bond k + 1's amplitudes are bond k's turned by
    # e^{2 pi i s m_h / 3} (s = +1 plus, -1 minus), within rounding: at
    # most 6 eps (1 + sum A) over 40,000 drives
    family, N, p = case
    ms, Z = _family_bond_amplitudes(family, N, p)
    assert [int(m) for m in ms] == [family_harmonic_integer(n) for n in range(1, N + 1)]
    assert all(m % 3 for m in ms)
    s = 1 if family == "plus" else -1
    turned = Z * np.exp(2j * np.pi * s * ms / 3)
    bound = 16 * np.finfo(float).eps * (1.0 + p[:N].sum())
    assert np.abs(np.roll(Z, -1, axis=0) - turned).max() <= bound


def test_candidate_ratio_invariant_under_j0():
    # R is j2/j1 * omega/j0; doubling j0 at fixed omega must not move it
    geom = default_geometry()
    spec = build_family_drive("plus", 1.0, [1.3, 0.7], [0.0, 0.8])
    r1 = derive_rates(fourier_components(spec, geom, 1.0))
    r2 = derive_rates(fourier_components(spec, geom, 2.0))
    R1 = (r1.j2 / r1.j1) * (1.0 / r1.j0)
    R2 = (r2.j2 / r2.j1) * (1.0 / r2.j0)
    assert R1 == pytest.approx(R2, rel=1e-12)


def test_problem_validation():
    with pytest.raises(ValueError):
        OptimizationProblem(phi_target=0.0, r_threshold=1.5)
    with pytest.raises(ValueError):
        OptimizationProblem(phi_target=0.0, r_threshold=0.5, N=0)
    with pytest.raises(ValueError):
        OptimizationProblem(phi_target=0.0, r_threshold=0.5, family="custom")
    with pytest.raises(ValueError, match="n_starts"):
        OptimizationProblem(phi_target=0.0, r_threshold=0.5, n_starts=0)
    # a zero box fixes every amplitude, a negative one is empty
    for bound in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="amp_bound"):
            OptimizationProblem(phi_target=0.0, r_threshold=0.5, amp_bound=bound)
    # refused in the library too, not only by the CLI
    with pytest.raises(ValueError, match="phi_target must be a finite angle"):
        OptimizationProblem(phi_target=np.nan, r_threshold=0.5)
    with pytest.raises(ValueError, match="target lists must be nonempty"):
        sweep_targets([], [0.25], OptimizationProblem(phi_target=0.0, r_threshold=0.5))


def test_sobol_starts_deterministic_and_in_box():
    prob = OptimizationProblem(phi_target=0.0, r_threshold=0.25, N=3, n_starts=16, seed=9)
    s1 = sobol_starts(prob)
    s2 = sobol_starts(prob)
    assert np.array_equal(s1, s2)
    assert s1.shape == (16, 5)
    assert (s1[:, :3] >= 0).all() and (s1[:, :3] <= prob.amp_bound).all()
    assert (np.abs(s1[:, 3:]) <= np.pi).all()


def _scipy_sobol(d, n, seed):
    """scipy's scrambled Sobol points, the reference of `_sobol_points`."""
    import warnings

    from scipy.stats import qmc
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "The balance properties", UserWarning)
        return qmc.Sobol(d=d, scramble=True, seed=seed).random(n)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**63])
def test_sobol_points_are_scipys_bytes(seed):
    for d in range(1, 2 * optimizer.MAX_HARMONICS):
        for n in (1, 2, 3, 4, 5, 16, 64, 1000):
            ref = _scipy_sobol(d, n, seed)
            got = optimizer._sobol_points(d, n, seed)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (d, n, seed)
            if d % 2:
                prob = OptimizationProblem(phi_target=0.0, r_threshold=0.25, N=(d + 1) // 2,
                                           amp_bound=3.5, n_starts=n, seed=seed)
                lo, hi = optimizer._search_box(prob)
                assert sobol_starts(prob).tobytes() == (lo + ref * (hi - lo)).tobytes()


def test_sobol_table_is_scipys():
    import os

    import scipy.stats
    table = np.load(os.path.join(os.path.dirname(scipy.stats.__file__),
                                 "_sobol_direction_numbers.npz"))
    rows = 2 * optimizer.MAX_HARMONICS - 1
    assert len(optimizer._SOBOL_TABLE) == rows
    assert [poly for poly, _ in optimizer._SOBOL_TABLE] == table["poly"][:rows].tolist()
    width = table["vinit"].shape[1]
    assert ([list(m) + [0] * (width - len(m)) for _, m in optimizer._SOBOL_TABLE]
            == table["vinit"][:rows].tolist())


def test_problem_refuses_seed_harmonics_and_starts_by_name(monkeypatch):
    # each is refused when the problem is made, before any start is drawn
    def no_draw(*args):
        raise AssertionError("a start array was drawn")
    monkeypatch.setattr(optimizer, "_sobol_points", no_draw)
    base = dict(phi_target=0.0, r_threshold=0.5)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        OptimizationProblem(**base, seed=-1)
    with pytest.raises(ValueError, match=f"N must be at most {optimizer.MAX_HARMONICS}, got 17"):
        OptimizationProblem(**base, N=optimizer.MAX_HARMONICS + 1)
    with pytest.raises(ValueError, match=r"n_starts must be at most 2\*\*30"):
        OptimizationProblem(**base, n_starts=2**30 + 1)
    # the limits themselves are allowed
    OptimizationProblem(**base, seed=0, N=optimizer.MAX_HARMONICS, n_starts=2**30)


def test_one_draw_per_start_set(monkeypatch):
    # the sweep's ten plus-family problems (5 angles x 2 floors) draw their
    # start sets once each, in task order; each gets the same starts, in
    # the same order, as its own `sobol_starts`
    template = OptimizationProblem(phi_target=0.0, r_threshold=0.25, n_starts=4, seed=42)
    draws, tasks = [], []
    draw = optimizer._sobol_points

    def counted(*key):
        draws.append(key)
        return draw(*key)

    def run_starts(starts):
        tasks.extend(starts)
        return [optimizer._judged(problem, {"p": x0, "R": 0.0, "j1": 1.0, "phi": 0.0,
                                            "defined": True, "converged": True, "n_eval": 0,
                                            "n_iter": 0, "status": 0})
                for problem, x0 in starts]

    monkeypatch.setattr(optimizer, "_sobol_points", counted)
    monkeypatch.setattr(optimizer, "_run_starts", run_starts)
    targets = list(np.linspace(-np.pi, np.pi, 9)[1:])
    sweep_targets(targets, [0.25, 0.5], template, workers=1)
    assert draws == [(3, 4, 42)] * 10
    problems = list(dict.fromkeys(problem for problem, _ in tasks))
    assert len(problems) == 10 and len(tasks) == 40
    expected = np.concatenate([sobol_starts(problem) for problem in problems])
    assert np.array([x0 for _, x0 in tasks]).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# maximization (small start counts here; full-size runs live in acceptance)

@pytest.fixture(scope="module")
def small_max():
    prob = OptimizationProblem(phi_target=np.pi / 2, r_threshold=0.25,
                               n_starts=12, seed=42)
    return prob, maximize(prob, workers=1)


def test_maximize_finds_monochromatic_optimum(small_max):
    prob, res = small_max
    assert res.feasible
    assert abs(res.p_star[1]) <= 0.05      # A2 collapses
    assert res.R_value > 1.5
    assert res.j1_over_j0 >= 0.25 - optimizer.FEAS_TOL


def test_maximize_deterministic(small_max):
    prob, res = small_max
    again = maximize(prob, workers=1)
    assert np.array_equal(res.p_star, again.p_star)
    assert res.R_value == again.R_value
    assert res.starts_converged == again.starts_converged


def test_feasibility_soundness(small_max):
    prob, res = small_max
    R, j1, phi = evaluate_candidate(prob.family, prob.N, res.p_star)
    assert R == pytest.approx(res.R_value, rel=1e-12)
    assert abs(wrap_angle(phi - prob.phi_target)) <= optimizer.PHI_TOL
    assert j1 >= prob.r_threshold - optimizer.FEAS_TOL


def test_maximize_parallel_matches_serial(small_max):
    prob, res = small_max
    par = maximize(prob, workers=2)
    assert np.array_equal(res.p_star, par.p_star)


def test_multistart_beats_cheap_random_search(small_max):
    prob, res = small_max
    assert res.R_value >= random_search_best(prob, 500, seed=3)


def test_maximize_reaches_monochromatic_optimum():
    # at phi = pi/2 the N = 2 optimum is the N = 1 one (A2 = 0): the bounded
    # 1-D maximum of R(A) under J0(A) >= r_th, edge included
    r_th = 0.25
    edge = brentq(lambda A: jv(0, A) - r_th, 0.0, 2.4048, xtol=1e-15)
    R_of = lambda A: evaluate_candidate("plus", 1, [A])[0]
    inner = minimize_scalar(lambda A: -R_of(A), bounds=(0.0, edge), method="bounded")
    R_opt = max(-inner.fun, R_of(edge))
    prob = OptimizationProblem(phi_target=np.pi / 2, r_threshold=r_th, N=2,
                               n_starts=4, seed=42)
    res = maximize(prob, workers=1)
    assert res.feasible
    assert abs(res.R_value - R_opt) <= 1e-9


def test_start_records_count_work(small_max):
    prob, res = small_max
    for r in res.best_per_start:
        assert r["n_eval"] > r["n_iter"] >= 1
        assert r["converged"] == (r["status"] == 0)
    mirror = OptimizationProblem(phi_target=-np.pi / 2, r_threshold=0.25, family="minus")
    images = [optimizer._image_record(r, mirror, True, False) for r in res.best_per_start]
    assert ([(r["n_eval"], r["n_iter"], r["status"]) for r in images]
            == [(r["n_eval"], r["n_iter"], r["status"]) for r in res.best_per_start])


def test_family_mirror_pointwise():
    # conjugation oracle: the minus family at (A, -delta) realizes the
    # mirrored effective rates of the plus family at (A, +delta)
    rng = np.random.default_rng(8)
    for _ in range(8):
        p = np.concatenate((rng.uniform(0.1, 4, 2), rng.uniform(-np.pi, np.pi, 1)))
        pm = p.copy()
        pm[2] = -pm[2]
        Rp, j1p, php = evaluate_candidate("plus", 2, p)
        Rm, j1m, phm = evaluate_candidate("minus", 2, pm)
        assert Rm == pytest.approx(Rp, abs=1e-12)
        assert j1m == pytest.approx(j1p, abs=1e-12)
        assert phm == pytest.approx(-php, abs=1e-10)


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("N", [2, 3])
def test_even_harmonic_negation_pointwise(family, N):
    # negating every even-m harmonic maps phi -> pi - phi at fixed R and
    # j1/j0; for N <= 3 (m = 1, 2, 4) that is delta_n -> delta_n + pi on
    # every free phase
    rng = np.random.default_rng(30 + N)
    for _ in range(8):
        p = np.concatenate((rng.uniform(0.1, 4, N), rng.uniform(-np.pi, np.pi, N - 1)))
        q = p.copy()
        q[N:] += np.pi
        R, j1, phi = evaluate_candidate(family, N, p)
        Rq, j1q, phiq = evaluate_candidate(family, N, q)
        assert Rq == pytest.approx(R, abs=1e-12)
        assert j1q == pytest.approx(j1, abs=1e-12)
        assert abs(wrap_angle(phiq - (np.pi - phi))) <= 1e-10


def test_family_mirror_optimized(small_max):
    prob, res = small_max
    mirror = OptimizationProblem(phi_target=-np.pi / 2, r_threshold=0.25,
                                 family="minus", n_starts=12, seed=42)
    res_m = maximize(mirror, workers=1)
    assert res_m.feasible
    assert abs(res_m.R_value - res.R_value) < 1e-6


def test_sweep_takes_optimum_over_both_families(tmp_path, capsys):
    targets = [-np.pi / 2, -np.pi / 4, np.pi / 4, np.pi / 2, 0.0, np.pi]
    assert cli_main(["sweep", "--phi-list=" + ",".join(repr(t) for t in targets),
                     "--r-th", "0.25", "--starts", "8", "--seed", "42",
                     "--out", str(tmp_path / "sweep")]) == 0
    assert cli_main(["optimize", "--phi-target", repr(np.pi / 2), "--r-th", "0.25",
                     "--starts", "4", "--seed", "42", "--out", str(tmp_path / "opt")]) == 0
    capsys.readouterr()
    head_opt = (tmp_path / "opt" / "optimize.csv").read_text().split("\n")[0].split(",")
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    for head in (header, head_opt):
        assert head[head.index("im_R_exp_iphi") + 1] == "family"
        assert head[head.index("family") + 1] == "A1"
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    R = {float(r["phi_target"]): float(r["R"]) for r in rows}
    for t in (np.pi / 4, np.pi / 2):
        assert abs(R[-t] - R[t]) <= 1e-10
    # 0 and pi are images under phi -> pi - phi of one maximization, and at
    # both the two families tie exactly, which the plus family wins
    assert R[np.pi] == R[0.0]
    assert [r["family"] for r in rows[4:]] == ["plus", "plus"]
    for r in rows:
        assert r["feasible"] == "1"
        assert r["family"] == ("minus" if float(r["phi_target"]) < 0 else "plus")
        assert max(abs(float(r["A1"])), abs(float(r["A2"]))) < 3.5
    # the family change between -pi/4 and pi/4 is a parameter discontinuity
    assert rows[2]["p_jump_from_prev"] == "1"


def _reference_classes(targets):
    """(angles, sources) by the class rule written out as plain scans:
    the candidates in order, each joining the first representative within
    SAME_ANGLE, and each target's plus (b = t) and minus (b = -t) source
    the first representative that b or pi - b lies within SAME_ANGLE of."""
    needed = targets + [-t for t in targets]

    def folded(a):
        a = float(wrap_angle(a))
        return a if abs(a) <= np.pi / 2 else float(wrap_angle(np.pi - a))
    angles = []
    for a in [t for t in needed if abs(t) <= np.pi / 2] + [folded(t) for t in needed]:
        if not any(abs(wrap_angle(a - b)) <= optimizer.SAME_ANGLE for b in angles):
            angles.append(a)

    def source(b):
        for j, a in enumerate(angles):
            for negate_even, image in ((False, b), (True, np.pi - b)):
                if abs(wrap_angle(image - a)) <= optimizer.SAME_ANGLE:
                    return j, negate_even
    return angles, [(source(t), source(-t)) for t in targets]


def test_sweep_classes_match_the_plain_scan():
    # seeded random targets with near-duplicates of every kind the
    # symmetries make, kept 1e-9 away from +-pi/2, where the two rules may
    # pick different images of one class
    for seed in range(50):
        rng = np.random.default_rng(seed)
        base = (rng.uniform(-8, 8, rng.integers(1, 10)).tolist()
                + rng.uniform(-100, 100, 2).tolist())
        near = [f(t) for t in base for f in (
            lambda t: t + rng.uniform(-2e-12, 2e-12), lambda t: np.pi - t, lambda t: -t,
            lambda t: t + 2 * np.pi, lambda t: float(np.nextafter(t, np.inf)))
            if rng.random() < 0.5]
        targets = [t for t in base + near
                   if abs(abs(float(wrap_angle(t))) - np.pi / 2) >= 1e-9]
        targets += [np.pi, -np.pi, 0.0, -0.0]
        rng.shuffle(targets)
        angles, sources = optimizer._sweep_classes(targets)
        ref_angles, ref_sources = _reference_classes(targets)
        assert ([float(a).hex() for a in angles]
                == [float(a).hex() for a in ref_angles]), seed
        assert sources == ref_sources, seed


def test_sweep_classes_work_is_linear(monkeypatch):
    # the plain scan compares every candidate with every representative,
    # millions of angle wraps for these targets
    calls = []

    def counted(x):
        calls.append(1)
        return wrap_angle(x)
    monkeypatch.setattr(optimizer, "wrap_angle", counted)
    targets = list(np.linspace(-np.pi, np.pi, 2049)[1:])
    angles, sources = optimizer._sweep_classes(targets)
    assert len(angles) == 1025 and len(sources) == 2048
    assert len(calls) <= 8 * len(targets)


def _hull_radial(family, phi):
    """h_s(phi) in closed form: the plus family's `_radial`, mirrored for
    the minus family."""
    return optimizer._radial(phi if family == "plus" else -phi)


def _hull_lp(family, phi, n_max=60):
    """h_s(phi) by linear programming: the largest rho such that
    rho e^{i phi} is a convex combination of the points zeta^{sn}/n and
    -zeta^{-sn}/n, n = 1 .. n_max."""
    from scipy.optimize import linprog
    s = 1 if family == "plus" else -1
    n = np.arange(1, n_max + 1)
    zeta = np.exp(2j * np.pi / 3)
    points = np.concatenate((zeta ** (s * n) / n, -zeta ** (-s * n) / n))
    # variables (rho, w): rho e^{i phi} = sum w v, sum w = 1, w >= 0
    A_eq = np.array([np.concatenate(([-np.cos(phi)], points.real)),
                     np.concatenate(([-np.sin(phi)], points.imag)),
                     np.concatenate(([0.0], np.ones(len(points))))])
    c = np.zeros(1 + len(points))
    c[0] = -1.0
    res = linprog(c, A_eq=A_eq, b_eq=[0.0, 0.0, 1.0], bounds=[(0, None)] * len(c),
                  method="highs")
    assert res.status == 0
    return res.x[0]


_VERTEX_ANGLES = [k * np.pi / 3 for k in (-2, -1, 1, 2)]


def test_ceiling_hull_is_the_lp_optimum():
    # the closed-form radial function of the hull against an LP over the
    # points of n = 1-60, both families, at 73 angles and the vertex
    # angles; they agreed to 1.5e-15 relative, the bound is 1e-12
    for family in ("plus", "minus"):
        for phi in list(np.linspace(-np.pi, np.pi, 73)) + _VERTEX_ANGLES:
            h = _hull_radial(family, phi)
            assert abs(h - _hull_lp(family, phi)) <= 1e-12 * h, (family, phi)


@pytest.mark.parametrize("phi", [np.pi / 2, -np.pi / 2, -np.pi / 4, 0.3,
                                 np.pi / 3 + 5e-4, -2 * np.pi / 3 - 9e-4, np.pi])
def test_ceiling_is_the_window_maximum(phi):
    # `_r_ceiling` is the LP radial function's largest value h over the
    # phase window, sampled at its ends, the vertices inside it and 21
    # points between, times (1 - r^2)/r, with its margins m:
    # h (1 - r^2)/r <= ceiling = h (1 + m)(1 - r^2 + m)/r, to 1e-12
    w = optimizer.PHI_TOL + optimizer._CEILING_PHASE_SLACK
    window = [phi + d for d in np.linspace(-w, w, 23)]
    window += [v + 2 * np.pi * k for v in _VERTEX_ANGLES for k in (-1, 0, 1)
               if abs(v + 2 * np.pi * k - phi) <= w]
    h, m = max(_hull_lp("plus", a) for a in window), optimizer._CEILING_MARGIN
    for r_th in (0.25, 0.5, 0.999):
        r = r_th - optimizer.FEAS_TOL
        ceiling = optimizer._r_ceiling(phi, r_th)
        assert h * (1 - r * r) / r <= ceiling
        assert ceiling == pytest.approx(h * (1 + m) * (1 - r * r + m) / r, rel=1e-12, abs=0)
    assert optimizer._r_ceiling(phi, optimizer.FEAS_TOL) == np.inf
    assert optimizer._r_ceiling(phi, 0.0) == np.inf


def _check_ceiling(family, R, j1, phi, defined, margin=optimizer._CEILING_MARGIN):
    """Assert j2 <= h_s(phi)(1 + margin)(1 - j1^2 + margin) for each
    defined row of kernel output, j2 = R j1; the largest
    j2 / (h_s(phi)(1 - j1^2)) over them."""
    rows = defined & (j1 > 0)
    j2, j1, phi = R[rows] * j1[rows], j1[rows], phi[rows]
    h = np.array([_hull_radial(family, a) for a in phi])
    assert np.all(j2 <= h * (1 + margin) * (1 - j1 * j1 + margin))
    return float(np.max(j2 / (h * (1 - j1 * j1)), initial=0.0))


def _kernel_respects_ceiling(family, N, P):
    # the margin holds with room: a margin 1,000 times smaller holds too
    out = _candidate_batch(family, N, P, 1)
    _check_ceiling(family, *out, margin=optimizer._CEILING_MARGIN / 1000)
    return _check_ceiling(family, *out)


def _family_batches():
    """(family, N, P): batches of 1-16 parameter vectors, N = 1-4."""
    def batch(family, N):
        row = st.tuples(st.lists(st.floats(0.0, 7.0), min_size=N, max_size=N),
                        st.lists(st.floats(-np.pi, np.pi), min_size=N - 1, max_size=N - 1))
        return st.lists(row.map(lambda v: v[0] + v[1]), min_size=1, max_size=16).map(
            lambda rows: (family, N, np.array(rows)))
    return st.tuples(st.sampled_from(["plus", "minus"]), st.integers(1, 4)).flatmap(
        lambda fN: batch(*fN))


@settings(max_examples=60, deadline=None)
@given(_family_batches())
def test_kernel_batches_respect_the_ceiling(case):
    _kernel_respects_ceiling(*case)


def test_phase_maps_and_random_samples_respect_the_ceiling():
    # every defined cell of criterion 4's maps, in both families, where
    # the largest j2 / (h_s(phi)(1 - j1^2)) was 0.99994, and random-search
    # samples of N = 1-4 over the search box
    A1 = np.arange(0.0, 3.5 + 1e-9, 0.05)
    A2 = np.arange(-3.5, 3.5 + 1e-9, 0.05)
    worst = 0.0
    for family, delta2 in (("plus", np.pi / 2), ("minus", -np.pi / 2)):
        P = np.stack(np.broadcast_arrays(A1[:, None], A2[None, :], delta2),
                     axis=-1).reshape(-1, 3)
        worst = max(worst, _kernel_respects_ceiling(family, 2, P))
    assert 0.999 < worst <= 1.0
    rng = np.random.default_rng(27)
    for family in ("plus", "minus"):
        for N in (1, 2, 3, 4):
            lo, hi = optimizer._search_box(OptimizationProblem(0.0, 0.25, family, N))
            _kernel_respects_ceiling(family, N, lo + rng.random((500, 2 * N - 1)) * (hi - lo))


def _typed_rows(sweep):
    """Every field of a sweep's rows, with types, p and p_star as bytes."""
    return [(phi, r_th, [(name, type(value), value.tobytes() if name == "p_star" else value)
                         for name, value in vars(res).items() if name != "best_per_start"],
             _typed(res.best_per_start)) for phi, r_th, res in sweep.rows]


@pytest.mark.parametrize("targets, N, starts, solved_counts, unsolved", [
    (list(np.linspace(-np.pi, np.pi, 9)[1:]), 2, 4, (8, 10), -np.pi / 2),
    (list(np.linspace(-np.pi, np.pi, 14)[1:]), 3, 4, (22, 26), None),
    # no row is feasible at N = 1 off +-pi/2, and the minus-family optimum
    # at pi/4 has R above the -pi/4 class's ceiling: a skip on R alone
    # would move these rows
    ([-np.pi / 4, np.pi / 4], 1, 2, (4, 4), None),
    # a target beyond _CEILING_MAX_TARGET keeps its class, here -pi/2's
    ([np.pi / 2, -np.pi / 2 - 800 * np.pi], 2, 4, (4, 4), None),
])
def test_skipped_classes_never_win_a_row(targets, N, starts, solved_counts, unsolved,
                                         monkeypatch):
    # the sweep as it is, and with every ceiling +inf, which skips no
    # class: rows, jumps and each row's start records are equal field by
    # field with types.  The benchmark sweep never solves the -pi/2 class,
    # at either threshold
    template = OptimizationProblem(phi_target=0.0, r_threshold=0.25, N=N, n_starts=starts,
                                   seed=42)
    solved = []
    maximize_all = optimizer._maximize_all

    def recorded(problems, workers=None):
        solved.extend((p.phi_target, p.r_threshold) for p in problems)
        return maximize_all(problems, workers)
    monkeypatch.setattr(optimizer, "_maximize_all", recorded)
    skipping = sweep_targets(targets, [0.25, 0.5], template)
    skipped = len(solved)
    assert unsolved not in [phi for phi, _ in solved]
    solved.clear()
    monkeypatch.setattr(optimizer, "_r_ceiling", lambda phi, r_th: np.inf)
    every = sweep_targets(targets, [0.25, 0.5], template)
    assert (skipped, len(solved)) == solved_counts
    assert _typed_rows(skipping) == _typed_rows(every)
    assert skipping.jumps == every.jumps


def test_worker_env_override(monkeypatch):
    from floqchern.optimizer import worker_count
    monkeypatch.setenv("FCF_THREADS", "3")
    assert worker_count() == 3
    assert worker_count(5) == 5          # an explicit count overrides the env var
    monkeypatch.setenv("FCF_THREADS", "junk")
    with pytest.raises(ValueError, match="FCF_THREADS"):
        worker_count()
    assert worker_count(2) == 2
    monkeypatch.delenv("FCF_THREADS")
    assert worker_count() >= 1
    assert worker_count(2) == 2
    # the default is one thread per usable core, but never more than
    # MAX_WORKERS; asking starts no thread
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was started")
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(200)))
    assert worker_count() == optimizer.MAX_WORKERS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert worker_count() == 3


def test_infeasible_target_reported():
    # no drive can hold j1/j0 >= 0.999 while bending phi far off +-pi/2 at N=1
    prob = OptimizationProblem(phi_target=0.3, r_threshold=0.999, family="plus",
                               N=1, n_starts=6, seed=1)
    res = maximize(prob, workers=1)
    assert not res.feasible
    assert res.phi_residual > 0


# ---------------------------------------------------------------------------
# phase map

@pytest.fixture(scope="module")
def coarse_map():
    A1 = np.arange(0, 3.5 + 1e-9, 0.1)
    A2 = np.arange(-3.5, 3.5 + 1e-9, 0.1)
    return phase_map(A1, A2, np.pi / 2)


def test_phase_map_monochromatic_rows(coarse_map):
    pm = coarse_map
    j = int(np.argmin(np.abs(pm.A2)))     # A2 = 0 column
    phis = pm.phi[:, j]
    defined = ~np.isnan(phis)
    assert defined[1:].all()
    assert np.allclose(np.abs(phis[defined]), np.pi / 2, atol=1e-10)


def test_phase_map_coverage_and_disconnection(coarse_map):
    assert coarse_map.phase_bin_coverage(64) >= 0.99
    assert coarse_map.superlevel_components(0.25) >= 2


def _snake(rows, cols):
    """One path through every other row, joined at alternating ends."""
    mask = np.zeros((rows, cols), dtype=bool)
    mask[::2] = True
    mask[1::4, -1:] = True
    mask[3::4, :1] = True
    return mask


@st.composite
def _masks(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["cells", "snake", "checkerboard", "full", "empty"]))
    if kind == "cells":
        cells = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
        mask = np.array(cells, dtype=bool).reshape(rows, cols)
    elif kind == "snake":
        mask = _snake(rows, cols)
    elif kind == "checkerboard":
        mask = np.indices((rows, cols)).sum(axis=0) % 2 == 0
    else:
        mask = np.full((rows, cols), kind == "full")
    return mask.T if draw(st.booleans()) else mask


@settings(max_examples=300, deadline=None)
@given(_masks())
@example(np.ones((1, 9), dtype=bool))
@example(np.ones((9, 1), dtype=bool))
@example(np.array([[True, False, True, False, True]]))
@example(np.array([[True], [False], [True]]))
def test_components_match_ndimage_label(mask):
    from scipy import ndimage
    assert optimizer._components(mask) == ndimage.label(mask)[1]


def test_components_do_not_walk_a_component():
    # MAX_POINTS cells: a snake whose one component is some 5e5 cells long,
    # and 512 stripes of 1024 rows each
    n = 1024
    assert optimizer._components(_snake(n, n)) == 1
    assert optimizer._components(np.tile(np.arange(n) % 2 == 0, (n, 1))) == n // 2
    assert optimizer._components(np.indices((n, n)).sum(axis=0) % 2 == 0) == n * n // 2


def test_phase_map_zero_relative_phase_pins_half_pi():
    A = np.arange(0.2, 3.0, 0.4)
    pm = phase_map(A, A, 0.0)
    vals = pm.phi[~np.isnan(pm.phi)]
    assert np.allclose(np.abs(vals), np.pi / 2, atol=1e-10)


def test_phase_map_rows_format(coarse_map):
    rows = list(coarse_map.rows())
    assert len(rows) == len(coarse_map.A1) * len(coarse_map.A2)
    a1, a2, phi, r, defined = rows[0]
    assert (a1, a2) == (0.0, -3.5)
    assert defined in (0, 1)


# ---------------------------------------------------------------------------
# batched candidate kernel: bit for bit one row at a time

def _per_point(family, N, P):
    return [_one(family, N, p) for p in P]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_candidate_batch_matches_per_point(N):
    rng = np.random.default_rng(70 + N)
    P = np.concatenate((rng.uniform(0.0, 5.0, (150, N)), rng.uniform(-4.0, 4.0, (150, N - 1))),
                       axis=1)
    for family in ("plus", "minus"):
        batch = list(zip(*(a.tolist() for a in _candidate_batch(family, N, P))))
        assert batch == _per_point(family, N, P)


@pytest.mark.parametrize("batch_rows", [None, 7])
@pytest.mark.parametrize("family", ["plus", "minus"])
def test_phase_map_matches_per_point_kernel(family, batch_rows, monkeypatch):
    if batch_rows:
        # grouping passes of a few rows: their seams fall inside grid groups
        monkeypatch.setattr(optimizer, "_BATCH_ROWS", batch_rows)
    A1 = np.arange(0, 3.5 + 1e-9, 0.25)
    A2 = np.arange(-3.5, 3.5 + 1e-9, 0.5)
    delta2 = np.pi / 2 if family == "plus" else -np.pi / 2
    P = np.array([[a1, a2, delta2] for a1 in A1 for a2 in A2])
    # the grid spans both sample counts and several retained orders
    ms, Z = _family_bond_amplitudes(family, 2, P)
    zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
    grids = {_grid_size(mmax, z, b) for z, b in zip(zmax, bandwidth)}
    assert {M for _, M in grids} == {256, 512}
    assert len({n for n, _ in grids}) >= 5
    ref = _per_point(family, 2, P)
    phi = np.array([ph if defined else np.nan for _, _, ph, defined in ref])
    j1 = np.array([r[1] for r in ref])
    pm = phase_map(A1, A2, delta2, family)
    assert np.array_equal(pm.phi.ravel(), phi, equal_nan=True)
    assert np.isnan(pm.phi).any()
    assert np.array_equal(pm.j1_over_j0.ravel(), j1)


def _random_search_loop(problem, n_samples, seed):
    """The per-sample loop random_search_best batches."""
    rng = np.random.default_rng(seed)
    lo = np.concatenate((np.zeros(problem.N), np.full(problem.N - 1, -np.pi)))
    hi = np.concatenate((np.full(problem.N, problem.amp_bound), np.full(problem.N - 1, np.pi)))
    best = -np.inf
    for _ in range(n_samples):
        p = lo + rng.random(problem.dim) * (hi - lo)
        R, j1, phi, defined = _one(problem.family, problem.N, p)
        if (defined and abs(wrap_angle(phi - problem.phi_target)) <= optimizer.PHI_TOL
                and j1 >= problem.r_threshold - optimizer.FEAS_TOL):
            best = max(best, R)
    return best


@pytest.mark.parametrize("n_samples", [0, 1, optimizer._BATCH_ROWS + 1, 1000])
def test_random_search_matches_per_sample_loop(n_samples):
    prob = OptimizationProblem(phi_target=np.pi / 2, r_threshold=0.25, family="minus")
    for seed in (3, 4):
        assert random_search_best(prob, n_samples, seed) == _random_search_loop(prob, n_samples, seed)
    if n_samples >= 1000:
        assert np.isfinite(random_search_best(prob, n_samples, 3))


@pytest.mark.parametrize("below, feasible", [(optimizer.FEAS_TOL / 2, True),
                                             (2 * optimizer.FEAS_TOL, False)])
def test_random_search_and_start_records_share_the_floor(below, feasible, monkeypatch):
    # every sample lies on the target phase, `below` under the NN floor: the
    # random-search floor counts it as a start record does
    prob = OptimizationProblem(phi_target=1.0, r_threshold=0.25)
    j1 = prob.r_threshold - below

    def kernel(family, N, P, workers=None):
        K = len(P)
        return (np.arange(K, dtype=float), np.full(K, j1), np.full(K, prob.phi_target),
                np.ones(K, dtype=bool))
    monkeypatch.setattr(optimizer, "_candidate_batch", kernel)
    assert random_search_best(prob, 5, seed=3) == (4.0 if feasible else -np.inf)
    record = optimizer._judged(prob, {"p": sobol_starts(prob)[0], "R": 4.0, "j1": j1,
                                      "phi": prob.phi_target, "defined": True})
    assert record["feasible"] is feasible


def test_candidate_batch_raises_first_failing_row(monkeypatch):
    # a retained order of 3 truncates every drive of bandwidth above 2
    def short_window(mmax, zmax, bandwidth, n_max=None, samples=None):
        return _grid_size(mmax, zmax, bandwidth, 3 if bandwidth > 2 else n_max, samples)
    monkeypatch.setattr(optimizer, "_grid_size", short_window)
    ok = [[0.5, 0.2, 0.3], [1.0, 0.1, 0.3]]
    # the larger drive's grid group (M = 512) is evaluated after the
    # smaller one's (M = 256)
    large, small = [3.4, 1.0, 0.3], [1.0, 1.6, 0.3]
    ms, Z = _family_bond_amplitudes("plus", 2, np.array([small, large]))
    zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
    assert [short_window(mmax, z, b) for z, b in zip(zmax, bandwidth)] == [(3, 256), (3, 512)]

    def scalar_error(p):
        with pytest.raises(ValueError) as e:
            _one("plus", 2, p)
        return type(e.value), str(e.value)
    for p in ok:
        _one("plus", 2, p)
    assert scalar_error(large) != scalar_error(small)
    cases = [([ok[0], first, ok[1], second], first) for first, second in
             ((large, small), (small, large))]
    cases += [([ok[0], ok[1], first], first) for first in (large, small)]
    # grids above MAX_SAMPLES are refused as the first such row's, named
    # by its own (unrounded) modulation index, and a row before it that
    # fails in its block still comes first
    huge, larger, odd = [20000.0, 0.0, 0.3], [30000.0, 0.0, 0.3], [30000.3, 0.0, 0.3]
    cases += [([larger, huge], larger), ([ok[0], odd], odd), ([large, larger], large),
              ([[20000.0, -30000.0, np.pi / 2], [20000.0, 0.0, np.pi / 2]], None)]
    for P, first in cases:
        with pytest.raises(ValueError) as batch:
            _candidate_batch("plus", 2, np.array(P))
        assert (type(batch.value), str(batch.value)) == scalar_error(first or P[0])
    assert "index 30000.3 " in scalar_error(odd)[1]


# ---------------------------------------------------------------------------
# kernel blocks on worker threads: bit for bit one thread

@contextlib.contextmanager
def _threads(monkeypatch, threads, inline=None):
    """FCF_THREADS = threads and a short GIL switch interval for the body,
    which gets the set of threads that ran `_candidate_block`; no thread
    may outlive the body.  When `inline` (default: threads == 1) the
    calling thread alone must have run blocks; otherwise blocks must have
    run on more than one thread, at least one of them not the calling
    thread.  There the first thread to run a block waits (at most 30 s)
    until a second one has entered, so that one thread cannot take every
    block, whatever the scheduling."""
    ran = set()
    block = optimizer._candidate_block
    inline = threads == 1 if inline is None else inline
    second = threading.Event()

    def recorded(*args):
        ran.add(threading.get_ident())
        if len(ran) > 1:
            second.set()
        elif not inline:
            second.wait(30)
        return block(*args)
    monkeypatch.setattr(optimizer, "_candidate_block", recorded)
    monkeypatch.setenv("FCF_THREADS", str(threads))
    interval = sys.getswitchinterval()
    alive = threading.active_count()
    sys.setswitchinterval(1e-6)
    try:
        yield ran
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == alive
    caller = {threading.get_ident()}
    if inline:
        assert ran == caller
    else:
        assert len(ran) > 1 and ran - caller


def test_worker_threads_keep_the_callers_error_state():
    # np.errstate is a context variable, which threads do not inherit; the
    # calls run in copies of the caller's context.  The first call waits
    # for the second, so two threads run calls whatever the scheduling.
    second = threading.Event()

    def state(wait):
        if wait:
            assert second.wait(30)
        else:
            second.set()
        return threading.get_ident(), np.geterr()["over"]
    alive = threading.active_count()
    with np.errstate(over="raise"):
        states = optimizer._threaded([lambda i=i: state(i == 0) for i in range(4)], 2)
    assert threading.active_count() == alive
    assert [over for _, over in states] == ["raise"] * 4
    assert states[0][0] != states[1][0]


def test_threaded_raises_the_first_error_in_order():
    # as the loop would: the error of the first call that raises, in call
    # order, although a later call may fail first
    first = threading.Event()

    def fail(i):
        if i == 1:
            assert first.wait(30)
        else:
            first.set()
        raise ValueError(i)
    with pytest.raises(ValueError, match="^1$"):
        optimizer._threaded([lambda: 0] + [lambda i=i: fail(i) for i in (1, 2)], 2)


def _bits(arrays):
    return [(a.dtype, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("family", ["plus", "minus"])
def test_kernel_blocks_thread_count_invariant(family, monkeypatch):
    delta2 = np.pi / 2 if family == "plus" else -np.pi / 2
    A1, A2 = np.arange(0.0, 5.0 + 1e-9, 0.25), np.arange(-5.0, 5.0 + 1e-9, 0.25)
    P = np.array([[a1, a2, delta2] for a1 in A1 for a2 in A2])
    ms, Z = _family_bond_amplitudes(family, 2, P)
    zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
    assert {_grid_size(mmax, z, b)[1] for z, b in zip(zmax, bandwidth)} == {256, 512, 1024}
    prob = OptimizationProblem(phi_target=np.pi / 2, r_threshold=0.25, family=family)
    runs = {}
    for threads in (1, 2, 3):
        with _threads(monkeypatch, threads):
            batch = _candidate_batch(family, 2, P)
        with _threads(monkeypatch, threads):
            pm = phase_map(A1, A2, delta2, family)
        with _threads(monkeypatch, threads):
            best = random_search_best(prob, 5000, 9)
        runs[threads] = (_bits(batch), _bits([pm.phi, pm.j1_over_j0]), best)
    assert runs[1] == runs[2] == runs[3]
    assert np.isfinite(runs[1][2])


def test_thread_blocks_raise_first_failing_row(monkeypatch):
    # a retained order of 3 truncates every drive of bandwidth above 2; the
    # failing rows sit at the end, in blocks that worker threads pick up last
    def short_window(mmax, zmax, bandwidth, n_max=None, samples=None):
        return _grid_size(mmax, zmax, bandwidth, 3 if bandwidth > 2 else n_max, samples)
    monkeypatch.setattr(optimizer, "_grid_size", short_window)
    rng = np.random.default_rng(8)
    ok = np.column_stack((rng.uniform(0.0, 0.6, 400), rng.uniform(0.0, 0.3, 400),
                          rng.uniform(-np.pi, np.pi, 400)))
    # the larger drive's grid group (M = 512) is evaluated after the smaller one's
    large, small = [3.4, 1.0, 0.3], [1.0, 1.6, 0.3]
    with pytest.raises(SpectrumTruncationError) as e:
        _one("plus", 2, large)
    for P in (np.vstack((ok, [large], ok[:50], [small])),
              np.vstack((ok, [large], [small]))):
        for threads in (1, 3):
            with _threads(monkeypatch, threads), pytest.raises(SpectrumTruncationError) as batch:
                _candidate_batch("plus", 2, P)
            assert str(batch.value) == str(e.value)


@pytest.mark.parametrize("value", ["65", "100000", "0", "-1"])
def test_worker_env_cap_refused_before_any_worker(value, monkeypatch):
    # the bounds fire in worker_count, before a thread or a process exists
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker was started")
    monkeypatch.setattr(threading.Thread, "start", no_workers)
    monkeypatch.setattr(os, "fork", no_workers)
    monkeypatch.setenv("FCF_THREADS", value)
    alive = threading.active_count()
    prob = OptimizationProblem(phi_target=np.pi / 2, r_threshold=0.25, n_starts=4)
    for call in (lambda: optimizer.worker_count(),
                 lambda: phase_map([0.5, 1.0], [0.5, 1.0], np.pi / 2),
                 lambda: random_search_best(prob, 100),
                 lambda: maximize(prob)):
        bound = "at least 1" if int(value) < 1 else f"at most {optimizer.MAX_WORKERS}"
        with pytest.raises(ValueError, match=f"FCF_THREADS must be {bound}, got {value}"):
            call()
    assert threading.active_count() == alive
    monkeypatch.setenv("FCF_THREADS", str(optimizer.MAX_WORKERS))
    assert optimizer.worker_count() == optimizer.MAX_WORKERS


def test_library_worker_cap_refused_before_any_worker(monkeypatch):
    # an explicit worker count below 1 or above MAX_WORKERS is refused like
    # a FCF_THREADS out of bounds, before a thread or a process exists
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker was started")
    monkeypatch.setattr(threading.Thread, "start", no_workers)
    monkeypatch.setattr(os, "fork", no_workers)
    monkeypatch.delenv("FCF_THREADS", raising=False)
    alive = threading.active_count()
    prob = OptimizationProblem(phi_target=np.pi / 2, r_threshold=0.25, n_starts=4)
    P = np.array([[0.5, 0.2, 0.3], [1.0, 0.1, 0.3]])
    for count, bound in ((optimizer.MAX_WORKERS + 1, f"at most {optimizer.MAX_WORKERS}"),
                         (0, "at least 1"), (-1, "at least 1")):
        for call in (lambda: maximize(prob, workers=count),
                     lambda: sweep_targets([1.0], [0.25], prob, workers=count),
                     lambda: _candidate_batch("plus", 2, P, workers=count)):
            with pytest.raises(ValueError, match=f"workers must be {bound}, got {count}"):
                call()
    assert threading.active_count() == alive
    # the cap itself is allowed; one grid block runs in the calling thread
    batch = _candidate_batch("plus", 2, P[:1], workers=optimizer.MAX_WORKERS)
    assert _bits(batch) == _bits(_candidate_batch("plus", 2, P[:1], workers=1))


# ---------------------------------------------------------------------------
# the lockstep SLSQP driver: bit for bit plain SLSQP, start by start

def _plain_start(problem, x0):
    """The start as plain SLSQP, written out: scipy's own finite
    differences for the objective and both constraints, every point
    evaluated once through a memo of one-row kernel calls.  Returns the
    record fields `_slsqp_start` must match and the points evaluated, in
    the order SLSQP first asked for them."""
    from scipy.optimize import minimize
    memo = {}

    def rates(x):
        key = x.tobytes()
        if key not in memo:
            memo[key] = _one(problem.family, problem.N, x)
        return memo[key]

    def phase_gap(x):
        _, _, phi, defined = rates(x)
        return wrap_angle(phi - problem.phi_target) if defined else np.pi

    N = problem.N
    res = minimize(
        lambda x: -rates(x)[0], np.asarray(x0, dtype=float), method="SLSQP",
        bounds=[(-problem.amp_bound, problem.amp_bound)] * N + [(None, None)] * (N - 1),
        constraints=({"type": "eq", "fun": phase_gap},
                     {"type": "ineq", "fun": lambda x: rates(x)[1] - problem.r_threshold}),
        options={"ftol": 1e-12, "maxiter": optimizer.MAX_ITER})
    p = optimizer._canonical(res.x, N)
    R, j1, phi, _ = _one(problem.family, N, p)
    record = {"p": p.tobytes(), "R": R, "j1": j1, "phi": phi, "status": int(res.status),
              "n_iter": int(res.nit), "n_eval": len(memo), "converged": bool(res.success)}
    return record, list(memo)


def _kernel_rows(monkeypatch):
    """Every kernel row from now on, as (call, point bytes): call counts
    the `_candidate_batch` calls made so far."""
    rows, calls = [], [0]
    batch = optimizer._candidate_batch

    def counted_batch(family, N, P, workers=None):
        calls[0] += 1
        rows.extend((calls[0], np.asarray(p, dtype=float).tobytes()) for p in P)
        return batch(family, N, P, workers)
    monkeypatch.setattr(optimizer, "_candidate_batch", counted_batch)
    return rows


def _grid_of(family, N, point):
    ms, Z = _family_bond_amplitudes(family, N, np.frombuffer(point))
    zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
    return _grid_size(mmax, zmax, bandwidth)


def _grid_edge_start():
    """(problem, x0): an N = 2 plus start whose first forward-difference
    point in A1 crosses a bandwidth integer, so the first stencil spans
    two grids (n_max)."""
    prob = OptimizationProblem(phi_target=1.0, r_threshold=0.3)
    rest = [0.8, 0.4]

    def bandwidth(a1):
        ms, Z = _family_bond_amplitudes("plus", 2, np.array([a1] + rest))
        return float(_quadrature_sizes(ms, Z)[1])
    edge = brentq(lambda a1: bandwidth(a1) - 3.0, 1.0, 4.0, xtol=1e-15)
    return prob, np.array([edge - 1e-8] + rest)


def _stencil_cases():
    """(name, problem, start points, window) of driver runs to check."""
    cases = []
    for family, phi in (("plus", 1.0), ("minus", -2.0)):
        for N in (1, 2, 3):
            prob = OptimizationProblem(phi_target=phi, r_threshold=0.3, family=family, N=N,
                                       amp_bound=3.0, n_starts=1, seed=7)
            cases.append((f"{family}-N{N}", prob, sobol_starts(prob), 1))
    # iterates on the amplitude bounds: the step at +amp_bound is flipped
    prob = OptimizationProblem(phi_target=-np.pi / 2, r_threshold=0.5, N=2)
    cases.append(("upper-bound", prob, [np.array([2.0, prob.amp_bound, -1.5])], 1))
    cases.append(("lower-bound", prob, [np.array([-prob.amp_bound, 1.0, 0.5])], 1))
    prob, x0 = _grid_edge_start()
    cases.append(("two-grids", prob, [x0], 1))
    # a box narrower than the step, where each step is cut to the far bound
    prob = OptimizationProblem(phi_target=1.0, r_threshold=0.3, amp_bound=1e-9, n_starts=1,
                               seed=7)
    cases.append(("narrow-box", prob, sobol_starts(prob), 1))
    # several starts in one lockstep window, and the same starts one by one
    prob = OptimizationProblem(phi_target=1.0, r_threshold=0.3, amp_bound=3.0, n_starts=8,
                               seed=7)
    cases.append(("lockstep-8", prob, sobol_starts(prob), 8))
    cases.append(("window-1", prob, sobol_starts(prob), 1))
    return cases


@pytest.mark.parametrize("x, bound", [
    # free phases too large for the step to change them: the fallback step
    ([1.0, 2.0, 3e8], 5.0),
    ([1.0, -0.5, 2.0, -5e8, 2.0**28], 5.0),
    # boxes narrower than the step: the step is cut to the far bound
    ([0.5e-9, -1e-9, 0.3], 1e-9),
    ([1e-9, -0.2e-9, 0.0], 1e-9),
    ([-1e-9, 0.0, 1e9], 1e-9),
])
def test_stencil_is_scipys_forward_difference(x, bound):
    # the points and steps of scipy's 2-point rule, as SLSQP's finite
    # differences take them, byte for byte
    from scipy.optimize._numdiff import approx_derivative
    x = np.array(x)
    N = (len(x) + 1) // 2
    upper = np.concatenate((np.full(N, bound), np.full(N - 1, np.inf)))
    seen = []

    def one(point):
        seen.append(point.tobytes())
        return np.ones(1)
    jac = approx_derivative(one, x, method="2-point", abs_step=optimizer._FD_STEP,
                            f0=np.zeros(1), bounds=(-upper, upper))
    points, dx = optimizer._stencil(x, -upper, upper)
    assert [p.tobytes() for p in points] == seen
    # each column of the Jacobian is 1 / dx
    assert (1.0 / dx).tobytes() == jac.ravel().tobytes()


def _record_fields(record):
    """The fields of a start record `_plain_start` returns, p as bytes."""
    return {"p": record["p"].tobytes(), "R": record["R"], "j1": record["j1"],
            "phi": record["phi"], "status": record["status"], "n_iter": record["n_iter"],
            "n_eval": record["n_eval"], "converged": record["converged"]}


@pytest.mark.parametrize("case", _stencil_cases(), ids=lambda c: c[0])
def test_run_start_matches_plain_slsqp(case, monkeypatch):
    name, prob, starts, window = case
    refs = [_plain_start(prob, x0) for x0 in starts]
    rows = _kernel_rows(monkeypatch)
    monkeypatch.setattr(optimizer, "_WINDOW", window)
    records = optimizer._run_starts([(prob, x0) for x0 in starts])
    assert [_record_fields(r) for r in records] == [ref for ref, _ in refs]
    # each start evaluates every point once: the points plain SLSQP
    # evaluated, and the canonical optimum when SLSQP did not evaluate it
    points = collections.Counter(point for _, point in rows)
    assert points == collections.Counter(
        point for ref, ref_points in refs for point in {*ref_points, ref["p"]})
    # the first call evaluates each start of the first window at x0 and
    # on the first stencil around it, in plain SLSQP's order, in one batch
    first = [point for call, point in rows if call == 1]
    assert first == [point for _, ref_points in refs[:window]
                     for point in ref_points[:prob.dim + 1]]
    stencil = first[1:prob.dim + 1]
    if name == "upper-bound":
        assert np.frombuffer(stencil[1])[1] < prob.amp_bound
    if name == "two-grids":
        assert len({_grid_of(prob.family, prob.N, point) for point in stencil}) == 2


def test_window_bounds_the_live_starts(monkeypatch):
    # 3 x 64 starts, cut short at 8 iterations: at most _WINDOW live at
    # once, the whole window at any `workers`, and the records in task
    # order, those of the starts run one by one
    monkeypatch.setattr(optimizer, "MAX_ITER", 8)
    problems = [OptimizationProblem(phi_target=phi, r_threshold=0.25, N=1, n_starts=64,
                                    seed=42) for phi in (np.pi / 2, 1.0, -2.0)]
    tasks = [(problem, x0) for problem in problems for x0 in sobol_starts(problem)]
    window = optimizer._WINDOW
    monkeypatch.setattr(optimizer, "_WINDOW", 1)
    one_by_one = [_record_fields(r) for r in optimizer._run_starts(tasks)]
    monkeypatch.setattr(optimizer, "_WINDOW", window)
    live, most = set(), [0]
    start = optimizer._slsqp_start

    def counted(problem, x0, slsqp):
        token = object()
        live.add(token)
        most[0] = max(most[0], len(live))
        try:
            return (yield from start(problem, x0, slsqp))
        finally:
            live.discard(token)
    monkeypatch.setattr(optimizer, "_slsqp_start", counted)
    records = optimizer._run_starts(tasks)
    assert most[0] == window == 64 and not live
    assert [_record_fields(r) for r in records] == one_by_one
    for workers in (1, 2, 3):
        most[0] = 0
        results = optimizer._maximize_all(problems, workers)
        assert most[0] == 64 and not live
        assert [_record_fields(r) for res in results for r in res.best_per_start] == one_by_one


def test_optimizer_rounds_run_in_the_calling_thread(monkeypatch):
    # at workers = 2 every round is still one kernel call on one thread,
    # the caller's, so under its np.errstate; the records are those of
    # workers = 1
    monkeypatch.setattr(optimizer, "MAX_ITER", 8)
    prob = OptimizationProblem(phi_target=1.0, r_threshold=0.25, N=2, n_starts=8, seed=3)
    one = maximize(prob, workers=1).best_per_start
    states, batch = [], optimizer._candidate_batch

    def recorded(family, N, P, workers=None):
        states.append((threading.get_ident(), np.geterr()["over"], workers))
        return batch(family, N, P, workers)
    monkeypatch.setattr(optimizer, "_candidate_batch", recorded)
    alive = threading.active_count()
    with np.errstate(over="raise"):
        two = maximize(prob, workers=2).best_per_start
    assert threading.active_count() == alive
    assert len(states) > 1
    assert set(states) == {(threading.get_ident(), "raise", 1)}
    assert [_record_fields(r) for r in two] == [_record_fields(r) for r in one]


def test_first_error_stops_every_start(monkeypatch):
    # a kernel error ends the run: no kernel call follows the failing one,
    # and no thread outlives the call
    calls = [0]
    batch = optimizer._candidate_batch

    def counted(*args):
        calls[0] += 1
        if calls[0] == 3:
            raise FloatingPointError("injected")
        return batch(*args)
    monkeypatch.setattr(optimizer, "_candidate_batch", counted)
    prob = OptimizationProblem(phi_target=1.0, r_threshold=0.25, N=2, n_starts=128, seed=42)
    alive = threading.active_count()
    with pytest.raises(FloatingPointError, match="injected"):
        maximize(prob, workers=2)
    assert threading.active_count() == alive
    assert calls[0] == 3


def _typed(records):
    """Start records as lists of (key, type, value) in key order, p as bytes."""
    return [[(key, type(value), value.tobytes() if key == "p" else value)
             for key, value in record.items()] for record in records]


def test_optimizer_starts_no_thread(monkeypatch):
    # maximize and sweep_targets step every start in the calling thread at
    # any workers and FCF_THREADS: with Thread.start refused they run, and
    # their records are those of workers = 1, field by field with types
    # and key order
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was started")
    monkeypatch.setattr(optimizer, "MAX_ITER", 20)
    prob = OptimizationProblem(phi_target=1.0, r_threshold=0.25, N=2, n_starts=6, seed=5)
    targets, thresholds = [1.0, -2.0, np.pi / 2], [0.25, 0.5]

    def run(workers):
        sweep = sweep_targets(targets, thresholds, prob, workers=workers)
        return (_typed(maximize(prob, workers=workers).best_per_start),
                [_typed(res.best_per_start) + [(res.family, res.feasible)]
                 for _, _, res in sweep.rows], sweep.jumps)
    monkeypatch.delenv("FCF_THREADS", raising=False)
    one = run(1)
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    alive = threading.active_count()
    for workers in (1, 2, 3):
        assert run(workers) == one
    monkeypatch.setenv("FCF_THREADS", "3")
    assert run(None) == one
    assert threading.active_count() == alive


def test_unchecked_scipy_release_is_refused(monkeypatch):
    # the driver steps a private scipy routine, checked on one release line
    import scipy
    prob = OptimizationProblem(phi_target=1.0, r_threshold=0.25, N=1, n_starts=1)
    for version in ("1.17.0", "1.18.0", "2.0.0"):
        monkeypatch.setattr(scipy, "__version__", version)
        with pytest.raises(RuntimeError, match=f"scipy {version} is not a release"):
            maximize(prob, workers=1)
    monkeypatch.setattr(scipy, "__version__", "1.17.1")
    assert len(maximize(prob, workers=1).best_per_start) == 1


def test_stencil_batches_run_in_the_calling_thread(monkeypatch):
    # one start's stencils stay inline on FCF_THREADS = 3: one that spans
    # two grids, and one of 11 points at M = 1024, more than _BLOCK_SAMPLES
    # and so split into blocks; a single start runs in the calling thread,
    # which evaluates its rounds itself
    monkeypatch.setattr(optimizer, "MAX_ITER", 3)
    six = OptimizationProblem(phi_target=0.5, r_threshold=0.2, N=6, amp_bound=1.0)
    x0 = np.concatenate((np.full(6, 0.3), np.linspace(-1.0, 1.0, 5)))
    assert _grid_of("plus", 6, x0.tobytes())[1] == 1024
    assert six.dim * 3 * 1024 > optimizer._BLOCK_SAMPLES
    for prob, start in (_grid_edge_start(), (six, x0)):
        with _threads(monkeypatch, 3, inline=True) as ran:
            optimizer._run_starts([(prob, start)])
        assert ran == {threading.get_ident()}
