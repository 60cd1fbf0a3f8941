"""Constrained maximization of the NNN tunneling enhancement.

The figure of merit is the dimensionless ratio R = (j2/j1)*(omega/j0),
maximized over the free drive parameters p = (A_1/w ... A_N/w,
delta_2 ... delta_N) subject to a target NNN phase phi = phi_target and a
floor j1/j0 >= r_threshold on the NN rate.  R is invariant under
rescaling of omega and j0, so candidates are evaluated at omega = j0 = 1.

Method: multistart SLSQP (sequential least squares programming, Kraft
1988) with the constraints written as constraints: -R is minimized
under the equality wrap(phi - phi_target) = 0 and the inequality
j1/j0 - r_threshold >= 0, with the amplitudes bounded by +-amp_bound
and the phases free.  Gradients are SLSQP's own finite differences, and
each start memoizes its evaluations so that the objective and both
constraints share them.  Every start record counts its evaluations,
iterations and SLSQP exit status (`n_eval`, `n_iter`, `status`).
Starts come from a seeded scrambled Sobol sequence over the box
(amplitudes in [0, bound], phases in (-pi, pi]), so identical problem +
seed reproduce identical results bit for bit.  Starts are independent
tasks.  One ranking rule, `_rank`, orders optima everywhere: feasible
points first, by larger R, then infeasible points by smaller constraint
residual.  The reduction over starts breaks its ties on the
lexicographically smallest p, independent of execution order.

Two exact symmetries leave R and j1/j0 unchanged: the minus family at
(A, -delta) is the mirror image (phi -> -phi) of the plus family at
(A, delta), and within a family negating every even-m harmonic maps
phi -> pi - phi.  `maximize` searches the problem's family only.
`sweep_targets` reports at each target the better of the two families'
optima, the plus family winning exact ties.  Through the two symmetries
it runs one plus-family maximization per class of equivalent targets,
all starts mapped over one worker pool.

Phase maps and random search evaluate whole arrays of parameter
vectors at once (`_candidate_batch`): drives are grouped by their
Fourier grid and run through the spectrum and rate code along a
leading axis, in blocks of bounded size.  The results are bit for bit
those of the one-drive kernel `_candidate_rates` that SLSQP calls.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize as _sciopt
from scipy.stats import qmc

from .drive import (_axis_bond_amplitudes, _bond_projections, _family_axis_offsets,
                    _grid_size, _peierls_components, _quadrature_sizes, _truncation_error,
                    default_geometry, family_harmonic_integer, wrap_angle)
from .effective import _rate_arrays

#: sweep targets closer than this (mod 2 pi) share one optimization
SAME_ANGLE = 1e-12

#: feasibility tolerances on |wrap(phi - phi_target)| and on j1/j0 below
#: r_threshold, and the SLSQP iteration cap per start
PHI_TOL = 1e-3
FEAS_TOL = 1e-9
MAX_ITER = 600

#: drive-axis projections on the bonds of the a = 1 geometry
_PROJ = _bond_projections(default_geometry())

#: complex samples (drives x 3 bonds x grid size) one batched evaluation
#: holds at a time, so that memory does not grow with the batch
_BLOCK_SAMPLES = 1 << 15

#: drives `_candidate_batch` groups by grid at a time, and parameter
#: vectors `random_search_best` draws at a time
_BATCH_ROWS = 4096


def worker_count(hint: int = 0) -> int:
    """Worker count: the FCF_THREADS env var, else a positive `hint`, else
    all available cores.  A FCF_THREADS that is not an integer raises
    ValueError."""
    env = os.environ.get("FCF_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"FCF_THREADS must be an integer, got {env!r}") from None
    if hint:
        return max(1, hint)
    return os.cpu_count() or 1


@dataclass(frozen=True)
class OptimizationProblem:
    phi_target: float
    r_threshold: float
    family: str = "plus"
    N: int = 2
    amp_bound: float = 5.0
    n_starts: int = 64
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.phi_target):
            raise ValueError(f"phi_target must be a finite angle, got {self.phi_target}")
        if not 0.0 <= self.r_threshold <= 1.0:
            raise ValueError("r_threshold must lie in [0, 1]")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.family not in ("plus", "minus"):
            raise ValueError("optimization families are 'plus' and 'minus'")

    @property
    def dim(self) -> int:
        return 2 * self.N - 1


@dataclass
class OptimizationResult:
    p_star: np.ndarray
    R_value: float
    j1_over_j0: float
    phi_achieved: float
    feasible: bool
    starts_converged: int
    family: str
    best_per_start: list = field(default_factory=list)
    phi_residual: float = 0.0
    r_residual: float = 0.0


@functools.lru_cache(maxsize=16)
def _family_harmonics(family, N):
    """Harmonic integers m_n and axis lags phase_y - phase_x of the first N
    harmonics of a family, as read-only arrays (N,)."""
    ms = np.array([family_harmonic_integer(n) for n in range(1, N + 1)], dtype=float)
    offsets = np.array(_family_axis_offsets(family, N))
    ms.setflags(write=False)
    offsets.setflags(write=False)
    return ms, offsets


def _family_bond_amplitudes(family, N, P):
    """Harmonic integers (N,) and bond amplitudes Z (..., 3, N) of the
    parameter vectors P (..., 2N - 1), with delta_1 = 0 and deltas wrapped."""
    ms, offsets = _family_harmonics(family, N)
    amps = P[..., :N]
    deltas = np.concatenate((np.zeros(P.shape[:-1] + (1,)), wrap_angle(P[..., N:])), axis=-1)
    return ms, _axis_bond_amplitudes(_PROJ, amps, deltas, amps, deltas + offsets)


def _candidate_block(family, ms, Z, n_max: int, M: int):
    """(values, index, error) for bond amplitudes Z (..., 3, N) on one grid
    (n_max, M): values are (j1/j0, phi, phi_defined, j2) at omega = j0 = 1,
    each of Z's leading shape; index and error are those of the first drive
    that fails the truncation check or isotropy, or None and None."""
    g, tail = _peierls_components(ms, Z, 1.0, n_max, M)
    r = _rate_arrays(g, n_max, 1.0, 1.0)
    values = (r.j1, r.phi, r.phi_defined, r.j2)
    failed = (tail > 1e-8) | ~(r.isotropic_nn & r.isotropic_nnn)
    if not failed.any():
        return values, None, None
    i = np.unravel_index(np.argmax(failed), failed.shape)
    error = _truncation_error(tail[i], n_max, 1.0) or AssertionError(
        f"family {family!r} drive broke isotropy (residuals {r.residual_nn[i]:.2e}, "
        f"{r.residual_nnn[i]:.2e}); this cannot happen for plus/minus drives")
    return values, i, error


def _candidate_rates(family, N, p):
    """(R, j1/j0, phi, phi_defined, j2) at omega = j0 = 1.

    Bit for bit the chain build_family_drive -> fourier_components ->
    derive_rates, including its grid-size rule and truncation check, but
    with the bond amplitudes built straight from p instead of through a
    validated DriveSpec.  `_candidate_batch` for one drive, without its
    grouping step.
    """
    ms, Z = _family_bond_amplitudes(family, N, np.asarray(p, dtype=float))
    zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
    n_max, M = _grid_size(mmax, zmax, bandwidth)
    (j1, phi, defined, j2), _, error = _candidate_block(family, ms, Z, n_max, M)
    if error:
        raise error
    j1, j2 = float(j1), float(j2)
    return j2 / j1 if j1 > 0 else math.inf, j1, float(phi), bool(defined), j2


def _candidate_batch(family, N, P):
    """(R, j1/j0, phi, phi_defined, j2) arrays (K,) over the rows of
    P (K, 2N - 1), bit for bit K calls of `_candidate_rates`.  Each run of
    _BATCH_ROWS rows is grouped by grid (n_max, M) and evaluated in blocks
    of at most _BLOCK_SAMPLES complex samples; like a loop over the rows,
    it raises the error of the first row that fails."""
    P = np.asarray(P, dtype=float)
    K = len(P)
    j1, phi, defined, j2 = np.empty(K), np.empty(K), np.empty(K, dtype=bool), np.empty(K)
    for start in range(0, K, _BATCH_ROWS):
        ms, Z = _family_bond_amplitudes(family, N, P[start:start + _BATCH_ROWS])
        zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
        # the grid depends on a drive through ceil(zmax) and ceil(bandwidth) only
        sizes, inverse = np.unique(np.ceil([zmax, bandwidth]), axis=1, return_inverse=True)
        groups = {}
        for u, (z, b) in enumerate(sizes.T.tolist()):
            groups.setdefault(_grid_size(mmax, z, b), []).append(u)
        first = (len(Z), None)
        for (n_max, M), members in groups.items():
            rows = np.flatnonzero(np.isin(inverse, members))
            step = max(1, _BLOCK_SAMPLES // (3 * M))
            for s in range(0, len(rows), step):
                block = rows[s:s + step]
                values, i, error = _candidate_block(family, ms, Z[block], n_max, M)
                for dest, v in zip((j1, phi, defined, j2), values):
                    dest[start + block] = v
                if error and block[i] < first[0]:
                    first = (block[i], error)
        if first[1]:
            raise first[1]
    R = np.divide(j2, j1, out=np.full(K, math.inf), where=j1 > 0)
    return R, j1, phi, defined, j2


def evaluate_candidate(family: str, N: int, p):
    """(R, j1_over_j0, phi) for a parameter vector; phi is NaN when the
    NNN rate vanishes (no phase constraint can then be met)."""
    R, j1, phi, defined, _ = _candidate_rates(family, N, p)
    return R, j1, (phi if defined else math.nan)


def _canonical(p, N):
    """Canonical representative of a parameter vector's gauge class.

    Three exact redundancies are quotiented out: a half-period time shift
    (negates the amplitudes of odd harmonic integers, used to make A_1
    nonnegative), per-harmonic amplitude sign flips absorbed into the
    phase lags (A_n >= 0 for n >= 2), and the reflection
    delta_n -> pi - delta_n applied to every free phase at once (pins
    delta_2 into [-pi/2, pi/2]).  All leave (R, j1/j0, phi) invariant.
    """
    p = np.array(p, dtype=float)
    p[N:] = wrap_angle(p[N:])
    if p[0] < 0:
        for n in range(N):
            if family_harmonic_integer(n + 1) % 2 == 1:
                p[n] = -p[n]
    for n in range(1, N):
        if p[n] < 0:
            p[n] = -p[n]
            p[N + n - 1] = wrap_angle(p[N + n - 1] + np.pi)
    if N >= 2 and not -np.pi / 2 <= p[N] <= np.pi / 2:
        p[N:] = wrap_angle(np.pi - p[N:])
    return p


def _negate_even(p, N):
    """Same-family image of p with phi -> pi - phi and (R, j1/j0) kept:
    every even-m harmonic negated (delta_n -> delta_n + pi), which is
    F -> -F up to a half-period time shift."""
    p = np.array(p, dtype=float)
    for n in range(2, N + 1):
        if family_harmonic_integer(n) % 2 == 0:
            p[N + n - 2] += np.pi
    return p


def _mirror(p, N):
    """Other-family image of p with phi -> -phi and (R, j1/j0) kept:
    delta_n -> -delta_n (the drive run backwards in time)."""
    p = np.array(p, dtype=float)
    p[N:] = -p[N:]
    return p


def _start_record(problem: OptimizationProblem, p, R, j1, phi, defined, converged):
    """Start record: constraint residuals and feasibility of a point."""
    phi_res = abs(float(wrap_angle(phi - problem.phi_target))) if defined else np.pi
    r_res = max(0.0, problem.r_threshold - j1)
    amps_ok = bool(np.all(np.abs(p[:problem.N]) <= problem.amp_bound + 1e-9))
    feasible = (defined and phi_res <= PHI_TOL
                and j1 >= problem.r_threshold - FEAS_TOL and amps_ok)
    return {"p": p, "R": R, "j1": j1, "phi": phi, "defined": defined,
            "feasible": feasible, "converged": converged,
            "phi_residual": phi_res, "r_residual": r_res}


def _run_start(args):
    """SLSQP from one start point.  The phase gap is pi where phi is
    undefined; the objective and both constraints share each evaluation
    through a memo keyed on the point."""
    problem, x0 = args
    memo = {}

    def rates(x):
        key = x.tobytes()
        if key not in memo:
            memo[key] = _candidate_rates(problem.family, problem.N, x)
        return memo[key]

    def phase_gap(x):
        _, _, phi, defined, _ = rates(x)
        return wrap_angle(phi - problem.phi_target) if defined else np.pi

    bounds = ([(-problem.amp_bound, problem.amp_bound)] * problem.N
              + [(None, None)] * (problem.N - 1))
    res = _sciopt.minimize(
        lambda x: -rates(x)[0], np.asarray(x0, dtype=float), method="SLSQP", bounds=bounds,
        constraints=({"type": "eq", "fun": phase_gap},
                     {"type": "ineq", "fun": lambda x: rates(x)[1] - problem.r_threshold}),
        options={"ftol": 1e-12, "maxiter": MAX_ITER})
    p = _canonical(res.x, problem.N)
    R, j1, phi, defined, _ = _candidate_rates(problem.family, problem.N, p)
    record = _start_record(problem, p, R, j1, phi, defined, bool(res.success))
    record.update(n_eval=len(memo), n_iter=int(res.nit), status=int(res.status))
    return record


def _image_record(record, problem: OptimizationProblem, mirror: bool, negate_even: bool):
    """A start record carried over by the exact symmetries onto `problem`
    (its target, family and threshold), without a new evaluation."""
    p, phi = record["p"], record["phi"]
    if negate_even:
        p, phi = _negate_even(p, problem.N), float(wrap_angle(np.pi - phi))
    if mirror:
        p, phi = _mirror(p, problem.N), float(wrap_angle(-phi))
    if mirror or negate_even:
        p = _canonical(p, problem.N)
    image = _start_record(problem, p, record["R"], record["j1"], phi, record["defined"],
                          record["converged"])
    image.update((key, record[key]) for key in ("n_eval", "n_iter", "status"))
    return image


def _search_box(problem: OptimizationProblem):
    """(lo, hi) of the search box: amplitudes in [0, amp_bound], the free
    phases in [-pi, pi]."""
    lo = np.concatenate((np.zeros(problem.N), np.full(problem.N - 1, -np.pi)))
    hi = np.concatenate((np.full(problem.N, problem.amp_bound), np.full(problem.N - 1, np.pi)))
    return lo, hi


def sobol_starts(problem: OptimizationProblem) -> np.ndarray:
    """Seeded low-discrepancy start points over the search box."""
    import warnings
    sampler = qmc.Sobol(d=problem.dim, scramble=True, seed=problem.seed)
    with warnings.catch_warnings():
        # Sobol balance only matters for integration, not for start spreading
        warnings.simplefilter("ignore", UserWarning)
        u = sampler.random(problem.n_starts)
    lo, hi = _search_box(problem)
    return lo + u * (hi - lo)


def _rank(feasible: bool, R: float, residual: float) -> tuple:
    """Sort key of an optimum, smaller is better: feasible points first,
    by larger R, then infeasible points by smaller constraint residual."""
    return (0, -R) if feasible else (1, residual)


def _best(records, family: str) -> OptimizationResult:
    """The best record by `_rank`: the feasible one with the largest R, or
    the smallest-residual one, flagged infeasible, when no start satisfies
    the constraints; ties go to the lexicographically smallest p,
    independent of execution order."""
    best = min(records, key=lambda r: (
        _rank(r["feasible"], r["R"], r["phi_residual"] + r["r_residual"]), tuple(r["p"])))
    return OptimizationResult(
        p_star=best["p"], R_value=best["R"], j1_over_j0=best["j1"],
        phi_achieved=best["phi"], feasible=bool(best["feasible"]),
        starts_converged=sum(r["converged"] for r in records), family=family,
        best_per_start=records,
        phi_residual=best["phi_residual"], r_residual=best["r_residual"])


def _maximize_all(problems, workers: int | None = None) -> list:
    """`maximize` for each problem, with every start of every problem
    mapped over one worker pool."""
    tasks = [(problem, x0) for problem in problems for x0 in sobol_starts(problem)]
    workers = worker_count() if workers is None else max(1, workers)
    if workers > 1 and len(tasks) >= 2 * workers:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            # fine-grained chunks: starts vary widely in iteration count
            records = pool.map(_run_start, tasks, chunksize=1)
    else:
        records = [_run_start(t) for t in tasks]
    results, i = [], 0
    for problem in problems:
        results.append(_best(records[i:i + problem.n_starts], problem.family))
        i += problem.n_starts
    return results


def maximize(problem: OptimizationProblem, workers: int | None = None) -> OptimizationResult:
    """Multistart maximization of R under the phase and NN-rate constraints,
    within the problem's drive family.

    Returns the best feasible point, or the smallest-residual point
    flagged infeasible when no start satisfies the constraints.
    """
    return _maximize_all([problem], workers)[0]


def random_search_best(problem: OptimizationProblem, n_samples: int, seed: int = 0) -> float:
    """Best R among uniformly sampled feasible points on the search box;
    -inf when no sample is feasible.  Serves as an optimality floor for
    the multistart result."""
    rng = np.random.default_rng(seed)
    lo, hi = _search_box(problem)
    best = -math.inf
    for start in range(0, n_samples, _BATCH_ROWS):
        # one draw of k x dim numbers is k draws of dim numbers, in order
        P = lo + rng.random((min(_BATCH_ROWS, n_samples - start), problem.dim)) * (hi - lo)
        R, j1, phi, defined, _ = _candidate_batch(problem.family, problem.N, P)
        feasible = (defined & (np.abs(wrap_angle(phi - problem.phi_target)) <= PHI_TOL)
                    & (j1 >= problem.r_threshold))
        if feasible.any():
            best = max(best, float(R[feasible].max()))
    return best


# ---------------------------------------------------------------------------
# Target sweeps (polar R e^{i phi_tg} data) and discontinuity detection

@dataclass
class SweepResult:
    rows: list                 # (phi_target, r_th, OptimizationResult)
    jumps: dict                # r_th -> list of (gap_index, jump_norm)


def _param_jump(res_a: OptimizationResult, res_b: OptimizationResult, N: int) -> float:
    """Distance between optima in the complex-harmonic representation
    A_n exp(-i delta_n): phases are weighted by their amplitudes, so the
    undefined phase of a vanishing harmonic carries no spurious distance.
    Infinite between families, which no single chart covers."""
    if res_a.family != res_b.family:
        return math.inf

    def z(p):
        p = np.asarray(p, dtype=float)
        return p[:N] * np.exp(-1j * np.concatenate(([0.0], p[N:])))
    return float(np.linalg.norm(z(res_b.p_star) - z(res_a.p_star)))


def _folded(a: float) -> float:
    """The member of {a, pi - a} (mod 2 pi) in [-pi/2, pi/2]."""
    a = float(wrap_angle(a))
    return a if abs(a) <= np.pi / 2 else float(wrap_angle(np.pi - a))


def _sweep_angles(phi_targets) -> list:
    """Angles to optimize the plus family at: one per class of the
    targets and their negations under phi -> pi - phi.  Targets that
    already lie in [-pi/2, pi/2] come first, then their negations, so a
    representative is an input value wherever one is available."""
    needed = list(phi_targets) + [-t for t in phi_targets]
    angles = []
    for a in [t for t in needed if abs(t) <= np.pi / 2] + [_folded(t) for t in needed]:
        if not any(abs(wrap_angle(a - b)) <= SAME_ANGLE for b in angles):
            angles.append(a)
    return angles


def _family_optimum(solved, angles, problem: OptimizationProblem) -> OptimizationResult:
    """The optimum of `problem`, carried over by the exact symmetries from
    `solved`, the plus-family results at `angles` and the problem's
    threshold: the minus family at phi is the mirror image of the plus
    family at -phi, and within a family phi and pi - phi are images
    under `_negate_even`."""
    mirror = problem.family == "minus"
    b = -problem.phi_target if mirror else problem.phi_target
    for a, base in zip(angles, solved):
        for negate_even, image in ((False, b), (True, np.pi - b)):
            if abs(wrap_angle(image - a)) <= SAME_ANGLE:
                records = [_image_record(r, problem, mirror, negate_even)
                           for r in base.best_per_start]
                return _best(records, problem.family)


def sweep_targets(phi_targets, r_thresholds, template: OptimizationProblem,
                  workers: int | None = None) -> SweepResult:
    """Optimum over both drive families at each (phi_target, r_threshold).

    The template supplies N, amp_bound, n_starts and seed.  Maximizations
    run in the plus family only, at one angle per symmetry class
    (`_sweep_angles`); each row takes the better of the two families'
    optima (`_family_optimum`) by `_rank`, plus winning exact ties.
    Parameter jumps between adjacent targets exceeding 10x the median
    jump for that threshold, and every change of family, are recorded as
    discontinuities.
    """
    phi_targets = list(phi_targets)
    r_thresholds = list(r_thresholds)
    if not phi_targets or not r_thresholds:
        raise ValueError("target lists must be nonempty")
    if not all(math.isfinite(t) for t in phi_targets):
        raise ValueError("sweep targets must be finite angles")
    angles = _sweep_angles(phi_targets)
    solved = _maximize_all([replace(template, phi_target=a, r_threshold=r_th, family="plus")
                            for r_th in r_thresholds for a in angles], workers)
    rows = []
    jumps = {}
    for k, r_th in enumerate(r_thresholds):
        base = solved[k * len(angles):(k + 1) * len(angles)]
        series = []
        for phi_tg in phi_targets:
            optima = [_family_optimum(base, angles, replace(
                template, phi_target=phi_tg, r_threshold=r_th, family=family))
                for family in ("plus", "minus")]
            # min keeps the first of equals, so plus wins exact ties
            res = min(optima, key=lambda r: _rank(r.feasible, r.R_value,
                                                  r.phi_residual + r.r_residual))
            rows.append((phi_tg, r_th, res))
            series.append(res)
        ds = [_param_jump(series[i], series[i + 1], template.N)
              for i in range(len(series) - 1)]
        finite = [d for d in ds if math.isfinite(d)]
        med = float(np.median(finite)) if finite else 0.0
        jumps[r_th] = [(i, d) for i, d in enumerate(ds) if d > max(10 * med, 1e-6)]
    return SweepResult(rows=rows, jumps=jumps)


# ---------------------------------------------------------------------------
# Phase map over (A1, A2) at fixed delta_2

@dataclass(frozen=True)
class PhaseMap:
    """Achieved NNN phase and NN ratio over an amplitude grid (N = 2,
    fixed delta_2).  phi is NaN where the NNN rate vanishes."""

    A1: np.ndarray
    A2: np.ndarray
    delta2: float
    family: str
    phi: np.ndarray
    j1_over_j0: np.ndarray

    def phase_bin_coverage(self, nbins: int = 64) -> float:
        """Fraction of uniform (-pi, pi] bins containing an achieved phi."""
        vals = self.phi[~np.isnan(self.phi)]
        idx = np.clip(((vals + np.pi) / (2 * np.pi) * nbins).astype(int), 0, nbins - 1)
        return len(np.unique(idx)) / nbins

    def superlevel_components(self, level: float) -> int:
        """Number of connected components (4-neighbor) of j1/j0 >= level."""
        from scipy import ndimage
        _, n = ndimage.label(self.j1_over_j0 >= level)
        return int(n)

    def rows(self):
        for i, A1 in enumerate(self.A1):
            for j, A2 in enumerate(self.A2):
                yield (float(A1), float(A2), float(self.phi[i, j]),
                       float(self.j1_over_j0[i, j]),
                       int(not np.isnan(self.phi[i, j])))


def phase_map(A1_values, A2_values, delta2: float, family: str = "plus") -> PhaseMap:
    """Evaluate phi and j1/j0 on an (A1, A2) grid for an N = 2 drive, in
    one batched evaluation, bit for bit the per-point `_candidate_rates`."""
    A1_values = np.asarray(A1_values, dtype=float)
    A2_values = np.asarray(A2_values, dtype=float)
    shape = (len(A1_values), len(A2_values))
    P = np.stack(np.broadcast_arrays(A1_values[:, None], A2_values[None, :], float(delta2)),
                 axis=-1).reshape(-1, 3)
    _, j1, phi, defined, _ = _candidate_batch(family, 2, P)
    return PhaseMap(A1=A1_values.copy(), A2=A2_values.copy(), delta2=float(delta2),
                    family=family, phi=np.where(defined, phi, np.nan).reshape(shape),
                    j1_over_j0=j1.reshape(shape))
