"""Per-layer metrics of a traced run.

The layer probes call single public functions one at a time on the
workloads' own inputs: the drives of the sweep's CSV optima, of its
start points and of seeded cells of the phase-map grids (spectra, rates,
candidate evaluations), the maximisations the sweep ran (on one worker),
and seeded determinate cells of the Chern-diagram round (Chern numbers
at 48^2).  The remaining figures come from the spans of the traced
workload rounds.  Each metric names the function its spans come from.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

MICRO = 1e6


def _median(xs):
    return statistics.median(xs) if xs else math.nan


class Probes:
    DRIVES = 300        # spectra and rates; the sweep's points, then phase-map cells
    EVAL_REPEATS = 3    # evaluate_candidate calls per drive
    CHERN_CELLS = 40

    def __init__(self, fc, seed: int, workloads: dict):
        self.fc = fc
        self.rng = np.random.default_rng([seed, 2])
        self.w = workloads

    def _drives(self, problems):
        """(family, [A1, A2, delta2]) of the sweep's optima and start points,
        then of seeded cells of both phase maps, DRIVES in all."""
        sweep, pm = self.w["sweep"], self.w["phase-map"]
        out = [(r["family"], [float(r["A1"]), float(r["A2"]), float(r["delta2"])])
               for r in sweep.rows(sweep.first)]
        out += [(p.family, list(x0)) for p in problems
                for x0 in self.fc.optimizer.sobol_starts(p)]
        maps = [(fam, pm.load(pm.first, fam)) for fam in ("plus", "minus")]
        n_cells = self.DRIVES - len(out)
        for i in range(n_cells):
            fam, cols = maps[i % 2]
            j = int(self.rng.integers(0, len(cols["A1"])))
            d2 = pm.DELTA2[fam]
            out.append((fam, [float(cols["A1"][j]), float(cols["A2"][j]), d2]))
        return out[:self.DRIVES]

    def _chern_cells(self):
        """Seeded determinate driven-model cells of the 48^2 diagram."""
        chern = self.w["chern-diagram"]
        d = chern.diagrams(chern.first)[48, "driven_hexagonal"]
        idx = np.flatnonzero(d["indeterminate"] == 0)
        pick = self.rng.choice(idx, min(self.CHERN_CELLS, len(idx)), replace=False)
        return [(float(d["phi"][i]), float(d["ratio"][i])) for i in pick]

    def _call(self, drives, problems, cells):
        fc = self.fc
        geom = fc.drive.default_geometry()
        n_max = []
        for fam, p in drives:
            spec = fc.drive.build_family_drive(fam, 1.0, p[:2], [0.0, p[2]])
            spectrum = fc.drive.fourier_components(spec, geom, 1.0)
            fc.effective.derive_rates(spectrum)
            n_max.append(spectrum.n_max)
        for _ in range(self.EVAL_REPEATS):
            for fam, p in drives:
                fc.optimizer.evaluate_candidate(fam, 2, p)
        for problem in problems:
            fc.optimizer.maximize(problem, workers=1)
        for phi, ratio in cells:
            model = fc.bloch.BlochModel("driven_hexagonal", ratio * 0.25, 1.0, 0.25, phi, geom)
            fc.bloch.chern_number(model, 48, 48)
        return n_max

    def run(self, tracer) -> dict:
        problems = tracer.sweep_problems()
        if not problems:
            raise RuntimeError("no traced sweep_targets call drew its starts with sobol_starts")
        drives, cells = self._drives(problems), self._chern_cells()
        tracer.request += 1
        tracer.install()
        try:
            n_max = self._call(drives, problems, cells)
        finally:
            tracer.uninstall()
        d = tracer.durations
        sweep, chern, val = self.w["sweep"], self.w["chern-diagram"], self.w["floquet-validate"]
        evals = d("optimizer.evaluate_candidate")
        serial = d("optimizer.maximize")
        cells_per_call = 2 * chern.N_PHI * chern.N_RATIO
        compare = _median(d("validate.compare_effective", val.KGRID ** 2 * val.STEPS))
        svgs = d("svg.phase_map_svg") + d("svg.chern_diagram_svg")
        return {
            "drive.spectrum_us": (_median(d("drive.fourier_components")) * MICRO, "us"),
            "drive.n_max": (float(np.mean(n_max)), "count"),
            "effective.reduce_us": (_median(d("effective.derive_rates")) * MICRO, "us"),
            "optimizer.eval_us.p50": (_median(evals) * MICRO, "us"),
            "optimizer.eval_us.p99": (statistics.quantiles(evals, n=100)[98] * MICRO, "us"),
            "optimizer.maximize_s": (_median(serial), "s"),
            "optimizer.pool_efficiency": (
                sum(serial) / (sweep.workers * _median(d("optimizer.sweep_targets"))), "ratio"),
            "optimizer.sweep_useful_ratio": (sweep.useful_ratio(sweep.first, problems), "ratio"),
            "optimizer.phase_map_s": (_median(d("optimizer.phase_map")), "s"),
            "optimizer.random_search_s": (_median(d("optimizer.random_search_best")), "s"),
            "bloch.cell_us.k48": (_median(d("bloch.phase_diagram", 48)) / cells_per_call * MICRO, "us"),
            "bloch.cell_us.k96": (_median(d("bloch.phase_diagram", 96)) / cells_per_call * MICRO, "us"),
            "bloch.chern_number_us": (_median(d("bloch.chern_number")) * MICRO, "us"),
            "bloch.determinate_ratio": (chern.determinate_ratio(chern.first), "ratio"),
            "validate.compare_s": (compare, "s"),
            "validate.ladder_s": (_median(d("validate.omega_ladder")), "s"),
            "validate.floquet_chern_s": (_median(d("validate.floquet_chern")), "s"),
            "validate.ns_per_kstep": (compare / (val.KGRID ** 2 * val.STEPS) * 1e9, "ns"),
            "svg.render_s": (sum(svgs) / len(svgs) if svgs else math.nan, "s"),
            "cli.overhead_s": (_median(tracer.cli_self_times()), "s"),
        }
