"""Command-line front end: figure-reproduction artifacts as CSV/JSON/SVG.

Commands: rates, phase-map, chern-diagram, optimize, sweep, validate.
Every command is deterministic given its flags and seed; reruns write
byte-identical files.  Exit codes: 0 success, 2 configuration error,
3 numerical failure; errors also go to stderr as one JSON object.
A malformed or missing flag is a configuration error like any other,
and so is a count above MAX_POINTS, MAX_KSTEPS or
optimizer.MAX_HARMONICS, a negative --seed, an --out that cannot be
created or written, and a scipy release the SLSQP driver was not checked
against.  --out is made and checked once, before any command starts its
work, and the scipy release before any start is stepped.  Grid flags use
start:stop:step with the stop included when it lands on the grid within
epsilon.  phase-map runs its kernel blocks, and optimize and sweep step
their SLSQP starts, on threads: --threads of them where optimize and
sweep are given it, else FCF_THREADS, else one per usable core, at most
optimizer.MAX_WORKERS.  Every command runs in one process.  A
FCF_THREADS or --threads below 1 or above optimizer.MAX_WORKERS is a
configuration error.

Commands run with numpy's overflow, division-by-zero and invalid-operation
errors raised (underflow stays silent), in their threads too.  Such
an error, like any other ArithmeticError (a Python float that
overflows), is a numerical failure, exit 3, so no command prints a numpy
warning or a traceback.  Every JSON
document (rates.json, the stdout documents of rates and validate, the
error object) is strict JSON: a NaN or infinity in one is a numerical
failure too, and the ladder fields that a zero deviation leaves
undefined are written as null.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import bloch, optimizer, svg, validate
from .drive import (SpectrumTruncationError, default_geometry, drive_from_json,
                    fourier_components)
from .effective import derive_rates


#: most points in one range, cells in one grid, --starts, --targets or
#: k-points in one BZ grid
MAX_POINTS = 1 << 20

#: most k-point steps (k-points x steps per period) in one propagation;
#: the propagator works in step blocks of bounded size, so this bounds
#: run time, not memory
MAX_KSTEPS = 1 << 23


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ConfigError instead of printing usage and
    exiting, so that they reach stderr as JSON; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _fmt(x) -> str:
    if type(x) is float:
        return format(x, ".17g")
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _json(doc, indent=None) -> str:
    """Strict JSON text of doc; a NaN or infinity in it raises
    FloatingPointError, a numerical failure."""
    try:
        return json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError:
        raise FloatingPointError("a NaN or infinity reached a JSON document") from None


def _nan_to_none(x):
    return None if math.isnan(x) else x


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_csv(path, header, rows):
    """One line per row, streamed: the file's text is never held whole."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(",".join(map(_fmt, row)) + "\n" for row in itertools.chain([header], rows))


def parse_range(text: str) -> np.ndarray:
    """start:stop:step with inclusive stop-within-epsilon."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"non-numeric range component in {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"range components must be finite, got {text!r}")
    if step <= 0:
        raise ConfigError(f"range step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"empty range {text!r}")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ConfigError(f"range {text!r} has a non-finite number of points")
    count = int(math.floor(span + 1e-9)) + 1
    if count > MAX_POINTS:
        raise ConfigError(f"range {text!r} has {count} points, more than {MAX_POINTS}")
    return start + step * np.arange(count)


def _grid(args, *names):
    """The ranges of the named grid flags; an error names its flag, and a
    grid of more than MAX_POINTS cells is refused."""
    ranges = []
    for name in names:
        try:
            ranges.append(parse_range(getattr(args, name)))
        except ConfigError as e:
            raise ConfigError(f"--{name}: {e}") from None
    cells = math.prod(len(r) for r in ranges)
    if cells > MAX_POINTS:
        raise ConfigError(f"{' x '.join('--' + n for n in names)} grid has {cells} cells, "
                          f"more than {MAX_POINTS}")
    return ranges


def _floats(text: str, flag: str) -> list:
    """A comma-separated list of floats."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad {flag} {text!r}") from None


def _load_drive(arg: str):
    if arg.lstrip().startswith("{"):
        payload = arg
    else:
        if not os.path.exists(arg):
            raise ConfigError(f"drive file not found: {arg}")
        with open(arg, encoding="utf-8") as f:
            payload = f.read()
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed drive JSON (line {e.lineno}, col {e.colno}): {e.msg}") from None
    return drive_from_json(data)


def _outdir(args):
    """Create --out, refused unless it is a writable directory."""
    os.makedirs(args.out, exist_ok=True)
    if not os.access(args.out, os.W_OK):
        raise ConfigError(f"output directory not writable: {args.out}")


# ---------------------------------------------------------------------------

def cmd_rates(args) -> int:
    spec = _load_drive(args.drive)
    if args.j0 <= 0:
        raise ConfigError("--j0 must be positive")
    rates = derive_rates(fourier_components(spec, default_geometry(), args.j0))
    doc = rates.to_json_dict()
    doc["delta_eff"] = args.delta + rates.delta_shift
    text = _json(doc, indent=2)
    print(text)
    _write(os.path.join(args.out, "rates.json"), text + "\n")
    return 0


def cmd_phase_map(args) -> int:
    A1, A2 = _grid(args, "A1", "A2")
    pm = optimizer.phase_map(A1, A2, args.delta2, family=args.family)
    path = os.path.join(args.out, "phase_map.csv")
    _write_csv(path, ["A1", "A2", "phi", "j1_over_j0", "phi_defined"], pm.rows())
    print(f"phase map: {len(A1)}x{len(A2)} cells, phi bin coverage "
          f"{pm.phase_bin_coverage():.4f}, j1/j0>=0.25 components "
          f"{pm.superlevel_components(0.25)} -> {path}")
    if args.svg:
        _write(os.path.join(args.out, "phase_map.svg"), svg.phase_map_svg(pm))
    return 0


def cmd_chern_diagram(args) -> int:
    phis, ratios = _grid(args, "phi", "ratio")
    if args.kgrid ** 2 > MAX_POINTS:
        raise ConfigError(f"--kgrid {args.kgrid} has {args.kgrid ** 2} k-points, "
                          f"more than {MAX_POINTS}")
    kinds = {"both": bloch.KINDS, "driven": ("driven_hexagonal",),
             "haldane": ("haldane_reference",)}[args.model]
    diagrams = bloch.phase_diagram(phis, ratios, N1=args.kgrid, N2=args.kgrid, kinds=kinds)
    for kind, dg in diagrams.items():
        path = os.path.join(args.out, f"chern_{kind}.csv")
        _write_csv(path, ["phi", "ratio", "chern", "min_gap", "indeterminate"], dg.rows())
        n_indet = int(dg.indeterminate.sum())
        print(f"{kind}: {len(phis)}x{len(ratios)} cells, {n_indet} indeterminate -> {path}")
        if args.svg:
            _write(os.path.join(args.out, f"chern_{kind}.svg"), svg.chern_diagram_svg(dg))
    return 0


_OPT_BASE_HEADER = ["phi_target", "r_th", "R", "re_R_exp_iphi", "im_R_exp_iphi", "family"]


def _opt_header(N):
    return (_OPT_BASE_HEADER + [f"A{i+1}" for i in range(N)]
            + [f"delta{i+2}" for i in range(N - 1)]
            + ["j1_over_j0", "feasible", "starts_converged"])


def _opt_row(phi_tg, r_th, res, N):
    z = res.R_value * np.exp(1j * phi_tg)
    return ([phi_tg, r_th, res.R_value, z.real, z.imag, res.family]
            + list(res.p_star[:N]) + list(res.p_star[N:])
            + [res.j1_over_j0, res.feasible, res.starts_converged])


def cmd_optimize(args) -> int:
    problem = optimizer.OptimizationProblem(
        phi_target=args.phi_target, r_threshold=args.r_th, family=args.family,
        N=args.N, amp_bound=args.amp_bound, n_starts=args.starts, seed=args.seed)
    res = optimizer.maximize(problem, workers=args.threads)
    path = os.path.join(args.out, "optimize.csv")
    _write_csv(path, _opt_header(args.N), [_opt_row(args.phi_target, args.r_th, res, args.N)])
    print(f"R = {res.R_value:.6f} at p* = {np.array2string(res.p_star, precision=6)}, "
          f"j1/j0 = {res.j1_over_j0:.6f}, phi = {res.phi_achieved:.6f}, "
          f"feasible = {res.feasible} -> {path}")
    return 0


def cmd_sweep(args) -> int:
    targets = (_floats(args.phi_list, "--phi-list") if args.phi_list
               else list(np.linspace(-np.pi, np.pi, args.targets + 1)[1:]))
    r_ths = _floats(args.r_th, "--r-th")
    template = optimizer.OptimizationProblem(
        phi_target=0.0, r_threshold=r_ths[0], N=args.N,
        amp_bound=args.amp_bound, n_starts=args.starts, seed=args.seed)
    sw = optimizer.sweep_targets(targets, r_ths, template, workers=args.threads)
    jump_rows = {(r_th, i + 1) for r_th, pairs in sw.jumps.items() for i, _ in pairs}
    rows = [_opt_row(phi_tg, r_th, res, args.N) + [int((r_th, idx % len(targets)) in jump_rows)]
            for idx, (phi_tg, r_th, res) in enumerate(sw.rows)]
    path = os.path.join(args.out, "sweep.csv")
    _write_csv(path, _opt_header(args.N) + ["p_jump_from_prev"], rows)
    njump = sum(len(v) for v in sw.jumps.values())
    print(f"sweep: {len(targets)} targets x {len(r_ths)} thresholds, "
          f"{njump} parameter discontinuities -> {path}")
    return 0


def cmd_validate(args) -> int:
    if args.kgrid ** 2 * args.steps > MAX_KSTEPS:
        raise ConfigError(f"--kgrid {args.kgrid} and --steps {args.steps} make "
                          f"{args.kgrid ** 2 * args.steps} k-point steps, more than {MAX_KSTEPS}")
    spec = _load_drive(args.drive)
    if args.j0_over_omega <= 0:
        raise ConfigError("--j0-over-omega must be positive")
    j0 = args.j0_over_omega * spec.omega
    geom = default_geometry()
    settings = validate.PropagatorSettings(steps_per_period=args.steps,
                                           richardson_check=args.richardson)
    if args.ladder:
        # the ladder's first rung is the base comparison
        lad = validate.omega_ladder(spec, geom, j0, args.delta, args.kgrid, settings)
        rep = lad.report
    else:
        rep = validate.compare_effective(spec, geom, j0, args.delta, args.kgrid, settings)
    summary = {
        "max_abs_deviation": rep.max_abs_deviation,
        "mean_abs_deviation": rep.mean_abs_deviation,
        "max_abs_deviation_over_j0": rep.max_abs_deviation / j0,
        "unitarity_defect": rep.unitarity_defect,
        "kgrid": args.kgrid,
        "steps": args.steps,
    }
    if args.ladder:
        summary["ladder_omegas"] = list(lad.omegas)
        summary["ladder_deviations"] = list(lad.deviations)
        summary["scaling_exponent"] = _nan_to_none(lad.exponent)
        summary["shrink_factors"] = [_nan_to_none(f) for f in lad.shrink_factors.tolist()]
    print(_json(summary, indent=2))
    _write_csv(os.path.join(args.out, "validate.csv"),
               ["kx", "ky", "eps_exact_lo", "eps_exact_hi",
                "eps_eff_lo", "eps_eff_hi", "deviation", "pairing_flag"], rep.rows())
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="floqchern",
        description="Shaken hexagonal lattice: effective rates, Chern diagrams, drive optimization")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, optimizer_flags=False):
        p.add_argument("--out", default=".", help="output directory")
        if optimizer_flags:
            p.add_argument("--N", type=int, default=2)
            p.add_argument("--starts", type=int, default=64)
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--amp-bound", type=float, default=5.0, dest="amp_bound")
            p.add_argument("--threads", type=int,
                           help="threads that step the SLSQP starts (default: FCF_THREADS, "
                                "else the usable cores)")

    p = sub.add_parser("rates", help="effective rates of a drive")
    p.add_argument("--drive", required=True, help="drive JSON path or inline JSON")
    p.add_argument("--j0", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("phase-map", help="achieved phi and j1/j0 over (A1, A2)")
    p.add_argument("--A1", default="0:3.5:0.05")
    p.add_argument("--A2", default="0:3.5:0.05")
    p.add_argument("--delta2", type=float, default=math.pi / 2)
    p.add_argument("--family", choices=("plus", "minus"), default="plus")
    p.add_argument("--svg", action="store_true")
    common(p)
    p.set_defaults(func=cmd_phase_map)

    p = sub.add_parser("chern-diagram", help="Chern phase diagram over (phi, delta_eff/j2)")
    p.add_argument("--phi", default="-3.1416:3.1416:0.065")
    p.add_argument("--ratio", default="-8:8:0.165")
    p.add_argument("--kgrid", type=int, default=48)
    p.add_argument("--model", default="both", choices=("both", "driven", "haldane"))
    p.add_argument("--svg", action="store_true")
    common(p)
    p.set_defaults(func=cmd_chern_diagram)

    p = sub.add_parser("optimize", help="maximize R at one target")
    p.add_argument("--phi-target", type=float, required=True, dest="phi_target")
    p.add_argument("--r-th", type=float, required=True, dest="r_th")
    p.add_argument("--family", choices=("plus", "minus"), default="plus")
    common(p, optimizer_flags=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="sweep targets, polar R e^{i phi} table")
    p.add_argument("--targets", type=int, default=8, help="evenly spaced targets in (-pi, pi]")
    p.add_argument("--phi-list", default="", dest="phi_list", help="comma list overriding --targets")
    p.add_argument("--r-th", default="0.25,0.5", dest="r_th")
    common(p, optimizer_flags=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="exact Floquet vs effective quasienergies")
    p.add_argument("--drive", required=True)
    p.add_argument("--j0-over-omega", type=float, default=0.02, dest="j0_over_omega")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--kgrid", type=int, default=24)
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--richardson", action="store_true")
    p.add_argument("--ladder", action="store_true", help="also run the omega-doubling ladder")
    common(p)
    p.set_defaults(func=cmd_validate)
    return ap


def _emit_error(code: int, kind: str, message: str):
    sys.stderr.write(_json({"error": {"code": code, "type": kind, "message": message}}) + "\n")


def _check_args(args):
    """Refuse non-finite floats, --starts or --targets above MAX_POINTS,
    a --targets below 1, --N above optimizer.MAX_HARMONICS and a
    --threads below 1 or above optimizer.MAX_WORKERS."""
    for name, value in vars(args).items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
        if name in ("starts", "targets") and value > MAX_POINTS:
            raise ConfigError(f"{flag} must be at most {MAX_POINTS}, got {value}")
        if name == "targets" and value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
        if name == "N" and value > optimizer.MAX_HARMONICS:
            raise ConfigError(f"{flag} must be at most {optimizer.MAX_HARMONICS}, got {value}")
        if name == "threads" and value is not None:
            if value < 1:
                raise ConfigError(f"{flag} must be at least 1, got {value}")
            if value > optimizer.MAX_WORKERS:
                raise ConfigError(f"{flag} must be at most {optimizer.MAX_WORKERS}, got {value}")


def main(argv=None) -> int:
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args = build_parser().parse_args(argv)
            _check_args(args)
            _outdir(args)
            return args.func(args)
    except (ConfigError, OSError) as e:
        _emit_error(2, "config", str(e))
        return 2
    except (SpectrumTruncationError, bloch.ChernIndeterminateError,
            validate.StepCountError, AssertionError, ArithmeticError) as e:
        _emit_error(3, "numerical", str(e))
        return 3
    except (ValueError, RuntimeError) as e:
        # past the numerical ones above, the package's one RuntimeError is
        # an unchecked scipy release
        _emit_error(2, "config", str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
