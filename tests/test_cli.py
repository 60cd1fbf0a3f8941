import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import floqchern
from floqchern import cli, optimizer, validate
from floqchern.cli import main, parse_range

PLUS_N1 = '{"family":"plus","omega":1.0,"A":[1.0],"delta":[0.0]}'


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def read(path):
    with open(path, "rb") as f:
        return f.read()


def _child_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(floqchern.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _run_module(argv, tmp_path):
    """`python -m floqchern ARGV --out TMP_PATH` in a fresh interpreter, with
    this checkout's package first on the path; stderr as the child wrote it."""
    return subprocess.run([sys.executable, "-m", "floqchern", *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)


# ---------------------------------------------------------------------------

def test_parse_range():
    vals = parse_range("0:1:0.25")
    assert list(vals) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(parse_range("1.0:1.0:0.1")) == 1   # one-cell grid
    with pytest.raises(ValueError):
        parse_range("0:1")
    with pytest.raises(ValueError):
        parse_range("0:1:-0.1")
    with pytest.raises(ValueError):
        parse_range("1:0:0.1")


def test_parse_range_rejects_nonfinite():
    for text in ("0:inf:1", "nan:1:0.5", "0:1:inf", "-inf:0:1", "0:1e300:1e-300"):
        with pytest.raises(ValueError, match="finite"):
            parse_range(text)


@pytest.mark.parametrize("argv", [
    ["phase-map", "--A1", "0:inf:1", "--A2", "0:1:1"],
    ["optimize", "--phi-target", "nan", "--r-th", "0.25", "--starts", "2"],
    ["optimize", "--phi-target", "1.0", "--r-th", "0.25", "--amp-bound", "inf", "--starts", "2"],
    ["rates", "--drive", '{"family":"plus","omega":1e400,"A":[1.0],"delta":[0.0]}'],
    ["rates", "--drive", PLUS_N1, "--j0", "inf"],
    ["chern-diagram", "--kgrid", "2", "--phi=-1:1:1", "--ratio=0:1:1"],
    ["validate", "--drive", PLUS_N1, "--kgrid", "0", "--steps", "256"],
    ["validate", "--drive", PLUS_N1, "--kgrid", "-3", "--steps", "256"],
    ["rates", "--drive", '{"family":"plus","omega":1,"A":[1e6],"delta":[0]}'],
    ["rates"],
    ["chern-diagram", "--kgrid", "abc"],
    ["rates", "--drive", PLUS_N1, "--threads", "2"],
    ["optimize", "--phi-target", "1.0", "--r-th", "0.25", "--starts", "0"],
    ["sweep", "--family", "minus", "--phi-list", "0.5", "--r-th", "0.25", "--starts", "1"],
    ["rates", "--drive", '{"family":"plus","omega":1,"A":5,"delta":0}'],
    ["validate", "--drive", '{"family":"plus","omega":null,"A":[1],"delta":[0]}',
     "--kgrid", "2", "--steps", "256"],
    ["rates", "--drive", '{"family":"custom","omega":1,"harmonics":5}'],
    ["rates", "--drive", '{"family":"custom","omega":1,"harmonics":[{"m":1.5,"ax":[1,0],'
     '"ay":[1,0]}]}'],
    ["validate", "--drive", PLUS_N1, "--j0-over-omega", "0", "--kgrid", "2", "--steps", "256"],
    ["phase-map", "--A1", "a:1:1", "--A2", "0:1:1"],
    # a string or a boolean where a number or an array belongs, and a
    # harmonic multiple or a frequency too large for a float
    *(["rates", "--drive", drive] for drive in (
        '{"family":"plus","omega":1,"A":"12","delta":"00"}',
        '{"family":"custom","omega":1,"harmonics":[{"m":1,"ax":"10","ay":"10"}]}',
        '{"family":"custom","omega":1,"harmonics":[{"m":true,"ax":[1,0],"ay":[1,0]}]}',
        '{"family":"plus","omega":"1","A":[true],"delta":[false]}',
        '{"family":"custom","omega":1,"harmonics":[{"m":1' + "0" * 400
        + ',"ax":[1,0],"ay":[1,0]}]}',
        '{"family":"plus","omega":1' + "0" * 400 + ',"A":[1],"delta":[0]}')),
    ["sweep", "--phi-list", "0.5,-1,2", "--r-th", "0.25,0.25", "--starts", "2"],
    # a harmonic whose grid rows take more than 64 MAX_SAMPLES products
    ["rates", "--drive", '{"family":"custom","omega":1,"harmonics":[{"m":16000,"ax":[0.5,0],'
     '"ay":[0.5,0]}]}'],
])
def test_meaningless_input_exit_2(argv, tmp_path, capsys):
    code, out, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "config"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, flag, count", [
    (["sweep", "--starts", "1"], "--targets", "-5"),
    (["sweep", "--starts", "1"], "--targets", "0"),
    (["sweep", "--targets", "2"], "--starts", "0"),
    (["optimize", "--phi-target", "1", "--r-th", "0.25"], "--starts", "0"),
    (["optimize", "--phi-target", "1", "--r-th", "0.25", "--starts", "1"], "--N", "0"),
    (["sweep", "--targets", "2", "--starts", "1"], "--N", "-1"),
], ids=["-5", "0", "sweep-starts-0", "optimize-starts-0", "optimize-N-0", "sweep-N--1"])
def test_sweep_targets_below_one_refused_by_name(argv, flag, count, tmp_path, capsys,
                                                 monkeypatch):
    # --targets, --starts and --N below 1 are refused by flag name before
    # any start array is drawn
    def no_draw(*args):
        raise AssertionError("a start array was drawn")
    monkeypatch.setattr(optimizer, "_sobol_points", no_draw)
    code, _, err = run(argv + [flag, count, "--out", str(tmp_path)], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "config"
    assert error["message"] == f"{flag} must be at least 1, got {count}"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, starts", [
    (["--targets", "4096", "--starts", "65536"], 4096 * 65536 * 2),
    (["--phi-list", "0.5,1", "--r-th", "0.25", "--starts", str(cli.MAX_POINTS)],
     2 * cli.MAX_POINTS),
    (["--targets", "1024", "--r-th", "0.25,0.3,0.5", "--starts", "342"], 1024 * 3 * 342),
], ids=["targets", "phi-list", "thresholds"])
def test_sweep_start_total_refused_by_name(argv, starts, tmp_path, capsys, monkeypatch):
    # each count is within its own cap, but not their product: the sweep is
    # refused, naming every flag of the product, before any start is drawn
    def no_draw(*args):
        raise AssertionError("a start array was drawn")
    monkeypatch.setattr(optimizer, "_sobol_points", no_draw)
    code, _, err = run(["sweep"] + argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "config"
    for name in ("--starts", "--targets", "--phi-list", "--r-th", f"make {starts} starts"):
        assert name in error["message"]
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, flag", [
    (["optimize", "--phi-target", "1", "--r-th", "0.25", "--starts", "1000000000"], "--starts"),
    (["phase-map", "--A1", "0:1e9:1", "--A2", "0:1:1"], "--A1"),
    (["sweep", "--targets", "1000000000"], "--targets"),
    (["validate", "--drive", PLUS_N1, "--kgrid", "24", "--steps", "1073741824"], "--steps"),
    (["chern-diagram", "--kgrid", "100000", "--phi=0:0:1", "--ratio=0:0:1"], "--kgrid"),
    (["optimize", "--phi-target", "1", "--r-th", "0.25", "--starts", "1", "--N", "17"], "--N"),
    (["sweep", "--targets", "2", "--starts", "1", "--N", "20000"], "--N"),
    (["phase-map", "--A1", "0:1023:1", "--A2", "0:1024:1"], "--A1 x --A2 grid"),
    # a step counts as MIN_STEP_KPOINTS k-points: 2^23 steps at --kgrid 1 is over the cap
    (["validate", "--drive", PLUS_N1, "--kgrid", "1", "--steps", "8388608"],
     "--kgrid 1 and --steps 8388608"),
    # each flag within its own cap, but 129 cells x 1024^2 k-points is over
    # MAX_CELL_KPOINTS (2^27)
    (["chern-diagram", "--kgrid", "1024", "--phi=0:128:1", "--ratio=0:0:1"],
     "--phi x --ratio grid of 129 cells at --kgrid 1024"),
])
def test_count_caps_refuse_before_allocation(argv, flag, tmp_path, capsys):
    # each input asks for gigabytes; the caps refuse it with no large allocation
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, err = capsys.readouterr()
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "config" and flag in error["message"]
    assert not os.listdir(tmp_path)
    assert peak < 1 << 20


@pytest.mark.parametrize("phi, ratio, kgrid, cells", [
    ("-3.1416:3.1416:0.065", "-8:8:0.165", 48, 97 * 97),    # README's diagram
    ("-3.1416:3.1416:0.065", "-8:8:0.165", 96, 97 * 97),    # 8.7e7 cell k-points
    ("0:127:1", "0:0:1", 1024, 128),                        # MAX_CELL_KPOINTS itself
])
def test_chern_diagram_cap_accepts_large_documented_runs(phi, ratio, kgrid, cells, tmp_path,
                                                         capsys, monkeypatch):
    # the cell k-point cap lets these runs reach the diagram, stubbed here
    calls = []
    monkeypatch.setattr(cli.bloch, "phase_diagram",
                        lambda phis, ratios, N1, N2, kinds: calls.append(
                            (len(phis) * len(ratios), N1)) or {})
    assert main(["chern-diagram", f"--phi={phi}", f"--ratio={ratio}", "--kgrid", str(kgrid),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == [(cells, kgrid)]


@pytest.mark.parametrize("command", [
    ["optimize", "--phi-target", "1"],
    ["sweep", "--phi-list", "1"],
])
@pytest.mark.parametrize("bound", ["0", "-1"])
def test_amp_bound_box_refused_before_workers(command, bound, tmp_path, capsys, monkeypatch):
    # a zero box fixes the amplitudes, which SLSQP's difference stencil
    # leaves out; a negative one is empty: both are refused up front
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker was started")
    monkeypatch.setattr(threading.Thread, "start", no_workers)
    monkeypatch.setattr(os, "fork", no_workers)
    code, _, err = run(command + ["--r-th", "0.25", "--starts", "2", "--amp-bound", bound,
                                  "--out", str(tmp_path)], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "config" and "amp_bound" in error["message"]
    assert not os.listdir(tmp_path)


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    ["validate", "--drive", PLUS_N1, "--j0-over-omega", "1e300", "--kgrid", "2", "--steps", "256"],
    ["validate", "--drive", '{"family":"plus","omega":1e300,"A":[1],"delta":[0]}',
     "--kgrid", "2", "--steps", "256"],
    ["validate", "--drive", PLUS_N1, "--delta", "1e308", "--kgrid", "1", "--steps", "256"],
    ["chern-diagram", "--phi", "0:1:1", "--ratio=0:1e308:1e307", "--kgrid", "12"],
    ["rates", "--drive", '{"family":"plus","omega":1e-320,"A":[1],"delta":[0]}'],
    ["rates", "--drive", '{"family":"plus","omega":1e-300,"A":[1],"delta":[0]}', "--j0", "1e10"],
])
def test_overflow_is_numerical_failure(argv, tmp_path, capsys):
    # numpy's floating-point errors raise under the CLI, and a Python float
    # that overflows is an ArithmeticError: exit 3, no warning, no NaN output
    code, out, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert code == 3
    assert _strict_json(err)["error"]["type"] == "numerical"
    assert out == "" and not os.listdir(tmp_path)


def test_validate_ladder_writes_undefined_fields_as_null(tmp_path, capsys):
    # no drive: the effective model is exact, so deviations of 0 leave the
    # exponent and some shrink factors undefined
    code, out, err = run(["validate", "--drive", '{"family":"custom","omega":1,"harmonics":[]}',
                          "--kgrid", "2", "--steps", "256", "--ladder",
                          "--out", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    doc = _strict_json(out)
    assert doc["scaling_exponent"] is None
    zero = [d == 0 for d in doc["ladder_deviations"]]
    assert [f is None for f in doc["shrink_factors"]] == zero[1:] and any(zero)
    # a NaN that reaches the JSON writer itself is a numerical failure
    with pytest.raises(FloatingPointError, match="NaN or infinity"):
        cli._json({"value": math.nan})


def test_validate_names_empty_kgrid(tmp_path, capsys):
    code, _, err = run(["validate", "--drive", PLUS_N1, "--kgrid", "0", "--steps", "256",
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "k-grid" in json.loads(err)["error"]["message"]


def test_module_entry_point(tmp_path):
    # `python -m floqchern` runs the CLI without an installed script
    done = _run_module(["chern-diagram", "--kgrid", "2", "--phi=-1:1:1", "--ratio=0:1:1"],
                       tmp_path)
    assert done.returncode == 2
    assert json.loads(done.stderr)["error"]["type"] == "config"
    assert not os.listdir(tmp_path)


def test_commands_without_optimizer_do_not_import_scipy(tmp_path):
    # only the optimizer's starts and solves need scipy; the package, its
    # CLI and chern-diagram import none of it
    code = ("import sys\n"
            "from floqchern import cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print('scipy:', loaded())\n"
            "code = cli.main(['chern-diagram', '--kgrid', '12', '--phi=0:0:1', '--ratio=0:0:1',\n"
            "                 '--out', sys.argv[1]])\n"
            "print('scipy:', loaded(), code)\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines()
            if line.startswith("scipy:")] == ["scipy: []", "scipy: [] 0"]


def test_phase_map_does_not_import_scipy(tmp_path):
    # the components count of its summary line is the package's own
    code = ("import sys\n"
            "from floqchern import cli\n"
            "code = cli.main(['phase-map', '--A1', '0:3.5:0.5', '--A2=-3.5:3.5:0.5',\n"
            "                 '--out', sys.argv[1]])\n"
            "print('scipy:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), code)\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert "components 2 ->" in done.stdout
    assert done.stdout.splitlines()[-1] == "scipy: [] 0"


def test_optimizer_commands_start_no_process(tmp_path):
    # optimize and sweep run every start in the calling thread: with
    # os.fork and Thread.start refused they still succeed at --threads 2,
    # and multiprocessing is never imported; a thread count above
    # MAX_WORKERS is still refused
    code = ("import os, sys, threading\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a process or thread was started')\n"
            "os.fork = refuse\n"
            "from floqchern import cli\n"
            "out = sys.argv[1]\n"
            "threading.Thread.start = refuse\n"
            "optimize = ['optimize', '--phi-target', '1.0', '--r-th', '0.25', '--N', '1',\n"
            "            '--starts', '2', '--out', out]\n"
            "refused = [cli.main(optimize + ['--threads', '65'])]\n"
            "os.environ['FCF_THREADS'] = '65'\n"
            "refused += [cli.main(optimize), cli.main(['sweep', '--targets', '2', '--out', out])]\n"
            "del os.environ['FCF_THREADS']\n"
            "codes = [cli.main(optimize + ['--threads', '2']),\n"
            "         cli.main(['sweep', '--targets', '2', '--starts', '2', '--threads', '2',\n"
            "                   '--out', out])]\n"
            "print('codes:', refused, codes, sorted(os.listdir(out)))\n"
            "print('multiprocessing:', 'multiprocessing' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=_child_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "codes: [2, 2, 2] [0, 0] ['optimize.csv', 'sweep.csv']", "multiprocessing: False"]


def test_optimizer_commands_do_not_import_scipy_stats(tmp_path):
    # the starts come from the package's own Sobol generator: optimize and
    # sweep load scipy.optimize for SLSQP, and nothing of scipy.stats
    code = ("import sys\n"
            "from floqchern import cli\n"
            "out = sys.argv[1]\n"
            "codes = [cli.main(['optimize', '--phi-target', '1.0', '--r-th', '0.25', '--N', '1',\n"
            "                   '--starts', '2', '--threads', '1', '--out', out]),\n"
            "         cli.main(['sweep', '--targets', '2', '--starts', '2', '--threads', '1',\n"
            "                   '--out', out])]\n"
            "print('codes:', codes)\n"
            "print('scipy.stats:', 'scipy.stats' in sys.modules)\n"
            "print('scipy.optimize:', 'scipy.optimize' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=_child_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-3:] == ["codes: [0, 0]", "scipy.stats: False",
                                             "scipy.optimize: True"]


@pytest.mark.parametrize("argv, name", [
    (["optimize", "--phi-target", "1", "--r-th", "0.25", "--seed", "-1"], "seed"),
    (["sweep", "--targets", "2", "--seed", "-1"], "seed"),
    (["optimize", "--phi-target", "1", "--r-th", "0.25", "--N", "17"], "--N"),
    (["sweep", "--targets", "2", "--N", "17"], "--N"),
    (["optimize", "--phi-target", "1", "--r-th", "0.25", "--starts", str(2**30 + 1)], "--starts"),
    (["sweep", "--targets", "2", "--starts", str(2**30 + 1)], "--starts"),
])
def test_optimizer_inputs_refused_before_any_draw(argv, name, tmp_path, capsys, monkeypatch):
    # a negative seed, too many harmonics or more starts than a Sobol
    # sequence has: exit 2 with one JSON error naming the input, and no
    # start array drawn
    def no_draw(*args):
        raise AssertionError("a start array was drawn")
    monkeypatch.setattr(optimizer, "_sobol_points", no_draw)
    code, out, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    error = _strict_json(err)["error"]
    assert error["type"] == "config" and name in error["message"]
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["rates", "--drive", PLUS_N1],
    ["phase-map", "--A1", "0:1:0.5", "--A2", "0:1:0.5"],
    ["chern-diagram", "--phi", "0:1:1", "--ratio", "0:1:1", "--kgrid", "12"],
    ["optimize", "--phi-target", "1", "--r-th", "0.25", "--starts", "2"],
    ["sweep", "--targets", "8", "--starts", "16"],
    ["validate", "--drive", PLUS_N1, "--kgrid", "2", "--steps", "256"],
])
def test_unusable_out_refused_before_any_work(argv, tmp_path, capsys, monkeypatch):
    # an --out below a regular file: exit 2 with one JSON error, before
    # any command's work (which would exit 3 here) and with nothing printed
    def no_work(*args, **kwargs):
        raise AssertionError("work started")
    for module, name in ((optimizer, "_sobol_points"), (optimizer, "phase_map"),
                         (cli.bloch, "phase_diagram"), (cli, "derive_rates"),
                         (validate, "compare_effective")):
        monkeypatch.setattr(module, name, no_work)
    (tmp_path / "file").write_text("")
    code, out, err = run(argv + ["--out", str(tmp_path / "file" / "out")], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and _strict_json(err)["error"]["type"] == "config"


@pytest.mark.parametrize("argv", [
    ["optimize", "--phi-target", "1", "--r-th", "0.25", "--starts", "4"],
    ["sweep", "--targets", "2", "--starts", "4"],
])
def test_unchecked_scipy_release_exit_2(argv, tmp_path, capsys, monkeypatch):
    # refused before any thread starts, as one JSON configuration error
    import scipy
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker was started")
    monkeypatch.setattr(threading.Thread, "start", no_workers)
    monkeypatch.setattr(scipy, "__version__", "1.18.0")
    code, out, err = run(argv + ["--threads", "2", "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    error = _strict_json(err)["error"]
    assert error["type"] == "config" and "scipy 1.18.0 is not a release" in error["message"]
    assert not os.listdir(tmp_path)


def test_overflowing_drive_stderr_is_json(tmp_path):
    # amplitudes whose modulation index overflows to inf: the grid cap
    # refuses the drive, and no numpy warning precedes the JSON error
    # (pytest would capture an in-process warning, so run a fresh interpreter)
    done = _run_module(["rates", "--drive",
                        '{"family":"plus","omega":1,"A":[1e308,1e308],"delta":[0,0]}'], tmp_path)
    assert done.returncode == 2
    assert json.loads(done.stderr)["error"]["type"] == "config"


def test_bad_worker_env_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FCF_THREADS", "junk")
    code, _, err = run(["optimize", "--phi-target", "1.0", "--r-th", "0.25", "--starts", "2",
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "FCF_THREADS" in json.loads(err)["error"]["message"]


def test_rates_command(tmp_path, capsys):
    code, out, _ = run(["rates", "--drive", PLUS_N1, "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    # monochromatic rates are purely imaginary
    assert all(abs(re) < 1e-10 for re, _ in doc["tau"])
    assert doc["isotropic_nn"] and doc["isotropic_nnn"]
    assert (tmp_path / "rates.json").exists()
    # a drive read from a file is the same drive given inline
    (tmp_path / "drive.json").write_text(PLUS_N1)
    code, from_file, _ = run(["rates", "--drive", str(tmp_path / "drive.json"),
                              "--out", str(tmp_path)], capsys)
    assert code == 0 and from_file == out


def test_rates_zero_amplitude(tmp_path, capsys):
    drive = '{"family":"plus","omega":1.0,"A":[0.0],"delta":[0.0]}'
    code, out, _ = run(["rates", "--drive", drive, "--j0", "2.0",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["j1"] == pytest.approx(2.0)
    assert doc["j2"] == pytest.approx(0.0, abs=1e-14)
    assert not doc["phi_defined"]


def test_malformed_json_exit_2(tmp_path, capsys):
    code, _, err = run(["rates", "--drive", '{"family":', "--out", str(tmp_path)], capsys)
    assert code == 2
    msg = json.loads(err)
    assert msg["error"]["code"] == 2
    assert "line" in msg["error"]["message"]


def test_unread_drive_key_exit_2(tmp_path, capsys):
    # a key the drive would not read is a configuration error that names it
    for drive, key in (('{"family":"custom","omega":1,"harmonics":[{"m":1,"ax":[1,0,7],'
                        '"ay":[1,0]}]}', "ax"),
                       ('{"family":"plus","omega":1,"A":[1],"delta":[0],"phase":[0.3]}', "phase"),
                       ('{"family":"custom","omega":1,"harmonics":[{"m":1,"ax":[1,0],'
                        '"ay":[1,0],"az":[1,0]}]}', "az"),
                       ('{"family":"plus","omega":1,"A":[1],"delta":[0],"harmonics":[{"m":1,'
                        '"ax":[1,0],"ay":[1,0]}]}', "A")):
        code, out, err = run(["rates", "--drive", drive, "--out", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and f"key '{key}'" in error["message"]
    assert not os.listdir(tmp_path)


def test_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run(["rates", "--drive", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "config"


def test_numerical_failure_exit_3(tmp_path, capsys):
    # overdriven propagator at 256 steps fails the Richardson check
    drive = '{"family":"plus","omega":1.0,"A":[3.0,2.0],"delta":[0.0,0.8]}'
    code, _, err = run(["validate", "--drive", drive, "--j0-over-omega", "0.6",
                        "--kgrid", "3", "--steps", "256", "--richardson",
                        "--out", str(tmp_path)], capsys)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "numerical"


def test_phase_map_single_cell(tmp_path, capsys):
    code, _, _ = run(["phase-map", "--A1", "1.0:1.0:1.0", "--A2", "0.0:0.0:1.0",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = read(tmp_path / "phase_map.csv").decode().strip().split("\n")
    assert lines[0] == "A1,A2,phi,j1_over_j0,phi_defined"
    assert len(lines) == 2


def test_phase_map_csv_is_streamed(tmp_path):
    # one 71 x 141 map: its whole text joined before the write peaked at
    # 3.2 MiB; streamed, the row lists of `PhaseMap.rows` are most of the peak
    pm = optimizer.phase_map(np.arange(0.0, 3.5 + 1e-9, 0.05),
                             np.arange(-3.5, 3.5 + 1e-9, 0.05), math.pi / 2)
    header = ["A1", "A2", "phi", "j1_over_j0", "phi_defined"]
    joined = "".join(",".join(map(cli._fmt, row)) + "\n" for row in [header, *pm.rows()])
    path = tmp_path / "phase_map.csv"
    tracemalloc.start()
    try:
        cli._write_csv(path, header, pm.rows())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read(path) == joined.encode()
    assert peak < 2 << 20


def test_phase_map_zero_delta2_pins_half_pi(tmp_path, capsys):
    code, _, _ = run(["phase-map", "--A1", "0.5:2.5:0.5", "--A2", "0.5:2.5:0.5",
                      "--delta2", "0.0", "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = read(tmp_path / "phase_map.csv").decode().strip().split("\n")[1:]
    import math
    for row in rows:
        a1, a2, phi, r, defined = row.split(",")
        if defined == "1":
            assert abs(abs(float(phi)) - math.pi / 2) < 1e-9


def test_chern_diagram_svg_does_not_change_csv(tmp_path, capsys):
    args = ["chern-diagram", "--phi=-2:2:2", "--ratio=-4:4:4", "--kgrid", "12",
            "--model", "driven"]
    run(args + ["--out", str(tmp_path / "a")], capsys)
    run(args + ["--svg", "--out", str(tmp_path / "b")], capsys)
    assert read(tmp_path / "a" / "chern_driven_hexagonal.csv") == \
        read(tmp_path / "b" / "chern_driven_hexagonal.csv")
    assert (tmp_path / "b" / "chern_driven_hexagonal.svg").exists()


def test_chern_diagram_values_in_range(tmp_path, capsys):
    code, _, _ = run(["chern-diagram", "--phi=-3:3:0.75", "--ratio=-6:6:1.5",
                      "--kgrid", "24", "--out", str(tmp_path)], capsys)
    assert code == 0
    for name in ("chern_driven_hexagonal.csv", "chern_haldane_reference.csv"):
        rows = read(tmp_path / name).decode().strip().split("\n")[1:]
        for row in rows:
            phi, ratio, chern, gap, indet = row.split(",")
            assert chern in ("-1", "0", "1")


def test_optimize_command(tmp_path, capsys):
    code, out, _ = run(["optimize", "--phi-target", "1.5707963267948966",
                        "--r-th", "0.25", "--starts", "8", "--seed", "42",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = read(tmp_path / "optimize.csv").decode().strip().split("\n")
    header = lines[0].split(",")
    assert header[:5] == ["phi_target", "r_th", "R", "re_R_exp_iphi", "im_R_exp_iphi"]
    assert header[-3:] == ["j1_over_j0", "feasible", "starts_converged"]
    assert len(lines) == 2


def test_sweep_command(tmp_path, capsys):
    code, out, _ = run(["sweep", "--phi-list", "1.5707963267948966,0.7853981633974483",
                        "--r-th", "0.25", "--starts", "6", "--seed", "1",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = read(tmp_path / "sweep.csv").decode().strip().split("\n")
    assert lines[0].endswith("p_jump_from_prev")
    assert len(lines) == 3


def test_sweep_takes_large_finite_targets(tmp_path, capsys):
    # a target far from [-pi, pi] has a float spacing near the class
    # tolerance or above it; its class is that of its own fold, so every
    # target finds its source
    code, _, err = run(["sweep", "--phi-list", "1e6,-3e4,1e300", "--r-th", "0.25",
                        "--starts", "1", "--out", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    lines = read(tmp_path / "sweep.csv").decode().strip().split("\n")
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1e6, -3e4, 1e300]


def test_sweep_rejects_nonfinite_target(tmp_path, capsys):
    code, _, err = run(["sweep", "--phi-list", "0.5,nan", "--r-th", "0.25",
                        "--starts", "4", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "config"


def test_validate_ladder(tmp_path, capsys, monkeypatch):
    calls = []
    propagators = validate._propagators

    def counted(*args):
        calls.append(args[-1])
        return propagators(*args)

    monkeypatch.setattr(validate, "_propagators", counted)
    code, out, _ = run(["validate", "--drive", PLUS_N1, "--kgrid", "3",
                        "--steps", "512", "--ladder", "--out", str(tmp_path)], capsys)
    assert code == 0
    # one propagation per rung: the first rung is the base comparison
    assert calls == [512] * 4
    doc = json.loads(out)
    assert len(doc["ladder_deviations"]) == 4
    # second-order truncation: deviation falls roughly like 1/omega^2
    assert -2.6 < doc["scaling_exponent"] < -1.4


def test_validate_ladder_keeps_base_outputs(tmp_path, capsys):
    argv = ["validate", "--drive", PLUS_N1, "--kgrid", "3", "--steps", "512"]
    _, base, _ = run(argv + ["--out", str(tmp_path / "a")], capsys)
    _, ladder, _ = run(argv + ["--ladder", "--out", str(tmp_path / "b")], capsys)
    assert read(tmp_path / "a" / "validate.csv") == read(tmp_path / "b" / "validate.csv")
    base, ladder = json.loads(base), json.loads(ladder)
    assert {key: ladder[key] for key in base} == base


def test_validate_command(tmp_path, capsys):
    code, out, _ = run(["validate", "--drive", PLUS_N1, "--kgrid", "4",
                        "--steps", "512", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["unitarity_defect"] < 1e-10
    lines = read(tmp_path / "validate.csv").decode().strip().split("\n")
    assert lines[0] == "kx,ky,eps_exact_lo,eps_exact_hi,eps_eff_lo,eps_eff_hi,deviation,pairing_flag"
    assert len(lines) == 17


@pytest.mark.parametrize("argv", [
    ["rates", "--drive", PLUS_N1],
    ["phase-map", "--A1", "0:1:0.5", "--A2", "0:1:0.5"],
    ["chern-diagram", "--phi=-2:2:2", "--ratio=-3:3:3", "--kgrid", "12"],
    ["optimize", "--phi-target", "1.5707963", "--r-th", "0.25", "--starts", "6"],
    ["sweep", "--phi-list", "1.5707963", "--r-th", "0.25", "--starts", "6"],
    ["validate", "--drive", PLUS_N1, "--kgrid", "3", "--steps", "512"],
])
def test_rerun_byte_identical(argv, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    files_a = sorted(os.listdir(a))
    assert files_a == sorted(os.listdir(b)) and files_a
    for name in files_a:
        assert read(a / name) == read(b / name), name


LADDER = ["validate", "--drive", PLUS_N1, "--j0-over-omega", "0.02", "--kgrid", "2",
          "--steps", "256", "--ladder"]


@pytest.mark.parametrize("argv, env, flag", [
    (["phase-map", "--A1", "0:1:0.5", "--A2", "0:1:0.5"], "100000", "FCF_THREADS"),
    (["optimize", "--phi-target", "1", "--r-th", "0.25", "--starts", "4"], "100000",
     "FCF_THREADS"),
    (["optimize", "--phi-target", "1", "--r-th", "0.25", "--starts", "4",
      "--threads", "100000"], None, "--threads"),
    (["optimize", "--phi-target", "1", "--r-th", "0.25", "--starts", "4",
      "--threads", "-1"], None, "--threads"),
    (["sweep", "--targets", "2", "--starts", "4", "--threads", "0"], None, "--threads"),
    (["phase-map", "--A1", "0:1:0.5", "--A2", "0:1:0.5"], "0", "FCF_THREADS"),
    (["sweep", "--targets", "2", "--starts", "4"], "-1", "FCF_THREADS"),
    (LADDER, "0", "FCF_THREADS"),
    (LADDER, "100000", "FCF_THREADS"),
])
def test_worker_cap_exit_2(argv, env, flag, tmp_path, capsys, monkeypatch):
    # refused before any thread or process starts (the values are never run)
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker was started")
    monkeypatch.setattr(threading.Thread, "start", no_workers)
    monkeypatch.setattr(os, "fork", no_workers)
    if env:
        monkeypatch.setenv("FCF_THREADS", env)
    value = int(env or argv[argv.index("--threads") + 1])
    bound = "at least 1" if value < 1 else "at most 64"
    code, _, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "config" and f"{flag} must be {bound}, got {value}" in error["message"]
    assert not os.listdir(tmp_path)

# ---------------------------------------------------------------------------
# fuzzed argv: every input ends in exit 0, 2 or 3, with nothing on stderr
# or exactly one JSON error object, and every JSON document the CLI writes
# is strict JSON (no NaN or Infinity)

DRIVES = [
    PLUS_N1,
    '{"family":"plus","omega":1.0,"A":[1.2,0.7],"delta":[0.0,0.9]}',
    '{"family":"minus","omega":2,"A":[0.5],"delta":[0]}',
    '{"family":"plus","omega":1e300,"A":[1],"delta":[0]}',
    '{"family":"plus","omega":1e-300,"A":[1],"delta":[0]}',
    '{"family":"plus","omega":1e-320,"A":[1],"delta":[0]}',
    '{"family":"plus","omega":0,"A":[1],"delta":[0]}',
    '{"family":"plus","omega":-1,"A":[1],"delta":[0]}',
    '{"family":"plus","omega":1,"A":[1e308,1e308],"delta":[0,0]}',
    '{"family":"custom","omega":1,"harmonics":[]}',
    '{"family":"custom","omega":1,"harmonics":[{"m":1,"ax":[1,0],"ay":[1,1.5]}]}',
    '{"family":"plus","omega":1,"A":[1]}',
    '{"family":',
    '[]',
    '{"family":"plus","omega":1,"A":5,"delta":0}',
    '{"family":"plus","omega":null,"A":[1],"delta":[0]}',
    '{"family":"custom","omega":1,"harmonics":5}',
    '{"family":"custom","omega":1,"harmonics":[{"m":1.5,"ax":[1,0],"ay":[1,0]}]}',
    '{"family":"plus","omega":1,"A":"12","delta":"00"}',
    '{"family":"custom","omega":1,"harmonics":[{"m":1,"ax":"10","ay":"10"}]}',
    '{"family":"custom","omega":1,"harmonics":[{"m":true,"ax":[1,0],"ay":[1,0]}]}',
    '{"family":"plus","omega":"1","A":[true],"delta":[false]}',
]
NUMBERS = ["0", "1", "-1", "0.25", "0.5", "2", "1e10", "1e300", "-1e300", "1e-300", "1e-320",
           "1e308", "nan", "inf", "abc"]
RANGES = ["0:1:1", "1:1:1", "0:0.5:0.25", "-1:1:1", "0:1e308:1e307", "-1e300:1e300:1e300",
          "0:1:0", "1:0:1", "nan:1:1", "0:1", "0:3.5:1.75"]


def _flags(**options):
    """argv fragments: each flag present with one of its values, or absent."""
    parts = [st.one_of(st.just([]), st.sampled_from(values).map(lambda v, f=flag: [f"{f}={v}"]))
             for flag, values in options.items()]
    return st.tuples(*parts).map(lambda groups: [a for g in groups for a in g])


def _command(name, required=(), switches=(), **options):
    """argv of one command: every `required` flag with one of its values,
    each switch present or absent, then `_flags(**options)`."""
    switch = st.tuples(*[st.sampled_from([[], [s]]) for s in switches]).map(
        lambda groups: [a for g in groups for a in g])
    return st.tuples(st.tuples(*[st.sampled_from(v).map(lambda x, f=f: f"{f}={x}")
                                 for f, v in required]),
                     _flags(**options), switch).map(
        lambda t: [name, *t[0], *t[1], *t[2]])


POOL = {"--N": ["1", "2", "0", "17"], "--amp-bound": ["0", "-1", "0.5", "3", "1e308", "nan"],
        "--seed": ["0", "42"], "--threads": ["-1", "0", "1", "100000"]}

ARGV = st.one_of(
    _command("rates", required=[("--drive", DRIVES)],
             **{"--j0": NUMBERS, "--delta": NUMBERS}),
    _command("phase-map", switches=["--svg"], required=[("--A1", RANGES), ("--A2", RANGES)],
             **{"--delta2": NUMBERS, "--family": ["plus", "minus", "other"]}),
    _command("chern-diagram", switches=["--svg"],
             required=[("--phi", RANGES), ("--ratio", RANGES), ("--kgrid", ["12", "13", "2", "abc"])],
             **{"--model": ["both", "driven", "haldane", "x"]}),
    _command("optimize", required=[("--phi-target", ["1", "-1.5707963", "nan"]),
                                   ("--r-th", ["0", "0.25", "1", "2"]),
                                   ("--starts", ["1", "2", "0"])],
             **POOL, **{"--family": ["plus", "minus"]}),
    _command("sweep", required=[("--phi-list", ["0.5", "0.5,-1", "nan", "x"]),
                                ("--r-th", ["0.25", "2", "0.25,nan"]),
                                ("--starts", ["1", "2", "0"])],
             **POOL),
    _command("validate", switches=["--ladder", "--richardson"],
             required=[("--drive", DRIVES), ("--kgrid", ["1", "2", "2", "0"]),
                       ("--steps", ["256"])],
             **{"--j0-over-omega": ["0.02", "0.5", "1e-300", "1e300", "0", "nan"],
                "--delta": NUMBERS}),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(argv=ARGV)
@example(argv=["optimize", "--phi-target=1", "--r-th=0.25", "--starts=2", "--amp-bound=0"])
@example(argv=["optimize", "--phi-target=1", "--r-th=0.25", "--starts=2", "--amp-bound=-1"])
@example(argv=["sweep", "--phi-list=1", "--r-th=0.25", "--starts=2", "--amp-bound=0"])
@example(argv=["validate", f"--drive={PLUS_N1}", "--j0-over-omega=1e300", "--kgrid=2",
               "--steps=256"])
@example(argv=["validate", "--drive=" + DRIVES[3], "--kgrid=2", "--steps=256"])
@example(argv=["chern-diagram", "--phi=0:1:1", "--ratio=0:1e308:1e307", "--kgrid=12"])
@example(argv=["rates", "--drive=" + DRIVES[5]])
@example(argv=["rates", "--drive=" + DRIVES[4], "--j0=1e10"])
@example(argv=["validate", "--drive=" + DRIVES[9], "--kgrid=2", "--steps=256", "--ladder"])
def test_cli_boundary(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"FCF_THREADS": "1"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", tmp])
        written = [read(os.path.join(tmp, name)).decode() for name in os.listdir(tmp)
                   if name.endswith(".json")]
    assert code in (0, 2, 3), argv
    if code == 0:
        assert err.getvalue() == "", argv
        if argv[0] in ("rates", "validate"):
            _strict_json(out.getvalue())
        for text in written:
            _strict_json(text)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, err.getvalue())
        assert _strict_json(lines[0])["error"]["code"] == code
