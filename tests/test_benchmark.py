import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_sweep_benchmark_ends_in_a_result():
    # the traced run finds the sweep's problems through the spans of its
    # `sobol_starts` calls and then probes every layer; its last line of
    # stdout must be the strict-JSON result, with every operation passed
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=refuse)
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert "optimizer.maximize_s" in result["metrics"]
