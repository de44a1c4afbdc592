"""A tiny-size run of every workload, untraced and traced, ends within a
minute with a correct result line carrying every declared metric.

The sizes shrink by setting the workload modules' size constants in the
child process before ``run.main`` runs; the measuring and checking code
is the one the benchmark runs.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

SHRINK = {
    "reproduce": "import reproduce; reproduce.FIG5_POINTS = 5; "
                 "reproduce.FIG6_DWT_STRIDE = 64; "
                 "reproduce.FIG6_MVM_STRIDE = 40",
    "oracle": "import oracle; full = oracle.corpus; "
              "oracle.corpus = lambda seed: full(seed)[:4]",
    "serve-write": "import serve; serve.PER_CONN = 16; "
                   "serve.LADDER_REQUESTS = 8",
    "serve-read": "import serve; serve.PER_CONN = 16; "
                  "serve.READ_REPEAT = 2; serve.LADDER_REQUESTS = 8",
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SHRINK))
def test_tiny_run(workload, trace):
    code = (f"import sys; sys.path.insert(0, {BENCH!r}); "
            f"{SHRINK[workload]}; import run; "
            f"sys.exit(run.main(['--workload', {workload!r}, '--seed', '3', "
            f"'--seconds', '0.1', '--trace', '{trace}']))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
