import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# 01 reads the sequence statistics sigma and lambda; 03 is the only demo
# that drives sample_dk_graph_keys; 04 the only one that drives MetricTree,
# metric_glue, reconstruct and core_measure; 05 runs a scaling-limit
# experiment end to end.  02 stays out: it takes about 16 s.
@pytest.mark.parametrize("demo", ["01_trees_with_fixed_degrees.py",
                                  "03_surplus_graphs_vs_oracles.py",
                                  "04_continuum_trees_and_gluing.py",
                                  "05_scaling_limit_experiment.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
