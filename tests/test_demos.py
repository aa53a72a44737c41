import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# 03 is the only demo that drives sample_dk_graph_keys; 04 the only one
# that drives MetricTree, metric_glue, reconstruct and core_measure
@pytest.mark.parametrize("demo", ["03_surplus_graphs_vs_oracles.py",
                                  "04_continuum_trees_and_gluing.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
