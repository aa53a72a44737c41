import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surpluslab

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


# exported names that only tests call: the exact oracles stay, checking
# being the lab's purpose, and so does converge's planned per-member report
ORACLES_AND_REPORTS = {
    "gromov_height",         # the four-point oracle behind reconstruct
    "tree_distance_matrix",  # the oracle of experiments' walk matrices
    "regime_gap",            # converge's per-member regime report, to come
}


def _names_read(path):
    """Every name and attribute the file at path reads; a def or class
    line binds its name, so it reads none."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_every_public_name_backs_a_sampler_oracle_command_or_demo():
    # a name in surpluslab/__init__.py must be read by another module of
    # the package (a sampler, an oracle or the CLI), by a demo, or be one
    # of the oracles and reports above, so the surface cannot grow back
    package = Path(surpluslab.__file__).parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    readers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    readers += (ROOT / "demos").glob("*.py")
    read = set().union(*map(_names_read, readers))
    assert ORACLES_AND_REPORTS <= exported
    assert sorted(exported - read - ORACLES_AND_REPORTS) == []
