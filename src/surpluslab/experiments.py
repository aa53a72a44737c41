"""Reproducible experiment harness: distance-matrix sampling for any model
family, two-sample discrepancy statistics (energy distance, per-entry KS,
permutation test), the bias-tail estimator, and run manifests.

All randomness flows from one 64-bit seed through numbered SeedSequence
streams; a manifest records the streams, parameter hashes, and counts,
and re-running a manifest reproduces byte-identical output files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .continuum import sample_icrg_weighted, sample_icrt
from .errors import InsufficientLeaves, UnknownVertex, ValidationError
from .labels import Vertex, star
from .multigraph import Multigraph
from .params import KIND_SURPLUS, DegreeSequence
from .samplers import (_bias_from_fathers, _sample_pk_glued,
                       sample_configuration_model, sample_dk_graph,
                       sample_multiplicative_graph,
                       sample_multiplicative_multigraph)
from .trees import PTreeGrowth, _base_multiset, _climb, _walk

VERSION = "0.1.0"


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_id,)))


# ---------------------------------------------------------------------------
# vertex measures


@dataclass
class VertexMeasure:
    """Normalized weights over a graph's vertices."""
    weights: Dict[Vertex, float]

    def __post_init__(self):
        total = sum(self.weights.values())
        if total <= 0 or any(w < 0 for w in self.weights.values()):
            raise ValidationError("measure weights must be non-negative, sum > 0")
        self.weights = {v: w / total for v, w in self.weights.items()}

    @staticmethod
    def uniform(vertices) -> "VertexMeasure":
        vs = list(vertices)
        return VertexMeasure({v: 1.0 for v in vs})

    def sample(self, rng: np.random.Generator, n: int) -> list:
        items = sorted(self.weights.items())
        cum = np.cumsum([w for _, w in items])
        us = rng.random(n)
        idx = np.searchsorted(cum, us, side="right").clip(0, len(items) - 1)
        return [items[i][0] for i in idx]


def multigraph_distance_matrix(g: Multigraph, points: Sequence[Vertex]) -> np.ndarray:
    out = np.zeros((len(points), len(points)))
    for i, p in enumerate(points):
        dist = g.distances_from(p)
        for j, q in enumerate(points):
            if q not in dist:
                raise ValidationError(f"{q} unreachable from {p}")
            out[i, j] = dist[q]
    return out


# ---------------------------------------------------------------------------
# model runners: one rescaled distance matrix per repetition


def _scale_of(model: dict) -> float:
    scale = model.get("scale", "none")
    if scale == "lambda":
        seq = model["params"]
        tree_seq = seq.to_tree_kind() if seq.kind == KIND_SURPLUS else seq
        return tree_seq.stats().lam
    if scale == "sigma":
        return model["params"].sigma
    if scale == "none":
        return 1.0
    return float(scale)


def _walk_matrix(entries: list, n_leaves: int, points: Sequence[Vertex]):
    """Edge counts between points of the tree that _walk(entries, n_leaves)
    folds, one climb per pair: S_j hangs one hop below fathers[j], and V_i
    of a degree sequence is the int entry i.  An empty walk is the
    two-leaf tree S0 - S1."""
    parent, depth, fathers = _walk(entries, n_leaves)
    for j, f in enumerate(fathers if entries else [None, star(0)]):
        parent[star(j)] = f
        depth[star(j)] = 0 if f is None else depth[f] + 1
    nodes = [v.index if v.kind == "V" else v for v in points]
    out = np.zeros((len(points), len(points)))
    for i, (v, a) in enumerate(zip(points, nodes)):
        if a not in parent:
            raise UnknownVertex(f"{v} not in tree")
        for j in range(i):
            out[i, j] = out[j, i] = len(_climb(parent, depth, a, nodes[j]))
    return out


_MEASURE_MODELS = ("d-tree", "dk-graph", "cm", "mult", "mult-multi")


def _one_matrix(model: dict, n_points: int, rng: np.random.Generator,
                measure: Optional[VertexMeasure], base: Optional[np.ndarray]):
    """(matrix, importance weight) for a single repetition; base is the
    d-tree multiset, shuffled afresh each time."""
    name = model["model"]
    params = model["params"]
    k = model.get("k", 0)
    marks = [star(j) for j in range(1, n_points + 1)]
    if name == "d-tree":
        entries = base[rng.permutation(len(base))].tolist()
        if measure is None:  # the walk stops once S1..S_n_points are placed
            return _walk_matrix(entries, n_points + 1, marks), 1.0
        return _walk_matrix(entries, len(entries) + 2,
                            measure.sample(rng, n_points)), 1.0
    if name == "dk-graph":
        g = sample_dk_graph(params, rng)
        if measure is not None:
            points = measure.sample(rng, n_points)
        else:
            points = [star(2 * k + j) for j in range(1, n_points + 1)]
        return multigraph_distance_matrix(g, points), 1.0
    if name == "p-tree":
        growth = PTreeGrowth(params, rng)
        growth.grow_until_stars(n_points)
        return _walk_matrix(growth.record, n_points + 1, marks), 1.0
    if name == "pk-graph":
        g = _sample_pk_glued(params, k, model.get("n_steps", 1), rng,
                             min_stars=2 * k + n_points)
        points = [star(2 * k + j) for j in range(1, n_points + 1)]
        return multigraph_distance_matrix(g, points), 1.0
    if name == "icrt":
        real = sample_icrt(params, rng, n_points=n_points)
        mat = real.tree().mark_distance_matrix(list(range(1, n_points + 1)))
        return np.array(mat, dtype=float), 1.0
    if name == "icrg":
        ws = sample_icrg_weighted(params, k, rng, n_points=2 * k + n_points)
        labels = list(range(2 * k + 1, 2 * k + n_points + 1))
        mat = ws.payload.mark_distance_matrix(labels)
        return np.array(mat, dtype=float), ws.weight
    if name == "cm":
        g = sample_configuration_model(params, rng)
        mea = measure or VertexMeasure.uniform(g.vertices)
        return multigraph_distance_matrix(g, mea.sample(rng, n_points)), 1.0
    if name in ("mult", "mult-multi"):
        lam, weights = params
        sampler = (sample_multiplicative_graph if name == "mult"
                   else sample_multiplicative_multigraph)
        g = sampler(lam, weights, rng)
        mea = measure or VertexMeasure.uniform(g.vertices)
        return multigraph_distance_matrix(g, mea.sample(rng, n_points)), 1.0
    raise ValidationError(f"unknown model {name!r}")


def gp_matrix_sample(model: dict, n_points: int, n_reps: int,
                     rng: np.random.Generator,
                     measure: Optional[VertexMeasure] = None):
    """n_reps rescaled distance matrices (and importance weights).

    The scale multiplies every entry: model["scale"] is "lambda" for
    degree-sequence models converging to a theta target, "sigma" for
    probability-vector models, "none" (default), or an explicit float.
    A measure is only taken by the models in _MEASURE_MODELS.
    """
    name, base = model["model"], None
    if measure is not None and name not in _MEASURE_MODELS:
        raise ValidationError(f"model {name!r} takes no vertex measure")
    if name == "d-tree":  # built once; each rep shuffles it
        base = np.array(_base_multiset(model["params"]), dtype=np.int64)
    scale = _scale_of(model)
    mats = np.empty((n_reps, n_points, n_points))
    weights = np.empty(n_reps)
    for r in range(n_reps):
        m, w = _one_matrix(model, n_points, rng, measure, base)
        mats[r] = m * scale
        weights[r] = w
    return mats, weights


# ---------------------------------------------------------------------------
# two-sample statistics


def _norm_weights(n: int, w: Optional[np.ndarray]) -> np.ndarray:
    if w is None:
        w = np.ones(n)
    w = np.asarray(w, dtype=float)
    return w / w.sum()


def energy_distance(x: np.ndarray, y: np.ndarray,
                    wx: Optional[np.ndarray] = None,
                    wy: Optional[np.ndarray] = None) -> float:
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| with self-normalized weights."""
    from scipy.spatial.distance import cdist  # deferred: keeps CLI start-up light
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    wx = _norm_weights(len(x), wx)
    wy = _norm_weights(len(y), wy)
    a = wx @ cdist(x, y) @ wy
    b = wx @ cdist(x, x) @ wx
    c = wy @ cdist(y, y) @ wy
    return float(2 * a - b - c)


def ks_statistic(x: np.ndarray, y: np.ndarray,
                 wx: Optional[np.ndarray] = None,
                 wy: Optional[np.ndarray] = None) -> float:
    """Max ECDF gap between two (optionally weighted) scalar samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wx = _norm_weights(len(x), wx)
    wy = _norm_weights(len(y), wy)
    grid = np.sort(np.concatenate([x, y]))
    ox, oy = np.argsort(x), np.argsort(y)
    cx = np.concatenate([[0.0], np.cumsum(wx[ox])])
    cy = np.concatenate([[0.0], np.cumsum(wy[oy])])
    fx = cx[np.searchsorted(x[ox], grid, side="right")]
    fy = cy[np.searchsorted(y[oy], grid, side="right")]
    return float(np.max(np.abs(fx - fy)))


def importance_unweight(x: np.ndarray, w: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Rejection unweighting: an exact i.i.d. unweighted subsample.

    Keeping row i with probability w_i / max(w) leaves independent draws
    from the weighted law, with no duplicates (unlike resampling)."""
    w = np.asarray(w, dtype=float)
    keep = rng.random(len(x)) < w / w.max()
    return x[keep]


def permutation_energy_test(x: np.ndarray, y: np.ndarray, n_perms: int,
                            rng: np.random.Generator):
    """(observed, p-value, 95% permutation quantile) for the energy distance.

    Group sizes may differ.  Row 0 of the 0/1 matrix Z marks the x rows of
    the pooled sample, row i those of permutation i.  With D the pooled
    distance matrix, the one product Z D gives every within-x sum as
    diag(Z D Z^T); the row sums of D give the cross and within-y sums.
    The observed statistic is row 0 of the same formula.
    """
    if n_perms < 1:
        raise ValidationError("n_perms must be >= 1")
    if len(x) == 0 or len(y) == 0:
        raise ValidationError("both groups need at least one row")
    from scipy.spatial.distance import cdist
    n, m = len(x), len(y)
    pooled = np.concatenate([x, y])
    dm = cdist(pooled, pooled)
    z = np.zeros((n_perms + 1, n + m))
    z[0, :n] = 1
    for i in range(1, n_perms + 1):
        z[i, rng.permutation(n + m)[:n]] = 1
    xx = np.einsum("ij,ij->i", z @ dm, z)  # within-x sums
    xd = z @ dm.sum(axis=1)                # x-to-everything sums
    yy = dm.sum() - 2 * xd + xx
    stats = 2 * (xd - xx) / (n * m) - xx / n ** 2 - yy / m ** 2
    observed, perms = stats[0], stats[1:]
    p = (1 + np.sum(perms >= observed)) / (n_perms + 1)
    return float(observed), float(p), float(np.quantile(perms, 0.95))


def _upper_triangles(mats: np.ndarray) -> np.ndarray:
    n = mats.shape[1]
    iu = np.triu_indices(n, k=1)
    return mats[:, iu[0], iu[1]]


# ---------------------------------------------------------------------------
# experiments


def converge_experiment(family: List[dict], target: dict, n_points: int,
                        n_reps: int, rng: np.random.Generator,
                        n_perms: int = 199, target_factor: int = 4) -> dict:
    """Discrepancy of each family member's matrix law to the target's.

    Energy distance on upper-triangle vectors plus the max per-entry KS,
    self-normalized weighting for weighted targets, a monotonicity report,
    and a permutation test for the last member.  The target is sampled
    target_factor times as often as each member, so target-side noise does
    not dominate the member discrepancies.
    """
    tm, tw = gp_matrix_sample(target, n_points, target_factor * n_reps, rng)
    tvec = _upper_triangles(tm)
    rows = []
    last_x = None
    for i, model in enumerate(family):
        mm, mw = gp_matrix_sample(model, n_points, n_reps, rng)
        mvec = _upper_triangles(mm)
        e = energy_distance(mvec, tvec, mw, tw)
        ks = max(ks_statistic(mvec[:, j], tvec[:, j], mw, tw)
                 for j in range(mvec.shape[1]))
        rows.append({"member": i, "label": model.get("label", str(i)),
                     "energy": e, "ks_max": ks})
        last_x = (mvec, mw)
    energies = [r["energy"] for r in rows]
    decreasing = all(energies[i] > energies[i + 1] for i in range(len(energies) - 1))
    if np.allclose(tw, tw[0]):
        ty = tvec
    else:
        ty = importance_unweight(tvec, tw, rng)
    observed, pval, thresh95 = permutation_energy_test(last_x[0], ty, n_perms, rng)
    return {"rows": rows, "decreasing": decreasing,
            "last_member_permutation": {"observed": observed, "p": pval,
                                        "threshold95": thresh95}}


def d_tree_bias_values(tree_seq: DegreeSequence, k: int, n_samples: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Bias of n_samples unbiased trees, glued at their own labels S1..S2k."""
    if tree_seq.N + 1 < 2 * k:
        raise InsufficientLeaves("need at least 2k leaves besides S0")
    base = np.array(_base_multiset(tree_seq), dtype=np.int64)
    out = np.empty(n_samples)
    for r in range(n_samples):
        entries = base[rng.permutation(len(base))].tolist()
        parent, depth, fathers = _walk(entries, 2 * k + 1)
        b, _, _ = _bias_from_fathers(parent, depth, fathers[1:2 * k + 1])
        out[r] = float(b)
    return out


def bias_tail_experiment(tree_seq: DegreeSequence, k: int,
                         m_grid: Sequence[float], n_reps: int,
                         rng: np.random.Generator) -> List[dict]:
    """Monte Carlo E[h_m(bias / lambda^k)] with standard errors."""
    lam = tree_seq.stats().lam
    values = d_tree_bias_values(tree_seq, k, n_reps, rng) / lam ** k
    rows = []
    for m in m_grid:
        h = np.where(values >= m, values, 0.0)
        est = float(h.mean())
        se = float(h.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0
        rows.append({"m": float(m), "estimate": est, "stderr": se})
    return rows


# ---------------------------------------------------------------------------
# manifests and deterministic output


@dataclass
class ExperimentManifest:
    experiment: str
    seed: int
    reps: int
    param_hashes: Dict[str, str] = field(default_factory=dict)
    streams: List[int] = field(default_factory=list)
    options: Dict[str, object] = field(default_factory=dict)
    version: str = VERSION

    def to_json(self) -> str:
        return json.dumps({
            "experiment": self.experiment, "seed": self.seed,
            "reps": self.reps, "param_hashes": self.param_hashes,
            "streams": self.streams, "options": self.options,
            "version": self.version}, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "ExperimentManifest":
        obj = json.loads(text)
        return ExperimentManifest(
            obj["experiment"], obj["seed"], obj["reps"],
            obj.get("param_hashes", {}), obj.get("streams", []),
            obj.get("options", {}), obj.get("version", VERSION))


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_csv_lines(rows: List[dict], metadata: Dict[str, object]) -> List[str]:
    """'#' metadata rows by sorted key, a header, then repr-exact rows."""
    lines = [f"# {k} = {metadata[k]}" for k in sorted(metadata)]
    if rows:
        cols = list(rows[0].keys())
        lines.append(",".join(cols))
        for row in rows:
            lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                                  else str(row[c]) for c in cols))
    return lines


def write_table_csv(path, rows: List[dict], metadata: Dict[str, object]):
    """CSV file of table_csv_lines."""
    with open(path, "w") as fh:
        fh.write("\n".join(table_csv_lines(rows, metadata)) + "\n")
