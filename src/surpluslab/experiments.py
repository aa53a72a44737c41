"""Reproducible experiment harness: distance-matrix sampling for the six
model families, two-sample discrepancy statistics (energy distance, KS,
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
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .continuum import _glued, _mark_matrix, sample_icrg_weighted
from .errors import InsufficientLeaves, UnknownVertex, ValidationError
from .labels import Vertex, star
from .multigraph import Multigraph
from .params import (KIND_SURPLUS, KIND_TREE, DegreeSequence, PVector,
                     ThetaVector, _check_real)
from .samplers import _glue_bias, _sample_pk_glued, sample_dk_graph
from .trees import PTreeGrowth, _climb_matrix, _decoded, _walk, _walk_base

VERSION = "0.3.0"


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_id,)))


# ---------------------------------------------------------------------------
# vertex measures


@dataclass
class VertexMeasure:
    """Normalized weights over a graph's vertices."""
    weights: Dict[Vertex, float]

    def __post_init__(self):
        _check_real("measure", self.weights.values())
        total = sum(self.weights.values())
        if total <= 0 or any(w < 0 for w in self.weights.values()):
            raise ValidationError("measure weights must be non-negative, sum > 0")
        self.weights = {v: w / total for v, w in self.weights.items()}

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


def _walk_matrix(parent, depth, leaves: dict, points: Sequence[Vertex],
                 glued=()) -> np.ndarray:
    """Edge counts between points of a walk's tree with one length-1
    shortcut per glued pair glued[2i], glued[2i+1]: one climb matrix over
    the points and the glued fathers.  A leaf S_j hangs one hop below its
    father leaves[j]; any other point is a walk entry, V_i of a degree
    sequence the int entry i.  The walk is only read: table graphs share it."""
    nodes, hops = [], []
    for p in points:
        if p.kind == "S" and p.index in leaves:
            a, hop = leaves[p.index], 1
        else:
            a, hop = p if p in parent else p.index if p.kind == "V" else None, 0
        if a not in parent:
            raise UnknownVertex(f"{p} not in tree")
        nodes.append(a)
        hops.append(hop)
    rows = _glued(_climb_matrix(parent, depth, nodes + list(glued)),
                  len(nodes), 1)
    # a point drawn twice is 0 from itself, though both copies add a hop
    return np.array([[0 if p == q else d + hp + hq
                      for q, d, hq in zip(points, row, hops)]
                     for p, row, hp in zip(points, rows, hops)],
                    dtype=float).reshape(len(nodes), len(nodes))


def _tree_matrix(entries: Iterable, n_leaves: int, points: Sequence[Vertex]):
    """Edge counts between points of the tree _walk(entries, n_leaves)
    folds, S_j one hop below fathers[j]; an empty walk is the two-leaf
    tree S0 - S1."""
    parent, depth, fathers = _walk(entries, n_leaves)
    if not parent:
        return _walk_matrix({star(0): None}, {star(0): 0}, {1: star(0)},
                            points)
    return _walk_matrix(parent, depth, dict(enumerate(fathers)), points)


def _graph_matrix(g: Multigraph, points: Sequence[Vertex]) -> np.ndarray:
    """A sampled glued graph's distances, read off the walk it was glued
    from; a graph with no walk (the single edge of [0, 0]) takes the BFS."""
    if g._walk is None:
        return multigraph_distance_matrix(g, points)
    parent, depth, glued, kept = g._walk
    return _walk_matrix(parent, depth, dict(kept), points, glued)


@lru_cache(maxsize=32)
def _lambda_scale(seq: DegreeSequence) -> float:
    """lam of the sequence as tree kind, derived once per sequence."""
    return seq.to_tree_kind().lam


# the params type each model draws from; each scale's params types and factor
_MODELS = {"d-tree": DegreeSequence, "dk-graph": DegreeSequence, "p-tree": PVector,
           "pk-graph": PVector, "icrt": ThetaVector, "icrg": ThetaVector}
_SCALES = {"lambda": ((DegreeSequence,), _lambda_scale),
           "sigma": ((DegreeSequence, PVector), lambda p: p.sigma),
           "none": ((DegreeSequence, PVector, ThetaVector), lambda p: 1.0)}
# the models a vertex measure can mark, each with its sequence's kind
_MEASURE_MODELS = {"d-tree": KIND_TREE, "dk-graph": KIND_SURPLUS}


def _check_model(model: dict, n_points: int, measure=None) -> float:
    """The model's scale factor, once every check gp_matrix_sample makes
    before any draw has passed.  A d-tree or dk-graph with no measure marks
    its points with star leaves, one per zero degree but S0."""
    name, params = model["model"], model["params"]
    scale = model.get("scale", "none")
    if name not in _MODELS:
        raise ValidationError(f"unknown model {name!r}")
    if scale not in _SCALES:
        raise ValidationError(f"unknown scale {scale!r}")
    if not (isinstance(params, _MODELS[name])
            and isinstance(params, _SCALES[scale][0])):
        raise ValidationError(f"model {name!r} at scale {scale!r} takes no "
                              f"{type(params).__name__}")
    if measure is not None and name not in _MEASURE_MODELS:
        raise ValidationError(f"model {name!r} takes no vertex measure")
    label, k = model.get("label", name), model.get("k", 0)
    kind = _MEASURE_MODELS.get(name)
    if kind is not None and params.kind != kind:
        raise ValidationError(f"model {label!r} ({name}) needs a {kind}-kind "
                              f"degree sequence, not {params.kind}")
    if name == "dk-graph" and k != params.k:
        raise ValidationError(f"model {label!r} (dk-graph) has k = {k}, but "
                              f"its degree sequence has surplus k = {params.k}")
    if measure is None and kind is not None:
        n_marks = max(params.n_zero - 1, 0)  # a zero-free sequence has no S0
        if n_marks < n_points:
            raise InsufficientLeaves(
                f"model {label!r} ({name}) supplies {n_marks} star "
                f"marks, fewer than the {n_points} points asked for")
    return _SCALES[scale][1](params)


def _one_matrix(model: dict, n_points: int, rng: np.random.Generator,
                measure: Optional[VertexMeasure]):
    """(matrix, importance weight) for a single repetition; a d-tree
    shuffles its cached walk base afresh each time."""
    name = model["model"]
    params = model["params"]
    k = 0 if name == "icrt" else model.get("k", 0)  # the ICRT: the k = 0 ICRG
    marks = [star(j) for j in range(1, n_points + 1)]
    if name == "d-tree":
        base = _walk_base(params)
        perm = rng.permutation(len(base))
        if measure is None:  # the walk stops once S1..S_n_points are placed
            return _tree_matrix(_decoded(base, perm), n_points + 1, marks), 1.0
        return _tree_matrix(base[perm].tolist(), len(base) + 2,
                            measure.sample(rng, n_points)), 1.0
    if name == "dk-graph":
        g = sample_dk_graph(params, rng)
        if measure is not None:
            points = measure.sample(rng, n_points)
        else:
            points = [star(2 * k + j) for j in range(1, n_points + 1)]
        return _graph_matrix(g, points), 1.0
    if name == "p-tree":
        growth = PTreeGrowth(params, rng)
        growth.grow(0, n_points)
        return _tree_matrix(growth.record, n_points + 1, marks), 1.0
    if name == "pk-graph":
        g = _sample_pk_glued(params, k, model.get("n_steps", 1), rng,
                             min_stars=2 * k + n_points)
        points = [star(2 * k + j) for j in range(1, n_points + 1)]
        return _graph_matrix(g, points), 1.0
    # icrt or icrg
    ws = sample_icrg_weighted(params, k, rng, n_points=2 * k + n_points)
    labels = range(2 * k + 1, 2 * k + n_points + 1)
    mat = _mark_matrix(ws._segments, labels, k)
    return np.array(mat, dtype=float), ws.weight


def gp_matrix_sample(model: dict, n_points: int, n_reps: int,
                     rng: np.random.Generator,
                     measure: Optional[VertexMeasure] = None):
    """n_reps rescaled distance matrices (and importance weights).

    The scale multiplies every entry: model["scale"] is "lambda" for
    degree-sequence models converging to a theta target, "sigma" for
    probability-vector models, or "none" (default).  Every model
    _check_model refuses raises before any draw.  A measure is only taken
    by the models in _MEASURE_MODELS.
    """
    if n_points < 1 or n_reps < 0:
        raise ValidationError("need n_points >= 1 and n_reps >= 0")
    scale = _check_model(model, n_points, measure)
    mats = np.empty((n_reps, n_points, n_points))
    weights = np.empty(n_reps)
    for r in range(n_reps):
        m, w = _one_matrix(model, n_points, rng, measure)
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
    """Rejection unweighting, bounded by the sample's own max(w).

    Row i is kept with probability w_i / max(w), with no duplicates
    (unlike resampling).  That is exact only if max(w) bounds the weight
    law; the ICRG weight has no finite bound, so the kept rows are
    neither i.i.d. nor exactly from the weighted law."""
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
    if not family:
        raise ValidationError("converge needs at least one family member")
    for model in [target, *family]:  # every model, before any draw
        _check_model(model, n_points)
    tm, tw = gp_matrix_sample(target, n_points, target_factor * n_reps, rng)
    tvec = _upper_triangles(tm)
    rows = []
    for i, model in enumerate(family):
        mm, mw = gp_matrix_sample(model, n_points, n_reps, rng)
        mvec = _upper_triangles(mm)
        e = energy_distance(mvec, tvec, mw, tw)
        ks = max(ks_statistic(mvec[:, j], tvec[:, j], mw, tw)
                 for j in range(mvec.shape[1]))
        rows.append({"member": i, "label": model.get("label", str(i)),
                     "energy": e, "ks_max": ks})
    energies = [r["energy"] for r in rows]
    decreasing = all(energies[i] > energies[i + 1] for i in range(len(energies) - 1))
    if np.allclose(tw, tw[0]):
        ty = tvec
    else:
        ty = importance_unweight(tvec, tw, rng)
    # mvec still holds the last member's sample
    observed, pval, thresh95 = permutation_energy_test(mvec, ty, n_perms, rng)
    return {"rows": rows, "decreasing": decreasing,
            "last_member_permutation": {"observed": observed, "p": pval,
                                        "threshold95": thresh95}}


def d_tree_bias_values(tree_seq: DegreeSequence, k: int, n_samples: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Bias of n_samples unbiased trees, glued at their own labels S1..S2k."""
    if k < 0:
        raise ValidationError("surplus k must be >= 0")
    if n_samples < 0:
        raise ValidationError("n_samples must be >= 0")
    if tree_seq.N + 1 < 2 * k:
        raise InsufficientLeaves("need at least 2k leaves besides S0")
    base = _walk_base(tree_seq)
    out = np.empty(n_samples)
    for r in range(n_samples):
        perm = rng.permutation(len(base))
        circ, prod = _glue_bias(_decoded(base, perm), k, first=1)
        out[r] = circ / prod  # int division rounds correctly
    return out


def bias_tail_experiment(tree_seq: DegreeSequence, k: int,
                         m_grid: Sequence[float], n_reps: int,
                         rng: np.random.Generator) -> List[dict]:
    """Monte Carlo E[h_m(bias / lambda^k)] with standard errors."""
    if n_reps < 1:
        raise ValidationError("n_reps must be >= 1")
    lam = tree_seq.lam
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
        version = obj.get("version", VERSION)
        if version != VERSION:  # its streams were drawn another way
            raise ValidationError(
                f"manifest version {version} does not replay under {VERSION}")
        return ExperimentManifest(
            obj["experiment"], obj["seed"], obj["reps"],
            obj.get("param_hashes", {}), obj.get("streams", []),
            obj.get("options", {}), version)


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_lines(comments: Sequence[str], header: Sequence[str],
              rows: Sequence[Sequence]) -> List[str]:
    """'# ' comments, the header (if any), then rows with repr-exact floats."""
    lines = [f"# {c}" for c in comments]
    if header:
        lines.append(",".join(header))
    lines.extend(",".join(repr(x) if isinstance(x, float) else str(x)
                          for x in row) for row in rows)
    return lines


def table_csv_lines(rows: List[dict], metadata: Dict[str, object]) -> List[str]:
    """Metadata comments by sorted key, then the rows under their keys."""
    cols = list(rows[0]) if rows else []
    return csv_lines([f"{k} = {metadata[k]}" for k in sorted(metadata)], cols,
                     [[row[c] for c in cols] for row in rows])
