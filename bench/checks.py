"""Output checks, each computed apart from the sampler it checks.

Every check raises CheckFailed with a message naming what went wrong.
The checks read plain data (edge lists, arrays, JSON lines, exact
fractions) and use their own graph walks and formulas; where the
program's own objects are needed (the ICRT tree's mark matrix), they are
named in the docstring.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
import re
from collections import Counter, defaultdict, deque
from fractions import Fraction

import numpy as np

# Two-sided tail of a normal beyond 4 standard deviations: a frequency
# "within 4 standard errors" is tested exactly, as a binomial p-value of
# at least this much.
ALPHA_4SE = math.erfc(4 / math.sqrt(2))
# False-alarm rate of each goodness-of-fit test against an exact oracle.
ALPHA_GOF = 1e-5
REL_TOL = 1e-9

_LABEL = re.compile(r"^(Vinf|V|S)(\d+)$")


class CheckFailed(AssertionError):
    pass


def fail_unless(ok, message):
    if not ok:
        raise CheckFailed(message)


def vertex(label) -> tuple:
    """'V3' / 'S0' / a Vertex named tuple -> ('V', 3)."""
    if isinstance(label, tuple):
        return (label[0], int(label[1]))
    m = _LABEL.match(label)
    fail_unless(m is not None, f"unrecognized vertex label {label!r}")
    return (m.group(1), int(m.group(2)))


# ---------------------------------------------------------------------------
# multigraphs given as edge lists


def graph_from_json(line: str):
    """(vertex set, [(u, v, mult)]) from one Multigraph JSON line."""
    obj = json.loads(line)
    edges = [(vertex(e["u"]), vertex(e["v"]), int(e["mult"]))
             for e in obj["edges"]]
    vs = {vertex(x) for x in obj["vertices"]}
    return vs, edges


def graph_from_items(vertices, edge_items):
    """(vertex set, [(u, v, mult)]) from Multigraph.vertices/edge_items()."""
    return ({vertex(v) for v in vertices},
            [(vertex(u), vertex(v), int(m)) for (u, v), m in edge_items])


def _adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v, _ in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def hop_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def degrees_of(vertices, edges):
    deg = Counter({v: 0 for v in vertices})
    for u, v, m in edges:
        deg[u] += m
        deg[v] += m  # a loop adds 2m
    return deg


def check_surplus_graph(vertices, edges, degrees, k):
    """Connected, surplus k, Vi of degree d_i + 1 for d_i > 0, and one
    star leaf per zero entry (the zeros survive as star leaves)."""
    adj = _adjacency(vertices, edges)
    vertices = set(adj)
    start = next(iter(vertices))
    fail_unless(len(hop_distances(adj, start)) == len(vertices),
                "graph is not connected")
    n_edges = sum(m for _, _, m in edges)
    fail_unless(n_edges - len(vertices) + 1 == k,
                f"surplus {n_edges - len(vertices) + 1}, expected {k}")
    deg = degrees_of(vertices, edges)
    want = {("V", i + 1): d + 1 for i, d in enumerate(degrees) if d > 0}
    for v, d in want.items():
        fail_unless(deg.get(v) == d, f"{v} has degree {deg.get(v)}, expected {d}")
    others = vertices - set(want)
    n_zero = sum(1 for d in degrees if d == 0)
    strangers = sorted(v for v in others if v[0] != "S")
    fail_unless(not strangers, f"unexpected vertices {strangers}")
    fail_unless(len(others) == n_zero,
                f"{len(others)} star leaves, expected {n_zero}")
    fail_unless(all(deg[v] == 1 for v in others), "a star label is not a leaf")


def check_hop_matrix(vertices, edges, points, matrix, scale):
    """matrix == scale * hop distances between the points."""
    adj = _adjacency(vertices, edges)
    pts = [vertex(p) for p in points]
    want = np.empty((len(pts), len(pts)))
    for i, p in enumerate(pts):
        dist = hop_distances(adj, p)
        for j, q in enumerate(pts):
            want[i, j] = scale * dist[q]
    matrix = np.asarray(matrix, dtype=float)
    fail_unless(matrix.shape == want.shape, f"matrix shape {matrix.shape}")
    fail_unless(np.allclose(matrix, want, rtol=REL_TOL, atol=0),
                f"mark matrix differs from scale * hop distances "
                f"by {np.max(np.abs(matrix - want)):.3g}")


def leaf_key(vertices, edges):
    """Labeled key with degree-1 vertices summarized per father: core
    vertices, core edges with multiplicities, pendant counts, leaf count.
    A leaf joined to another leaf stays core."""
    deg = degrees_of(vertices, edges)
    leaves = {v for v in vertices if deg[v] == 1}
    for u, v, _ in edges:
        if u in leaves and v in leaves:
            leaves -= {u, v}
    core, pendant = [], Counter()
    for u, v, m in edges:
        u, v = min(u, v), max(u, v)
        if u in leaves:
            pendant[v] += m
        elif v in leaves:
            pendant[u] += m
        else:
            core.append(((u, v), m))
    return (tuple(sorted(set(vertices) - leaves)), tuple(sorted(core)),
            tuple(sorted(pendant.items())), len(leaves))


def labeled_key(vertices, edges):
    """Full labeled key: sorted vertices and sorted ((u, v), mult)."""
    merged = Counter()
    for u, v, m in edges:
        merged[(min(u, v), max(u, v))] += m
    return (tuple(sorted(vertices)), tuple(sorted(merged.items())))


def parse_key(text: str):
    """A key printed as a Python tuple of bare vertex labels -> tuples."""
    quoted = re.sub(r"\b(Vinf\d+|V\d+|S\d+)\b", r"'\1'", text)
    return plain_key(ast.literal_eval(quoted))


def plain_key(obj):
    """Replace every vertex (label string or Vertex) in a nested tuple by
    its (kind, index) pair."""
    if isinstance(obj, str) or hasattr(obj, "kind"):
        return vertex(obj)
    if isinstance(obj, tuple):
        return tuple(plain_key(x) for x in obj)
    return obj


def read_oracle_lines(lines):
    """{key: Fraction} from `oracle` JSON lines; probabilities sum to 1."""
    law = {}
    for line in lines:
        obj = json.loads(line)
        key = parse_key(obj["key"])
        fail_unless(key not in law, f"duplicate oracle key {obj['key']}")
        law[key] = Fraction(obj["prob"])
    check_law_sums_to_one(law)
    return law


def check_law_sums_to_one(law):
    total = sum(law.values(), Fraction(0))
    fail_unless(total == 1, f"oracle probabilities sum to {total}, not 1")
    fail_unless(all(p > 0 for p in law.values()), "non-positive oracle mass")


def check_support(keys, law):
    outside = [k for k in keys if k not in law]
    fail_unless(not outside,
                f"{len(outside)} sampled keys outside the oracle support, "
                f"first {outside[0] if outside else None}")


def gof_pvalue(counts: Counter, law) -> float:
    """Chi-square goodness of fit, pooling the least likely keys until
    every bin expects at least 5 draws."""
    from scipy.stats import chi2
    n = sum(counts.values())
    items = sorted(law.items(), key=lambda kv: kv[1], reverse=True)
    bins, obs, exp = [], 0, 0.0
    for key, p in items:
        obs += counts.get(key, 0)
        exp += float(p) * n
        if exp >= 5:
            bins.append((obs, exp))
            obs, exp = 0, 0.0
    if exp > 0:
        if bins:
            o, e = bins.pop()
            bins.append((o + obs, e + exp))
        else:
            bins.append((obs, exp))
    if len(bins) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return float(chi2.sf(stat, len(bins) - 1))


def check_gof(keys, law, what):
    check_support(keys, law)
    p = gof_pvalue(Counter(keys), law)
    fail_unless(p >= ALPHA_GOF,
                f"{what}: chi-square p = {p:.3g} < {ALPHA_GOF} against the oracle")


# ---------------------------------------------------------------------------
# bias values on the binary ladder (k = 1)


def binom_two_sided(count, n, p) -> float:
    from scipy.stats import binomtest
    return binomtest(int(count), int(n), p).pvalue


def check_ladder_bias(values, n):
    """k = 1 biases on the ladder [2]*n + [0]*(n+2): at most 2, every
    value other than 1 and 2 at most 1/3, and the atoms 2 and 1 with
    frequencies 1/(2n-1) and 2/(2n-1) (Pruefer counting)."""
    v = np.asarray(values, dtype=float)
    fail_unless(v.size > 0, "no bias values")
    fail_unless(np.all(v > 0), "a bias is not positive")
    fail_unless(v.max() <= 2, f"bias {v.max()} exceeds 2")
    rest = v[(v != 1) & (v != 2)]
    fail_unless(rest.size == 0 or rest.max() <= 1 / 3,
                f"bias {rest.max() if rest.size else 0} strictly between 1/3 "
                f"and 2 other than 1")
    for atom, p in ((2.0, 1 / (2 * n - 1)), (1.0, 2 / (2 * n - 1))):
        count = int(np.sum(v == atom))
        pval = binom_two_sided(count, v.size, p)
        fail_unless(pval >= ALPHA_4SE,
                    f"bias {atom:g} seen {count}/{v.size} times, expected "
                    f"{p * v.size:.1f} (binomial p = {pval:.2g})")


# ---------------------------------------------------------------------------
# continuum: glued matrices and tree metrics


def check_icrg(base, glued, weight, labels):
    """`base` is the ICRT tree's own mark matrix over marks 1..m (the
    program's MetricTree); the glued matrix over `labels` must equal
    min(d_ab, d_a1 + d_2b, d_a2 + d_1b) and the weight 1/d(Y1, Y2)."""
    d = np.asarray(base, dtype=float)
    idx = [lab - 1 for lab in labels]
    sub = d[np.ix_(idx, idx)]
    via12 = d[idx, 0][:, None] + d[1, idx][None, :]
    via21 = d[idx, 1][:, None] + d[0, idx][None, :]
    want = np.minimum(sub, np.minimum(via12, via21))
    got = np.asarray(glued, dtype=float)
    fail_unless(np.allclose(got, want, rtol=REL_TOL, atol=1e-12),
                f"glued matrix differs from the gluing formula by "
                f"{np.max(np.abs(got - want)):.3g}")
    fail_unless(math.isclose(weight, 1.0 / d[0, 1], rel_tol=REL_TOL),
                f"weight {weight} != 1/d(Y1,Y2) = {1.0 / d[0, 1]}")


def check_four_point(mats, tol=1e-9):
    """Every matrix in the stack is a tree metric: in each quadruple the
    two largest of the three pairing sums coincide."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim == 2:
        mats = mats[None]
    n = mats.shape[1]
    scale = max(1.0, float(np.max(np.abs(mats))) if mats.size else 1.0)
    for i, j, k, l in itertools.combinations(range(n), 4):
        sums = np.sort(np.stack([mats[:, i, j] + mats[:, k, l],
                                 mats[:, i, k] + mats[:, j, l],
                                 mats[:, i, l] + mats[:, j, k]]), axis=0)
        gap = sums[2] - sums[1]
        bad = np.flatnonzero(gap > tol * scale)
        fail_unless(bad.size == 0,
                    f"four-point condition fails in matrix {bad[:1].tolist()} "
                    f"on ({i},{j},{k},{l}) by {gap.max():.3g}")


def weighted_energy(x, y, wx=None, wy=None, chunk=128):
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| with self-normalized weights, by
    explicit pairwise Euclidean norms."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    wx = np.ones(len(x)) if wx is None else np.asarray(wx, dtype=float)
    wy = np.ones(len(y)) if wy is None else np.asarray(wy, dtype=float)
    wx, wy = wx / wx.sum(), wy / wy.sum()

    def mean_dist(a, wa, b, wb):
        total = 0.0
        for s in range(0, len(a), chunk):
            diff = a[s:s + chunk, None, :] - b[None, :, :]
            total += wa[s:s + chunk] @ np.sqrt((diff ** 2).sum(-1)) @ wb
        return total

    return 2 * mean_dist(x, wx, y, wy) - mean_dist(x, wx, x, wx) \
        - mean_dist(y, wy, y, wy)


def check_energy_call(args, kwargs, result):
    """One captured energy_distance call against the benchmark's formula."""
    names = ("x", "y", "wx", "wy")
    call = dict(zip(names, args))
    call.update(kwargs)
    want = weighted_energy(call["x"], call["y"], call.get("wx"), call.get("wy"))
    fail_unless(math.isclose(result, want, rel_tol=1e-9, abs_tol=1e-12),
                f"energy_distance returned {result}, formula gives {want}")


def check_converge_report(report, n_perms):
    """Energies >= 0, KS in [0, 1], p (n_perms + 1) an integer in
    [1, n_perms + 1], and the first member further from the target than
    the last."""
    rows = report["rows"]
    fail_unless(len(rows) >= 2, "converge report has fewer than two rows")
    for r in rows:
        fail_unless(r["energy"] >= 0, f"negative energy {r['energy']}")
        fail_unless(0 <= r["ks_max"] <= 1, f"KS {r['ks_max']} outside [0, 1]")
    p = report["last_member_permutation"]["p"]
    scaled = p * (n_perms + 1)
    fail_unless(abs(scaled - round(scaled)) < 1e-9
                and 1 <= round(scaled) <= n_perms + 1,
                f"permutation p = {p} is not j/{n_perms + 1}, 1 <= j <= {n_perms + 1}")
    fail_unless(rows[0]["energy"] > rows[-1]["energy"],
                f"first member's energy {rows[0]['energy']} does not exceed "
                f"the last member's {rows[-1]['energy']}")


# ---------------------------------------------------------------------------
# weighted trees for the reconstruct round trip


def random_weighted_tree(n_leaves, rng):
    """Leaves L1..Ln of a random binary tree with integer edge lengths.

    Each new leaf subdivides a uniform edge of length >= 2 at an integer
    point and hangs from it by a length in 2..10, so every distance is an
    exact float and no two leaves coincide.
    Returns (leaf names, edges [(u, v, w)])."""
    edges = {("L1", "L2"): int(rng.integers(2, 21))}
    for i in range(3, n_leaves + 1):
        splittable = sorted(e for e, w in edges.items() if w >= 2)
        u, v = splittable[int(rng.integers(len(splittable)))]
        w = edges.pop((u, v))
        t = int(rng.integers(1, w))
        x = f"x{i}"
        edges[(u, x)] = t
        edges[(x, v)] = w - t
        edges[(x, f"L{i}")] = int(rng.integers(2, 11))
    names = [f"L{i}" for i in range(1, n_leaves + 1)]
    return names, [(u, v, float(w)) for (u, v), w in edges.items()]


def tree_distances(edges, sources):
    adj = defaultdict(list)
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    out = {}
    for s in sources:
        dist = {s: 0.0}
        stack = [s]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        out[s] = dist
    return out


def leaf_matrix(names, edges):
    dist = tree_distances(edges, names)
    return [[dist[a][b] for b in names] for a in names]


def matrix_csv(names, matrix) -> str:
    lines = [",".join(names)]
    lines += [",".join(repr(float(x)) for x in row) for row in matrix]
    return "\n".join(lines) + "\n"


def check_reconstruct(names, matrix, output_line, tol=1e-9):
    """The leaf distances of the rebuilt tree, recomputed here from its
    edge list, equal the input matrix within tol."""
    obj = json.loads(output_line)
    edges = [(u, v, float(w)) for u, v, w in obj["edges"]]
    node_of = {name: node for node, name in obj["marks"].items()}
    fail_unless(sorted(node_of) == sorted(names),
                "reconstruct output does not mark every leaf")
    nodes = [node_of[name] for name in names]
    dist = tree_distances(edges, set(nodes))
    worst = 0.0
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            worst = max(worst, abs(dist[a][b] - matrix[i][j]))
    fail_unless(worst <= tol,
                f"rebuilt leaf distances differ from the input by {worst:.3g}")
