"""Central polyhedral cones in R^3: their Gaussian measures, moments and the
Plackett integrand of their pair probabilities.

Let C = {x: <n_F, x> <= 0 for every facet F} with outward unit normals n_F.
Its trace on the unit sphere is a convex spherical polygon, and the facet F
meets the sphere in an arc of the great circle orthogonal to n_F, of angle
alpha_F (the facet's wedge angle), read off the other normals projected onto
the plane of F by the planar arc rule :func:`feasible_arc`.  Then

    gamma(C) = (2 pi - sum over polygon vertices of angle(n_F, n_G)) / (4 pi)

(Gauss-Bonnet: area 2 pi minus the turning angles, over 4 pi), where F and G
are the facets whose arcs end and start at the vertex, and, since
grad gamma_3 = -x gamma_3, the divergence theorem gives the moment

    E[X 1_C] = -sum_F n_F (integral of gamma_3 over F) = -sum_F n_F alpha_F / (2 pi)^(3/2).

No special function is needed.  For two cones with three facets each,
d/drho P(X in A, Y in B) is a sum over facet pairs of a bivariate density at
0 times the orthant probability of four conditional variables, itself a 1-D
integral of arcsines (:func:`cone_pair_terms`, below).  A cell whose
constraints span three directions reaches these forms through its
:class:`noiselab.partitions.Shape`.
"""

from __future__ import annotations

import math

import numpy as np

from .gauss import ROUNDING, DomainError, _block_sums, _kronrod

_TWO_PI = 2.0 * math.pi


def feasible_arc(w):
    """The arc of unit vectors u of the plane with <u, w_k> >= 0 for every row
    w_k of ``w``: (alpha, beta) with alpha in [0, 2 pi) and beta > alpha,
    (0, 2 pi) when nothing constrains, or None when only a line or nothing
    is left.  Zero rows constrain nothing.

    Each row allows an arc of width pi centred on its angle, so the arc's
    edges are among those angles +- pi/2, and a midpoint test per gap between
    consecutive candidate edges decides which gaps it covers."""
    w = np.asarray(w, dtype=float)
    w = w[np.any(w != 0.0, axis=1)]
    if w.shape[0] == 0:
        return (0.0, _TWO_PI)
    centre = np.arctan2(w[:, 1], w[:, 0])
    edges = np.mod(np.concatenate([centre - math.pi / 2, centre + math.pi / 2]), _TWO_PI)
    edges = np.sort(np.where(edges < _TWO_PI, edges, 0.0))  # mod may round up to 2 pi
    ends = np.append(edges[1:], edges[0] + _TWO_PI)
    mid = 0.5 * (edges + ends)
    slack = np.stack([np.cos(mid), np.sin(mid)], axis=-1) @ w.T
    feas = (slack.min(axis=1) >= 0) & (ends > edges)  # an empty gap is only a boundary point
    if feas.all():
        return (0.0, _TWO_PI)
    if not feas.any():
        return None
    starts = np.flatnonzero(feas & ~np.concatenate([feas[-1:], feas[:-1]]))
    stops = np.flatnonzero(feas & ~np.concatenate([feas[1:], feas[:1]]))
    if len(starts) != 1:
        raise DomainError("cone cell is not a single angular arc")
    alpha = float(edges[starts[0]])
    beta = float(ends[stops[0]])
    if beta < alpha:
        beta += _TWO_PI
    return (alpha, beta)


def _facet_frames(n: np.ndarray) -> np.ndarray:
    """(k, 2, 3): rows (e1, e2) of an orthonormal basis of each normal's
    orthogonal plane with (e1, e2, n) right-handed, so every facet arc runs
    with the cone on the same side and one arc's end is the next one's start."""
    e1 = _cross(n, np.eye(3)[np.argmin(np.abs(n), axis=1)])
    e1 /= np.sqrt(np.einsum("fc,fc->f", e1, e1))[:, None]
    return np.stack([e1, _cross(n, e1)], axis=1)


def _cross(a, b):
    """Row-wise cross products of two (k, 3) arrays."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def central_cone(normals):
    """(measure, error, moment, error) of the cone {x in R^3: N x <= 0} over the
    (k, 3) outward unit normals N, or None when its arcs do not close up.

    Normals within rounding of each other count once, and two opposite ones
    leave a flat cell.  An arc's end angles come from the other normals'
    projections onto its plane, so each end carries about 1/|projection| ulps;
    arcs no wider than the rounding are vertices, and their widths join the
    measure's error figure."""
    n = np.asarray(normals, dtype=float).reshape(-1, 3)
    if n.shape[0] == 0:
        return 1.0, 0.0, np.zeros(3), np.zeros(3)
    frames = _facet_frames(n)
    proj = np.einsum("fjc,gc->fgj", frames, n)  # n_g in the plane of facet f
    sin, cos = np.hypot(proj[..., 0], proj[..., 1]), n @ n.T
    parallel = sin <= ROUNDING
    if np.any(parallel & (cos < 0.0)):
        return 0.0, ROUNDING, np.zeros(3), np.full(3, ROUNDING)
    keep = ~np.any(np.triu(parallel, 1), axis=0)  # the first of equal normals
    if not keep.all():
        both = np.ix_(keep, keep)
        n, frames, proj, sin, cos = n[keep], frames[keep], proj[both], sin[both], cos[both]
    others = ~np.eye(n.shape[0], dtype=bool)
    bounds = np.zeros((n.shape[0], 2))
    for f, row in enumerate(proj):
        arc = feasible_arc(-row[others[f]])
        if arc is not None:
            bounds[f] = arc
    arcs = bounds[:, 1] - bounds[:, 0]
    # start and end points of every arc, (k, 2, 3)
    points = (np.cos(bounds)[..., None] * frames[:, None, 0]
              + np.sin(bounds)[..., None] * frames[:, None, 1])
    mags = bounds.sum(axis=1) + 2 / np.where(others, sin, np.inf).min(axis=1)
    scale = 1 / (_TWO_PI * math.sqrt(_TWO_PI))
    moment = -scale * (arcs @ n)
    moment_err = ROUNDING * scale * (mags @ np.abs(n))
    edge = arcs > ROUNDING * _TWO_PI
    idx = np.flatnonzero(edge)
    if idx.size == 0:
        return 0.0, float(arcs.sum()) / (4 * math.pi), moment, moment_err
    gaps = np.linalg.norm(points[idx, 1][:, None, :] - points[idx, 0][None, :, :], axis=-1)
    nxt = np.argmin(gaps, axis=1)
    if not np.array_equal(np.sort(nxt), np.arange(idx.size)):
        return None
    turning = float(np.arctan2(sin, cos)[idx, idx[nxt]].sum())
    measure = (_TWO_PI - turning) / (4 * math.pi)
    err = (ROUNDING * (_TWO_PI + turning) + float(arcs[~edge].sum())) / (4 * math.pi)
    return measure, err, moment, moment_err


# ---------------------------------------------------------------------------
# pair probabilities of central cones
#
# Take A = {x: N_A x[:3] <= 0} and B = {x: N_B x[:3] <= 0}, with rows a_i and
# b_j.  For a rho-correlated pair, U = N_A X and V = N_B Y are centred normal
# vectors with Cov(U_i, V_j) = rho c_ij, c_ij = <a_i, b_j>, so by Plackett's
# identity d/drho P(U <= 0, V <= 0) is the sum over i, j of c_ij phi_2(0, 0;
# rho c_ij) Q_ij, where Q_ij is the orthant probability of the other four
# variables given U_i = V_j = 0.  With Y = rho X + sigma Z, U_k is the vector
# (a_k, 0) of R^6 and V_l is (rho b_l, sigma b_l); covariances are inner
# products, and conditioning projects onto the complement of (a_i, 0) and
# (rho b_j, sigma b_j).  Plackett's identity along I + t (R - I) (Genz 2004)
# gives the centred orthant of four variables with correlations R as
#
#   Q = 1/16 + sum_{k<l} [asin(R_kl)/(8 pi)
#       + 1/(4 pi^2) int_0^{asin R_kl} asin(r_pq.kl(sin(psi)/R_kl)) dpsi],
#
# where (p, q) are the other two variables and r_pq.kl(t) their correlation
# given W_k = W_l = 0 under I + t (R - I); the substitution t R_kl = sin(psi)
# absorbs phi_2(0, 0; t R_kl).  The rule runs in v = tan(psi/2), in which
# sin(psi) and dpsi/dv are rational, so no node needs a sine.  The integrand
# varies on the scale of the distance from t = 1 to a singular I + t (R - I),
# at least lambda_min(R) >= (1 - |rho|) sigma_min(N_A, N_B)^2, and its panels
# are graded toward the end down to that scale; each panel takes the 21-node
# Gauss-Kronrod rule, whose 10 Gauss nodes give the error figure, so the
# integrand is evaluated 21 times per panel.  Then P(rho) = gamma(A)
# gamma(B) + int_0^{arcsin rho} cos(th) P'(sin th) dth, which
# :mod:`noiselab.partitions` takes by the graded rule of the planar sectors,
# 33 nodes per panel.

#: the variable pairs (k, l) of a 4-variable orthant, in the order of its
#: correlations; row n of _ORTHANT_TERMS holds the positions among them of
#: R_kl, R_pq, R_pk, R_pl, R_qk and R_ql for the n-th pair and the other two
_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_ORTHANT_TERMS = np.array([[_PAIRS4.index((min(x, y), max(x, y))) for x, y in
                            ((k, l), (p, q), (p, k), (p, l), (q, k), (q, l))]
                           for (k, l), (p, q) in zip(_PAIRS4, _PAIRS4[::-1])])
#: array elements per chunk of the conditioning and of the orthant rule, so
#: that their temporaries stay in cache
_ORTHANT_CHUNK = 1 << 15
#: Gauss nodes per panel of the orthant rule; its Gauss-Kronrod extension has
#: 2 _ORTHANT_NODES + 1, the Gauss ones among them
_ORTHANT_NODES = 10
#: a distance to the nearest singular I + t (R - I), in t beyond 1, down to
#: which one psi panel suffices; each quartering below it adds a panel
_ONE_PANEL_DISTANCE = 1 / 4


def _orthant4(corr, levels: int):
    """(values, magnitudes, error figures) of P(W <= 0) for centred normal W
    in R^4 with the correlations of each row of ``corr``, (rows, 6) in the
    order of _PAIRS4, by the rule above in v = tan(psi/2), which turns the
    pieces into rational functions of v.  Each term's v range is cut into
    the panels [0, 3/4], [3/4, 15/16], ... of its normalised length,
    ``levels`` of them short of the end, with the Gauss-Kronrod rule of
    2 _ORTHANT_NODES + 1 nodes and, as the error figure, its difference
    from the Gauss rule on the first _ORTHANT_NODES of them, so the integrand
    is evaluated 21 times per panel.  Each row is reduced by itself, so it has
    the same bits in any batch."""
    t, wf, wc = _kronrod(_ORTHANT_NODES)
    cuts = np.concatenate([[0.0], 1 - 4.0 ** -np.arange(1, levels + 1), [1.0]])
    half, mid = np.diff(cuts)[:, None] / 2, (cuts[:-1] + cuts[1:])[:, None] / 2
    # node by node, every panel's: the Gauss nodes come first, so the coarse
    # rule reads a leading block of the fine rule's integrand values
    nodes = (mid + half * t).T.ravel()
    wc, wf = (half * wc).T.ravel(), (half * wf).T.ravel()
    g = corr[:, _ORTHANT_TERMS]  # (rows, terms, 6)
    end = np.arcsin(g[..., 0])
    top = g[..., 0] / (1 + np.sqrt((1 - g[..., 0]) * (1 + g[..., 0])))  # tan(end/2)
    # with a = t R_kl = sin(psi), (1 - a^2) times the covariances of (W_p, W_q)
    # given W_k = W_l = 0 are 1 - a^2 (x - a y) for each of W_p and W_q, and
    # a (z0 + a (z1 + a z2)) between them
    g = g / np.where(end == 0, 1, g[..., 0])[..., None]
    x_p, y_p = 1 + g[..., 2] ** 2 + g[..., 3] ** 2, 2 * g[..., 2] * g[..., 3]
    x_q, y_q = 1 + g[..., 4] ** 2 + g[..., 5] ** 2, 2 * g[..., 4] * g[..., 5]
    z1 = -(g[..., 2] * g[..., 4] + g[..., 3] * g[..., 5])
    z2 = g[..., 2] * g[..., 5] + g[..., 3] * g[..., 4] - g[..., 1]
    coefs = [c[..., None] for c in (x_p, y_p, x_q, y_q, g[..., 1], z1, z2, top)]
    coarse, fine = np.empty(end.shape), np.empty(end.shape)
    step = max(1, _ORTHANT_CHUNK // (end.shape[1] * nodes.size))
    # the per-node arithmetic runs in place on five chunk buffers
    bufs = np.empty((5, min(step, len(g)), end.shape[1], nodes.size))
    for lo in range(0, len(g), step):
        x_p, y_p, x_q, y_q, z0, z1, z2, top_ = (c[lo:lo + step] for c in coefs)
        v, jac, a, f, s = bufs[:, :len(top_)]
        np.multiply(top_, nodes, out=v)
        np.multiply(v, v, out=jac)
        jac += 1
        np.divide(1, jac, out=jac)
        np.multiply(2, v, out=a)
        a *= jac
        # s_pq = a (z0 + a (z1 + a z2)) in f
        np.multiply(a, z2, out=f)
        f += z1
        f *= a
        f += z0
        f *= a
        # s_pp_qq = (1 - a^2 (x_p - a y_p)) (1 - a^2 (x_q - a y_q)) in s, with
        # a^2 in v and the second factor in a
        np.multiply(a, a, out=v)
        np.multiply(a, y_p, out=s)
        np.subtract(x_p, s, out=s)
        s *= v
        np.subtract(1, s, out=s)
        np.multiply(a, y_q, out=a)
        np.subtract(x_q, a, out=a)
        a *= v
        np.subtract(1, a, out=a)
        s *= a
        np.sqrt(s, out=s)
        f /= s
        np.maximum(f, -1, out=f)
        np.minimum(f, 1, out=f)
        np.arcsin(f, out=f)
        f *= jac
        coarse[lo:lo + step] = (f[..., :wc.size] * wc).sum(axis=-1)
        fine[lo:lo + step] = (f * wf).sum(axis=-1)
    inner = top / (2 * math.pi ** 2)  # dpsi = 2 jac dv
    return (1 / 16 + (end / (8 * math.pi) + inner * fine).sum(axis=-1),
            1 / 16 + np.abs(end).sum(axis=-1) / (4 * math.pi),
            (np.abs(inner) * np.abs(coarse - fine)).sum(axis=-1))


def cone_pair_terms(pairs, r, s):
    """s P'(r), with s = sqrt(1 - r^2), for each pair (N_A, N_B) of (3, 3)
    outward unit normals of ``pairs`` at each node of ``r`` and ``s``:
    (values, magnitudes, error figures), three (pairs, nodes) arrays.

    Facet pair (i, j) adds c_ij s / (2 pi sqrt(1 - r^2 c_ij^2)) Q_ij.  When A
    and B have the same normals, exchanging X and Y maps the term (i, j) to
    (j, i), so only i <= j are evaluated, i < j twice.  Facet pairs and nodes
    are batched, in chunks of nodes that bound the arrays, and the orthant
    rule takes all the rows of one grading level at once; each node is
    reduced by itself, so it has the same bits in any batch."""
    table = []
    for k, (a, b) in enumerate(pairs):
        same = a is b or np.array_equal(a, b)
        table += [(k, i, j, 1 + (same and j > i)) for i in range(3) for j in range(i * same, 3)]
    k, i, j, weight = np.array(table).T
    step = max(1, _ORTHANT_CHUNK // (36 * len(k)))
    if len(r) > step:
        parts = [cone_pair_terms(pairs, r[lo:lo + step], s[lo:lo + step])
                 for lo in range(0, len(r), step)]
        return [np.concatenate(v, axis=1) for v in zip(*parts)]
    normals = [np.stack([pair[side] for pair in pairs]) for side in (0, 1)]
    na, nb = (n[k] for n in normals)
    f, rest = np.arange(len(k)), np.array([[1, 2], [0, 2], [0, 1]])  # rest[i]: the rows but i
    ai, bj = na[f, i], nb[f, j]
    c = np.sum(ai * bj, axis=-1)
    # as vectors of R^6 over the nodes: the conditioning directions e1 = (a_i, 0)
    # and e2, along (r b_j, s b_j), and the other four variables, projected off both
    rn, sn = r[:, None, None], s[:, None, None]
    v = np.concatenate(np.broadcast_arrays(r[:, None] * (bj - c[:, None] * ai)[:, None],
                                           s[:, None] * bj[:, None]), axis=-1)
    det = np.sum(v * v, axis=-1)  # 1 - r^2 c^2, without cancellation
    e1 = np.concatenate([ai, np.zeros_like(ai)], axis=-1)[:, None, None]
    e2 = (v / np.sqrt(det)[..., None])[:, :, None]
    b_l = nb[f[:, None], rest[j]][:, None]
    w = np.concatenate(np.broadcast_arrays(
        np.concatenate([na[f[:, None], rest[i]], np.zeros((len(k), 2, 3))], axis=-1)[:, None],
        np.concatenate(np.broadcast_arrays(rn * b_l, sn * b_l), axis=-1)), axis=2)
    w = w - np.sum(w * e1, axis=-1)[..., None] * e1
    w = w - np.sum(w * e2, axis=-1)[..., None] * e2
    p, q = np.array(_PAIRS4).T
    var = np.sum(w * w, axis=-1)
    corr = (np.sum(w[..., p, :] * w[..., q, :], axis=-1)
            / np.sqrt(var[..., p] * var[..., q])).reshape(-1, 6)
    sigma2 = np.min([np.linalg.svd(n, compute_uv=False)[:, -1] ** 2 for n in normals], axis=0)
    levels = np.ceil(np.log2(_ONE_PANEL_DISTANCE / (sigma2[k, None] * (1 - np.abs(r)))) / 2)
    levels = np.maximum(levels, 0).astype(int).ravel()
    orthant = np.empty((3, len(levels)))
    for level in np.unique(levels):
        at = np.flatnonzero(levels == level)
        orthant[:, at] = _orthant4(corr[at], int(level))
    coef = (weight * c)[:, None] * s / (_TWO_PI * np.sqrt(det))
    terms = orthant.reshape(3, *coef.shape) * np.array([coef, np.abs(coef), np.abs(coef)])
    return [_block_sums(t, np.bincount(k, minlength=len(pairs))) for t in terms]
