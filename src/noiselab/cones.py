"""Central polyhedral cones in R^3: their Gaussian measures and moments.

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

No special function is needed.  A cell whose constraints span three
directions reaches these forms through its :class:`noiselab.partitions.Shape`.
"""

from __future__ import annotations

import math

import numpy as np

from .gauss import ROUNDING, DomainError

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
