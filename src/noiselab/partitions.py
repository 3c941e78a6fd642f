"""Euclidean partitions: candidate sets, membership, measures and boundaries.

Cells are half-spaces, maximal-inner-product cones over a generator family,
planar sectors, finite intersections of half-spaces, cylinders (products with
extra coordinates), complements, and raw indicator oracles.  A
:class:`PartitionSpec` is an ordered list of cells covering R^d, with ties on
the measure-zero interfaces broken toward the lowest cell index.

Interfaces between cells of the polyhedral kinds are finite unions of convex
pieces of hyperplanes (facets); those of half-space pairs and planar sectors
are read off the cells' shape records.  Boundary sampling draws points from the
Gaussian density restricted to each facet, selecting facets proportionally to
their Gaussian surface mass, and attaches importance weights in units of plain
surface measure so that

    integral_F h(y) dy      ~  sum_k  w_k h(y_k),
    integral_F h(y) gamma dy ~ sum_k  w_k gamma(y_k) h(y_k).

Every closed form (T_rho of the indicator, its gradient and d/drho, the
measure, the cell moment and P(X in a, Y in b)) is written once in
:class:`SetSpec` against the cell's :class:`Shape` record, built once per
cell; wrapper cells map their base's.  Other modules reach cells only
through these methods.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .cones import central_cone, cone_pair_terms, feasible_arc
from .gauss import (
    CLOSED_FORM,
    MONTE_CARLO,
    QUADRATURE,
    ROUNDING,
    TRUNCATION_RADIUS,
    DomainError,
    Estimate,
    VectorEstimate,
    _block_sums,
    _check_batch,
    _kronrod,
    as_rho,
    bivariate_normal_cdf,
    check_point,
    make_seedseq,
    mc_mean,
    mehler_kernel,
    norm_pdf,
    route,
)

_TWO_PI = 2.0 * math.pi
_TINY = np.finfo(float).tiny


class CoverageError(ValueError):
    """A sampled point belongs to no cell of the partition."""


class EmptyInterfaceError(ValueError):
    """The requested interface carries no Gaussian surface mass."""


class UnsupportedBoundaryError(ValueError):
    """No boundary description is available for this cell combination."""


# ---------------------------------------------------------------------------
# exact machinery for planar sectors
#
# For a sector with apex q spanning angles [alpha, beta], write c = <q, u(t)>
# and d = <q, u(t)^perp> for the edge ray at angle t, with u(t) = (cos t, sin t)
# and u(t)^perp = (-sin t, cos t).  Integrating r * gamma_2(q + r u) over r >= 0
# gives the angular density of the mass, and its antiderivative in t is
#
#   G(t) = T(d, c/d) + Phi(d)/2        (Owen 1956; T is Owen's T function),
#
# up to a jump of -1/2 wherever d changes sign.  So the mass is
# G(beta) - G(alpha) + n/2, with n the number of sign changes of d on the arc.
# Since grad gamma_2 = -x gamma_2, the moment is a sum over the two edge rays of
# the inward normal times int_0^inf gamma_2(q + r u) dr = phi(d) Phi(-c).
#
# Pair probabilities follow Plackett's identity (Plackett 1954): d/drho
# P(X in A, Y in B) = E <grad 1_A(X), grad 1_B(Y)>, a sum over edge rays e of A
# and f of B of <N_e, N_f> phi_2(d_e, d_f; rho c) Phi_2(h_e, h_f; rho c), where
# c = cos(t_e - t_f) and h are the apexes' c standardised given the d (variance
# (1 - rho^2)/(1 - rho^2 c^2)).  Then P(rho) = gamma(A) gamma(B) +
# int_0^{arcsin rho} cos(th) P'(sin th) dth, free of the 1/sqrt(1 - rho^2) edge.
#
# Every pair route kind (half-spaces, sectors, central cones) states that
# integrand once, as s P'(r) at nodes (r, s) with s = sqrt(1 - r^2), with its
# terms' magnitudes and any error figures of its own, and either a closed-form
# P (half-spaces) or its rho = 0 base with the base's bound.  One rows function
# then gives d/drho P as the integrand at (rho, sqrt((1 - rho)(1 + rho))) over
# s, and P as the closed form or the base plus the graded rule of the integrand
# at (sin th, cos th), for all the kind's pairs and rhos in one integrand call.


def _edge_antiderivative(q: np.ndarray, t: float, inward: float):
    """G(t) at the edge ray t and whether d < 0 there.

    Where d = 0 it takes the sign d has just inside the sector: -c at alpha
    (``inward`` = -1) and +c at beta (``inward`` = +1).  The sign is read from
    the same d that goes into T, so the crossing count and T change together.
    """
    ct, st = math.cos(t), math.sin(t)
    c, d = q[:, 0] * ct + q[:, 1] * st, q[:, 1] * ct - q[:, 0] * st
    d = np.where(d == 0.0, np.copysign(0.0, inward * c), d)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = owens_t(d, c / d) + 0.5 * ndtr(d)
    return g, np.signbit(d)


def shifted_sector_mass(apex, alpha: float, beta: float, nodes: int = 48):
    """Gaussian measure of {apex + r (cos t, sin t): r >= 0, alpha <= t <= beta}.

    ``apex`` may be a single point or an (n, 2) batch; returns matching shape.
    The value is a closed form in Owen's T, exact to rounding for any width
    and apex; ``nodes`` is unused and kept because ``perfbench/tracer.py``
    reads it by name.
    """
    q = np.atleast_2d(np.asarray(apex, dtype=float))
    if not beta >= alpha:
        raise DomainError("need beta >= alpha")
    width = beta - alpha
    if width > _TWO_PI + 1e-12:
        raise DomainError("sector width exceeds a full turn")
    if width == 0.0:
        return 0.0 if np.ndim(apex) == 1 else np.zeros(q.shape[0])
    if width >= _TWO_PI:
        mass = np.ones(q.shape[0])
    else:
        g_lo, neg_lo = _edge_antiderivative(q, alpha, -1.0)
        g_hi, neg_hi = _edge_antiderivative(q, beta, 1.0)
        flips = neg_lo != neg_hi
        crossings = flips if width <= math.pi else 2 - flips
        mass = g_hi - g_lo + 0.5 * crossings
        mass = np.where(np.any(q != 0.0, axis=1), mass, width / _TWO_PI)
    return float(mass[0]) if np.ndim(apex) == 1 else mass


#: deterministic error figure quoted for the sector quadratures
SECTOR_MASS_ERR = 1e-12


def _sector_edges(apex, arcs):
    """(t, s, c, d) of every edge ray of the sectors over ``arcs`` at ``apex`` or
    each row of an (n, 2) batch; the ray at angle t has inward normal s u(t)^perp."""
    q, t = _check_batch(apex, 2)[..., None, :], np.ravel(arcs).astype(float)
    ct, st = np.cos(t), np.sin(t)
    return (t, 1.0 - 2.0 * (np.arange(t.size) % 2), q[..., 0] * ct + q[..., 1] * st,
            q[..., 1] * ct - q[..., 0] * st)


def _plackett_integrand(edges_a, edges_b, r, s):
    """s P'(r), s = sqrt(1 - r^2), of each edge-ray pair (e_k, f_k) at each
    node (r, s), and the magnitude of each term: two (pairs, nodes) arrays
    from one bivariate normal CDF call.  ``edges_a`` and ``edges_b`` hold the
    (t, s, c, d) of :func:`_sector_edges` of e_k and of f_k, one entry per pair."""
    ta, sa, ca, da = (v[:, None] for v in edges_a)
    tb, sb, cb, db = (v[:, None] for v in edges_b)
    c, sn = np.cos(ta - tb), np.sin(ta - tb)  # <N_e, N_f> = s_e s_f c
    rc, det = r * c, sn * sn + (c * s) ** 2  # 1 - (r c)^2, no cancellation
    root = np.sqrt(det)
    terms = (sa * sb * c * s / (_TWO_PI * root)
             * np.exp(-(db * db + (da - rc * db) ** 2 / det) / 2))
    h_a = (r * sn * (db - rc * da) / det - ca) * root / s
    h_b = (-r * sn * (da - rc * db) / det - cb) * root / s
    return terms * bivariate_normal_cdf(h_a, h_b, rc), np.abs(terms)


def _graded_panels(theta_end: float) -> np.ndarray:
    """0, +-(pi/2 - pi/4), +-(pi/2 - pi/8), ... short of ``theta_end``, then
    ``theta_end``: the integrand varies on the scale of the distance to +-pi/2."""
    gaps = math.pi * 0.5 ** np.arange(2, 60)
    inner = np.copysign(0.5 * math.pi - gaps[gaps > 0.5 * math.pi - abs(theta_end)], theta_end)
    return np.concatenate([[0.0], inner, [theta_end]])


def _graded_rule(rhos, integrand):
    """The 33-node Gauss-Kronrod rule and the 16-node Gauss rule on its first
    16 nodes, on the graded panels of [0, arcsin rho] for each rho of
    ``rhos``, applied to ``integrand``: 33 evaluations per panel.  It maps
    all the rhos' angles, in one call, to (pairs, angles) arrays: values first,
    then nonnegative figures (magnitudes, error figures).  Returns (pairs,
    rhos) arrays: the Kronrod rule of the values, the summed difference of
    the two rules, and the Kronrod rule of each figure, every entry reduced by
    itself as the one-pair one-rho call reduces it."""
    t, w_k, w_g = _kronrod(16)
    panels = []
    for rho in rhos:
        cuts = _graded_panels(math.asin(rho))
        half = 0.5 * np.diff(cuts)[:, None]
        theta = 0.5 * (cuts[:-1] + cuts[1:])[:, None] + half * t
        panels.append((half, theta if rho else theta[:0]))  # nothing to integrate at rho = 0
    rows = integrand(np.concatenate([theta.ravel() for _, theta in panels]))
    out = np.empty((len(rows) + 1, len(rows[0]), len(rhos)))
    lo = 0
    for j, (half, theta) in enumerate(panels):
        vals, *figures = (v[:, lo:lo + theta.size].reshape(len(v), *theta.shape) * half
                          for v in rows)
        coarse, fine = vals[..., :w_g.size] @ w_g, vals @ w_k
        out[0, :, j] = fine.sum(axis=-1)
        out[1, :, j] = np.abs(coarse - fine).sum(axis=-1)
        for k, fig in enumerate(figures, 2):
            out[k, :, j] = np.abs(fig @ w_k).sum(axis=-1)
        lo += theta.size
    return out


def _sector_integrand(pairs, r, s):
    """s P'(r) of each pair (A, B) of the sectors of :class:`Shape` records of
    ``pairs`` at each node (r, s), and its terms' magnitudes: the sums over
    each pair's edge-ray pairs of :func:`_plackett_integrand`.  The edge rays
    of all the pairs form one pair list (edge e of A against each edge f of
    B, in that order), so one integrand call serves them all; each pair's
    block of rows is summed alone, in the order its own call would sum it."""
    ea, eb, sizes = [], [], []
    for a, b in pairs:
        a, b = _sector_edges(*a.deco), _sector_edges(*b.deco)
        ea.append([np.repeat(v, b[0].size) for v in a])
        eb.append([np.tile(v, a[0].size) for v in b])
        sizes.append(a[0].size * b[0].size)
    terms = _plackett_integrand([np.concatenate(v) for v in zip(*ea)],
                                [np.concatenate(v) for v in zip(*eb)], r, s)
    return [_block_sums(t, sizes) for t in terms]


def _sector_base(pairs):
    """gamma(A) gamma(B) of each sector pair, with one rounding per arc."""
    return (np.array([[a.sector_mass * b.sector_mass] for a, b in pairs]),
            np.array([[len(a.deco[1]) + len(b.deco[1])] for a, b in pairs]), 0)


def _cone_integrand(pairs, r, s):
    """:func:`noiselab.cones.cone_pair_terms` of each central-cone pair."""
    return cone_pair_terms([(a.normals, b.normals) for a, b in pairs], r, s)


def _cone_base(pairs):
    """gamma(A) gamma(B) of each central-cone pair, with the measures' bounds."""
    ga, ea, gb, eb = np.array([[*a.measure[:2], *b.measure[:2]] for a, b in pairs]).T[..., None]
    return ga * gb, 0, ga * eb + gb * ea


def _halfspace_integrand(pairs, r, s):
    """s P'(r) = s c phi_2(a, b; r c), c = <n_a, n_b>, of each half-space pair
    {<n_a, x> <= a}, {<n_b, y> <= b} of :class:`Shape` records at each node
    (r, s), and its magnitude in ulps: the exponent q carries q ulps and,
    unless |c| = 1, moves by (1 + |a b| + 2 q)/(1 - (r c)^2) per ulp of r c."""
    c = np.array([[float(np.clip(a.hs[0] @ b.hs[0], -1, 1))] for a, b in pairs])
    ab = np.clip([[a.hs[1], b.hs[1]] for a, b in pairs], -TRUNCATION_RADIUS, TRUNCATION_RADIUS)
    a, b = ab[:, :1], ab[:, 1:]
    rc = r * c
    det = (1 - rc) * (1 + rc)
    # a^2 - 2 r c a b + b^2, written to keep its digits as r c -> +-1 with b near +-a
    q = np.where(rc >= 0, (a - b) ** 2 + 2 * (1 - rc) * a * b,
                 (a + b) ** 2 - 2 * (1 + rc) * a * b) / (2 * det)
    terms = s * c * np.exp(-q) / (_TWO_PI * np.sqrt(det))
    slope = np.where(np.abs(c) == 1, 0, np.abs(rc) * (1 + np.abs(a * b) + 2 * q) / det)
    return terms, np.abs(terms) * (1 + q + slope)


def _halfspace_pair_rows(pairs, rhos):
    """(values, errors), two (pairs, rhos) arrays: P(<n_a, X> <= a, <n_b, Y> <= b)
    and its bound for every half-space pair of :class:`Shape` records of
    ``pairs`` at every rho, from one broadcast bivariate normal CDF call.
    <n_a, X> and <n_b, Y> are standard normals with correlation rho <n_a, n_b>,
    and Owen's terms for Phi_2(a, b) add up to at most 2 (Phi(a) + Phi(b))."""
    c = np.array([[float(np.clip(a.hs[0] @ b.hs[0], -1.0, 1.0))] for a, b in pairs])
    offsets = np.array([[a.hs[1], b.hs[1]] for a, b in pairs])
    values = bivariate_normal_cdf(offsets[:, :1], offsets[:, 1:], np.asarray(rhos, dtype=float) * c)
    errors = [[2.0 * ROUNDING * float(ndtr(a) + ndtr(b))] for a, b in offsets]
    return values, np.broadcast_to(errors, values.shape)


#: each route kind's Plackett integrand over its pairs' :class:`Shape` records,
#: (pairs, r, s) -> (s P'(r), magnitudes, *error figures) as (pairs, nodes)
#: arrays, and either its closed-form P rows or its rho = 0 base, pairs ->
#: (gamma(A) gamma(B), magnitudes, bound)
_KINDS = {"halfspace": (_halfspace_integrand, _halfspace_pair_rows, None),
          "sector": (_sector_integrand, None, _sector_base),
          "cone": (_cone_integrand, None, _cone_base)}


def _kind_rows(kind, pairs, rhos, drho=False):
    """(values, errors), two (pairs, rhos) arrays: P(X in A, Y in B), or with
    ``drho`` its d/drho, and its bound for every :class:`Shape` pair (A, B) of
    route ``kind`` at every rho of ``rhos``, from one integrand call.

    d/drho P is the integrand at r = rho over s = sqrt(1 - rho^2), with its
    figures and the rounding of its magnitudes over s.  P is the kind's
    closed form, else its base plus the :func:`_graded_rule` of the integrand
    at r = sin(th), s = cos(th), bounded by the rules' difference, the rule
    of the figures, the rounding of the magnitudes and the base's bound."""
    integrand, closed, base = _KINDS[kind]
    if drho:
        r = np.asarray(rhos, dtype=float)
        s = np.sqrt((1 - r) * (1 + r))
        vals, mags, *figures = integrand(pairs, r, s)
        return vals / s, (sum(figures) + ROUNDING * mags) / s
    if closed is not None:
        return closed(pairs, rhos)
    value, units, bound = base(pairs)
    fine, diff, mags, *figures = _graded_rule(
        rhos, lambda theta: integrand(pairs, np.sin(theta), np.cos(theta)))
    return value + fine, diff + sum(figures) + ROUNDING * (mags + units) + bound


def shifted_sector_pair_stability(apex_a, arcs_a, apex_b, arcs_b, rho: float):
    """(P(X in A, Y in B), error bound) for a rho-correlated pair and the unions
    A and B of sectors over the arcs at the apexes, by Plackett's identity: one
    batch of the 33-node Gauss-Kronrod rule on the graded panels, with its
    difference from the 16-node Gauss rule on its Gauss nodes plus the
    rounding of the terms' magnitudes as the bound.
    The one-pair one-rho call of the sector kind's :func:`_kind_rows`."""
    pair = (Shape(deco=(apex_a, arcs_a)), Shape(deco=(apex_b, arcs_b)))
    values, errors = _kind_rows("sector", [pair], [rho])
    return float(values[0, 0]), float(errors[0, 0])


def _pair_routes(pairs):
    """(kind, (a.shape, b.shape)) per cell pair (a, b), on the routes of
    :meth:`SetSpec.pair_exact` and in its order: "halfspace" when both are
    half-spaces, else "sector" when both are unions of sectors in one plane,
    else "cone" when both are central cones in R^3 with three facets and a
    closed-form measure; None when some pair has none of them."""
    routes = []
    for a, b in pairs:
        sa, sb = a.shape, b.shape
        if sa.hs is not None and sb.hs is not None:
            routes.append(("halfspace", (sa, sb)))
        elif sa.deco is not None and sb.deco is not None and np.array_equal(sa.plane, sb.plane):
            routes.append(("sector", (sa, sb)))
        elif _trihedral(sa) and _trihedral(sb):
            routes.append(("cone", (sa, sb)))
        else:
            return None
    return routes


def _trihedral(shape) -> bool:
    """Whether a :class:`Shape` is a central cone with three independent unit
    normals and a closed-form measure.  A central cone of fewer facets is a
    half-space or a wedge over planar sectors, which the records state as such."""
    n = shape.normals
    return (n is not None and n.shape == (3, 3) and abs(np.linalg.det(n)) > ROUNDING
            and shape.measure is not None)


def _pair_rows(pairs, rhos, drho=False):
    """(values, errors), two (pairs, rhos) arrays for every cell pair (a, b)
    at every rho, from :func:`_kind_rows` of each route kind, one call of
    each for all the pairs that take it; None when some pair has no route.
    A rho outside (-1, 1) raises :class:`DomainError` first."""
    rhos = [as_rho(r) for r in rhos]
    routes = _pair_routes(pairs)
    if routes is None:
        return None
    values, errors = np.empty((len(routes), len(rhos))), np.empty((len(routes), len(rhos)))
    for kind in _KINDS:
        idx = [k for k, (route_kind, _) in enumerate(routes) if route_kind == kind]
        if idx and len(rhos):
            values[idx], errors[idx] = _kind_rows(kind, [routes[k][1] for k in idx], rhos, drho)
    return values, errors


def _summed(terms):
    """(value, error) terms added in order from 0.0, as floats."""
    total = err = 0.0
    for v, e in terms:
        total, err = total + v, err + e
    return float(total), float(err)


def pair_sums(pairs, rhos, *, drho: bool = False):
    """[(sum over the cell pairs (a, b) of P(X in a, Y in b), or with ``drho``
    of its d/drho, error bound)] at each rho of ``rhos``, or None where
    :meth:`SetSpec.pair_exact` declines a pair.  The half-space pairs take one
    closed-form call, the sector pairs one Plackett integrand call and the
    cone pairs one nested Plackett rule, over all the pairs and rhos at once;
    each pair's entry equals ``pair_exact`` (or ``pair_drho_exact``) at that
    rho to the bit, and the pairs are added in their order, so each sum is
    that of the one-rho loop over the pairs."""
    rows = _pair_rows(list(pairs), rhos, drho)
    return None if rows is None else [_summed(zip(v, e)) for v, e in zip(rows[0].T, rows[1].T)]


def pair_drho_sum(pairs, rho: float):
    """(sum over the cell pairs (a, b) of d/drho P(X in a, Y in b), error bound)
    at ``rho``, or None where :meth:`SetSpec.pair_drho_exact` declines a pair:
    the one-rho case of :func:`pair_sums` with ``drho``."""
    sums = pair_sums(pairs, [rho], drho=True)
    return None if sums is None else sums[0]


# ---------------------------------------------------------------------------
# cells


def _plane_coords(plane, x):
    """The coordinates of a point, or of each row of a batch, in ``plane``."""
    return x[..., :2] if plane is None else x @ plane.T


@dataclass(frozen=True, eq=False)
class Shape:
    """A cell's shape, built once per cell as :attr:`SetSpec.shape`: each
    description that holds of it, None where one does not, tried in this order
    by every closed form.

    - ``hs``: (n, a), the half-space {x: <n, x> <= a}, n a unit vector (0
      with a = +-inf for R^d and the empty cell);
    - ``deco``: (apex, arcs), the union over the arcs (alpha, beta) of the
      sectors {apex + r (cos t, sin t): r >= 0, alpha <= t <= beta} in the
      coordinates of ``plane``, orthonormal (2, d) rows, or of the first two
      axes when None;
    - ``normals``: the (k, 3) outward unit normals N of the central cone
      {x: N x[:3] <= 0}."""

    hs: tuple | None = None
    deco: tuple | None = None
    plane: np.ndarray | None = None
    normals: np.ndarray | None = None

    @functools.cached_property
    def measure(self):
        """(gamma(cell), error bound) of the first description, or None; a
        central cone's also carries its moment and bound."""
        if self.hs is not None:
            return float(ndtr(self.hs[1])), 1e-15
        if self.deco is not None:
            return self.sector_mass, SECTOR_MASS_ERR
        return None if self.normals is None else central_cone(self.normals)

    @functools.cached_property
    def sector_mass(self) -> float:
        """The Gaussian measure of the union of ``deco``'s sectors."""
        return sum(shifted_sector_mass(self.deco[0], a, b) for a, b in self.deco[1])


class SetSpec:
    """Base class for measurable cells.  Subclasses are immutable and state
    their shape once, as the :class:`Shape` record :attr:`shape`, which a
    wrapper cell maps from its base's.  :meth:`halfspace`,
    :meth:`sector_decomposition` and :meth:`cone_normals` are views on it.
    Each closed form below is written once against them, tried in that order,
    and declines with None where none applies.  The moment, grad T_rho and
    d/drho T_rho all read :meth:`_shifted_moment`, the moment at the shifted
    apex.  A central cone in R^3 has its measure and moment and, with three
    facets, its pair probabilities, but no T_rho at a point for rho != 0."""

    dim: int
    shape = Shape()

    def contains(self, points):
        """A point's membership, or each row's of a batch, by ``_member`` on batches."""
        pts = np.asarray(points, dtype=float)
        out = self._member(np.atleast_2d(pts))
        return bool(out[0]) if pts.ndim == 1 else out

    def halfspace(self):
        """(unit normal, offset) when the cell is {x: <normal, x> <= offset},
        else None.  R^d is (0, +inf) and the empty set (0, -inf)."""
        return self.shape.hs

    def sector_decomposition(self):
        """(apex, [(alpha, beta), ...]) when the cell is a union of planar
        sectors in its record's plane (times its orthogonal complement), else None."""
        return self.shape.deco

    def cone_normals(self):
        """(k, 3) outward unit normals N when the cell is the central cone
        {x: N x[:3] <= 0} (times R^(d-3)), else None."""
        return self.shape.normals

    def gaussian_measure_exact(self):
        """(value, error_bound) of the record's closed-form measure, else None."""
        return None if self.shape.measure is None else self.shape.measure[:2]

    def ou_exact(self, rho: float, x: np.ndarray):
        """(T_rho 1_set(x), error_bound) when a deterministic route exists.

        ``x`` is one point or an (n, d) batch; the value is a float for one
        point and n values for a batch.  At rho = 0 a central cone gives its
        measure, the solid angle over 4 pi.
        """
        sig = math.sqrt((1.0 - rho) * (1.0 + rho))  # no cancellation as |rho| -> 1
        hs = self.halfspace()
        if hs is not None:
            n, a = hs
            val = ndtr((a - rho * (np.asarray(x, dtype=float) @ n)) / sig)
            return (float(val) if np.ndim(val) == 0 else val), 1e-15
        deco = self.sector_decomposition()
        if deco is not None:
            apex, arcs = deco
            q = (apex - rho * _plane_coords(self.shape.plane, np.asarray(x, dtype=float))) / sig
            return sum(shifted_sector_mass(q, a, b) for a, b in arcs), SECTOR_MASS_ERR
        if rho == 0.0 and self.shape.measure is not None:
            value, err = self.shape.measure[:2]
            return (value if np.ndim(x) == 1 else np.full(len(x), value)), err
        return None

    def _shifted_moment(self, rho: float, x):
        """(M, M_err, D, D_err) at a point x or each row of an (n, d) batch, else
        None.  T_rho 1_set(x) is the mass of the half-space or sectors moved to
        q' = (apex - rho x)/sigma; M, the moved set's moment, is minus its
        gradient in q', so grad_x T = (rho/sigma) M and D = d/drho T = -<M,
        dq'/drho>.  An edge with inward normal N, d = <q', N> and density
        (phi(d), times Phi(-c) on a ray) adds it times N to M and times <N,
        x/sigma - rho q'/sigma^2> to D.  q' carries about s = (|apex| + |rho x|)
        /sigma ulps, which move a density by s (|d| + lambda(c)) ulps relative,
        lambda(c) = phi(c)/Phi(-c) <= (c + sqrt(c^2 + 4))/2, and D's factor by
        s |rho|/sigma^2; an underflowing density is off by the smallest normal."""
        sig, x = math.sqrt(sig2 := (1 - rho) * (1 + rho)), np.asarray(x, dtype=float)
        if (hs := self.halfspace()) is not None:
            (n, a), xr, lam = hs, x, 0
            # clipped so that R^d and the empty cell (offsets +-inf) give phi(d) = 0 at a finite d
            d = np.clip((rho * np.einsum("...j,j->...", x, n) - a) / sig, -TRUNCATION_RADIUS,
                        TRUNCATION_RADIUS)[..., None]
            normals, terms, apex = -n[None, :], norm_pdf(d), abs(a) if math.isfinite(a) else 0
        elif (deco := self.sector_decomposition()) is not None:
            xr, apex = _plane_coords(plane := self.shape.plane, x), math.hypot(*deco[0])
            t, s, c, d = _sector_edges((deco[0] - rho * xr) / sig, deco[1])
            normals = np.stack([-np.sin(t), np.cos(t)] + [np.zeros_like(t)] * (self.dim - 2), axis=1)
            normals = normals if plane is None else normals[:, :2] @ plane  # lifted from the plane
            terms, lam = s * norm_pdf(d) * ndtr(-c), (c + np.sqrt(c * c + 4)) / 2
        else:
            return None
        size = (apex + abs(rho) * np.linalg.norm(xr, axis=-1, keepdims=True)) / sig
        along = np.einsum("...j,kj->...k", x, normals) / sig
        rel = (mags := np.abs(terms) + _TINY) * (1 + size * (np.abs(d) + lam))
        # einsum, not matmul, so that a batch gives the bits of its single points
        return (np.einsum("...k,kj->...j", terms, normals),
                ROUNDING * np.einsum("...k,kj->...j", rel, np.abs(normals)),
                np.sum(terms * (along - rho * d / sig2), axis=-1),
                ROUNDING * np.sum(rel * (np.abs(along) + np.abs(rho * d) / sig2)
                                  + mags * abs(rho) * size / sig2, axis=-1))

    def ou_gradient_exact(self, rho: float, x: np.ndarray):
        """(grad T_rho 1_set(x), componentwise error bound), else None; ``x`` as
        in :meth:`ou_exact`: (rho/sigma) M of :meth:`_shifted_moment`."""
        res, k = self._shifted_moment(rho, x), rho / math.sqrt((1 - rho) * (1 + rho))
        return None if res is None else (k * res[0], abs(k) * res[1])

    def ou_drho_exact(self, rho: float, x: np.ndarray):
        """(d/drho T_rho 1_set(x), error bound) = D of :meth:`_shifted_moment`,
        else None; ``x`` as in :meth:`ou_exact`."""
        res = self._shifted_moment(rho, x)
        return None if res is None else res[2:]

    def moment_exact(self):
        """(integral of x * gamma_d(x) over the cell, componentwise error bound)
        in closed form, else None: M of :meth:`_shifted_moment` at rho = 0, or
        the central cone's moment in R^3."""
        res = self._shifted_moment(0.0, np.zeros(self.dim))
        if res is not None:
            return res[:2]
        m = self.shape.measure
        return None if m is None else tuple(np.pad(v, (0, self.dim - 3)) for v in m[2:])

    def pair_exact(self, other: "SetSpec", rho: float):
        """(P(X in self, Y in other), error_bound) for a rho-correlated pair
        when both cells are half-spaces, planar sectors in one plane or central
        cones in R^3 with three facets, else None: the one-pair one-rho case of
        :func:`pair_sums`."""
        rows = _pair_rows([(self, other)], [rho])
        return None if rows is None else (float(rows[0][0, 0]), float(rows[1][0, 0]))

    def pair_drho_exact(self, other: "SetSpec", rho: float):
        """(d/drho P(X in self, Y in other), error_bound) on the routes of :meth:`pair_exact`,
        else None: the one-pair case of :func:`pair_drho_sum`."""
        return pair_drho_sum([(self, other)], rho)

    def translate(self, t) -> "SetSpec":
        return ShiftedSet(self, np.asarray(t, dtype=float))

    def negate(self) -> "SetSpec":
        raise UnsupportedBoundaryError(f"negation not available for {type(self).__name__}")

    def rotate(self, q_matrix) -> "SetSpec":
        raise UnsupportedBoundaryError(f"rotation not available for {type(self).__name__}")

    def to_json(self) -> dict:
        raise DomainError(f"{type(self).__name__} does not serialize")


class HalfSpace(SetSpec):
    """{x: <normal, x> <= offset}; the normal is stored as a unit vector."""

    def __init__(self, normal, offset: float):
        n = np.asarray(normal, dtype=float)
        nn = float(np.linalg.norm(n))
        if nn == 0 or not np.all(np.isfinite(n)):
            raise DomainError("half-space normal must be a nonzero finite vector")
        self.normal = n / nn
        self.offset = float(offset) / nn
        self.dim = n.shape[0]

    def _member(self, pts):
        return pts @ self.normal <= self.offset

    @functools.cached_property
    def shape(self):
        return Shape((self.normal, self.offset))

    def translate(self, t):
        return HalfSpace(self.normal, self.offset + float(self.normal @ np.asarray(t, float)))

    def negate(self):
        return HalfSpace(-self.normal, self.offset)

    def rotate(self, q_matrix):
        return HalfSpace(q_matrix @ self.normal, self.offset)

    def to_json(self):
        return {"kind": "half-space", "normal": self.normal.tolist(), "offset": self.offset}


class ConeCell(SetSpec):
    """Cell i of the maximal-inner-product partition over a generator family:
    {x: <x, z_i> = max_j <x, z_j>}."""

    def __init__(self, generators, index: int):
        z = np.asarray(generators, dtype=float)
        if z.ndim != 2 or not np.all(np.isfinite(z)):
            raise DomainError("generators must be a finite (m, d) array")
        if not 0 <= index < z.shape[0]:
            raise DomainError("cell index out of range")
        self.generators = z
        self.index = int(index)
        self.dim = z.shape[1]

    def _member(self, pts):
        # scores in (m, k) layout, so the maximum over the cells runs along rows
        dots = self.generators @ pts.T
        return dots[self.index] >= dots.max(axis=0)

    @functools.cached_property
    def shape(self):
        """A half-space when one distinct z_j - z_i is left; sectors at the
        origin over the cell's arc when the family's z_j - z_0, through which
        every cell reads x, span at most a plane: the first two axes when they
        vanish outside them, else their two leading right singular vectors;
        else, in R^3, a central cone."""
        z, i = self.generators, self.index
        w = z - z[i]
        w = w[np.any(w != 0.0, axis=1)]  # z_i, and any generator equal to it, constrains nothing
        hs = (w[0] / float(np.linalg.norm(w[0])), 0.0) if len(w) else (np.zeros(self.dim), math.inf)
        diff, plane, planar = z - z[0], None, self.dim >= 2
        if planar and np.any(diff[:, 2:]):
            _, sv, vt = np.linalg.svd(diff)
            plane, planar = vt[:2], sv.size < 3 or sv[2] <= ROUNDING * sv[0]
        arc = feasible_arc(_plane_coords(plane, z[i] - np.delete(z, i, axis=0))) if planar else None
        deco = None if arc is None else (np.zeros(2), [arc])
        cone = self.dim == 3 and deco is None
        return Shape(None if np.any(w != w[:1]) else hs, deco, plane,
                     w / np.linalg.norm(w, axis=1, keepdims=True) if cone else None)

    # a view of its own on this class: the benchmark's tracer times it by this name
    sector_decomposition = SetSpec.sector_decomposition

    def negate(self):
        return ConeCell(-self.generators, self.index)

    def rotate(self, q_matrix):
        return ConeCell(self.generators @ np.asarray(q_matrix).T, self.index)

    def to_json(self):
        return {"kind": "cone", "generators": self.generators.tolist(), "index": self.index}


class Sector2D(SetSpec):
    """Planar sector {x: angle(x) in [start, end)} with 0 <= end - start <= 2 pi.

    The origin counts as having angle 0.
    """

    def __init__(self, start_angle: float, end_angle: float):
        width = end_angle - start_angle
        if not 0.0 <= width <= _TWO_PI + 1e-12:
            raise DomainError("sector width must lie in [0, 2 pi]")
        self.start = float(start_angle)
        self.end = float(end_angle)
        self.dim = 2

    def _member(self, pts):
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        rel = np.mod(ang - self.start, _TWO_PI)
        return rel < (self.end - self.start)

    @functools.cached_property
    def shape(self):
        return Shape(deco=(np.zeros(2), [(self.start, self.end)]))

    def negate(self):
        return Sector2D(self.start + math.pi, self.end + math.pi)

    def to_json(self):
        return {"kind": "sector-2d", "start_angle": self.start, "end_angle": self.end}


class ExplicitCell(SetSpec):
    """Finite intersection of half-spaces; an empty list means all of R^d."""

    def __init__(self, halfspaces, dim: int | None = None):
        self.halfspaces = list(halfspaces)
        if self.halfspaces:
            self.dim = self.halfspaces[0].dim
            if any(h.dim != self.dim for h in self.halfspaces):
                raise DomainError("half-space dimension mismatch")
        elif dim is not None:
            self.dim = int(dim)
        else:
            raise DomainError("dimension required for the unconstrained cell")

    def _member(self, pts):
        out = np.ones(pts.shape[0], dtype=bool)
        for h in self.halfspaces:
            out &= pts @ h.normal <= h.offset
        return out

    @functools.cached_property
    def shape(self):
        if not self.halfspaces:
            return Shape((np.zeros(self.dim), math.inf))
        return self.halfspaces[0].shape if len(self.halfspaces) == 1 else Shape()

    def translate(self, t):
        return ExplicitCell([h.translate(t) for h in self.halfspaces], dim=self.dim)

    def negate(self):
        return ExplicitCell([h.negate() for h in self.halfspaces], dim=self.dim)

    def rotate(self, q_matrix):
        return ExplicitCell([h.rotate(q_matrix) for h in self.halfspaces], dim=self.dim)

    def to_json(self):
        return {
            "kind": "explicit-cell",
            "dimension": self.dim,
            "halfspaces": [{"normal": h.normal.tolist(), "offset": h.offset} for h in self.halfspaces],
        }


class ProductWithR(SetSpec):
    """base x R^k: membership ignores the last k coordinates."""

    def __init__(self, base: SetSpec, extra_dims: int):
        if extra_dims < 1:
            raise DomainError("extra_dims must be >= 1")
        self.base = base
        self.extra = int(extra_dims)
        self.dim = base.dim + self.extra

    def _member(self, pts):
        return self.base._member(pts[:, : self.base.dim])

    @functools.cached_property
    def shape(self):
        s, hs = self.base.shape, self.base.halfspace()
        hs = None if hs is None else (np.concatenate([hs[0], np.zeros(self.extra)]), hs[1])
        plane = None if s.plane is None else np.pad(s.plane, ((0, 0), (0, self.extra)))
        return Shape(hs, s.deco, plane, s.normals)

    def translate(self, t):
        return ProductWithR(self.base.translate(np.asarray(t, float)[: self.base.dim]), self.extra)

    def negate(self):
        return ProductWithR(self.base.negate(), self.extra)

    def to_json(self):
        return {"kind": "product-with-R", "base": self.base.to_json(), "extra_dims": self.extra}


class Complement(SetSpec):
    def __init__(self, base: SetSpec):
        self.base = base
        self.dim = base.dim

    def _member(self, pts):
        return ~self.base._member(pts)

    @functools.cached_property
    def shape(self):
        hs, deco = self.base.halfspace(), self.base.sector_decomposition()
        if deco is not None:
            apex, arcs = deco
            deco = (apex, [(arcs[0][1], arcs[0][0] + _TWO_PI)]) if len(arcs) == 1 else None
        return Shape(None if hs is None else (-hs[0], -hs[1]), deco, self.base.shape.plane)

    def translate(self, t):
        return Complement(self.base.translate(t))

    def negate(self):
        return Complement(self.base.negate())

    def rotate(self, q_matrix):
        return Complement(self.base.rotate(q_matrix))

    def to_json(self):
        return {"kind": "complement", "base": self.base.to_json()}


class ShiftedSet(SetSpec):
    """base + shift (pointwise translation of the set)."""

    def __init__(self, base: SetSpec, shift):
        self.base = base
        self.shift = check_point(shift, base.dim)
        self.dim = base.dim

    def _member(self, pts):
        return self.base._member(pts - self.shift)

    @functools.cached_property
    def shape(self):
        """The half-space's offset moved by <n, shift>, and the sectors' apex by
        the shift's coordinates in their plane; a shifted cone is not central."""
        hs, deco, plane = self.base.halfspace(), self.base.sector_decomposition(), self.base.shape.plane
        hs = None if hs is None else (hs[0], hs[1] + float(hs[0] @ self.shift))
        deco = None if deco is None else (deco[0] + _plane_coords(plane, self.shift), deco[1])
        return Shape(hs, deco, plane)

    def translate(self, t):
        return ShiftedSet(self.base, self.shift + np.asarray(t, dtype=float))

    def negate(self):
        return ShiftedSet(self.base.negate(), -self.shift)

    def to_json(self):
        return {"kind": "shifted", "base": self.base.to_json(), "shift": self.shift.tolist()}


class OracleSet(SetSpec):
    """Indicator callback; membership and measure only, no boundary data."""

    def __init__(self, indicator, dim: int):
        self.indicator = indicator
        self.dim = int(dim)

    def _member(self, pts):
        return np.asarray(self.indicator(pts), dtype=bool)

    def negate(self):
        return OracleSet(lambda pts: self.indicator(-pts), self.dim)


class DilationFlowSet(SetSpec):
    """Image of a set under the time-s flow of the field X(x) = x_d * x.

    The flow is Psi(x, s) = x / (1 - s x_d), so membership tests the inverse
    image x / (1 + s x_d).  Meaningful for |s| * |x_d| << 1, which holds for
    the step sizes used here inside the evaluation radius.
    """

    def __init__(self, base: SetSpec, s: float):
        self.base = base
        self.s = float(s)
        self.dim = base.dim

    def _member(self, pts):
        factor = 1.0 + self.s * pts[:, -1]
        factor = np.maximum(factor, 1e-9)
        return self.base._member(pts / factor[:, None])

    @functools.cached_property
    def shape(self):
        # cones with apex at the origin are flow-invariant
        deco = self.base.sector_decomposition()
        centred = deco is not None and float(np.linalg.norm(deco[0])) < 1e-12
        return Shape(deco=deco, plane=self.base.shape.plane) if centred else Shape()


# ---------------------------------------------------------------------------
# facets and boundary sampling

#: Gauss nodes of the line rule (its Gauss-Kronrod extension has 2 _LINE_NODES + 1)
#: and its half-width in standard deviations, outside which the Gaussian mass is
#: below 1e-32
_LINE_NODES = 64
_LINE_RADIUS = 12.0


def _values_and_errors(out):
    """An integrand returns its values, or (values, per-point error figures)."""
    return out if isinstance(out, tuple) else (out, 0.0)


def _line_rule(h, lo: float, hi: float, mu=0.0, sigma: float = 1.0):
    """(integral over [lo, hi] of h(t) phi((t - mu)/sigma)/sigma dt, error figure)
    on [lo, hi] cut to mu +- _LINE_RADIUS sigma, by the Gauss-Kronrod rule
    with _LINE_NODES Gauss nodes: the value of the 2 _LINE_NODES + 1-node
    Kronrod rule, and as error figure its difference from the Gauss rule plus
    the rule's integral of any per-node error figures h returns and of the
    rounding of the values (the two rules share their values, so their
    difference does not see it).  ``h`` gets the 2 _LINE_NODES + 1 nodes, the
    Gauss ones first, in the last axis of t, with one row per centre when
    ``mu`` is an array."""
    mu = np.asarray(mu, dtype=float)
    a = np.maximum(lo, mu - _LINE_RADIUS * sigma)
    b = np.maximum(a, np.minimum(hi, mu + _LINE_RADIUS * sigma))
    t, w_k, w_g = _kronrod(_LINE_NODES)
    half = 0.5 * (b - a)
    t = (0.5 * (a + b))[..., None] + half[..., None] * t
    vals, errs = _values_and_errors(h(t))
    dens = half[..., None] * norm_pdf((t - mu[..., None]) / sigma) / sigma
    coarse = (vals * dens)[..., :_LINE_NODES] @ w_g
    fine = (vals * dens) @ w_k
    err = ((np.abs(errs) + ROUNDING * np.abs(vals)) * dens) @ w_k
    return fine, np.abs(coarse - fine) + err


@dataclass(frozen=True)
class BoundaryPoint:
    """A surface quadrature node on an interface.

    ``weight`` is in units of (d-1)-dimensional surface measure: summing
    weight * h(location) over a sample estimates the plain surface integral
    of h over the interface.
    """

    location: np.ndarray
    normal: np.ndarray
    interface: tuple[int, int]
    weight: float


class Facet:
    """A convex piece of a hyperplane: {x: <n,x> = offset, <c_k,x> <= b_k}.

    The normal is oriented from cell i into cell j of the owning interface.
    """

    def __init__(self, normal, offset: float, tangents, constraints=()):
        self.normal = np.asarray(normal, dtype=float)
        self.offset = float(offset)
        self.tangents = np.asarray(tangents, dtype=float).reshape(-1, self.normal.shape[0])
        self.constraints = [(np.asarray(c, float), float(b)) for c, b in constraints]
        self.dim = self.normal.shape[0]
        self.base_point = self.offset * self.normal
        self._analyze()

    # -- geometry analysis ---------------------------------------------------
    def _analyze(self):
        k = self.tangents.shape[0]
        self._alpha = np.array([t for t in (self.tangents @ c for c, _ in self.constraints)])
        self._beta = np.array([b - self.offset * float(c @ self.normal) for c, b in self.constraints])
        self.kind = "generic"
        self.mass_err = 0.0
        if k == 0:
            self.kind = "point"
        elif k == 1:
            self.kind = "interval"
            lo, hi = -np.inf, np.inf
            empty = False
            for a, b in zip(self._alpha, self._beta):
                a = float(a[0])
                if abs(a) < 1e-14:
                    if b < -1e-12:
                        empty = True
                elif a > 0:
                    hi = min(hi, b / a)
                else:
                    lo = max(lo, b / a)
            self._lo, self._hi = (0.0, 0.0) if empty or lo >= hi else (lo, hi)
        elif k == 2 and all(abs(b) < 1e-12 for b in self._beta):
            self.kind = "planar-cone"
            arc = feasible_arc(-self._alpha.reshape(-1, 2))
            self._arcs = [] if arc is None else [arc]
        across, along, _ = self._mass_factors(0.0, np.zeros(self.dim))
        if along is not None:
            self.mass = float(across * along)
            return
        # generic: pilot estimate of the acceptance fraction
        rng = np.random.default_rng(np.random.SeedSequence(123456789))
        n_pilot = 200_000
        u = rng.standard_normal((n_pilot, k))
        acc = float(np.mean(self._feasible(u)))
        self.mass = float(across) * acc
        self.mass_err = float(across) * math.sqrt(max(acc * (1 - acc), 0.0) / n_pilot)

    def _feasible(self, u: np.ndarray) -> np.ndarray:
        ok = np.ones(u.shape[0], dtype=bool)
        for a, b in zip(self._alpha, self._beta):
            ok &= u @ a <= b + 1e-14
        return ok

    def _mass_factors(self, rho: float, x: np.ndarray):
        """(across, along, along_err): the facet's mass under N(rho x, (1 - rho^2) I),
        at a point x or each row of a batch, is the density across the
        hyperplane times the probability along it, which is None on generic
        facets and a sector mass with apex -rho T x / sigma on planar cones."""
        sig = math.sqrt((1 - rho) * (1 + rho))  # no cancellation as |rho| -> 1
        across = norm_pdf((self.offset - rho * (x @ self.normal)) / sig) / sig
        if self.kind == "point":
            return across, 1.0, 1e-15
        if self.kind == "interval":
            mu = rho * (x @ self.tangents[0])
            lo, hi = (self._lo - mu) / sig, (self._hi - mu) / sig
            # from the tail the interval lies in, so that a far end cannot cancel it
            return across, np.where(lo > 0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo)), 1e-15
        if self.kind == "planar-cone":
            apex = -rho * (x @ self.tangents.T) / sig
            return across, sum(shifted_sector_mass(apex, a, b) for a, b in self._arcs), SECTOR_MASS_ERR
        return across, None, 0.0

    # -- sampling and integration --------------------------------------------
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points from the Gaussian density restricted to the facet."""
        if self.kind == "point":
            return np.tile(self.base_point, (n, 1))
        if self.kind == "interval":
            lo, hi = ndtr(self._lo), ndtr(self._hi)
            t = ndtri(lo + (hi - lo) * rng.uniform(1e-14, 1 - 1e-14, size=n))
            return self.base_point + t[:, None] * self.tangents[0]
        if self.kind == "planar-cone":
            widths = np.array([b - a for a, b in self._arcs])
            idx = rng.choice(len(self._arcs), size=n, p=widths / widths.sum())
            theta = np.array([self._arcs[i][0] for i in idx]) + widths[idx] * rng.uniform(size=n)
            r = np.sqrt(-2.0 * np.log(rng.uniform(1e-300, 1.0, size=n)))
            u = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
            return self.base_point + u @ self.tangents
        out = np.empty((n, self.dim))
        got = 0
        k = self.tangents.shape[0]
        while got < n:
            u = rng.standard_normal((max(2 * (n - got), 64), k))
            u = u[self._feasible(u)]
            take = min(n - got, u.shape[0])
            out[got : got + take] = self.base_point + u[:take] @ self.tangents
            got += take
        return out

    def gauss_integral(self, h, rho: float = 0.0, x=None, *, mode: str = "auto",
                       budget: int = 20_000, seed=0):
        """The integral over the facet of h against N(rho x, (1 - rho^2) I), the
        kernel K_rho(x, .) of the surface operator (gamma_d at rho = 0).

        ``h`` is a number (a constant integrand) or maps an (n, d) array of
        points to n values, or to (values, per-point error figures) whose
        integral joins the error figure.  ``x`` is one point (default the
        origin) or an (m, d) batch, and the result a :class:`VectorEstimate`
        that reports whether it sampled.  ``mode`` picks the route (see
        :func:`noiselab.gauss.route`).  Deterministic routes: a constant times
        the closed-form mass (point, interval and planar-cone facets), h at a
        point facet, and on an interval facet :func:`_line_rule` in the
        tangent coordinate.  The sampled route draws ``budget`` points from
        gamma_d on the facet, weights them by the kernel over gamma_d, and
        adds the facet mass's own error.
        """
        point = np.zeros(self.dim) if x is None else np.asarray(x, dtype=float)
        shape = point.shape[:-1]
        sig = math.sqrt((1 - rho) * (1 + rho))  # no cancellation as |rho| -> 1
        across, along, along_err = self._mass_factors(rho, point)

        def on_line(t):
            vals, errs = _values_and_errors(h(self.base_point + t.reshape(-1, 1) * self.tangents[0]))
            return np.reshape(vals, t.shape), (np.reshape(errs, t.shape) if np.ndim(errs) else errs)

        def deterministic():
            if not callable(h):
                return None if along is None else VectorEstimate(
                    across * (h * along), across * abs(h) * along_err, 0, QUADRATURE)
            if self.kind == "point":
                vals, errs = _values_and_errors(h(self.base_point[None, :]))
                val, err = vals[0], np.max(errs) + 1e-15
            elif self.kind == "interval":
                val, err = _line_rule(on_line, self._lo, self._hi, rho * (point @ self.tangents[0]), sig)
            else:
                return None
            return VectorEstimate(across * val, across * err, 0, QUADRATURE)

        def sampled():
            pts = self.sample(np.random.default_rng(make_seedseq(seed)), budget)
            vals, errs = _values_and_errors(h(pts)) if callable(h) else (np.full(budget, float(h)), 0.0)
            gam = np.exp(-0.5 * np.sum(pts * pts, axis=1)) * (2 * math.pi) ** (-self.dim / 2)
            # K_0 is gamma_d itself; otherwise one row of kernel values at a time
            rows = ([(vals, errs)] * len(np.atleast_2d(point)) if rho == 0.0 else
                    ((vals * k / gam, errs * k / gam if np.any(errs) else 0.0)
                     for k in (mehler_kernel(pts, xk, rho) for xk in np.atleast_2d(point))))
            mean, sd, err = np.array([(np.mean(v), np.std(v, ddof=1) if budget > 1 else 0.0,
                                       np.mean(e)) for v, e in rows]).T.reshape(3, *shape)
            return VectorEstimate(self.mass * mean, self.mass * (sd / math.sqrt(budget) + err)
                                  + np.abs(mean) * self.mass_err, budget, MONTE_CARLO)

        if self.mass == 0.0:
            return VectorEstimate(np.zeros(shape), np.zeros(shape), 0, QUADRATURE)
        return route(mode, deterministic, sampled)

    def flipped(self) -> "Facet":
        """The facet with its normal reversed.  Negating both the normal and
        the offset leaves every quantity of the analysis unchanged to the
        bit, so it is shared rather than recomputed."""
        f = copy.copy(self)
        f.normal, f.offset = -self.normal, -self.offset
        return f

    def extended(self, extra: int) -> "Facet":
        """The facet of the cylinder cell base x R^extra."""
        d = self.dim
        pad = lambda v: np.concatenate([v, np.zeros(extra)])
        tang = np.vstack([
            np.hstack([self.tangents, np.zeros((self.tangents.shape[0], extra))]),
            np.hstack([np.zeros((extra, d)), np.eye(extra)]),
        ])
        cons = [(pad(c), b) for c, b in self.constraints]
        return Facet(pad(self.normal), self.offset, tang, cons)


class BoundarySample:
    """Weighted Gaussian-surface sample of one interface."""

    def __init__(self, points, normals, weights, interface, facet_index):
        self.points = points
        self.normals = normals
        self.weights = weights
        self.interface = interface
        self.facet_index = facet_index

    def __len__(self):
        return self.points.shape[0]


def _tangent_basis(normal: np.ndarray) -> np.ndarray:
    d = normal.shape[0]
    if d == 1:
        return np.zeros((0, 1))
    _, _, vt = np.linalg.svd(normal[None, :])
    return vt[1:]


# ---------------------------------------------------------------------------
# partitions


class PartitionSpec:
    """Ordered cells covering R^d; ties go to the lowest index.  ``argmax_form``
    is (generators, shift, base_dim) when membership is one argmax of inner
    products (see :meth:`_detect_argmax_form`), else None."""

    def __init__(self, cells, dimension: int | None = None):
        if not cells:
            raise DomainError("a partition needs at least one cell")
        self.cells = list(cells)
        self.dim = self.cells[0].dim if dimension is None else int(dimension)
        for c in self.cells:
            if c.dim != self.dim:
                raise DomainError("all cells must share the partition dimension")
        self.m = len(self.cells)
        self.argmax_form = self._detect_argmax_form()
        self._facets = {}  # (i, j) -> facets of Sigma_ij oriented from i into j

    # -- structure detection ---------------------------------------------------
    def _detect_argmax_form(self):
        """(generators, shift, base_dim) when membership is one argmax of inner
        products with the generators over the first base_dim coordinates:
        maximal-inner-product cones, all shifted alike or not at all, or a
        cylinder over such cones with one common number of extra coordinates."""
        cells, base_dim = self.cells, self.dim
        if all(isinstance(c, ProductWithR) for c in cells) and len({c.extra for c in cells}) == 1:
            cells = [c.base for c in cells]
            base_dim = cells[0].dim
        cells, shift = _unshifted(cells, base_dim)
        if all(isinstance(c, ConeCell) for c in cells):
            z0 = cells[0].generators
            if (
                z0.shape[0] == self.m
                and all(c.generators is z0 or np.array_equal(c.generators, z0) for c in cells)
                and all(c.index == k for k, c in enumerate(cells))
            ):
                return z0, shift, base_dim
        return None

    # -- membership --------------------------------------------------------------
    def membership(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        if self.argmax_form is not None:
            # the (m, k) scores of ConeCell._member on the same coordinates, so
            # the first row at the maximum is the cell that claims the point first
            z, shift, base_dim = self.argmax_form
            x = pts[:, :base_dim]
            if shift.any():  # subtracting zero would only copy
                x = x - shift
            scores = z @ x.T
            idx = np.argmax(scores == scores.max(axis=0), axis=0)
        else:
            claimed = np.zeros(pts.shape[0], dtype=bool)
            idx = np.full(pts.shape[0], -1, dtype=int)
            for k, cell in enumerate(self.cells):
                hit = np.atleast_1d(cell.contains(pts)) & ~claimed
                idx[hit] = k
                claimed |= hit
                if claimed.all():
                    break
            if not claimed.all():
                raise CoverageError("a point belongs to no cell of the partition")
        return int(idx[0]) if single else idx

    # -- transformations -----------------------------------------------------------
    def translated(self, t) -> "PartitionSpec":
        t = check_point(t, self.dim)
        return PartitionSpec([c.translate(t) for c in self.cells], self.dim)

    def negated(self) -> "PartitionSpec":
        return PartitionSpec([c.negate() for c in self.cells], self.dim)

    def rotated(self, q_matrix) -> "PartitionSpec":
        return PartitionSpec([c.rotate(q_matrix) for c in self.cells], self.dim)

    def dilation_flowed(self, s: float) -> "PartitionSpec":
        return PartitionSpec([DilationFlowSet(c, s) for c in self.cells], self.dim)

    # -- boundaries ------------------------------------------------------------------
    def interface_facets(self, i: int, j: int) -> list[Facet]:
        """Facets of Sigma_ij with normals oriented from cell i into cell j."""
        if not (0 <= i < self.m and 0 <= j < self.m) or i == j:
            raise DomainError("invalid interface indices")
        # built once per orientation; the reversed one shares the analysis
        if (i, j) not in self._facets:
            self._facets[(i, j)] = (self._facets_low(i, j) if i < j
                                    else [f.flipped() for f in self.interface_facets(j, i)])
        return list(self._facets[(i, j)])

    def _facets_low(self, i: int, j: int) -> list[Facet]:
        if self.argmax_form is not None and self.argmax_form[2] == self.dim:
            z, shift, _ = self.argmax_form
            w = z[j] - z[i]
            nw = float(np.linalg.norm(w))
            if nw < 1e-14:
                raise UnsupportedBoundaryError("identical generators")
            n = w / nw
            cons = []
            for k in range(self.m):
                if k in (i, j):
                    continue
                c = z[k] - z[i]
                cons.append((c, float(c @ shift)))
            return [Facet(n, float(n @ shift), _tangent_basis(n), cons)]

        cells, shift = _unshifted(self.cells, self.dim)
        if all(isinstance(c, ProductWithR) for c in cells):
            extra = cells[0].extra
            if all(c.extra == extra for c in cells):
                # a cylinder shifted by t is its base shifted by t's first coordinates
                base = PartitionSpec([c.base.translate(shift[: c.base.dim]) for c in cells])
                return [f.extended(extra) for f in base._facets_low(i, j)]

        if self.m == 2 and all(c.halfspace() is not None for c in self.cells):
            # complementary half-spaces {<n, x> <= a} and {<-n, x> <= -a}
            (n_i, a_i), (n_j, a_j) = self.cells[i].halfspace(), self.cells[j].halfspace()
            if np.allclose(n_i, -n_j) and abs(a_i + a_j) < 1e-12:
                return [Facet(n_i, a_i, _tangent_basis(n_i))]

        # planar sectors, one arc per cell, around one common apex
        decos = [c.sector_decomposition() for c in self.cells] if self.dim == 2 else [None]
        if all(d is not None and len(d[1]) == 1 and np.array_equal(d[0], decos[0][0])
               for d in decos):
            return _sector_facets([d[1][0] for d in decos], decos[0][0], i, j)

        raise UnsupportedBoundaryError(
            f"no facet rule for cells {type(self.cells[i]).__name__}/{type(self.cells[j]).__name__}"
        )

    def all_interfaces(self) -> dict[tuple[int, int], list[Facet]]:
        out = {}
        for i in range(self.m):
            for j in range(i + 1, self.m):
                try:
                    facets = self.interface_facets(i, j)
                except EmptyInterfaceError:
                    continue
                if sum(f.mass for f in facets) > 0:
                    out[(i, j)] = facets
        return out

    def cell_boundary(self, i: int) -> list[tuple[Facet, float]]:
        """(facet, sign) pairs: sign * facet.normal is exterior to cell i."""
        out = []
        for (a, b), facets in self.all_interfaces().items():
            if a == i:
                out.extend((f, 1.0) for f in facets)
            elif b == i:
                out.extend((f, -1.0) for f in facets)
        return out

    def boundary_sample(self, i: int, j: int, n: int, *, seed=0) -> BoundarySample:
        """n Gaussian-surface-weighted points on Sigma_ij with normals i -> j."""
        facets = self.interface_facets(i, j)
        masses = np.array([f.mass for f in facets])
        total = float(masses.sum())
        if not facets or total <= 0:
            raise EmptyInterfaceError(f"interface ({i}, {j}) is empty")
        raw = n * masses / total
        counts = np.floor(raw).astype(int)
        rem = n - counts.sum()
        order = np.argsort(raw - counts)[::-1]
        counts[order[:rem]] += 1
        rng = np.random.default_rng(make_seedseq(seed))
        pts, nms, wts, fidx = [], [], [], []
        for k, (f, cnt) in enumerate(zip(facets, counts)):
            if cnt == 0 or f.mass == 0:
                continue
            p = f.sample(rng, cnt)
            gam = np.exp(-0.5 * np.sum(p * p, axis=1)) * (2 * math.pi) ** (-self.dim / 2)
            pts.append(p)
            nms.append(np.tile(f.normal, (cnt, 1)))
            wts.append(f.mass / (cnt * gam))
            fidx.append(np.full(cnt, k))
        return BoundarySample(
            np.concatenate(pts), np.concatenate(nms), np.concatenate(wts), (i, j), np.concatenate(fidx)
        )

    # -- serialization ------------------------------------------------------------
    def to_json(self) -> dict:
        return {"dimension": self.dim, "cells": [c.to_json() for c in self.cells]}


def _unshifted(cells, dim: int):
    """(bases, shift) when every cell is a ShiftedSet with one common shift,
    else (cells, zero shift)."""
    if all(isinstance(c, ShiftedSet) for c in cells):
        sh = cells[0].shift
        if all(np.array_equal(c.shift, sh) for c in cells):
            return [c.base for c in cells], sh
    return cells, np.zeros(dim)


def _unit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def _same_angle(a: float, b: float) -> bool:
    d = (a - b) % _TWO_PI
    return min(d, _TWO_PI - d) < 1e-12


def _sector_facets(arcs, apex, i, j) -> list[Facet]:
    (start_i, end_i), (start_j, end_j) = arcs[i], arcs[j]
    facets = []

    def ray(theta, ccw_cell_is_j):
        u = _unit(theta)
        n = _unit(theta + math.pi / 2) if ccw_cell_is_j else _unit(theta - math.pi / 2)
        return Facet(n, float(n @ apex), u[None, :], [(-u, float(-u @ apex))])

    if _same_angle(end_i, start_j):
        facets.append(ray(end_i, True))
    if _same_angle(end_j, start_i):
        facets.append(ray(start_i, False))
    if not facets:
        raise EmptyInterfaceError(f"sectors {i} and {j} are not adjacent")
    return facets


# ---------------------------------------------------------------------------
# constructions


def simplex_generators(m: int, d: int) -> np.ndarray:
    """m unit vectors in R^d with pairwise inner products -1/(m-1), summing to 0.

    These are the vertex directions of a regular simplex centered at the
    origin, embedded in the first m-1 coordinates.  Requires 2 <= m <= d + 1.
    """
    if m < 2:
        raise DomainError("need at least two generators")
    if m > d + 1:
        raise DomainError(f"m regular-simplex vertices need dimension >= m - 1 (got m={m}, d={d})")
    ones = np.ones((1, m))
    _, _, vt = np.linalg.svd(ones)
    basis = vt[1:]  # orthonormal rows spanning {x: sum x = 0}
    verts = (np.eye(m) - 1.0 / m) @ basis.T / math.sqrt(1.0 - 1.0 / m)
    out = np.zeros((m, d))
    out[:, : m - 1] = verts
    return out


def simplex_cone_partition(m: int, d: int | None = None) -> PartitionSpec:
    """The maximal-inner-product partition over the regular-simplex directions."""
    d = m - 1 if d is None else d
    z = simplex_generators(m, d)
    return PartitionSpec([ConeCell(z, k) for k in range(m)])


def cone_partition(generators) -> PartitionSpec:
    z = np.asarray(generators, dtype=float)
    return PartitionSpec([ConeCell(z, k) for k in range(z.shape[0])])


def perturbed_simplex_cones(m: int, d: int | None = None, angle_deg: float = 5.0,
                            cell: int = 0) -> PartitionSpec:
    """Simplex cones with one generator rotated in the (x1, x2) plane."""
    d = m - 1 if d is None else d
    z = simplex_generators(m, d).copy()
    a = math.radians(angle_deg)
    rot = np.eye(d)
    rot[0, 0] = rot[1, 1] = math.cos(a)
    rot[0, 1] = -math.sin(a)
    rot[1, 0] = math.sin(a)
    z[cell] = rot @ z[cell]
    return cone_partition(z)


def halfspace_partition(normal, offset: float) -> PartitionSpec:
    h = HalfSpace(normal, offset)
    return PartitionSpec([h, Complement(h)])


def sector_partition(boundaries) -> PartitionSpec:
    """Sectors [b_0, b_1), [b_1, b_2), ..., [b_{m-1}, b_0 + 2 pi)."""
    b = [float(t) for t in boundaries]
    cells = []
    for k in range(len(b)):
        end = b[(k + 1) % len(b)]
        while end <= b[k]:
            end += _TWO_PI
        cells.append(Sector2D(b[k], end))
    widths = sum(c.end - c.start for c in cells)
    if abs(widths - _TWO_PI) > 1e-9:
        raise DomainError("sector boundaries must wind once around the circle")
    return PartitionSpec(cells)


def three_sectors_120() -> PartitionSpec:
    return sector_partition([-math.pi / 3, math.pi / 3, math.pi])


def cylinder_extend(p: PartitionSpec, k: int) -> PartitionSpec:
    """Partition of R^{d+k} whose membership ignores the last k coordinates."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return PartitionSpec([ProductWithR(c, k) for c in p.cells])


def gaussian_measure(s: SetSpec, budget: int = 200_000, *, seed=0, threads: int = 1,
                     mode: str = "auto") -> Estimate:
    """Gaussian measure of a cell: closed form when available, else Monte Carlo."""

    def closed_form():
        res = s.gaussian_measure_exact()
        return None if res is None else Estimate(float(res[0]), float(res[1]), 0, CLOSED_FORM)

    def values(rng, k):
        return s.contains(rng.standard_normal((k, s.dim)))

    return route(mode, closed_form, lambda: mc_mean(values, budget, seed=seed, threads=threads))


# ---------------------------------------------------------------------------
# JSON wire format


def partition_to_json(p: PartitionSpec) -> dict:
    return p.to_json()


def set_from_json(doc: dict, dim: int | None = None) -> SetSpec:
    kind = doc.get("kind")
    if kind == "half-space":
        return HalfSpace(doc["normal"], doc["offset"])
    if kind == "cone":
        gens = doc["generators"]
        return ConeCell(gens, int(doc.get("index", 0)))
    if kind == "sector-2d":
        return Sector2D(doc["start_angle"], doc["end_angle"])
    if kind == "explicit-cell":
        hs = [HalfSpace(h["normal"], h["offset"]) for h in doc.get("halfspaces", [])]
        return ExplicitCell(hs, dim=doc.get("dimension", dim))
    if kind == "product-with-R":
        return ProductWithR(set_from_json(doc["base"], dim), int(doc["extra_dims"]))
    if kind == "complement":
        return Complement(set_from_json(doc["base"], dim))
    if kind == "shifted":
        return ShiftedSet(set_from_json(doc["base"], dim), doc["shift"])
    raise DomainError(f"unknown cell kind {kind!r}")


def partition_from_json(doc: dict) -> PartitionSpec:
    try:
        dim = int(doc["dimension"])
        raw = doc["cells"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed partition document: {exc}") from exc
    cells = []
    for cdoc in raw:
        cell = set_from_json(cdoc, dim)
        if isinstance(cell, ConeCell) and "index" not in cdoc:
            cell = ConeCell(cell.generators, len(cells))
        cells.append(cell)
    return PartitionSpec(cells, dimension=dim)
