"""Euclidean partitions: candidate sets, membership, measures and boundaries.

Cells are half-spaces, maximal-inner-product cones over a generator family,
planar sectors, finite intersections of half-spaces, cylinders (products with
extra coordinates), complements, and raw indicator oracles.  A
:class:`PartitionSpec` is an ordered list of cells covering R^d, with ties on
the measure-zero interfaces broken toward the lowest cell index.

Interfaces between cells of the polyhedral kinds are finite unions of convex
pieces of hyperplanes (facets).  Boundary sampling draws points from the
Gaussian density restricted to each facet, selecting facets proportionally to
their Gaussian surface mass, and attaches importance weights in units of plain
surface measure so that

    integral_F h(y) dy      ~  sum_k  w_k h(y_k),
    integral_F h(y) gamma dy ~ sum_k  w_k gamma(y_k) h(y_k).

Two-dimensional sector-like cells additionally expose exact routines (Gaussian
mass and moment of a shifted sector in closed form via Owen's T function, and
T_rho of their indicator); these power the quadrature modes used for identity
verification in dimension <= 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri, owens_t

from .gauss import (
    CLOSED_FORM,
    TRUNCATION_RADIUS,
    DomainError,
    Estimate,
    check_point,
    make_seedseq,
    mc_mean,
    norm_pdf,
)

_TWO_PI = 2.0 * math.pi


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


@functools.lru_cache(maxsize=None)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per size.

    Every caller shares the returned arrays, so they are read-only.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _leg_panels(alpha: float, beta: float, nodes: int, max_width: float = math.pi / 2):
    width = beta - alpha
    n_panels = max(1, int(math.ceil(width / max_width)))
    t, w = _leggauss(nodes)
    edges = np.linspace(alpha, beta, n_panels + 1)
    thetas, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        thetas.append(0.5 * (lo + hi) + half * t)
        weights.append(half * w)
    return np.concatenate(thetas), np.concatenate(weights)


def _edge_coordinates(q: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(c, d) = (<q, u(t)>, <q, u(t)^perp>) for a point q or an (n, 2) batch."""
    ct, st = math.cos(t), math.sin(t)
    return q[..., 0] * ct + q[..., 1] * st, q[..., 1] * ct - q[..., 0] * st


def _edge_antiderivative(q: np.ndarray, t: float, inward: float):
    """G(t) at the edge ray t and whether d < 0 there.

    Where d = 0 it takes the sign d has just inside the sector: -c at alpha
    (``inward`` = -1) and +c at beta (``inward`` = +1).  The sign is read from
    the same d that goes into T, so the crossing count and T change together.
    """
    c, d = _edge_coordinates(q, t)
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


def shifted_sector_moment(apex, alpha: float, beta: float) -> np.ndarray:
    """integral of x * gamma_2(x) over the shifted sector (the cell moment).

    Closed form: with inward edge normals u(alpha + pi/2) and u(beta - pi/2),
    the moment is the sum over both edge rays of normal * phi(d) Phi(-c).
    """
    q = check_point(apex, 2)
    moment = np.zeros(2)
    for t, normal in ((alpha, alpha + 0.5 * math.pi), (beta, beta - 0.5 * math.pi)):
        c, d = _edge_coordinates(q, t)
        moment += np.array([math.cos(normal), math.sin(normal)]) * (norm_pdf(d) * ndtr(-c))
    return moment


def shifted_sector_pair_stability(apex_a, alpha_a: float, beta_a: float,
                                  apex_b, alpha_b: float, beta_b: float,
                                  rho: float, n_theta: int = 48, n_r: int = 80) -> float:
    """integral over sector A of T_rho 1_B dgamma, for two shifted sectors.

    Outer integral in polar coordinates around A's apex (Gauss-Legendre in
    both angle and radius), inner T_rho 1_B by :func:`shifted_sector_mass`.
    Intended for apexes within O(1) of the origin.
    """
    qa = check_point(apex_a, 2)
    qb = check_point(apex_b, 2)
    r_max = 14.0 + float(np.linalg.norm(qa))
    theta, wt = _leg_panels(alpha_a, beta_a, n_theta)
    tr, wr = _leggauss(n_r)
    rr = 0.5 * r_max * (tr + 1.0)
    wr = 0.5 * r_max * wr
    u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = qa[None, None, :] + rr[None, :, None] * u[:, None, :]
    flat = pts.reshape(-1, 2)
    gam = np.exp(-0.5 * np.sum(flat * flat, axis=1)) / _TWO_PI
    sig = math.sqrt(1.0 - rho * rho)
    t_vals = shifted_sector_mass((qb[None, :] - rho * flat) / sig, alpha_b, beta_b)
    vals = (gam * t_vals).reshape(len(theta), n_r) * rr[None, :]
    return float(wt @ vals @ wr)


def shifted_sector_stability(apex, alpha: float, beta: float, rho: float,
                             n_theta: int = 48, n_r: int = 80) -> float:
    """integral over C of T_rho 1_C dgamma for the shifted sector C."""
    return shifted_sector_pair_stability(apex, alpha, beta, apex, alpha, beta, rho,
                                         n_theta=n_theta, n_r=n_r)


# ---------------------------------------------------------------------------
# cells


class SetSpec:
    """Base class for measurable cells.  Subclasses are immutable."""

    dim: int

    def contains(self, points) -> np.ndarray:
        raise NotImplementedError

    def gaussian_measure_exact(self):
        """(value, error_bound) when a deterministic measure is available."""
        deco = self.sector_decomposition()
        if deco is not None:
            apex, arcs = deco
            val = sum(shifted_sector_mass(apex, a, b) for a, b in arcs)
            return val, SECTOR_MASS_ERR
        return None

    def ou_exact(self, rho: float, x: np.ndarray):
        """(T_rho 1_set(x), error_bound) when a deterministic route exists.

        ``x`` is one point or an (n, d) batch; the value is a float for one
        point and n values for a batch.
        """
        deco = self.sector_decomposition()
        if deco is not None:
            apex, arcs = deco
            sig = math.sqrt(1.0 - rho * rho)
            q = (apex - rho * x) / sig
            val = sum(shifted_sector_mass(q, a, b) for a, b in arcs)
            return val, SECTOR_MASS_ERR
        return None

    def sector_decomposition(self):
        """(apex, [(alpha, beta), ...]) for planar sector-like cells, else None."""
        return None

    def translate(self, t) -> "SetSpec":
        return ShiftedSet(self, np.asarray(t, dtype=float))

    def negate(self) -> "SetSpec":
        raise UnsupportedBoundaryError(f"negation not available for {type(self).__name__}")

    def rotate(self, q_matrix) -> "SetSpec":
        raise UnsupportedBoundaryError(f"rotation not available for {type(self).__name__}")

    def to_json(self) -> dict:
        raise DomainError(f"{type(self).__name__} does not serialize")

    def _pts(self, points) -> tuple[np.ndarray, bool]:
        arr = np.asarray(points, dtype=float)
        if arr.ndim == 1:
            return arr[None, :], True
        return arr, False


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

    def contains(self, points):
        pts, single = self._pts(points)
        out = pts @ self.normal <= self.offset
        return bool(out[0]) if single else out

    def gaussian_measure_exact(self):
        return float(ndtr(self.offset)), 0.0

    def ou_exact(self, rho, x):
        sig = math.sqrt(1.0 - rho * rho)
        val = ndtr((self.offset - rho * (np.asarray(x, dtype=float) @ self.normal)) / sig)
        return (float(val) if np.ndim(val) == 0 else val), 1e-15

    def ou_gradient_exact(self, rho, x):
        sig = math.sqrt(1.0 - rho * rho)
        u = (self.offset - rho * float(self.normal @ x)) / sig
        return -self.normal * norm_pdf(u) * rho / sig, 1e-14

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

    def contains(self, points):
        pts, single = self._pts(points)
        dots = pts @ self.generators.T
        out = dots[:, self.index] >= dots.max(axis=1)
        return bool(out[0]) if single else out

    def sector_decomposition(self):
        if self.dim != 2:
            return None
        arc = self._angular_arc()
        if arc is None:
            return None
        return np.zeros(2), [arc]

    def _angular_arc(self):
        cached = getattr(self, "_arc_cache", False)
        if cached is not False:
            return cached
        arc = self._compute_arc()
        object.__setattr__(self, "_arc_cache", arc)
        return arc

    def _compute_arc(self):
        # The cell is the intersection of the half-planes <u, z_i - z_j> >= 0.
        # Each is an arc of width pi centred on the angle of z_i - z_j, so the
        # cell's edges are among those angles +- pi/2, and a midpoint test per
        # gap between consecutive candidate edges decides which gaps it covers.
        z = self.generators
        w = z[self.index] - np.delete(z, self.index, axis=0)
        w = w[np.any(w != 0.0, axis=1)]  # an identical generator constrains nothing
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
        starts = np.flatnonzero(feas & ~np.roll(feas, 1))
        stops = np.flatnonzero(feas & ~np.roll(feas, -1))
        if len(starts) != 1:
            raise DomainError("cone cell is not a single angular arc")
        alpha = float(edges[starts[0]])
        beta = float(ends[stops[0]])
        if beta < alpha:
            beta += _TWO_PI
        return (alpha, beta)

    def translate(self, t):
        return ShiftedSet(self, np.asarray(t, dtype=float))

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

    def contains(self, points):
        pts, single = self._pts(points)
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        rel = np.mod(ang - self.start, _TWO_PI)
        out = rel < (self.end - self.start)
        return bool(out[0]) if single else out

    def sector_decomposition(self):
        return np.zeros(2), [(self.start, self.end)]

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

    def contains(self, points):
        pts, single = self._pts(points)
        out = np.ones(pts.shape[0], dtype=bool)
        for h in self.halfspaces:
            out &= pts @ h.normal <= h.offset
        return bool(out[0]) if single else out

    def gaussian_measure_exact(self):
        if not self.halfspaces:
            return 1.0, 0.0
        if len(self.halfspaces) == 1:
            return self.halfspaces[0].gaussian_measure_exact()
        return None

    def ou_exact(self, rho, x):
        if not self.halfspaces:
            return (1.0 if np.ndim(x) == 1 else np.ones(len(x))), 0.0
        if len(self.halfspaces) == 1:
            return self.halfspaces[0].ou_exact(rho, x)
        return None

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

    def contains(self, points):
        pts, single = self._pts(points)
        out = self.base.contains(pts[:, : self.base.dim])
        return bool(np.atleast_1d(out)[0]) if single else np.atleast_1d(out)

    def gaussian_measure_exact(self):
        return self.base.gaussian_measure_exact()

    def ou_exact(self, rho, x):
        return self.base.ou_exact(rho, np.asarray(x, float)[..., : self.base.dim])

    def ou_gradient_exact(self, rho, x):
        inner = getattr(self.base, "ou_gradient_exact", None)
        if inner is None:
            return None
        res = inner(rho, np.asarray(x, float)[: self.base.dim])
        if res is None:
            return None
        g, err = res
        return np.concatenate([g, np.zeros(self.extra)]), err

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

    def contains(self, points):
        out = self.base.contains(points)
        return (not out) if isinstance(out, bool) else ~out

    def gaussian_measure_exact(self):
        res = self.base.gaussian_measure_exact()
        if res is None:
            return None
        v, e = res
        return 1.0 - v, e

    def ou_exact(self, rho, x):
        res = self.base.ou_exact(rho, x)
        if res is None:
            return None
        v, e = res
        return 1.0 - v, e

    def ou_gradient_exact(self, rho, x):
        inner = getattr(self.base, "ou_gradient_exact", None)
        if inner is None:
            return None
        res = inner(rho, x)
        if res is None:
            return None
        g, err = res
        return -np.asarray(g), err

    def sector_decomposition(self):
        deco = self.base.sector_decomposition()
        if deco is None:
            return None
        apex, arcs = deco
        if len(arcs) != 1:
            return None
        a, b = arcs[0]
        return apex, [(b, a + _TWO_PI)]

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

    def contains(self, points):
        pts, single = self._pts(points)
        out = self.base.contains(pts - self.shift)
        return bool(np.atleast_1d(out)[0]) if single else np.atleast_1d(out)

    def sector_decomposition(self):
        deco = self.base.sector_decomposition()
        if deco is None:
            return None
        apex, arcs = deco
        return apex + self.shift, arcs

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

    def contains(self, points):
        pts, single = self._pts(points)
        out = np.asarray(self.indicator(pts), dtype=bool)
        return bool(out[0]) if single else out

    def gaussian_measure_exact(self):
        return None

    def ou_exact(self, rho, x):
        return None

    def translate(self, t):
        return ShiftedSet(self, np.asarray(t, dtype=float))

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

    def contains(self, points):
        pts, single = self._pts(points)
        factor = 1.0 + self.s * pts[:, -1]
        factor = np.maximum(factor, 1e-9)
        out = self.base.contains(pts / factor[:, None])
        return bool(np.atleast_1d(out)[0]) if single else np.atleast_1d(out)

    def sector_decomposition(self):
        deco = self.base.sector_decomposition()
        if deco is None:
            return None
        apex, arcs = deco
        if float(np.linalg.norm(apex)) < 1e-12:
            return deco  # cones with apex at the origin are flow-invariant
        return None


# ---------------------------------------------------------------------------
# facets and boundary sampling


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
            self.mass = float(norm_pdf(self.offset))
            return
        if k == 1:
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
            if empty or lo >= hi:
                self.kind = "interval"
                self._lo, self._hi = 0.0, 0.0
                self.mass = 0.0
                return
            self.kind = "interval"
            self._lo, self._hi = lo, hi
            self.mass = float(norm_pdf(self.offset)) * float(ndtr(hi) - ndtr(lo))
            return
        homogeneous = all(abs(b) < 1e-12 for b in self._beta)
        if k == 2 and homogeneous:
            self.kind = "planar-cone"
            self._arcs = self._feasible_arcs()
            total = sum(b - a for a, b in self._arcs)
            self.mass = float(norm_pdf(self.offset)) * total / _TWO_PI
            return
        # generic: pilot estimate of the acceptance fraction
        rng = np.random.default_rng(np.random.SeedSequence(123456789))
        n_pilot = 200_000
        u = rng.standard_normal((n_pilot, k))
        acc = float(np.mean(self._feasible(u)))
        self.mass = float(norm_pdf(self.offset)) * acc
        self.mass_err = float(norm_pdf(self.offset)) * math.sqrt(max(acc * (1 - acc), 0.0) / n_pilot)

    def _feasible(self, u: np.ndarray) -> np.ndarray:
        ok = np.ones(u.shape[0], dtype=bool)
        for a, b in zip(self._alpha, self._beta):
            ok &= u @ a <= b + 1e-14
        return ok

    def _feasible_arcs(self):
        cands = [0.0]
        for a in self._alpha:
            th = math.atan2(a[1], a[0])
            cands.extend([th + math.pi / 2, th - math.pi / 2])
        cands = sorted(c % _TWO_PI for c in cands)
        cands.append(cands[0] + _TWO_PI)
        arcs = []
        for lo, hi in zip(cands[:-1], cands[1:]):
            mid = 0.5 * (lo + hi)
            u = np.array([[math.cos(mid), math.sin(mid)]])
            if self._feasible(u)[0] and hi - lo > 1e-14:
                if arcs and abs(arcs[-1][1] - lo) < 1e-12:
                    arcs[-1] = (arcs[-1][0], hi)
                else:
                    arcs.append((lo, hi))
        return arcs

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

    def gauss_integral(self, h, *, budget: int = 20_000, seed=0) -> tuple[float, float]:
        """(integral of h * gamma_d over the facet, error figure).

        Deterministic for point and interval facets, Monte Carlo otherwise.
        ``h`` maps an (n, d) array of points to n values.
        """
        if self.mass == 0.0:
            return 0.0, 0.0
        if self.kind == "point":
            return self.mass * float(h(self.base_point[None, :])[0]), 1e-15
        if self.kind == "interval":
            lo = max(self._lo, -TRUNCATION_RADIUS)
            hi = min(self._hi, TRUNCATION_RADIUS)

            def integrand(t):
                p = self.base_point + t * self.tangents[0]
                return float(h(p[None, :])[0]) * math.exp(-0.5 * t * t) / math.sqrt(_TWO_PI)

            val, err = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
            return float(norm_pdf(self.offset)) * val, float(norm_pdf(self.offset)) * err + 1e-14
        rng = np.random.default_rng(make_seedseq(seed))
        pts = self.sample(rng, budget)
        vals = np.asarray(h(pts), dtype=float)
        se = float(np.std(vals, ddof=1) / math.sqrt(budget))
        return self.mass * float(vals.mean()), self.mass * se + abs(float(vals.mean())) * self.mass_err

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

    def boundary_points(self) -> list[BoundaryPoint]:
        return [
            BoundaryPoint(self.points[k], self.normals[k], self.interface, float(self.weights[k]))
            for k in range(len(self))
        ]


def _tangent_basis(normal: np.ndarray) -> np.ndarray:
    d = normal.shape[0]
    if d == 1:
        return np.zeros((0, 1))
    _, _, vt = np.linalg.svd(normal[None, :])
    return vt[1:]


# ---------------------------------------------------------------------------
# partitions


class PartitionSpec:
    """Ordered cells covering R^d; ties go to the lowest index."""

    def __init__(self, cells, dimension: int | None = None):
        if not cells:
            raise DomainError("a partition needs at least one cell")
        self.cells = list(cells)
        self.dim = self.cells[0].dim if dimension is None else int(dimension)
        for c in self.cells:
            if c.dim != self.dim:
                raise DomainError("all cells must share the partition dimension")
        self.m = len(self.cells)
        self._fast = self._detect_fast()

    # -- structure detection ---------------------------------------------------
    def _detect_fast(self):
        cells, shift = self._unshifted_cells()
        if all(isinstance(c, ConeCell) for c in cells):
            z0 = cells[0].generators
            if (
                z0.shape[0] == self.m
                and all(c.generators is z0 or np.array_equal(c.generators, z0) for c in cells)
                and all(c.index == k for k, c in enumerate(cells))
            ):
                return ("cone", z0, shift)
        return None

    def _unshifted_cells(self):
        if all(isinstance(c, ShiftedSet) for c in self.cells):
            sh = self.cells[0].shift
            if all(np.array_equal(c.shift, sh) for c in self.cells):
                return [c.base for c in self.cells], sh
        return self.cells, np.zeros(self.dim)

    # -- membership --------------------------------------------------------------
    def membership(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        if self._fast is not None and self._fast[0] == "cone":
            _, z, shift = self._fast
            idx = np.argmax((pts - shift) @ z.T, axis=1)
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
        facets = self._facets_low(min(i, j), max(i, j))
        if i < j:
            return facets
        return [Facet(-f.normal, -f.offset, f.tangents, f.constraints) for f in facets]

    def _facets_low(self, i: int, j: int) -> list[Facet]:
        cells, shift = self._unshifted_cells()
        if any(isinstance(c, OracleSet) for c in (cells[i], cells[j])):
            raise UnsupportedBoundaryError("oracle-kind cells carry no boundary description")

        if self._fast is not None and self._fast[0] == "cone":
            _, z, shift = self._fast
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

        if all(isinstance(c, ProductWithR) for c in cells):
            extra = cells[0].extra
            if all(c.extra == extra for c in cells):
                base = PartitionSpec([c.base for c in cells])
                return [f.extended(extra) for f in base._facets_low(i, j)]

        if self.m == 2:
            info_i = _halfspace_side(cells[i])
            info_j = _halfspace_side(cells[j])
            if info_i is not None and info_j is not None:
                n_i, a_i, le_i = info_i
                n_j, a_j, le_j = info_j
                same = np.allclose(n_i, n_j) and abs(a_i - a_j) < 1e-12 and le_i != le_j
                opp = np.allclose(n_i, -n_j) and abs(a_i + a_j) < 1e-12 and le_i == le_j
                if same or opp:
                    n = n_i if le_i else -n_i
                    a = (a_i if le_i else -a_i) + float((n_i if le_i else -n_i) @ shift)
                    return [Facet(n, a, _tangent_basis(n))]

        if all(isinstance(c, Sector2D) for c in cells):
            return _sector_facets(cells, shift, i, j)

        raise UnsupportedBoundaryError(
            f"no facet rule for cells {type(self.cells[i]).__name__}/{type(self.cells[j]).__name__}"
        )

    def all_interfaces(self) -> dict[tuple[int, int], list[Facet]]:
        out = {}
        for i in range(self.m):
            for j in range(i + 1, self.m):
                try:
                    facets = self.interface_facets(i, j)
                except (UnsupportedBoundaryError, EmptyInterfaceError):
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


def _halfspace_side(cell):
    """(normal, offset, is_le) when the cell is a half-space or its complement."""
    if isinstance(cell, HalfSpace):
        return cell.normal, cell.offset, True
    if isinstance(cell, Complement) and isinstance(cell.base, HalfSpace):
        return cell.base.normal, cell.base.offset, False
    return None


def _unit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def _same_angle(a: float, b: float) -> bool:
    d = (a - b) % _TWO_PI
    return min(d, _TWO_PI - d) < 1e-12


def _sector_facets(cells, shift, i, j) -> list[Facet]:
    si, sj = cells[i], cells[j]
    facets = []

    def ray(theta, ccw_cell_is_j):
        u = _unit(theta)
        n = _unit(theta + math.pi / 2) if ccw_cell_is_j else _unit(theta - math.pi / 2)
        return Facet(n, float(n @ shift), u[None, :], [(-u, float(-u @ shift))])

    if _same_angle(si.end, sj.start):
        facets.append(ray(si.end, True))
    if _same_angle(sj.end, si.start):
        facets.append(ray(si.start, False))
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


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def gaussian_measure(s: SetSpec, budget: int = 200_000, *, seed=0, threads: int = 1,
                     mode: str = "auto") -> Estimate:
    """Gaussian measure of a cell: closed form when available, else Monte Carlo."""
    if mode in ("auto", "exact"):
        res = s.gaussian_measure_exact()
        if res is not None:
            v, e = res
            return Estimate(float(v), float(e), 0, CLOSED_FORM)
        if mode == "exact":
            raise DomainError("no exact measure available for this set")

    def values(rng, k):
        return s.contains(rng.standard_normal((k, s.dim))).astype(float)

    return mc_mean(values, budget, seed=seed, threads=threads)


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
