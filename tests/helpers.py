"""Oracles and inputs the test modules share; none of them is library surface."""

from functools import partial

import numpy as np

from noiselab.gauss import as_rho, mc_mean
from noiselab.variation import _form, _s_values


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed d x d orthogonal matrix."""
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def mc_moment(cell, budget: int, *, seed):
    """Monte Carlo integral of x * gamma_d(x) over the cell, a VectorEstimate."""

    def values(rng, k):
        x = rng.standard_normal((k, cell.dim))
        return x * cell.contains(x).astype(float)[:, None]

    return mc_mean(values, budget, seed=seed)


def g_form(p, rho, field, *, seed=0):
    """The double-surface term of the second variation alone: the integral of
    G(x, y) f(x) f(y) over Sigma x Sigma for the first cell's boundary, which
    is positive semidefinite."""
    r = as_rho(rho, nonzero=True)
    cross = partial(_s_values, p, r, ((0, 1.0),), field, mode="auto", budget=20_000, seed=[seed, 18])
    return _form(field, [(1.0, facet, 1, cross, 2000, [seed, 19, fk])
                         for fk, facet in enumerate(p.interface_facets(0, 1))])
