"""Reference witness search for tests: a 3D SLSQP descent over the whole box.

This is an independent solver for the problem ``coverage.zone_witness``
solves exactly: minimize max_i(|p - c_i| - r_i) over the feasible box. It
knows nothing of the altitude floor, so the tests can hold the exact 2D
search against it.
"""
import itertools
import math

import numpy as np
from scipy.optimize import minimize

from uavplan import Point3


def _max_deficit(p, centers, radii):
    return float(np.max(np.linalg.norm(p[None, :] - centers, axis=1) - radii))


def _descend(start, centers, radii, box):
    """Local descent on max_i(|p-c_i| - r_i) via the epigraph form.

    The objective is a max of convex functions, so any descent start
    converges to the global minimum over the box; SLSQP on (p, t) with
    t >= |p-c_i| - r_i handles the kinks.
    """
    p0 = box.clamp(np.asarray(start, dtype=float))
    t0 = _max_deficit(p0, centers, radii)
    if len(centers) == 1:
        # Single ball: the clamped center is already the exact minimizer.
        best = box.clamp(centers[0])
        return best, _max_deficit(best, centers, radii)

    def cons_f(q):
        d = np.linalg.norm(q[:3][None, :] - centers, axis=1)
        return q[3] + radii - d

    def cons_jac(q):
        diff = q[:3][None, :] - centers
        d = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        jac = np.empty((len(centers), 4))
        jac[:, :3] = -diff / d[:, None]
        jac[:, 3] = 1.0
        return jac

    bounds = [(box.lower[k], box.upper[k]) for k in range(3)] + [(None, None)]
    res = minimize(
        lambda q: q[3],
        np.append(p0, t0),
        jac=lambda q: np.array([0.0, 0.0, 0.0, 1.0]),
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_jac}],
        bounds=bounds,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-12},
    )
    p = box.clamp(res.x[:3])
    f = _max_deficit(p, centers, radii)
    if f <= t0:
        return p, f
    return p0, t0


def _starts(centers, box, max_pairs=12):
    starts = [box.clamp(np.mean(centers, axis=0))]
    for i, j in itertools.islice(itertools.combinations(range(len(centers)), 2), max_pairs):
        starts.append(box.clamp(0.5 * (centers[i] + centers[j])))
    return starts


def reference_witness(members, spheres, box):
    """``(point, deficit)`` as ``zone_witness`` returns it, by multi-start SLSQP."""
    idx = sorted(set(members))
    centers, radii = spheres.centers[idx], spheres.radii[idx]

    best_p, best_f = None, math.inf
    for start in _starts(centers, box):
        f0 = _max_deficit(start, centers, radii)
        if f0 < best_f:
            best_p, best_f = start, f0
    p, f = _descend(best_p, centers, radii, box)
    if f < best_f:
        best_p, best_f = p, f
    if best_f > 0:
        # Retry further starts only when the best descent failed to certify.
        for start in _starts(centers, box)[1:4]:
            p, f = _descend(start, centers, radii, box)
            if f < best_f:
                best_p, best_f = p, f
            if best_f <= 0:
                break
    return Point3.from_array(best_p), best_f
