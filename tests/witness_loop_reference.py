"""Reference for the batched witness solve: the same minimax, one set at a time.

``coverage.zone_witnesses`` solves many member sets at once. This module keeps
the earlier per-set solver, expression for expression, so the tests can hold
the batched solver to it bit for bit: every floating-point operation here is
the one the batched code performs, in the same order, on one set's arrays.
"""
import itertools

import numpy as np


def _roots(a, b, c):
    q = -(b + np.copysign(np.sqrt(np.maximum(b * b - a * c, 0.0)), b))
    return np.array([q / a, c / q])


def _basis_points(xy, h2, r, lo, hi, corners, edge_origins):
    points = [xy.clip(lo, hi), corners]
    m = len(xy)
    if m >= 2:
        i, j = np.triu_indices(m, 1)
        edge = np.repeat(np.arange(4), len(i))
        edge_direction = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])[edge]
        ends = np.concatenate([np.tile(i, 5), np.tile(j, 5)])
        seg = xy[j] - xy[i]
        origin = np.concatenate([xy[i], edge_origins[edge]])
        direction = np.concatenate([seg / np.hypot(seg[:, 0], seg[:, 1])[:, None], edge_direction])
        rel = xy[ends].reshape(2, -1, 2) - origin
        pos = (rel * direction).sum(axis=2)
        off = rel - pos[..., None] * direction
        (p_i, p_j), (g_i, g_j) = pos, h2[ends].reshape(2, -1) + (off * off).sum(axis=2)
        r_i, r_j = r[ends].reshape(2, -1)
        d = p_j - p_i
        alpha = (r_i - r_j) / d
        beta = ((r_i - r_j) * (r_i + r_j) + d * d - g_i + g_j) / (2 * d)
        t = _roots(alpha * alpha - 1, alpha * beta - r_i, beta * beta + g_i - r_i * r_i)
        points.append((origin + (p_i + alpha * t + beta)[..., None] * direction).reshape(-1, 2))
    if m >= 3:
        triples = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp)
        i, jk = triples[:, 0], triples[:, 1:]
        b = xy[jk] - xy[i][:, None]
        rhs = np.stack([0.5 * (r[i, None] ** 2 - r[jk] ** 2 + (b * b).sum(axis=2)
                               - h2[i, None] + h2[jk]),
                        r[i, None] - r[jk]], axis=2)
        det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
        adj = np.stack([b[:, 1, 1], -b[:, 0, 1], -b[:, 1, 0], b[:, 0, 0]], axis=1).reshape(-1, 2, 2)
        u0, u1 = (adj @ rhs / det[:, None, None]).transpose(2, 0, 1)
        t = _roots((u1 * u1).sum(axis=1) - 1, (u0 * u1).sum(axis=1) - r[i],
                   (u0 * u0).sum(axis=1) + h2[i] - r[i] ** 2)
        points.append((xy[i] + u0 + t[..., None] * u1).reshape(-1, 2))
    points = np.concatenate(points)
    return points[np.isfinite(points).all(axis=1)].clip(lo, hi)


def loop_witness(members, centers, radii, box):
    """``((x, y, z, deficit), working set)`` of one member set.

    ``centers`` and ``radii`` are indexed by UE. The final working set, as
    UE indices, lets a test check that its sets reach long growth and
    degenerate bases.
    """
    idx = sorted(set(members))
    centers, radii = centers[idx], radii[idx]
    z = box.z[0]
    xy, h2 = centers[:, :2], (z - centers[:, 2]) ** 2
    lo, hi = box.lower[:2], box.upper[:2]
    (x0, y0), (x1, y1) = lo, hi
    corners = np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])
    edge_origins = np.array([[x0, 0.0], [x1, 0.0], [0.0, y0], [0.0, y1]])

    def deficits(points):
        dx, dy = points[:, :1] - xy[:, 0], points[:, 1:] - xy[:, 1]
        return np.sqrt(dx * dx + dy * dy + h2) - radii

    with np.errstate(divide="ignore", invalid="ignore"):
        work = [int(deficits(xy.mean(axis=0).clip(lo, hi)[None]).argmax())]
        while True:
            points = _basis_points(xy[work], h2[work], radii[work], lo, hi, corners, edge_origins)
            d = deficits(points)
            worst_in_work = d[:, work].max(axis=1)
            best = int(worst_in_work.argmin())
            worst = int(d[best].argmax())
            if d[best, worst] <= worst_in_work[best]:
                break
            work.append(worst)
    point = (float(points[best, 0]), float(points[best, 1]), float(z), float(d[best, worst]))
    return point, [idx[k] for k in work]
