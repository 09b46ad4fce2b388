"""Reference for the zone stage's memberships and slacks: the dense forms.

``coverage._sets_at`` scores a block of vertex candidates against only the
spheres that reach the block, and ``coverage.enumerate_zones`` takes each
zone's slack from the certificate that found its witness. This module keeps
the earlier forms, expression for expression: every candidate scored against
every sphere, and one slack per zone from ``np.linalg.norm``. The tests hold
the zone stage to them bit for bit.
"""
import numpy as np

from uavplan.coverage import _unique_rows


def dense_sets_at(points, defined_by, xy, h2, radii) -> np.ndarray:
    """The distinct member sets at ``points``, every sphere scored at every point."""
    n = len(xy)
    dx, dy = points[:, :1] - xy[:, 0], points[:, 1:] - xy[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    dx += h2
    inside = np.zeros((len(points), n + 1), bool)  # column n takes the padding
    inside[:, :n] = np.sqrt(dx, out=dx) - radii <= 0
    inside[np.arange(len(points))[:, None], defined_by] = True
    return _unique_rows(np.packbits(inside[:, :n], axis=1))


def loop_slack(members, witness, spheres) -> float:
    """Smallest margin of ``witness`` inside the member spheres, one zone at a time."""
    idx = list(members)
    return float(np.min(spheres.radii[idx]
                        - np.linalg.norm(witness.as_array() - spheres.centers[idx], axis=1)))
