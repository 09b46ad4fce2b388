"""Reference for the zone stage's memberships and slacks: the dense forms.

``coverage._sets_at`` scores a block of vertex candidates against only the
spheres that reach the block, and reports a touch: a candidate where a
sphere that does not define it has a deficit within 1e-9 r of 0, on which
``coverage._vertex_zones`` scores every candidate, not only the lowest
ones. ``coverage.enumerate_zones`` takes each zone's slack from the
certificate that found its witness. This module keeps the earlier forms,
expression for expression: every candidate scored, and checked for a
touch, against every sphere, and one slack per zone from
``np.linalg.norm``. The tests hold the zone stage to them bit for bit.
"""
import numpy as np

from uavplan.coverage import _unique_rows


def dense_sets_at(points, defined_by, xy, h2, radii) -> tuple[np.ndarray, bool]:
    """The distinct member sets at ``points`` and whether any is a touch, every sphere scored at every point."""
    n = len(xy)
    dx, dy = points[:, :1] - xy[:, 0], points[:, 1:] - xy[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    dx += h2
    deficit = np.sqrt(dx, out=dx) - radii
    rows = np.arange(len(points))[:, None]
    inside = np.zeros((len(points), n + 1), bool)  # column n takes the padding
    inside[:, :n] = deficit <= 0
    inside[rows, defined_by] = True
    touch = np.zeros((len(points), n + 1), bool)
    touch[:, :n] = np.abs(deficit) <= 1e-9 * radii
    touch[rows, defined_by] = False
    return _unique_rows(np.packbits(inside[:, :n], axis=1)), bool(touch.any())


def loop_slack(members, witness, spheres) -> float:
    """Smallest margin of ``witness`` inside the member spheres, one zone at a time."""
    idx = list(members)
    return float(np.min(spheres.radii[idx]
                        - np.linalg.norm(witness.as_array() - spheres.centers[idx], axis=1)))
