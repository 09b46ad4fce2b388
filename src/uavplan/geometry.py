"""Basic 3D geometry shared by the channel model, coverage stage and planner."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point3:
    """A point in 3D space, coordinates in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate in ({self.x}, {self.y}, {self.z})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, a) -> "Point3":
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class FeasibleBox:
    """Axis-aligned region where a UAV may be positioned.

    ``x`` and ``y`` are the venue bounds; ``z`` is the allowed altitude band.
    The z interval may be degenerate (z_min == z_max) to pin the altitude,
    which is how the fixed-altitude baseline is expressed.
    """

    x: tuple[float, float]
    y: tuple[float, float]
    z: tuple[float, float]

    def __post_init__(self):
        if not (self.x[0] < self.x[1] and self.y[0] < self.y[1]):
            raise ValueError(f"degenerate x/y bounds: x={self.x}, y={self.y}")
        if not self.z[0] <= self.z[1]:
            raise ValueError(f"inverted z bounds: {self.z}")

    @functools.cached_property
    def lower(self) -> np.ndarray:
        """Lowest x, y and z, read-only."""
        return read_only(np.array([self.x[0], self.y[0], self.z[0]], dtype=float))

    @functools.cached_property
    def upper(self) -> np.ndarray:
        """Highest x, y and z, read-only."""
        return read_only(np.array([self.x[1], self.y[1], self.z[1]], dtype=float))

    def clamp(self, p: np.ndarray) -> np.ndarray:
        return np.clip(p, self.lower, self.upper)

    def contains(self, p, tol: float = 0.0) -> bool:
        a = np.asarray(p, dtype=float)
        return bool(np.all(a >= self.lower - tol) and np.all(a <= self.upper + tol))


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a
