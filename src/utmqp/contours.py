"""Oriented integration contours in the complex spectral plane.

A contour is an ordered tuple of segments, each carrying an explicit
parameterization s -> lambda(s) with nonvanishing derivative, plus an
orientation sign.  Natural parameterization always runs with increasing s;
a segment with orientation -1 is traversed against it (used for the
inbound halves of wedge contours, which run from infinity down to the
corner).

Every contour the solvers integrate over is built at its final angles;
there is no deformation API.  ``ray_pair(left, right, anchor)`` builds a
ray at argument ``left`` inbound to ``anchor`` followed by a ray at
``right`` outbound, which is the shape of every contour below:

* ``kdv_contour``       -- wedge boundary, rays at arguments pi/3 and 2pi/3
* ``heat_contour``      -- wedge boundary, rays at arguments pi/4 and 3pi/4
* ``indented_line``     -- the horizontal line Im lambda = eps
* ``real_line``         -- the real axis, left to right

Both wedges are oriented as the boundary of the sector above them with the
sector kept on the left: the left ray runs inbound from infinity to the
corner, the right ray runs outbound.  A wedge tilted toward the real axis
(as the solvers integrate it) is ``ray_pair`` at the tilted angles.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Ray:
    """Infinite ray lambda(s) = start + s*exp(i*angle), s >= 0."""

    start: complex
    angle: float
    orientation: int = 1

    kind = "ray"
    finite = False

    @property
    def direction(self) -> complex:
        return cmath.exp(1j * self.angle)

    def point(self, s):
        return self.start + np.asarray(s) * self.direction

    def velocity(self, s):
        s = np.asarray(s)
        return np.full(s.shape, self.direction, dtype=complex)


@dataclass(frozen=True)
class LineSegment:
    """Straight segment from ``start`` to ``end``, s in [0, 1]."""

    start: complex
    end: complex
    orientation: int = 1

    kind = "segment"
    finite = True

    def point(self, s):
        return self.start + np.asarray(s) * (self.end - self.start)

    def velocity(self, s):
        s = np.asarray(s)
        return np.full(s.shape, self.end - self.start, dtype=complex)


@dataclass(frozen=True)
class CircularArc:
    """Arc lambda(s) = center + radius*exp(i*theta(s)) with theta swept
    linearly from ``angle_start`` to ``angle_end`` (either direction)."""

    center: complex
    radius: float
    angle_start: float
    angle_end: float
    orientation: int = 1

    kind = "arc"
    finite = True

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidParameterError("arc radius must be positive")
        if self.angle_start == self.angle_end:
            raise InvalidParameterError("arc angle range must be nonempty")

    def _theta(self, s):
        return self.angle_start + np.asarray(s) * (self.angle_end - self.angle_start)

    def point(self, s):
        return self.center + self.radius * np.exp(1j * self._theta(s))

    def velocity(self, s):
        dtheta = self.angle_end - self.angle_start
        return 1j * dtheta * self.radius * np.exp(1j * self._theta(s))


@dataclass(frozen=True)
class Contour:
    """Ordered tuple of segments; disconnected unions are permitted."""

    segments: tuple

    def __iter__(self):
        return iter(self.segments)

    def to_dict(self) -> dict:
        """Each segment as ``kind`` then its dataclass fields in order,
        complex values as ``[re, im]``."""
        out = []
        for seg in self.segments:
            entry = {"kind": seg.kind}
            for f in fields(seg):
                value = getattr(seg, f.name)
                entry[f.name] = [value.real, value.imag] if f.type == "complex" else value
            out.append(entry)
        return {"segments": out}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def ray_pair(left: float, right: float, anchor: complex = 0j) -> Contour:
    """The ray at argument ``left`` inbound to ``anchor``, then the ray at
    argument ``right`` outbound from it."""
    return Contour((Ray(anchor, left, orientation=-1), Ray(anchor, right)))


def kdv_contour() -> Contour:
    """Boundary of the sector pi/3 <= arg(lambda) <= 2pi/3.

    On these rays Im(lambda) = sqrt(3)|Re(lambda)| and the cubic
    dispersion exponent is purely oscillatory.  Left ray inbound to the
    origin, right ray outbound, sector on the left.
    """
    return ray_pair(2.0 * math.pi / 3.0, math.pi / 3.0)


def heat_contour() -> Contour:
    """Boundary of the sector pi/4 <= arg(lambda) <= 3pi/4 (Re lambda^2 <= 0
    in the upper half-plane).  Same orientation convention as the cubic
    wedge."""
    return ray_pair(3.0 * math.pi / 4.0, math.pi / 4.0)


def indented_line(eps: float) -> Contour:
    """Horizontal line Im(lambda) = eps traversed left to right."""
    if eps <= 0:
        raise InvalidParameterError("indented_line requires eps > 0")
    return ray_pair(math.pi, 0.0, 1j * eps)


def real_line() -> Contour:
    """The real axis traversed left to right."""
    return ray_pair(math.pi, 0.0)
