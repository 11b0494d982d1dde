"""Oriented integration contours in the complex spectral plane.

A contour is an ordered tuple of segments, each carrying an explicit
parameterization s -> lambda(s) with nonvanishing derivative, plus an
orientation sign.  Natural parameterization always runs with increasing s;
a segment with orientation -1 is traversed against it (used for the
inbound halves of wedge contours, which run from infinity down to the
corner).

The factories below build the handful of contours the solvers need:

* ``kdv_contour``       -- wedge boundary, rays at arguments pi/3 and 2pi/3
* ``heat_contour``      -- wedge boundary, rays at arguments pi/4 and 3pi/4
* ``indented_line``     -- the horizontal line Im lambda = eps
* ``real_line``         -- the real axis, left to right

Both wedges are oriented as the boundary of the sector above them with the
sector kept on the left: the left ray runs inbound from infinity to the
corner, the right ray runs outbound.  ``rotate_rays`` tilts infinite rays
toward the real axis; that deformation is Cauchy-invariant whenever the
integrand is analytic and decaying in the swept sectors, and it converts
purely oscillatory time factors into exponentially decaying ones.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidDeformationError, InvalidParameterError


@dataclass(frozen=True)
class Ray:
    """Infinite ray lambda(s) = start + s*exp(i*angle), s >= 0.

    ``tilt`` accumulates rotations toward the real axis (see
    ``rotate_rays``); keeping it separate from ``angle`` makes a rotation
    followed by its inverse reproduce the original object exactly.
    """

    start: complex
    angle: float
    orientation: int = 1
    tilt: float = 0.0

    kind = "ray"
    finite = False

    @property
    def effective_angle(self) -> float:
        # rays in the right half of the upper half-plane tilt clockwise,
        # rays in the left half tilt counterclockwise
        if self.angle <= 0.5 * math.pi:
            return self.angle - self.tilt
        return self.angle + self.tilt

    @property
    def direction(self) -> complex:
        return cmath.exp(1j * self.effective_angle)

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

    def __len__(self):
        return len(self.segments)

    def to_dict(self) -> dict:
        out = []
        for seg in self.segments:
            if seg.kind == "ray":
                out.append(
                    {
                        "kind": "ray",
                        "start": [seg.start.real, seg.start.imag],
                        "angle": seg.effective_angle,
                        "orientation": seg.orientation,
                    }
                )
            elif seg.kind == "segment":
                out.append(
                    {
                        "kind": "segment",
                        "start": [seg.start.real, seg.start.imag],
                        "end": [seg.end.real, seg.end.imag],
                        "orientation": seg.orientation,
                    }
                )
            else:
                out.append(
                    {
                        "kind": "arc",
                        "center": [seg.center.real, seg.center.imag],
                        "radius": seg.radius,
                        "angle_start": seg.angle_start,
                        "angle_end": seg.angle_end,
                        "orientation": seg.orientation,
                    }
                )
        return {"segments": out}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def kdv_contour() -> Contour:
    """Boundary of the sector pi/3 <= arg(lambda) <= 2pi/3.

    On these rays Im(lambda) = sqrt(3)|Re(lambda)| and the cubic
    dispersion exponent is purely oscillatory.  Left ray inbound to the
    origin, right ray outbound, sector on the left.
    """
    return Contour(
        (
            Ray(0j, 2.0 * math.pi / 3.0, orientation=-1),
            Ray(0j, math.pi / 3.0, orientation=+1),
        )
    )


def heat_contour() -> Contour:
    """Boundary of the sector pi/4 <= arg(lambda) <= 3pi/4 (Re lambda^2 <= 0
    in the upper half-plane).  Same orientation convention as the cubic
    wedge."""
    return Contour(
        (
            Ray(0j, 3.0 * math.pi / 4.0, orientation=-1),
            Ray(0j, math.pi / 4.0, orientation=+1),
        )
    )


def indented_line(eps: float) -> Contour:
    """Horizontal line Im(lambda) = eps traversed left to right."""
    if eps <= 0:
        raise InvalidParameterError("indented_line requires eps > 0")
    anchor = 1j * eps
    return Contour(
        (
            Ray(anchor, math.pi, orientation=-1),
            Ray(anchor, 0.0, orientation=+1),
        )
    )


def real_line() -> Contour:
    """The real axis traversed left to right."""
    return Contour(
        (
            Ray(0j, math.pi, orientation=-1),
            Ray(0j, 0.0, orientation=+1),
        )
    )


def rotate_rays(
    contour: Contour,
    delta: float,
    sector: tuple[float, float] = (0.0, math.pi),
) -> Contour:
    """Tilt every infinite ray of ``contour`` by ``delta`` toward the real
    axis (negative ``delta`` tilts away).  Finite pieces are unchanged.

    ``sector`` is the caller-declared sector of validity: the rotation is
    rejected if any tilted ray would leave the open interval of arguments.
    """
    lo, hi = sector
    new_segments = []
    for seg in contour.segments:
        if seg.kind != "ray":
            new_segments.append(seg)
            continue
        tilted = replace(seg, tilt=seg.tilt + delta)
        if not (lo < tilted.effective_angle < hi):
            raise InvalidDeformationError(
                f"rotated ray argument {tilted.effective_angle:.6f} leaves "
                f"the declared sector ({lo:.6f}, {hi:.6f})"
            )
        new_segments.append(tilted)
    return Contour(tuple(new_segments))
