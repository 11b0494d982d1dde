import cmath
import json
import math

import numpy as np
import pytest

from utmqp.contours import (
    Contour,
    LineSegment,
    Ray,
    heat_contour,
    indented_line,
    kdv_contour,
    real_line,
)
from utmqp.errors import InvalidParameterError
from utmqp.solvers import _FAMILIES

SQRT3 = math.sqrt(3.0)


def deformed_heat_contour():
    """A literal contour holding both segment kinds: the heat wedge with
    its part below Im(lambda) = 1 replaced by the segment from -1 + i to
    1 + i."""
    a = math.pi / 4.0
    return Contour(
        (
            Ray(-1.0 + 1j, 3.0 * a, orientation=-1),
            LineSegment(-1.0 + 1j, 1.0 + 1j),
            Ray(1.0 + 1j, a),
        )
    )


def sample_points(contour, n=100, smax=5.0):
    pts = []
    for seg in contour:
        ss = np.linspace(0.0, 1.0 if seg.finite else smax, n + 2)[1:-1]
        pts.append(np.asarray(seg.point(ss)))
    return pts


class TestKdvContour:
    def test_right_ray_point(self):
        right = kdv_contour().segments[1]
        assert right.point(1.0) == pytest.approx(cmath.exp(1j * math.pi / 3))

    def test_rays_meet_at_origin(self):
        for seg in kdv_contour():
            assert seg.point(0.0) == 0

    def test_membership_predicate_on_samples(self):
        # the defining set: Im(lambda) = sqrt(3) |Re(lambda)|
        for pts in sample_points(kdv_contour()):
            residual = np.abs(pts.imag - SQRT3 * np.abs(pts.real))
            assert residual.max() <= 1e-12 * (1.0 + np.abs(pts).max())

    def test_orientation_keeps_sector_on_left(self):
        # rotating the tangent by +pi/2 must point into the sector
        for seg in kdv_contour():
            s = 1.0
            tangent = seg.orientation * seg.velocity(s)
            inward = complex(tangent) * 1j
            probe = complex(seg.point(s)) + 1e-6 * inward / abs(inward)
            assert probe.imag >= SQRT3 * abs(probe.real)


class TestHeatContour:
    def test_on_contour(self):
        lam = complex(heat_contour().segments[1].point(1.0))
        assert lam == pytest.approx(cmath.exp(1j * math.pi / 4))
        assert abs((lam * lam).real) < 1e-15

    def test_membership_predicate_on_samples(self):
        for pts in sample_points(heat_contour()):
            residual = np.abs((pts * pts).real)
            assert residual.max() <= 1e-12 * (1.0 + np.abs(pts).max() ** 2)


class TestDeformedHeatContour:
    def test_minimum_modulus_is_one(self):
        mods = np.concatenate(
            [np.abs(p) for p in sample_points(deformed_heat_contour())]
        )
        assert mods.min() >= 1.0 - 1e-12

    def test_segment_joins_the_two_rays_through_the_top(self):
        # the segment runs left to right at height 1, so it passes
        # through i and never reaches the lower half-plane
        seg = deformed_heat_contour().segments[1]
        assert complex(seg.point(0.5)) == pytest.approx(1j)
        assert np.all(seg.point(np.linspace(0, 1, 50)).imag > 0.7)

    def test_segment_samples_on_the_line_im_one(self):
        seg = deformed_heat_contour().segments[1]
        ss = np.linspace(0, 1, 50)
        assert np.allclose(seg.point(ss).imag, 1.0, atol=1e-14)

    def test_connectivity(self):
        segs = deformed_heat_contour().segments
        # inbound ray ends at its start point, which is the segment's start
        assert segs[0].point(0.0) == pytest.approx(segs[1].point(0.0))
        assert segs[1].point(1.0) == pytest.approx(segs[2].point(0.0))


class TestIndentedLine:
    def test_anchor_point(self):
        line = indented_line(1.0)
        assert line.segments[0].point(0.0) == 1j
        assert line.segments[1].point(0.0) == 1j

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InvalidParameterError):
            indented_line(-0.1)
        with pytest.raises(InvalidParameterError):
            indented_line(0.0)


class TestRotatedWedges:
    """The wedges the solver integrates on, tilted toward the real axis by
    pi/8 (heat) and pi/12 (kdv), hold the exact floats of the old
    angle-plus-tilt construction."""

    @staticmethod
    def rays(pde):
        return [(seg.start, seg.angle, seg.orientation) for seg in _FAMILIES[pde].rotated]

    def test_heat_wedge_tilts_toward_real_axis(self):
        assert self.rays("heat") == [
            (0j, 2.748893571891069, -1), (0j, 0.39269908169872414, 1)
        ]

    def test_kdv_wedge_tilts_toward_real_axis(self):
        assert self.rays("kdv") == [
            (0j, 2.356194490192345, -1), (0j, 0.7853981633974483, 1)
        ]

    @pytest.mark.parametrize("pde", ["heat", "kdv"])
    def test_only_exponentially_decaying_pieces_are_marked(self, pde):
        # the rotated wedge and the forcing tails take the double-
        # exponential rule; the central pieces, the untilted tails and the
        # kdv initial tilted tails stay with Gauss-Kronrod
        fam = _FAMILIES[pde]
        assert fam.rotated.decaying
        for split in (fam.line_split, fam.wedge_split):
            if split is None:
                continue
            assert split.forcing_tails.decaying
            assert not split.central.decaying
            assert not split.tilted(0.0).decaying
            assert not split.tilted(math.pi / 24).decaying


class TestSerialization:
    @pytest.mark.parametrize(
        "factory", [kdv_contour, heat_contour, deformed_heat_contour, real_line]
    )
    def test_json_is_well_formed(self, factory):
        data = json.loads(factory().to_json())
        assert data["segments"]
        for seg in data["segments"]:
            assert seg["kind"] in ("ray", "segment")
            assert seg["orientation"] in (-1, 1)

    def test_segment_fields(self):
        data = deformed_heat_contour().to_dict()
        kinds = [seg["kind"] for seg in data["segments"]]
        assert kinds == ["ray", "segment", "ray"]
        seg = data["segments"][1]
        assert seg["start"] == [-1.0, 1.0] and seg["end"] == [1.0, 1.0]


class TestSegments:
    def test_parameterization_derivative_nonzero(self):
        for factory in (kdv_contour, heat_contour, deformed_heat_contour):
            for seg in factory():
                ss = np.linspace(0.01, 0.99, 17)
                assert np.all(np.abs(seg.velocity(ss)) > 0)
