import copy
import itertools
import math
import pickle
from bisect import bisect_left

import pytest
from hypothesis import assume, given, settings, strategies as st

from ultranav.geometry import (
    _EPS,
    BEAM_HALF_ANGLE_DEG,
    Aim,
    GeometryError,
    GroundSegment,
    MIN_OBSTACLE_THICKNESS_CM,
    Rect,
    SagittalScene,
    _down,
    _forward,
    buried_obstacle,
    cone_min_distance,
    overlap_distance,
)

from oracles import (
    Ray,
    full_scan_cone_min,
    march_raycast,
    raycast,
    scan_elevation,
)

DEG = math.radians


class TestOverlapDistance:
    def test_chest_knee_overlap(self):
        # 100 cm height gap, 30 degree divergence -> 186.6 cm (tables round to 187)
        assert overlap_distance(150.0, 50.0) == pytest.approx(186.6025, abs=1e-3)

    def test_knee_toe_overlap(self):
        assert overlap_distance(50.0, 5.0) == pytest.approx(83.9711, abs=1e-3)

    def test_coincident_sensors(self):
        assert overlap_distance(80.0, 80.0) == 0.0

    def test_inverted_heights(self):
        with pytest.raises(GeometryError):
            overlap_distance(50.0, 150.0)

    @given(gap=st.floats(0.0, 300.0), base=st.floats(0.0, 200.0))
    def test_linear_in_height_gap(self, gap, base):
        direct = overlap_distance(base + gap, base)
        unit = overlap_distance(1.0, 0.0)
        assert direct == pytest.approx(gap * unit, rel=1e-9, abs=1e-9)


class TestRaycast:
    def test_down_ray_on_flat_ground(self):
        assert raycast(SagittalScene(), Ray(0.0, 10.0), Aim.DOWN) == pytest.approx(10.0)

    def test_perpendicular_wall(self):
        scene = SagittalScene((Rect(100, 101, 0, 200),), ())
        assert raycast(scene, Ray(0.0, 50.0), Aim.FORWARD) == pytest.approx(100.0)

    def test_slanted_hit_matches_analytic_and_marching(self):
        scene = SagittalScene((Rect(100, 101, 0, 200),), ())
        ray = Ray(0.0, 50.0, DEG(15.0))
        d = raycast(scene, ray, Aim.FORWARD)
        assert d == pytest.approx(100.0 / math.cos(DEG(15.0)), abs=1e-9)
        oracle = march_raycast(scene, 0.0, 50.0, Aim.FORWARD, DEG(15.0))
        assert d == pytest.approx(oracle, abs=0.01)

    def test_origin_below_ground_raises(self):
        scene = SagittalScene((), (GroundSegment(-10, 10, 20.0),))
        with pytest.raises(GeometryError):
            raycast(scene, Ray(0.0, 5.0), Aim.DOWN)

    def test_no_hit_returns_none(self):
        assert raycast(SagittalScene(), Ray(0.0, 150.0), Aim.FORWARD) is None

    def test_riser_face_visible_to_forward_ray(self):
        # A raised slab ahead presents a vertical front at its leading edge.
        scene = SagittalScene((), (GroundSegment(50, 150, 20.0),))
        assert raycast(scene, Ray(0.0, 10.0), Aim.FORWARD) == pytest.approx(50.0)
        assert march_raycast(scene, 0.0, 10.0, Aim.FORWARD) == pytest.approx(50.0, abs=0.01)

    def test_pothole_floor_visible_to_down_ray(self):
        scene = SagittalScene((), (GroundSegment(-50, 50, -30.0),))
        assert raycast(scene, Ray(0.0, 10.0), Aim.DOWN) == pytest.approx(40.0)
        assert march_raycast(scene, 0.0, 10.0, Aim.DOWN) == pytest.approx(40.0, abs=0.01)

    def test_flat_ground_does_not_echo_forward(self):
        # Grazing incidence scatters the pulse away from the receiver.
        assert raycast(SagittalScene(), Ray(0.0, 5.0, DEG(-15.0)), Aim.FORWARD) is None

    def test_obstacle_top_visible_to_down_ray(self):
        scene = SagittalScene((Rect(-20, 20, 0, 6),), ())
        assert raycast(scene, Ray(0.0, 10.0), Aim.DOWN) == pytest.approx(4.0)

    def test_translation_invariance(self):
        shift = 37.5
        scene = SagittalScene(
            (Rect(100, 102, 0, 200),), (GroundSegment(60, 80, -20.0),)
        )
        shifted = SagittalScene(
            (Rect(100 + shift, 102 + shift, 0, 200),),
            (GroundSegment(60 + shift, 80 + shift, -20.0),),
        )
        for angle in (-0.2, 0.0, 0.15):
            for aim, oz in ((Aim.FORWARD, 50.0), (Aim.DOWN, 10.0)):
                a = raycast(scene, Ray(0.0, oz, angle), aim)
                b = raycast(shifted, Ray(shift, oz, angle), aim)
                if a is None:
                    assert b is None
                else:
                    assert a == pytest.approx(b, abs=1e-9)

    def test_marching_agreement_on_composite_scene(self):
        scene = SagittalScene(
            (Rect(120, 130, 0, 90), Rect(60, 61, 100, 220)),
            (GroundSegment(30, 45, -25.0), GroundSegment(150, 200, 15.0)),
        )
        cases = [
            (0.0, 150.0, Aim.FORWARD, 0.0),
            (0.0, 150.0, Aim.FORWARD, DEG(-8.0)),
            (0.0, 50.0, Aim.FORWARD, DEG(5.0)),
            (0.0, 50.0, Aim.FORWARD, DEG(-11.0)),
            (35.0, 10.0, Aim.DOWN, 0.0),
            (35.0, 10.0, Aim.DOWN, DEG(12.0)),
            (125.0, 120.0, Aim.DOWN, DEG(-4.0)),
            (170.0, 40.0, Aim.DOWN, 0.0),
        ]
        for ox, oz, aim, angle in cases:
            fast = raycast(scene, Ray(ox, oz, angle), aim)
            slow = march_raycast(scene, ox, oz, aim, angle)
            if fast is None or fast > 305.0:
                assert slow is None or slow == pytest.approx(fast, abs=0.01)
            else:
                assert slow is not None
                assert fast == pytest.approx(slow, abs=0.01)


class TestConeMinDistance:
    def test_axis_ray_is_minimum_on_perpendicular_wall(self):
        scene = SagittalScene((Rect(100, 102, 0, 300),), ())
        d = cone_min_distance(scene, (0.0, 150.0), Aim.FORWARD)
        assert d == pytest.approx(100.0)

    def test_origin_below_ground_raises(self):
        # A plateau at 20 cm with a step up to 25 cm at x = 10, whose riser
        # faces an origin on the plateau.
        scene = SagittalScene((), (GroundSegment(-10, 10, 20.0), GroundSegment(10, 20, 25.0)))
        for aim in Aim:
            with pytest.raises(GeometryError, match="below the ground") as direct:
                cone_min_distance(scene, (0.0, 5.0), aim)
            # `echoes` raises the same message, for the first origin below
            # ground in firing order, whichever slot holds it.
            for heights in [(30.0, 5.0, 1.0, 30.0), (30.0, 30.0, 30.0, 5.0), (5.0, 1.0, 1.0, 1.0)]:
                with pytest.raises(GeometryError) as position:
                    scene.echoes(0.0, heights)
                assert str(position.value) == str(direct.value)
        # Within _EPS of the ground is on it, and the kernels cast from there.
        oz = 20.0 - _EPS / 2
        heights = (oz, 30.0, oz, oz)
        aims = (Aim.FORWARD,) * 3 + (Aim.DOWN,)
        expected = tuple(full_scan_cone_min(scene, (0.0, z), aim) for z, aim in zip(heights, aims))
        assert scene.echoes(0.0, heights) == expected == (10.0, None, 10.0, None)
        (faces, keys), down_index = scene._face_index
        assert _forward(faces, bisect_left(keys, 0.0), 0.0, oz, 30.0, oz) == (10.0, None, 10.0)
        assert cone_min_distance(scene, (0.0, oz), Aim.FORWARD) == 10.0
        assert _down(down_index, 0.0, oz, 20.0) is None
        assert cone_min_distance(scene, (0.0, oz), Aim.DOWN) is None

    # waist_probe's block and pothole_grades' holes.
    _BLOCK = ((Rect(200, 210, 0, 120),), ())
    _HOLES = ((), tuple(GroundSegment(100 * k, 100 * k + 100, dz)
                        for k, dz in enumerate((-5.0, -15.0, -30.0, -50.0), start=1)))

    @pytest.mark.parametrize(
        "scene,origin,aim,expected",
        [
            # Past the block's top, the chest's cone would reach its far side
            # at hypot(120, 30) = 123.7 cm; that face points away.
            pytest.param(_BLOCK, (90.0, 150.0), Aim.FORWARD, None, id="no-far-face"),
            pytest.param(_BLOCK, (0.0, 50.0), Aim.FORWARD, 200.0, id="near-face"),
            # A hole's near wall is a step down, facing away from the toe,
            # which would read it at hypot(100, 5) = 100.1 cm.  The first
            # riser it sees steps back up to grade at x = 500.
            pytest.param(_HOLES, (0.0, 5.0), Aim.FORWARD, math.hypot(500.0, 5.0),
                         id="no-step-down-riser"),
            # From the deepest hole's floor, its far wall steps up to grade.
            pytest.param(_HOLES, (450.0, -10.0), Aim.FORWARD, 50.0, id="step-up-riser"),
            # A table's underside points away from a down cone above it; the
            # cone reaches it at hypot(90, 20) but echoes off the ground.
            pytest.param(((Rect(20, 30, 10, 90),), ()), (0.0, 100.0), Aim.DOWN, 100.0,
                         id="no-bottom-face"),
            pytest.param(((Rect(-5, 5, 10, 90),), ()), (0.0, 100.0), Aim.DOWN, 10.0,
                         id="top-face"),
        ],
    )
    def test_only_faces_facing_the_module_echo(self, scene, origin, aim, expected):
        scene = SagittalScene(*scene)
        assert cone_min_distance(scene, origin, aim) == expected
        assert full_scan_cone_min(scene, origin, aim) == expected

    def test_thin_obstacle_is_invisible(self):
        scene = SagittalScene((Rect(100, 100.2, 0, 200),), ())
        assert cone_min_distance(scene, (0.0, 50.0), Aim.FORWARD) is None

    def test_threshold_thickness_is_visible(self):
        scene = SagittalScene((Rect(100, 100.3, 0, 200),), ())
        d = cone_min_distance(scene, (0.0, 50.0), Aim.FORWARD)
        assert d == pytest.approx(100.0)
        # The floor allows _EPS: a box exactly that much thinner still echoes.
        edge = SagittalScene((Rect(0.0, MIN_OBSTACLE_THICKNESS_CM - _EPS, 0, 200),), ())
        assert cone_min_distance(edge, (-100.0, 50.0), Aim.FORWARD) == 100.0

    def test_ground_features_have_no_thickness_floor(self):
        scene = SagittalScene((), (GroundSegment(50.0, 50.1, 30.0),))
        d = cone_min_distance(scene, (0.0, 20.0), Aim.FORWARD)
        assert d is not None and d == pytest.approx(50.0, abs=0.5)

    def test_monotone_under_obstacle_addition(self):
        base = SagittalScene((Rect(200, 210, 0, 300),), ())
        more = SagittalScene((Rect(200, 210, 0, 300), Rect(120, 130, 0, 300)), ())
        d0 = cone_min_distance(base, (0.0, 150.0), Aim.FORWARD)
        d1 = cone_min_distance(more, (0.0, 150.0), Aim.FORWARD)
        assert d1 <= d0


# Coordinates mostly on a coarse grid, so faces of different obstacles and
# ground segments coincide, and otherwise on a fine one, so face depths
# come within a fraction of a percent of each other; nudges put origins
# on, just off and within _EPS of face positions and segment boundaries.
_GRID = st.one_of(
    st.integers(-4, 40).map(lambda k: k * 5.0),
    st.integers(-40, 400).map(lambda k: k * 0.5 + 0.01),
)
_NUDGE = st.sampled_from([0.0, 0.0, 0.0, 2e-10, -2e-10, 1e-9, -1e-9, 0.5, -0.5])


@st.composite
def _profiles(draw):
    """Ground segments with real gaps, abutting ends and gaps or overlaps of at
    most _EPS, which the profile snaps to the earlier segment's end."""
    segments = []
    x = draw(_GRID)
    for _ in range(draw(st.integers(0, 6))):
        length = draw(st.sampled_from([3e-10, 1.0, 5.0, 20.0, 50.0]))
        dz = draw(st.sampled_from([-40.0, -20.0, -5.0, 0.0, 5.0, 10.0]))
        segments.append(GroundSegment(x, x + length, dz))
        x += length + draw(st.sampled_from([0.0, 0.0, 5e-10, -5e-10, 1e-9, 10.0]))
    return draw(st.permutations(segments))


@st.composite
def _obstacles(draw):
    """Boxes with many z=0 bottoms, slats below the thickness floor, duplicates,
    and wide shelves that start far left of most positions and span them."""
    boxes = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            x0 = draw(_GRID) - 600.0
            z0 = draw(st.sampled_from([0.0, 2.0, 5.0, 20.0]))
            boxes.append(Rect(x0, x0 + draw(st.sampled_from([700.0, 1500.0])), z0, z0 + 1.0))
            continue
        x0 = draw(_GRID)
        z0 = draw(st.sampled_from([0.0, 0.0, 0.0, 5.0, 10.0, 50.0]))
        width = draw(st.sampled_from([0.1, 0.3, 1.0, 5.0, 20.0]))
        height = draw(st.sampled_from([0.5, 5.0, 10.0, 45.0, 100.0]))
        boxes.append(Rect(x0, x0 + width, z0, z0 + height))
    return boxes + draw(st.lists(st.sampled_from(boxes), max_size=4) if boxes else st.just([]))


def _scene(ground, obstacles):
    try:
        return SagittalScene(tuple(obstacles), tuple(ground))
    except GeometryError:
        assume(False)


# Huge origins, far past the authored terrain, where the flat ground under
# the walker is an end segment of infinite span.
_FAR = [-1e7 - 1.0, -1e7, 1e7, 1e7 + 1.0]


def _positions(ground, obstacles):
    """Face and boundary positions of the scene along x and z."""
    xs = [0.0, 100.0, *_FAR] + [v for s in ground for v in (s.x0, s.x1)]
    xs += [v for r in obstacles for v in (r.x0, r.x1)]
    zs = [0.0, 10.0, 50.0, 100.0] + [s.dz for s in ground]
    zs += [v for r in obstacles for v in (r.z0, r.z1)]
    return xs, zs


class TestIndexedCone:
    """The indexed, early-exit cone equals the full scan bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.data(), _profiles(), _obstacles())
    def test_equals_full_scan(self, data, ground, obstacles):
        if obstacles and data.draw(st.booleans()):
            # A taller twin of a box on the same x: a height just above the
            # box echoes off its axis, then nearer from the twin's face at
            # the same depth, which a scan stopped at another height's best
            # would miss.
            box = data.draw(st.sampled_from(obstacles))
            lift = data.draw(st.sampled_from([1.0, 45.0]))
            obstacles = [*obstacles, box._replace(z1=box.z1 + lift)]
        scene = _scene(ground, obstacles)
        xs, zs = _positions(ground, obstacles)
        ox = data.draw(st.sampled_from(xs)) + data.draw(_NUDGE)
        oz = data.draw(st.sampled_from(zs)) + data.draw(_NUDGE)
        for aim in Aim:
            try:
                expected = full_scan_cone_min(scene, (ox, oz), aim)
            except GeometryError:
                with pytest.raises(GeometryError):
                    cone_min_distance(scene, (ox, oz), aim)
                continue
            assert cone_min_distance(scene, (ox, oz), aim) == expected
        # The forward kernel casts three heights in one scan, each equal to
        # its own full scan, in every order and repeat of oz and two more.
        heights = [oz] + [data.draw(st.sampled_from([oz, *zs])) + data.draw(_NUDGE)
                          for _ in range(3)]
        forward = heights[:3]
        floor = scene.elevation(ox) - _EPS
        full = {z: full_scan_cone_min(scene, (ox, z), Aim.FORWARD) for z in forward if z >= floor}
        faces, keys = scene._face_index[0]
        start = bisect_left(keys, ox)
        for slots in itertools.product(forward, repeat=3):
            for z, best in zip(slots, _forward(faces, start, ox, *slots)):
                if z in full:
                    assert best == full[z]
        # `echoes` casts those three forward and a fourth height down, or
        # raises for the first height below the floor.
        below = [z for z in heights if z < floor]
        if below:
            with pytest.raises(GeometryError) as expected:
                full_scan_cone_min(scene, (ox, below[0]), Aim.FORWARD)
            with pytest.raises(GeometryError) as position:
                scene.echoes(ox, heights)
            assert str(position.value) == str(expected.value)
        else:
            down = full_scan_cone_min(scene, (ox, heights[3]), Aim.DOWN)
            assert scene.echoes(ox, heights) == (*map(full.get, forward), down)

    @settings(max_examples=400, deadline=None)
    @given(st.data(), _profiles(), _obstacles())
    def test_faces_at_down_window_edges(self, data, ground, obstacles):
        # A downward cone over terrain at depth D only scans faces whose
        # span meets [ox - W, ox + W], W = D tan h.  Add a shelf above the
        # terrain with one edge on, or within a few _EPS of, that bound.
        scene = _scene(ground, obstacles)
        xs, zs = _positions(ground, obstacles)
        ox = data.draw(st.sampled_from(xs)) + data.draw(_NUDGE)
        oz = data.draw(st.sampled_from(zs)) + data.draw(st.sampled_from([0.0, 10.0, 60.0]))
        depth = oz - scene.elevation(ox)
        assume(depth > 1e-6)
        window = depth * math.tan(math.radians(BEAM_HALF_ANGLE_DEG))
        edge = data.draw(st.sampled_from([1, -1])) * window + data.draw(
            st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 3e-9, -3e-9])
        )
        top = oz - depth * data.draw(st.sampled_from([0.1, 0.5, 0.99, 1.0 - 1e-12]))
        width = data.draw(st.sampled_from([0.5, 20.0, 2000.0]))
        x0 = ox + edge if edge > 0 else ox + edge - width
        shelf = Rect(x0, x0 + width, top - 1.0, top)
        scene = _scene(ground, [*obstacles, shelf])
        expected = full_scan_cone_min(scene, (ox, oz), Aim.DOWN)
        assert cone_min_distance(scene, (ox, oz), Aim.DOWN) == expected

    def test_wide_shelf_behind_a_short_face(self):
        # The shelf starts far left of the hole; in order of left ends the
        # terrain segment between them ends short of the window, and only
        # the running maximum of right ends carries the scan on to it.
        scene = SagittalScene(
            (Rect(-500, 500, 5, 6),),
            (GroundSegment(-60, -20, -5.0), GroundSegment(-10, 10, -20.0)),
        )
        assert cone_min_distance(scene, (0.0, 10.0), Aim.DOWN) == 4.0
        assert full_scan_cone_min(scene, (0.0, 10.0), Aim.DOWN) == 4.0

    def test_flat_ground_between_distant_holes(self):
        # Two holes 1e7 cm apart, the origin 500 cm inside the second and
        # 4000 cm up: the nearest echo is the flat ground between the
        # holes, 500 cm behind the origin at 4031.13 cm, not the hole floor
        # 50 cm lower.
        scene = SagittalScene(
            (), (GroundSegment(-3e7, -2e7, -50.0), GroundSegment(-1e7 - 1000, 2e7, -50.0))
        )
        origin = (-1e7 - 500, 4000.0)
        expected = math.hypot(4000.0, 500.0)
        assert cone_min_distance(scene, origin, Aim.DOWN) == expected
        assert full_scan_cone_min(scene, origin, Aim.DOWN) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data(), _profiles())
    def test_elevation_equals_linear_scan(self, data, ground):
        scene = _scene(ground, ())
        xs, _ = _positions(ground, ())
        x = data.draw(st.sampled_from(xs)) + data.draw(_NUDGE)
        assert scene.elevation(x) == scan_elevation(scene, x)

    def test_deeper_face_on_axis_can_be_nearer(self):
        # The face at depth 95 echoes at hypot(95, 20) = 97.08 from its
        # edge; the wall behind it at depth 97 is nearer, on axis.
        scene = SagittalScene((Rect(95, 96, 120, 200), Rect(97, 98, 0, 200)), ())
        assert cone_min_distance(scene, (0.0, 100.0), Aim.FORWARD) == 97.0

    def test_sub_eps_gap_belongs_to_the_later_segment(self):
        # The later segment's start is snapped back over the gap, so the
        # hole floor lies under the walker and no z=0 face or riser pair
        # appears between the two holes.
        scene = SagittalScene(
            (), (GroundSegment(0, 50, -20.0), GroundSegment(50 + 5e-10, 100, -20.0))
        )
        origin = (50 + 2e-10, 10.0)
        assert scene.elevation(origin[0]) == -20.0
        assert cone_min_distance(scene, origin, Aim.DOWN) == 30.0
        assert full_scan_cone_min(scene, origin, Aim.DOWN) == 30.0

    @settings(max_examples=300, deadline=None)
    @given(st.data(), _profiles())
    def test_profile_is_an_exact_partition(self, data, ground):
        scene = _scene(ground, ())
        profile = scene.ground_profile
        assert profile[0].x0 == -math.inf and profile[-1].x1 == math.inf
        assert all(seg.x0 < seg.x1 for seg in profile)
        assert all(a.x1 == b.x0 for a, b in zip(profile, profile[1:]))
        # Away from the authored boundaries the terrain is what was authored.
        xs, _ = _positions(ground, ())
        x = data.draw(st.sampled_from(xs)) + data.draw(
            st.sampled_from([0.0, 2e-9, -2e-9, 0.5, -0.5, 7.0])
        )
        assume(all(abs(x - v) > _EPS for seg in ground for v in (seg.x0, seg.x1)))
        holders = [seg.dz for seg in ground if seg.x0 <= x < seg.x1]
        assert len(holders) <= 1
        assert scene.elevation(x) == (holders[0] if holders else 0.0)

    def test_first_of_overlapping_segments_wins(self):
        # Overlaps of at most _EPS are allowed; a linear scan returns the
        # earliest segment, here across a chain of three.
        scene = SagittalScene(
            (),
            (
                GroundSegment(0, 50, -5.0),
                GroundSegment(50 - 5e-10, 50 - 4e-10, -10.0),
                GroundSegment(50 - 3e-10, 100, -20.0),
            ),
        )
        for x in (50 - 4.5e-10, 50 - 2e-10, 50.0):
            assert scene.elevation(x) == scan_elevation(scene, x)
        assert scene.elevation(50 - 2e-10) == -5.0


class TestSceneValidation:
    def test_inverted_rect(self):
        with pytest.raises(GeometryError):
            Rect(10, 5, 0, 10)

    def test_inverted_rect_heights(self):
        with pytest.raises(GeometryError):
            Rect(5, 10, 10, 0)

    def test_non_finite_ground_elevation(self):
        for dz in (math.nan, math.inf):
            with pytest.raises(GeometryError, match="finite dz"):
                GroundSegment(0, 10, dz)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Rect(100, 10**400, 0, 200),
            lambda: GroundSegment(100, 10**400, -30.0),
            lambda: Rect(100, 110, 0, 10**400),
        ],
        ids=["rect-x1", "ground-x1", "rect-z1"],
    )
    def test_int_past_float_range_rejected(self, build):
        # Caught when the value is built, not partway through a run.
        with pytest.raises(GeometryError, match="must fit a float"):
            build()

    def test_bounds_are_floats_and_may_be_infinite(self):
        assert Rect(0, math.inf, -math.inf, 2) == (0.0, math.inf, -math.inf, 2.0)
        assert GroundSegment(-math.inf, 3, -5) == (-math.inf, 3.0, -5.0)
        assert all(type(v) is float for v in (*Rect(0, 1, 2, 3), *GroundSegment(0, 1, 2)))

    def test_overlapping_ground_segments(self):
        with pytest.raises(GeometryError):
            SagittalScene((), (GroundSegment(0, 50, -10), GroundSegment(40, 80, -20)))

    @pytest.mark.parametrize(
        "obstacles,ground,member,message",
        [
            # The later authored of the pair is named, whichever sorts first.
            pytest.param((), ((0, 50, -10), (40, 90, -20)), ("ground", 1),
                         "overlapping ground segments at x=40.0", id="overlap-later-right"),
            pytest.param((), ((40, 90, -20), (0, 50, -10)), ("ground", 1),
                         "overlapping ground segments at x=0.0", id="overlap-later-left"),
            pytest.param((), ((0, 50, -10), (0, 30, -20)), ("ground", 1),
                         "overlapping ground segments at x=0.0", id="overlap-equal-starts"),
            pytest.param((), ((0, 10, -5), (20, 30, -5), (25, 40, -5)), ("ground", 2),
                         "overlapping ground segments at x=25.0", id="overlap-third"),
            pytest.param(((300, 310, 0, 50), (150, 160, -40, -20)), (), ("obstacles", 1),
                         "obstacle [150.0, 160.0] lies wholly below the terrain (top z1=-20.0)",
                         id="buried"),
            # The overlap is found while the profile is built, before any burial.
            pytest.param(((150, 160, -40, -20),), ((0, 50, -10), (40, 90, -20)), ("ground", 1),
                         "overlapping ground segments at x=40.0", id="overlap-before-buried"),
        ],
    )
    def test_scene_fault_names_its_member(self, obstacles, ground, member, message):
        with pytest.raises(GeometryError) as raised:
            SagittalScene(obstacles, ground)
        assert raised.value.member == member
        assert raised.value.args == (message,)
        for twin in (copy.copy(raised.value), pickle.loads(pickle.dumps(raised.value))):
            assert type(twin) is GeometryError
            assert (twin.member, twin.args) == (member, (message,))

    def test_other_faults_name_no_member(self):
        with pytest.raises(GeometryError) as rect:
            Rect(5, 1, 0, 1)
        with pytest.raises(GeometryError) as origin:
            SagittalScene().echoes(0.0, (10.0, 10.0, -1.0, 10.0))
        for raised in (rect, origin):
            assert raised.value.member is None
            assert copy.copy(raised.value).member is None
            assert pickle.loads(pickle.dumps(raised.value)).member is None

    def test_gap_filled_with_nominal_ground(self):
        scene = SagittalScene((), (GroundSegment(0, 10, -5), GroundSegment(20, 30, -8)))
        assert scene.elevation(15.0) == 0.0
        assert scene.elevation(5.0) == -5.0
        assert scene.elevation(25.0) == -8.0
        assert scene.elevation(100.0) == 0.0

    @pytest.mark.parametrize(
        "ground,box,buried",
        [
            pytest.param((), Rect(150, 160, -40, -20), True, id="under-flat-ground"),
            pytest.param((), Rect(0, 10, -5, 0), True, id="top-on-flat-ground"),
            pytest.param((), Rect(0, 10, -5, 1e-9), False, id="top-above-flat-ground"),
            pytest.param(((0, 100, -30),), Rect(10, 20, -40, -20), False, id="in-a-hole"),
            pytest.param(((0, 100, -30),), Rect(10, 20, -50, -30), True, id="under-a-hole"),
            pytest.param(((0, 100, -30),), Rect(90, 110, -50, -10), False, id="across-a-hole-edge"),
            pytest.param(((0, 100, 20),), Rect(10, 20, 0, 15), True, id="under-a-plateau"),
            # The span is closed: an end on the plateau's edge meets the flat
            # ground past it, whose elevation the profile gives at that x.
            pytest.param(((0, 100, 20),), Rect(50, 100, 0, 15), False, id="ends-at-plateau-edge"),
            pytest.param(((0, 100, 20),), Rect(-10, 0, 0, 15), False, id="ends-at-plateau-start"),
            pytest.param(((0, 100, 20),), Rect(-10, -1e-9, -5, 0), True, id="ends-short-of-plateau"),
        ],
    )
    def test_obstacle_wholly_below_terrain_rejected(self, ground, box, buried):
        obstacles = (Rect(300, 310, 0, 50), box)
        if not buried:
            assert SagittalScene(obstacles, ground).obstacles == obstacles
            return
        with pytest.raises(GeometryError) as raised:
            SagittalScene(obstacles, ground)
        assert str(raised.value) == (
            f"obstacle [{box.x0}, {box.x1}] lies wholly below the terrain (top z1={box.z1})"
        )

    @settings(max_examples=300, deadline=None)
    @given(_profiles(), _obstacles(), st.data())
    def test_buried_obstacle_equals_sampled_terrain(self, ground, obstacles, data):
        # The terrain is constant between profile boundaries, so its lowest
        # point on [x0, x1] lies at an end or at a boundary inside.
        obstacles += data.draw(st.lists(st.builds(
            lambda x0, w, z1: Rect(x0, x0 + w, z1 - 30.0, z1),
            _GRID, st.sampled_from([1e-9, 1.0, 20.0, 60.0]),
            st.sampled_from([-40.0, -20.0, -5.0 - 1e-9, -5.0, 0.0, 5.0, 10.0]),
        ), max_size=4))
        terrain = _scene(ground, ())
        starts = [seg.x0 for seg in terrain.ground_profile]

        def buried(r):
            xs = [r.x0, r.x1] + [x for x in starts if r.x0 < x < r.x1]
            return all(r.z1 <= scan_elevation(terrain, x) for x in xs)

        first = next((i for i, r in enumerate(obstacles) if buried(r)), None)
        assert buried_obstacle(obstacles, terrain.ground_profile) == first
        if first is None:
            SagittalScene(tuple(obstacles), tuple(ground))
        else:
            with pytest.raises(GeometryError, match="wholly below the terrain"):
                SagittalScene(tuple(obstacles), tuple(ground))
