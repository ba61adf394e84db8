import math

import pytest

from ultranav.classify import (
    Advisory,
    BuzzerFrame,
    UpperLevel,
    classify_chest,
    classify_depth,
    classify_knee,
    classify_toe,
    detect_upstairs,
    infer_upper_level,
    is_downstep,
)
from ultranav.pipeline import TickFlags, fuse
from ultranav.tables import CHEST_BANDS, STAIR_TRUTH_TABLE


class TestChestBands:
    @pytest.mark.parametrize(
        "distance,level",
        [
            (100.0, 1),
            (50.0, 3),
            (None, 0),
            (151.0, 0),
            (150.0, 1),
            (87.5, 1),
            (87.0, 2),  # boundary ties take the nearer band's level
            (60.0, 3),
            (40.0, 4),
            (39.9, 4),
            (3.0, 4),
        ],
    )
    def test_levels(self, distance, level):
        assert classify_chest(distance) == level


class TestKneeBands:
    @pytest.mark.parametrize(
        "distance,level",
        [(45.0, 1), (10.0, 3), (61.0, 0), (None, 0), (60.0, 1), (30.0, 2), (10.5, 2)],
    )
    def test_levels(self, distance, level):
        assert classify_knee(distance) == level


class TestToeBands:
    @pytest.mark.parametrize(
        "distance,level",
        [(30.0, 1), (15.0, 2), (None, 0), (40.0, 1), (41.0, 0), (20.0, 2), (10.0, 3)],
    )
    def test_levels(self, distance, level):
        assert classify_toe(distance) == level


class TestBandStructure:
    def test_monotone_non_increasing_in_distance(self):
        for classifier in (classify_chest, classify_knee, classify_toe):
            levels = [classifier(d / 2.0) for d in range(2, 601)]
            assert all(a >= b for a, b in zip(levels, levels[1:]))

    def test_depth_monotone_non_decreasing(self):
        levels = [classify_depth(d / 2.0) for d in range(0, 121)]
        assert all(a <= b for a, b in zip(levels, levels[1:]))


# Each channel's edges with the level one ulp below, at and one ulp above
# the edge: every band is (lo, hi], so a reading on an edge takes the band
# below it.  Then the readings no band holds, with the level each gives
# today: no echo is silent, and NaN, which passes no comparison, falls
# through to the last level.
_EDGES = {
    classify_chest: [(40.0, 4, 4, 3), (60.0, 3, 3, 2), (87.0, 2, 2, 1), (150.0, 1, 1, 0)],
    classify_knee: [(10.0, 3, 3, 2), (30.0, 2, 2, 1), (60.0, 1, 1, 0)],
    classify_toe: [(10.0, 3, 3, 2), (20.0, 2, 2, 1), (40.0, 1, 1, 0)],
    classify_depth: [(10.0, 0, 0, 1), (20.0, 1, 1, 2), (40.0, 2, 2, 3)],
}
_OUTSIDE = {
    classify_chest: [(None, 0), (math.nan, 4), (math.inf, 0), (-math.inf, 4)],
    classify_knee: [(None, 0), (math.nan, 3), (math.inf, 0), (-math.inf, 3)],
    classify_toe: [(None, 0), (math.nan, 3), (math.inf, 0), (-math.inf, 3)],
    # `sense` turns no echo into an unbounded depth, so classify_depth takes no None.
    classify_depth: [(math.nan, 3), (math.inf, 3), (-math.inf, 0)],
}
_PINNED = [
    pytest.param(classifier, reading, level,
                 id=f"{classifier.__name__.removeprefix('classify_')}-{reading}-{side}")
    for classifier, edges in _EDGES.items()
    for edge, *levels in edges
    for side, reading, level in zip(
        ("below", "at", "above"),
        (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)), levels)
] + [
    pytest.param(classifier, reading, level,
                 id=f"{classifier.__name__.removeprefix('classify_')}-{reading}")
    for classifier, readings in _OUTSIDE.items()
    for reading, level in readings
]


class TestBandEdges:
    @pytest.mark.parametrize("classifier,reading,level", _PINNED)
    def test_level(self, classifier, reading, level):
        assert classifier(reading) == level


class TestUpstairs:
    def test_window_hit(self):
        upstairs, knee_bit, toe_bit = detect_upstairs(40.0, 15.0)  # difference 25
        assert upstairs and knee_bit == 1 and toe_bit == 1

    def test_knee_only(self):
        assert detect_upstairs(35.0, None) == (False, 1, 0)

    def test_toe_only(self):
        assert detect_upstairs(None, 15.0) == (False, 0, 1)

    def test_difference_outside_window(self):
        assert detect_upstairs(35.0, 15.0) == (False, 1, 1)  # difference 20

    @pytest.mark.parametrize("diff", [24.0, 26.0])
    def test_window_endpoints_are_exclusive(self, diff):
        upstairs, _, _ = detect_upstairs(15.0 + diff, 15.0)
        assert not upstairs

    def test_gating_boundaries(self):
        # Echoes beyond the knee 40 / toe 20 gates never count.
        for knee, toe, gated in [(40.5, 15.0, (0, 1)), (40.0, 20.5, (1, 0)), (45.0, 20.0, (0, 1))]:
            upstairs, knee_bit, toe_bit = detect_upstairs(knee, toe)
            assert not upstairs and (knee_bit, toe_bit) == gated

    def test_truth_table_rows_keep_their_types(self):
        # `sense` builds its shared flags from this triple, and cache keys
        # that compare equal share an entry (True == 1).
        for (knee, toe), expected in STAIR_TRUTH_TABLE:
            got = detect_upstairs(knee, toe)
            assert got == expected
            assert tuple(map(type, got)) == (bool, int, int)

    def test_zeroing_an_input_zeroes_its_bit(self):
        for knee, toe in [(40.0, 15.0), (35.0, 12.0)]:
            up1, knee_bit, _ = detect_upstairs(None, toe)
            up2, _, toe_bit = detect_upstairs(knee, None)
            assert knee_bit == 0 and not up1
            assert toe_bit == 0 and not up2


class TestDepth:
    @pytest.mark.parametrize(
        "depth,level,advisory",
        [
            (5.0, 0, Advisory.MOVE_FORWARD),
            (15.0, 1, Advisory.MOVE_FORWARD_CAUTION),
            (30.0, 2, Advisory.ALTERNATE_PATH),
            (50.0, 3, Advisory.STOP_IMMEDIATELY),
            (0.0, 0, Advisory.MOVE_FORWARD),
            (-4.0, 0, Advisory.MOVE_FORWARD),
            (math.inf, 3, Advisory.STOP_IMMEDIATELY),
        ],
    )
    def test_grades(self, depth, level, advisory):
        assert classify_depth(depth) == level
        assert fuse(BuzzerFrame(brzP=level), TickFlags()) == advisory

    @pytest.mark.parametrize(
        "depth,expected",
        [(20.0, True), (10.0, False), (35.0, False), (15.0, True), (30.0, True), (14.9, False), (30.1, False)],
    )
    def test_downstep_window(self, depth, expected):
        assert is_downstep(depth) is expected

    def test_downstep_implies_level_one_or_two(self):
        for d in range(0, 1201):
            depth = d / 20.0
            if is_downstep(depth):
                assert classify_depth(depth) in (1, 2)


class TestInferUpperLevel:
    @pytest.mark.parametrize(
        "level,expected",
        [
            (0, UpperLevel.UNKNOWN),
            (1, UpperLevel.WAIST),
            (2, UpperLevel.HEAD),
            (3, UpperLevel.CHEST),
            (4, UpperLevel.UNKNOWN),
        ],
    )
    def test_levels(self, level, expected):
        assert infer_upper_level(level) == expected

    @pytest.mark.parametrize(
        "distance,expected",
        [
            (100.0, UpperLevel.WAIST),
            (70.0, UpperLevel.HEAD),
            (50.0, UpperLevel.CHEST),
            (30.0, UpperLevel.UNKNOWN),
            (200.0, UpperLevel.UNKNOWN),
        ],
    )
    def test_bands(self, distance, expected):
        # The band of an armed chest reading, through its chest level.
        assert infer_upper_level(classify_chest(distance)) == expected

    def test_agrees_with_chest_banding(self):
        # The chest level of a reading, mapped to the upper level, is
        # verify-tables' literal chest band mapped to it, on a 0.5 cm
        # sweep, one ulp either side of each edge, and at the values no
        # band holds.
        mapping = {1: UpperLevel.WAIST, 2: UpperLevel.HEAD, 3: UpperLevel.CHEST}

        def expected(d):
            for lo, hi, level in CHEST_BANDS:
                if d is not None and lo < d <= hi:
                    return mapping.get(level, UpperLevel.UNKNOWN)
            return UpperLevel.UNKNOWN

        edges = {v for lo, hi, _ in CHEST_BANDS for v in (lo, hi) if math.isfinite(v)}
        distances = [d / 2.0 for d in range(1, 601)]
        distances += [
            v for e in edges for v in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))
        ]
        distances += [None, math.nan, math.inf, -math.inf]
        for d in distances:
            assert infer_upper_level(classify_chest(d)) == expected(d), d


class TestBuzzerFrame:
    def test_channel_bounds(self):
        BuzzerFrame(brzC=4, brzK=3, brzT=3, brzP=3)
        with pytest.raises(ValueError):
            BuzzerFrame(brzC=5)
        with pytest.raises(ValueError):
            BuzzerFrame(brzK=4)
        with pytest.raises(ValueError):
            BuzzerFrame(brzP=-1)
