"""Micro-benchmarks of the scene constructor and the terrain lookup.

    python -m pytest bench/test_scene.py --benchmark-json=out.json

Each profile holds n potholes 20 cm wide, one every 40 cm, with depths
drawn from a fixed seed, under ten boxes.  `test_build` times
`SagittalScene(obstacles, ground)`, which sorts the authored segments into
the terrain profile (both face lists are built later, in one pass, by the
first cone).
`test_elevation` times one `scene.elevation(x)` lookup inside the middle
pothole of an already built scene.
"""

import random

import pytest

from ultranav.geometry import GroundSegment, Rect, SagittalScene

PROFILE_SIZES = (0, 20, 400)


def _terrain(n_segments: int) -> tuple:
    rng = random.Random(n_segments)
    boxes = []
    for _ in range(10):
        x0 = round(rng.uniform(50.0, 600.0), 2)
        z0 = round(rng.uniform(0.0, 150.0), 2)
        boxes.append(Rect(x0, x0 + round(rng.uniform(0.5, 30.0), 2), z0, z0 + 10.0))
    holes = [
        GroundSegment(x, x + 20.0, -round(rng.uniform(5.0, 60.0), 2))
        for x in range(-200, -200 + 40 * n_segments, 40)
    ]
    return tuple(boxes), tuple(holes)


@pytest.mark.parametrize("n_segments", PROFILE_SIZES)
def test_build(benchmark, n_segments):
    obstacles, ground = _terrain(n_segments)
    scene = benchmark(SagittalScene, obstacles, ground)
    assert len(scene.ground) == n_segments


@pytest.mark.parametrize("n_segments", PROFILE_SIZES)
def test_elevation(benchmark, n_segments):
    obstacles, ground = _terrain(n_segments)
    scene = SagittalScene(obstacles, ground)
    x = ground[n_segments // 2].x0 + 10.0 if ground else 0.0
    assert benchmark(scene.elevation, x) == (ground[n_segments // 2].dz if ground else 0.0)
