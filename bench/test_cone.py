"""Micro-benchmarks of one cone cast against scenes of growing size.

    python -m pytest bench/ --benchmark-json=out.json

Each scene holds n boxes ahead of the sensor, a quarter of them standing
on the ground, over a profile of potholes, drawn from a fixed seed.
`test_cone` builds its scene once per case, so it times steady-state
casts with the scene's face indexes already in place.  `test_first_cast`
builds a fresh scene before each round, outside the timing, and times
one forward and one down cast on it: the first cones of a run, the
first of which builds both face indexes, in one pass.
"""

import random

import pytest

from ultranav.geometry import Aim, GroundSegment, Rect, SagittalScene, cone_min_distance

SIZES = (1, 10, 100, 1000)

# (aim, origin): the chest-height forward sensor and the arch sensor at
# the walker's start, as the default sensor set mounts them.
CONES = {
    "forward": (Aim.FORWARD, (0.0, 140.0)),
    "down": (Aim.DOWN, (0.0, 10.0)),
}


def _scene(n_obstacles: int) -> SagittalScene:
    rng = random.Random(n_obstacles)
    boxes = []
    for _ in range(n_obstacles):
        x0 = round(rng.uniform(50.0, 600.0), 2)
        z0 = 0.0 if rng.random() < 0.25 else round(rng.uniform(0.0, 150.0), 2)
        boxes.append(
            Rect(x0, x0 + round(rng.uniform(0.5, 30.0), 2), z0, z0 + round(rng.uniform(1.0, 70.0), 2))
        )
    holes = [
        GroundSegment(x, x + 20.0, -round(rng.uniform(5.0, 60.0), 2))
        for x in range(-200, 600, 40)
    ]
    return SagittalScene(tuple(boxes), tuple(holes))


@pytest.mark.parametrize("n_obstacles", SIZES)
@pytest.mark.parametrize("cone", sorted(CONES))
def test_cone(benchmark, cone, n_obstacles):
    scene = _scene(n_obstacles)
    aim, origin = CONES[cone]
    result = benchmark(cone_min_distance, scene, origin, aim)
    assert result is not None


@pytest.mark.parametrize("n_obstacles", (1, 100, 1000))
def test_first_cast(benchmark, n_obstacles):
    template = _scene(n_obstacles)

    def fresh():
        return (SagittalScene(template.obstacles, template.ground),), {}

    def first_casts(scene):
        return [cone_min_distance(scene, origin, aim) for aim, origin in CONES.values()]

    results = benchmark.pedantic(first_casts, setup=fresh, rounds=200)
    assert None not in results
