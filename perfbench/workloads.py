"""Seeded workload generator: scenario and calibration files plus a manifest.

Every generated walk stays valid if the program later rejects walking
into raised terrain or through an obstacle: the walker's path only ever
crosses level ground and holes, every obstacle lies beyond the far end
of the path, and each walk goes forward and back by the same number of
ticks at the same speed.  No scenario uses reading jitter, so every
distance in a trace can be checked against the exact oracle.

The shape of each workload (face counts, tick counts, job counts) is
fixed; the seed moves positions, sizes and depths.  Host cost per pass is
therefore close to seed-independent while the traces differ per seed.
"""

from __future__ import annotations

import json
import os
import random

from oracle import DEFAULT_MOUNTS, DEFAULT_SARL, positions

TICK_MS = 30.0

WHY = {
    "walk_long": (
        "compact course walked back and forth in long jobs: per-tick fixed costs "
        "and the in-memory frame list take their largest share"
    ),
    "clutter_dense": (
        "300 boxes incl. sub-0.3 cm slats, 1200+ faces: cone casting and the "
        "per-cone thin-obstacle rebuild dominate job time"
    ),
    "scene_churn": (
        "300 tiny distinct scenarios with CONFIG, SENSOR and --calib: per-job parse, "
        "build, calibration fit and first-cone work dominate"
    ),
}


def _r(value):
    """Round to 0.01 cm so the file text and the manifest agree exactly."""
    return round(value, 2)


def _holes(rng, x_lo, x_hi, count, depths):
    """`count` disjoint holes (dz < 0) laid left to right inside [x_lo, x_hi]."""
    width = (x_hi - x_lo) / count
    out = []
    for i in range(count):
        a = x_lo + i * width + rng.uniform(0.5, 0.3 * width)
        b = x_lo + (i + 1) * width - rng.uniform(0.5, 0.3 * width)
        out.append([_r(a), _r(b), _r(depths[i])])
    return out


def _back_and_forth(distance, tick_counts):
    """Forward/back walk pairs covering `distance` cm, one per tick count."""
    walks = []
    for n in tick_counts:
        seconds = round(n * TICK_MS / 1000.0, 6)
        speed = _r(distance / seconds)
        walks += [[speed, seconds], [-speed, seconds]]
    return walks


def _job(name, obstacles, ground, walks, **extra):
    job = {
        "name": name, "obstacles": obstacles, "ground": ground, "walks": walks,
        "mounts": dict(DEFAULT_MOUNTS), "sensor_overrides": {}, "config": {},
        "temp": 20.0, "temp_cal": 20.0, "calib_pairs": None, "start_x": 0.0,
        "tick_ms": TICK_MS,
    }
    job.update(extra)
    job["thin"] = any(o[1] - o[0] < 0.3 for o in obstacles)
    job["rows"] = len(positions(job))
    return job


def walk_long(rng):
    """Four long jobs on compact courses with a few dozen faces each."""
    jobs = []
    for j in range(4):
        path = rng.uniform(220.0, 250.0)
        depths = [-5.0, -15.0, -22.0, -33.0, -50.0]
        rng.shuffle(depths)
        ground = _holes(rng, 20.0, path, 5, [d + rng.uniform(-2, 2) for d in depths])
        toe = path + rng.uniform(7.0, 11.0)
        knee = toe + 25.0 + rng.uniform(-0.4, 0.4)
        waist = knee + rng.uniform(60.0, 80.0)
        wall = waist + rng.uniform(90.0, 120.0)
        obstacles = [
            [_r(toe), _r(toe + rng.uniform(1.0, 4.0)), 0.0, 10.0],          # toe step
            [_r(knee), _r(knee + rng.uniform(2.0, 6.0)), 40.0, 120.0],      # knee riser
            [_r(waist), _r(waist + rng.uniform(5.0, 15.0)), 0.0, _r(rng.uniform(112.0, 128.0))],
            [_r(waist + 30), _r(waist + 40), _r(rng.uniform(165.0, 175.0)), 200.0],  # head
            [_r(wall), _r(wall + 2.0), 0.0, 200.0],                           # wall
            [_r(wall + 150), _r(wall + 160), 0.0, 80.0],                      # out of reach
        ]
        walks = _back_and_forth(path, [150, 175, 200, 225] * 2)
        jobs.append(_job(f"walk{j}", obstacles, ground, walks))
    return jobs


def clutter_dense(rng):
    """Four jobs on 300-box scenes over a finely segmented pothole profile."""
    jobs = []
    for j in range(4):
        path = rng.uniform(120.0, 150.0)
        ground = _holes(rng, -30.0, path + 60.0, 40,
                        [-rng.uniform(1.0, 60.0) for _ in range(40)])
        start = path + 3.0
        obstacles = []
        for k in range(300):
            x0 = start + rng.uniform(0.0, 500.0)
            if k % 10 == 0:
                width = rng.uniform(0.05, 0.28)   # slat below the 0.3 cm floor
            else:
                width = rng.choice((rng.uniform(0.5, 3.0), rng.uniform(3.0, 40.0)))
            z0 = rng.choice((0.0, rng.uniform(0.0, 190.0)))
            z1 = min(z0 + rng.uniform(2.0, 80.0), 230.0)
            obstacles.append([_r(x0), _r(x0 + width), _r(z0), _r(z1)])
        walks = _back_and_forth(path, [30])
        jobs.append(_job(f"clutter{j}", obstacles, ground, walks))
    return jobs


def scene_churn(rng):
    """300 distinct short scenarios, each with CONFIG, SENSOR and --calib."""
    jobs = []
    for j in range(300):
        path = rng.uniform(15.0, 40.0)
        n_holes = j % 4
        ground = _holes(rng, 2.0, path, n_holes,
                        [-rng.uniform(3.0, 55.0) for _ in range(n_holes)]) if n_holes else []
        obstacles = []
        for k in range(2 + j % 5):
            x0 = path + rng.uniform(4.0, 280.0)
            z0 = rng.choice((0.0, rng.uniform(0.0, 170.0)))
            obstacles.append([_r(x0), _r(x0 + rng.uniform(0.5, 20.0)), _r(z0),
                              _r(z0 + rng.uniform(5.0, 100.0))])
        name = ("chest", "knee", "toe", "arch")[j % 4]
        base = DEFAULT_MOUNTS[name]
        height = _r(base + rng.uniform(-0.1, 0.1) * base)
        mounts = dict(DEFAULT_MOUNTS, **{name: height})
        gain, offset = rng.uniform(0.95, 1.05), rng.uniform(-2.0, 2.0)
        pairs = [[a, _r(gain * a + offset + rng.uniform(-0.3, 0.3))]
                 for a in (20.0, 60.0, 120.0, 200.0, 280.0)]
        temp, temp_cal = _r(rng.uniform(-5.0, 40.0)), _r(rng.uniform(15.0, 25.0))
        config = {"temp": temp, "temp_cal": temp_cal, "debounce_ticks": 1 + j % 3}
        walks = _back_and_forth(path, [4])
        jobs.append(_job(f"churn{j:03d}", obstacles, ground, walks, mounts=mounts,
                         sensor_overrides={name: [height, DEFAULT_SARL[name]]},
                         config=config, temp=temp, temp_cal=temp_cal,
                         calib_pairs=pairs))
    return jobs


GENERATORS = {"walk_long": walk_long, "clutter_dense": clutter_dense,
              "scene_churn": scene_churn}


def _scenario_text(job, workload, seed):
    lines = [f"# {workload} seed {seed}: {WHY[workload]}"]
    lines += [f"CONFIG {k} {v}" for k, v in job["config"].items()]
    lines += [f"SENSOR {k} {h} {s}" for k, (h, s) in job["sensor_overrides"].items()]
    lines += ["OBSTACLE {} {} {} {}".format(*o) for o in job["obstacles"]]
    lines += ["GROUND {} {} {}".format(*g) for g in job["ground"]]
    lines += ["WALK {} {}".format(*w) for w in job["walks"]]
    return "\n".join(lines) + "\n"


def generate(workload, seed, out_dir):
    """Write the workload's files under out_dir; returns the manifest dict."""
    jobs = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    os.makedirs(out_dir, exist_ok=True)
    for job in jobs:
        job["scn"] = os.path.join(out_dir, job["name"] + ".scn")
        job["out"] = os.path.join(out_dir, job["name"] + ".trace.csv")
        with open(job["scn"], "w", encoding="utf-8") as fh:
            fh.write(_scenario_text(job, workload, seed))
        job["calib"] = None
        if job["calib_pairs"]:
            job["calib"] = os.path.join(out_dir, job["name"] + ".cal")
            with open(job["calib"], "w", encoding="utf-8") as fh:
                fh.write("# actual_cm measured_cm\n")
                fh.writelines(f"{a} {m}\n" for a, m in job["calib_pairs"])
    manifest = {"workload": workload, "seed": seed, "why": WHY[workload], "jobs": jobs}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest
