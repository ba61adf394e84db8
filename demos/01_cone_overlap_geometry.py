"""Where adjacent sensor cones first overlap, and why it doesn't matter.

Every sensor is the same module with a 30 degree divergence cone; only
its mount differs.  Stacked cones eventually intersect, which could make
one sensor answer for another's zone -- but a channel reads level 0 for
any echo beyond its outermost buzzer band (chest 150 cm, knee 60 cm), and
each first overlap point lies beyond the upper channel's outermost band.
"""

from ultranav import SensorName, default_sensors, overlap_distance
from ultranav.classify import classify_chest, classify_knee

sensors = {s.name: s for s in default_sensors()}

print("Sensor rig (mount heights, cm):")
for spec in default_sensors():
    print(f"  {spec.name.value:<6} height={spec.mount_height:>6.1f}  aim={spec.aim.value}")

print()
print("First cone-overlap distance between adjacent forward sensors:")
pairs = [
    ("chest-knee", sensors[SensorName.CHEST], sensors[SensorName.KNEE], classify_chest),
    ("knee-toe", sensors[SensorName.KNEE], sensors[SensorName.TOE], classify_knee),
]
for label, upper, lower, classify in pairs:
    d = overlap_distance(upper.mount_height, lower.mount_height)
    level = classify(d)
    print(
        f"  {label:<11} overlap at {d:6.1f} cm  ->  {upper.name.value} level there "
        f"{level}  -> {'safe' if level == 0 else 'CONFLICT'}"
    )

print()
print("Overlap distance shrinks as the cones widen:")
for divergence in (15.0, 30.0, 45.0, 60.0):
    d = overlap_distance(150.0, 50.0, divergence)
    print(f"  divergence {divergence:4.0f} deg -> chest-knee overlap {d:6.1f} cm")
