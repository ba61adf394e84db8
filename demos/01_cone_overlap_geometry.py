"""Where adjacent sensor cones first overlap, and why it doesn't matter.

Every sensor is the same module with a 30 degree divergence cone; only
its mount differs.  Stacked cones eventually intersect, which could make
one sensor answer for another's zone -- but a channel reads level 0 for
any echo beyond its outermost buzzer band (chest 150 cm, knee 60 cm), and
each first overlap point lies beyond the upper channel's outermost band.
The beam is fixed, so only moving a mount moves an overlap: the last
table moves the knee module, the paper's attachment to other body areas.
"""

from ultranav import SensorName, default_sensors, overlap_distance
from ultranav.classify import classify_chest, classify_knee

sensors = {s.name: s for s in default_sensors()}
chest, knee, toe = (
    sensors[name].mount_height for name in (SensorName.CHEST, SensorName.KNEE, SensorName.TOE)
)


def verdict(label, upper_height, lower_height, classify):
    """The overlap of two stacked cones and the upper channel's level there."""
    d = overlap_distance(upper_height, lower_height)
    level = classify(d)
    return f"{label:<10} {d:6.1f} cm (level {level}, {'safe' if level == 0 else 'CONFLICT'})"


print("Sensor rig (mount heights, cm):")
for spec in default_sensors():
    print(f"  {spec.name.value:<6} height={spec.mount_height:>6.1f}  aim={spec.aim.value}")

print()
print("First cone-overlap distance between adjacent forward sensors:")
print("  " + verdict("chest-knee", chest, knee, classify_chest))
print("  " + verdict("knee-toe", knee, toe, classify_knee))

print()
print("Overlaps with the knee module moved:")
for height in (40.0, 60.0, 80.0):
    print(
        f"  knee at {height:4.0f} cm: {verdict('chest-knee', chest, height, classify_chest)};"
        f"  {verdict('knee-toe', height, toe, classify_knee)}"
    )
