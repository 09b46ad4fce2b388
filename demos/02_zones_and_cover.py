"""From coverage spheres to a minimum zone cover.

Seven users form two spatial clusters. Every user gets a service sphere;
overlapping spheres produce candidate zones (nonempty intersections with a
witness point); the cover solver then picks the fewest zones that include
everyone, which is the target UAV count before positioning.
"""
from uavplan import (
    ChannelParams,
    FeasibleBox,
    Point3,
    Scenario,
    UE,
    build_spheres,
    enumerate_zones,
    minimal_zone_cover,
)

params = ChannelParams()

cluster_a = [(40.0, 40.0), (70.0, 40.0), (40.0, 70.0), (70.0, 70.0)]
cluster_b = [(840.0, 840.0), (870.0, 840.0), (855.0, 870.0)]
scenario = Scenario(
    label="two-clusters",
    seed=1,
    venue=FeasibleBox(x=(0.0, 900.0), y=(0.0, 900.0), z=(10.0, 100.0)),
    ues=tuple(UE(Point3(x, y, 0.0), demand_bps=26e6) for x, y in cluster_a + cluster_b),
    bandwidth_policy="fixed",
)

spheres = build_spheres(scenario, params)
print(f"{len(spheres)} users, service radius {spheres.radii[0]:.1f} m each\n")

zones = enumerate_zones(spheres, scenario.venue)
print("candidate zones (maximal member sets with an in-box witness):")
for z in zones:
    w = z.witness
    print(f"  members {z.members}  witness ({w.x:.1f}, {w.y:.1f}, {w.z:.1f})  "
          f"slack {z.slack:.1f} m")

cover = minimal_zone_cover(zones, len(scenario.ues), len(scenario.ues))
print(f"\nminimum cover: {len(cover)} zones")
for z in cover:
    print(f"  serve {z.members} from one UAV near "
          f"({z.witness.x:.1f}, {z.witness.y:.1f}, {z.witness.z:.1f})")
