"""Placing one UAV inside a candidate zone.

The geometric witness only certifies that the zone is nonempty; it usually
sits at the altitude floor where link quality is poor. Every feasible
position scores the members' summed demand, so the first feasible point
found is the answer. The witness is tried first, then the witness raised
to the ceiling, where reach is longest, then the first served probe of a
branch and bound over the flight box, which proves a zone that no point
serves. A particle swarm is seeded only for a zone on which that search
gives up. Here the witness misses demands, but the point above it at the
ceiling serves every member, so the placement stops after 0 iterations
there, with no particle seeded.
"""
from uavplan import (
    ChannelParams,
    SwarmConfig,
    build_spheres,
    enumerate_zones,
    fitness,
    generate_scenario,
    optimize_position,
)

params = ChannelParams()
scenario = generate_scenario("B", 2, seed=4)   # 300 m venue, 20 users, 6.5 Mbit/s

spheres = build_spheres(scenario, params)
zones = enumerate_zones(spheres, scenario.venue)
zone = zones[0]
print(f"zone with {len(zone.members)} members, witness at "
      f"({zone.witness.x:.1f}, {zone.witness.y:.1f}, {zone.witness.z:.1f})")

value, feasible = fitness(zone.witness, zone, scenario, params)
print(f"fitness at witness: {value / 1e6:.1f} Mbit/s, feasible={feasible}\n")

sol = optimize_position(zone, scenario, params, SwarmConfig())

print("iteration  best fitness (Mbit/s)")
last = None
for it, val, _pos in sol.trace:
    if val != last:
        print(f"{it:>9}  {val / 1e6:>12.1f}")
        last = val
x, y, z = sol.uav_position
print(f"\nfinal position ({x:.1f}, {y:.1f}, {z:.1f}), feasible={sol.feasible}, "
      f"stopped after {sol.iterations} iterations")
print("per-user allocation (first 5):")
for ue, bw, rate in zip(sol.ue_indices[:5], sol.bandwidth_hz, sol.rate_bps):
    print(f"  UE {ue}: {bw / 1e6:.2f} MHz -> {rate / 1e6:.1f} Mbit/s")
