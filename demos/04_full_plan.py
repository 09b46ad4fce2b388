"""End-to-end deployment planning with independent validation.

Plans a 500 m venue where no single in-box position can serve every user:
the planner covers what it can with one zone, detects the unmet demands
after swarm refinement, splits geometrically, and re-optimizes until the
validator signs off on every constraint.
"""
from uavplan import (
    ChannelParams,
    evaluate_throughput,
    generate_scenario,
    plan_deployment,
    validate_deployment,
)
from uavplan.scenario import demand_satisfaction_ratio

params = ChannelParams()
scenario = generate_scenario("B", 4, seed=5)   # 500 m venue, 20 users
print(f"{len(scenario.ues)} users in a 500 m venue, "
      f"{scenario.ues[0].demand_bps / 1e6:.1f} Mbit/s each, "
      f"altitude band {scenario.venue.z} m")

deployment = plan_deployment(scenario, params)
print(f"\nplanned {deployment.uav_count} UAV(s):")
for k, (x, y, z) in enumerate(deployment.uav_positions):
    served = int(deployment.association.z[:, k].sum())
    print(f"  UAV {k}: ({x:.1f}, {y:.1f}, {z:.1f})  serving {served} users")

report = validate_deployment(deployment, scenario, params)
print("\nindependent constraint check:")
for c in report.checks:
    print(f"  {c.name:<20} residual {c.residual:> .3e}  "
          f"{'ok' if c.passed else 'VIOLATED'}")

aggregate, delivered = evaluate_throughput(deployment, scenario, params)
print(f"\naggregate throughput {aggregate / 1e6:.1f} Mbit/s, "
      f"demand satisfaction {demand_satisfaction_ratio(delivered, scenario):.2f}")
