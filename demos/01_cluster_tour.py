"""
A tour of the simulated cluster
===============================

Boot a five-service topology, read its state through probes, and watch a
CPU stress perturbation drag a metric toward its setpoint and relax back.
"""

from remlab import cluster
from remlab.cluster import PerturbationKind, RemovePerturbation
from remlab.topology import bundled_topology

# Boot. One Running pod per declared replica, metrics at baseline, clock 0.
topo = bundled_topology("simple-micro")
state = cluster.load_topology(topo, seed=7)
print(f"booted {topo.name}: {len(state.pods)} pods, {len(topo.links)} links")
print("digest:", cluster.digest(state))

# Probes are pure reads: the digest is identical before and after.
print()
print(cluster.observe(state, cluster.pod_metrics_query("orders")).text)
print()
print(cluster.observe(state, cluster.link_stats_query("frontend", "gateway")).text)

# Inject a CPU stress perturbation by hand (the fault engine usually does
# this) and step the clock: the metric relaxes toward the 95% setpoint.
cluster.add_perturbation(state, PerturbationKind.CPU_STRESS, "orders", 95.0)
print("\nstressing orders:")
for step_no in range(12):
    cluster.step(state, 1000)
    if step_no % 3 == 2:
        cpu = max(state.pod_metrics[row, 0] for row in state.service_rows("orders"))
        print(f"  t={state.clock_ms/1000:4.0f}s  max cpu = {cpu:5.1f}%")

# Remove the cause; the load drains gradually (first-order relaxation).
cluster.apply(state, RemovePerturbation(PerturbationKind.CPU_STRESS, "orders"))
print("stress removed; relaxing back:")
for step_no in range(30):
    cluster.step(state, 1000)
    if step_no % 10 == 9:
        cpu = max(state.pod_metrics[row, 0] for row in state.service_rows("orders"))
        print(f"  t={state.clock_ms/1000:4.0f}s  max cpu = {cpu:5.1f}%")

# Determinism: the same topology, seed, and operations reproduce the digest.
replay = cluster.load_topology(topo, seed=7)
cluster.add_perturbation(replay, PerturbationKind.CPU_STRESS, "orders", 95.0)
for _ in range(12):
    cluster.step(replay, 1000)
cluster.apply(replay, RemovePerturbation(PerturbationKind.CPU_STRESS, "orders"))
for _ in range(30):
    cluster.step(replay, 1000)
print("\nsame operations, same digest:", cluster.digest(replay) == cluster.digest(state))
