"""
Playbooks against the simulator
===============================

Parse a remediation playbook, grade its structure, screen it for unsafe
operations, and execute it twice: once on a hot cluster (the conditional
scale fires) and once on a cool one (it skips).
"""

from remlab import cluster, playbook
from remlab.topology import parse_topology

CPU_SCALE = """\
---
- name: Mitigate high CPU load
  hosts: microservice_nodes
  become: yes
  tasks:
    - name: Check CPU usage
      shell: "top -bn1 | awk -F'[, ]+' '/Cpu/{print $3+$5}'"
      register: cpu

    - name: Scale service if CPU > 80%
      shell: kubectl scale deploy my-service --replicas=4
      when: cpu.stdout | float > 80

    - name: Notify monitoring
      shell: "curl http://monitor/api/notify -d 'scaled'"
"""

pb = playbook.parse_playbook(CPU_SCALE)
print(f"parsed {len(pb.plays)} play(s), {len(pb.tasks)} tasks")

struct = playbook.check_structure(CPU_SCALE)
print(f"r_struct = {struct.r_struct:.2f}  checks: "
      + ", ".join(f"{k}={'y' if v else 'N'}" for k, v in struct.checks.items()))

constraints = playbook.SafetyConstraints(all_services=("my-service",))
safety = playbook.check_safety(pb, constraints)
print(f"unsafe = {safety.unsafe} (rules: {list(safety.matched_rules) or 'none'})")

# a destructive playbook trips the penalizer
bad = playbook.parse_playbook("- name: p\n  hosts: all\n  tasks:\n    - {name: nuke, shell: rm -rf /}\n")
print("destructive variant unsafe =", playbook.check_safety(bad, constraints).matched_rules)

topo = parse_topology(
    """
name: demo
services:
  - name: my-service
    replicas: 2
    baseline: {cpu_pct: 25.0, mem_pct: 40.0, io_await_ms: 5.0}
"""
)

print("\nhot cluster (cpu 85%):")
hot = cluster.load_topology(topo, seed=3)
hot.pod_metrics[:, 0] = 85.0  # cpu_pct of every pod
trace = playbook.execute(pb, hot)
for result in trace.results:
    print(f"  {result.task_name:28s} -> {result.status.value:8s} {result.stdout}")
print(f"  replicas now: {len(hot.service_rows('my-service'))}, r_exec = {playbook.r_exec(trace):.2f}")

print("\ncool cluster (cpu 40%):")
cool = cluster.load_topology(topo, seed=3)
cool.pod_metrics[:, 0] = 40.0  # cpu_pct of every pod
trace = playbook.execute(pb, cool)
for result in trace.results:
    print(f"  {result.task_name:28s} -> {result.status.value}")
print(f"  replicas still: {len(cool.service_rows('my-service'))}")
