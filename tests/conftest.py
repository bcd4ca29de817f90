import pytest
from hypothesis import settings

from remlab import cluster
from remlab.policies import build_default_library
from remlab.topology import bundled_topology

# Fixed examples, for the line-reach gate (tests/reach.py): the lines a run
# reaches must not depend on which examples hypothesis happens to draw.
settings.register_profile("derandomize", derandomize=True)


@pytest.fixture(scope="session")
def simple_micro():
    return bundled_topology("simple-micro")


@pytest.fixture(scope="session")
def library(simple_micro):
    return build_default_library(simple_micro)


@pytest.fixture
def state(simple_micro):
    return cluster.load_topology(simple_micro, seed=7)


# The cpu-scaling playbook used across the parser/execution tests: check a
# registered cpu reading, scale a deployment when it exceeds 80, notify.
CPU_SCALE_PLAYBOOK = """\
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


@pytest.fixture(scope="session")
def cpu_scale_playbook_text():
    return CPU_SCALE_PLAYBOOK


@pytest.fixture
def one_service_state():
    from remlab.topology import parse_topology

    topo = parse_topology(
        """
name: demo
services:
  - name: my-service
    replicas: 2
    config: {mode: fast}
    baseline: {cpu_pct: 25.0, mem_pct: 40.0, io_await_ms: 5.0}
"""
    )
    return cluster.load_topology(topo, seed=3)
