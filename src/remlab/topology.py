"""Topology documents: the declarative description of a simulated cluster.

A topology file is YAML with two top-level keys::

    name: simple-micro
    services:
      - name: frontend
        replicas: 2
        dependencies: [gateway]
        config:
          request_timeout_ms: "2000"
        baseline: {cpu_pct: 30.0, mem_pct: 45.0, io_await_ms: 4.0}
    links:
      - {src: frontend, dst: gateway, base_latency_ms: 2.0}

Service names must be unique, dependencies must name declared services and
form an acyclic graph, replicas must be >= 1, and links are unique per
ordered (src, dst) pair with src != dst. Three topologies ship with the
package: ``simple-micro`` (5 services), ``boutique-like`` (10 services) and
``ticket-like`` (15 services).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from . import yamlio
from .errors import TopologyError

BUNDLED_TOPOLOGIES = ("simple-micro", "boutique-like", "ticket-like")


@dataclass(frozen=True)
class BaselineProfile:
    """Nominal per-pod metric levels for a healthy service."""

    cpu_pct: float
    mem_pct: float
    io_await_ms: float


@dataclass(frozen=True)
class ServiceSpec:
    name: str
    desired_replicas: int
    dependencies: tuple[str, ...]
    config: Mapping[str, str]
    baseline: BaselineProfile


@dataclass(frozen=True)
class LinkSpec:
    src: str
    dst: str
    base_latency_ms: float


@dataclass(frozen=True)
class Topology:
    """Immutable, shareable description of a cluster layout."""

    name: str
    services: Mapping[str, ServiceSpec]
    links: tuple[LinkSpec, ...]

    def service(self, name: str) -> ServiceSpec:
        return self.services[name]

    def dependency_edges(self) -> tuple[tuple[str, str], ...]:
        """All (service, dependency) edges in declaration order."""
        edges = []
        for spec in self.services.values():
            for dep in spec.dependencies:
                edges.append((spec.name, dep))
        return tuple(edges)

    def adjacent(self, a: str, b: str) -> bool:
        """True when a depends on b or b depends on a."""
        sa, sb = self.services[a], self.services[b]
        return b in sa.dependencies or a in sb.dependencies


def parse_topology(doc: str | Mapping) -> Topology:
    """Parse and validate a topology document (YAML text or mapping).

    Any failure to load the text is a TopologyError. Topology files are the
    operator's own input, so unlike playbook text they are not length-capped.
    """
    if isinstance(doc, str):
        try:
            raw = yamlio.load(doc)
        except Exception as exc:
            raise TopologyError(f"malformed topology YAML: {exc}") from exc
    else:
        raw = doc
    if not isinstance(raw, Mapping):
        raise TopologyError("topology document must be a mapping")

    name = raw.get("name")
    if not name or not isinstance(name, str):
        raise TopologyError("topology needs a non-empty 'name'")

    services: dict[str, ServiceSpec] = {}
    for entry in _require_list(raw, "services"):
        spec = _parse_service(entry)
        if spec.name in services:
            raise TopologyError(f"duplicate service name {spec.name!r}")
        services[spec.name] = spec

    if not services:
        raise TopologyError("topology declares no services")

    for spec in services.values():
        for dep in spec.dependencies:
            if dep not in services:
                raise TopologyError(
                    f"service {spec.name!r} depends on undeclared service {dep!r}"
                )
    _check_acyclic(services)

    links: list[LinkSpec] = []
    seen_pairs: set[tuple[str, str]] = set()
    for entry in raw.get("links") or []:
        link = _parse_link(entry, services)
        pair = (link.src, link.dst)
        if pair in seen_pairs:
            raise TopologyError(f"duplicate link {link.src!r} -> {link.dst!r}")
        seen_pairs.add(pair)
        links.append(link)

    return Topology(name=name, services=services, links=tuple(links))


def bundled_topology(name: str) -> Topology:
    """Load one of the topologies shipped with the package."""
    if name not in BUNDLED_TOPOLOGIES:
        raise TopologyError(
            f"unknown bundled topology {name!r}; available: {', '.join(BUNDLED_TOPOLOGIES)}"
        )
    text = resources.files("remlab.topologies").joinpath(f"{name}.yaml").read_text()
    return parse_topology(text)


def load_topology_doc(name_or_path: str) -> Topology:
    """Resolve a bundled topology name or a path to a topology file."""
    if name_or_path in BUNDLED_TOPOLOGIES:
        return bundled_topology(name_or_path)
    with open(name_or_path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def summarize(topology: Topology, include_config_values: bool = False) -> str:
    """Render a deterministic text summary of a topology.

    Config values are included only on request: summaries embedded in
    failure reports must stay value-free, while the topology probe exposes
    the declared defaults.
    """
    lines = [f"topology {topology.name}: {len(topology.services)} services"]
    for spec in topology.services.values():
        deps = ",".join(spec.dependencies) if spec.dependencies else "-"
        lines.append(
            f"  service {spec.name}: replicas={spec.desired_replicas} depends=[{deps}]"
        )
        for key in sorted(spec.config):
            if include_config_values:
                lines.append(f"    config {key}={spec.config[key]}")
            else:
                lines.append(f"    config {key}")
    for link in topology.links:
        lines.append(
            f"  link {link.src} -> {link.dst}: base_latency={link.base_latency_ms:.2f}ms"
        )
    return "\n".join(lines)


def _require_list(raw: Mapping, key: str) -> list:
    value = raw.get(key)
    if not isinstance(value, list):
        raise TopologyError(f"topology {key!r} must be a list")
    return value


def _parse_service(entry) -> ServiceSpec:
    if not isinstance(entry, Mapping):
        raise TopologyError("service entry must be a mapping")
    name = entry.get("name")
    if not name or not isinstance(name, str):
        raise TopologyError("service needs a non-empty 'name'")
    replicas = entry.get("replicas", 1)
    if not isinstance(replicas, int) or replicas < 1:
        raise TopologyError(f"service {name!r}: replicas must be an int >= 1")
    deps = entry.get("dependencies") or []
    if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
        raise TopologyError(f"service {name!r}: dependencies must be a list of names")
    if name in deps:
        raise TopologyError(f"service {name!r} cannot depend on itself")
    config_raw = entry.get("config") or {}
    if not isinstance(config_raw, Mapping):
        raise TopologyError(f"service {name!r}: config must be a mapping")
    config = {str(k): str(v) for k, v in config_raw.items()}
    baseline = _parse_baseline(name, entry.get("baseline") or {})
    return ServiceSpec(
        name=name,
        desired_replicas=replicas,
        dependencies=tuple(deps),
        config=config,
        baseline=baseline,
    )


def _parse_baseline(service: str, raw) -> BaselineProfile:
    if not isinstance(raw, Mapping):
        raise TopologyError(f"service {service!r}: baseline must be a mapping")
    cpu = float(raw.get("cpu_pct", 25.0))
    mem = float(raw.get("mem_pct", 40.0))
    io = float(raw.get("io_await_ms", 5.0))
    if not (0.0 <= cpu <= 100.0 and 0.0 <= mem <= 100.0):
        raise TopologyError(f"service {service!r}: baseline percents must be in [0,100]")
    if io < 0.0:
        raise TopologyError(f"service {service!r}: baseline io_await_ms must be >= 0")
    return BaselineProfile(cpu_pct=cpu, mem_pct=mem, io_await_ms=io)


def _parse_link(entry, services: Mapping[str, ServiceSpec]) -> LinkSpec:
    if not isinstance(entry, Mapping):
        raise TopologyError("link entry must be a mapping")
    src, dst = entry.get("src"), entry.get("dst")
    if src not in services or dst not in services:
        raise TopologyError(f"link {src!r} -> {dst!r} references undeclared service")
    if src == dst:
        raise TopologyError(f"link {src!r} -> {dst!r} must connect distinct services")
    latency = float(entry.get("base_latency_ms", 1.0))
    if latency < 0:
        raise TopologyError(f"link {src!r} -> {dst!r}: base_latency_ms must be >= 0")
    return LinkSpec(src=src, dst=dst, base_latency_ms=latency)


def _check_acyclic(services: Mapping[str, ServiceSpec]) -> None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in services}

    def visit(node: str, stack: list[str]) -> None:
        color[node] = GRAY
        stack.append(node)
        for dep in services[node].dependencies:
            if color[dep] == GRAY:
                cycle = " -> ".join(stack + [dep])
                raise TopologyError(f"dependency cycle: {cycle}")
            if color[dep] == WHITE:
                visit(dep, stack)
        stack.pop()
        color[node] = BLACK

    for name in services:
        if color[name] == WHITE:
            visit(name, [])
