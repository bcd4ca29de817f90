import pytest

from remlab import yamlio
from remlab.errors import TopologyError
from remlab.topology import (
    BUNDLED_TOPOLOGIES,
    bundled_topology,
    parse_topology,
    summarize,
)


def test_minimal_topology():
    topo = parse_topology("name: t\nservices: [{name: a, replicas: 1}]\n")
    assert list(topo.services) == ["a"]
    assert topo.service("a").desired_replicas == 1


def test_duplicate_service_rejected():
    with pytest.raises(TopologyError, match="duplicate service"):
        parse_topology("name: t\nservices: [{name: a}, {name: a}]\n")


def test_undeclared_dependency_rejected():
    with pytest.raises(TopologyError, match="undeclared"):
        parse_topology("name: t\nservices: [{name: a, dependencies: [ghost]}]\n")


def test_dependency_cycle_rejected():
    with pytest.raises(TopologyError, match="cycle"):
        parse_topology(
            "name: t\n"
            "services:\n"
            "  - {name: a, dependencies: [b]}\n"
            "  - {name: b, dependencies: [a]}\n"
        )


def test_replicas_below_one_rejected():
    with pytest.raises(TopologyError, match="replicas"):
        parse_topology("name: t\nservices: [{name: a, replicas: 0}]\n")


def test_self_dependency_rejected():
    with pytest.raises(TopologyError):
        parse_topology("name: t\nservices: [{name: a, dependencies: [a]}]\n")


def test_duplicate_link_rejected():
    with pytest.raises(TopologyError, match="duplicate link"):
        parse_topology(
            "name: t\n"
            "services: [{name: a}, {name: b}]\n"
            "links: [{src: a, dst: b}, {src: a, dst: b}]\n"
        )


def test_link_must_connect_distinct_services():
    with pytest.raises(TopologyError, match="distinct"):
        parse_topology("name: t\nservices: [{name: a}]\nlinks: [{src: a, dst: a}]\n")


@pytest.mark.parametrize("name,expected_services", [
    ("simple-micro", 5),
    ("boutique-like", 10),
    ("ticket-like", 15),
])
def test_bundled_topologies_load(name, expected_services):
    topo = bundled_topology(name)
    assert len(topo.services) == expected_services
    # every link mirrors a declared dependency direction or is at least valid
    for link in topo.links:
        assert link.src in topo.services and link.dst in topo.services


@pytest.mark.parametrize(
    "text",
    ["name: t\nborn: 2020-02-30\n", "name: t\ud800\n", "[" * 2000 + "]" * 2000, "name: [unclosed\n"],
    ids=["impossible-date", "lone-surrogate", "nested-2000", "malformed"],
)
def test_any_load_failure_is_a_topology_error(text):
    with pytest.raises(TopologyError):
        parse_topology(text)


def test_bundled_names_are_exactly_three():
    assert BUNDLED_TOPOLOGIES == ("simple-micro", "boutique-like", "ticket-like")


def test_summary_hides_config_values_by_default(simple_micro):
    text = summarize(simple_micro)
    assert "db_url" in text
    assert "postgres://" not in text
    with_values = summarize(simple_micro, include_config_values=True)
    assert "postgres://" in with_values


def test_adjacency(simple_micro):
    assert simple_micro.adjacent("frontend", "gateway")
    assert simple_micro.adjacent("gateway", "frontend")
    assert not simple_micro.adjacent("frontend", "datastore")


def _doc(service=None, link=None, **top):
    """A one-link topology document with one field of the first service, of the
    link, or of the document itself replaced."""
    doc = {
        "name": "t",
        "services": [{"name": "a", **(service or {})}, {"name": "b"}],
        "links": [{"src": "a", "dst": "b", **(link or {})}],
    }
    doc.update(top)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_doc(name=""), "non-empty 'name'"),
        (_doc(name=7), "non-empty 'name'"),
        (_doc(services=[]), "declares no services"),
        (_doc(services={"a": {}}), "'services' must be a list"),
        (_doc(services=["a"]), "service entry must be a mapping"),
        (_doc(services=[{"replicas": 1}]), "service needs a non-empty 'name'"),
        (_doc(service={"dependencies": "b"}), "dependencies must be a list of names"),
        (_doc(service={"dependencies": [1]}), "dependencies must be a list of names"),
        (_doc(service={"config": ["k"]}), "config must be a mapping"),
        (_doc(service={"baseline": [1.0]}), "baseline must be a mapping"),
        (_doc(service={"baseline": {"cpu_pct": 101.0}}), r"baseline percents must be in \[0,100\]"),
        (_doc(service={"baseline": {"mem_pct": -1.0}}), r"baseline percents must be in \[0,100\]"),
        (_doc(service={"baseline": {"io_await_ms": -0.5}}), "io_await_ms must be >= 0"),
        (_doc(links=["a->b"]), "link entry must be a mapping"),
        (_doc(link={"dst": "ghost"}), "references undeclared service"),
        (_doc(link={"base_latency_ms": -1.0}), "base_latency_ms must be >= 0"),
    ],
)
def test_invalid_document_is_a_topology_error(doc, message):
    with pytest.raises(TopologyError, match=message):
        parse_topology(yamlio.dump(doc))


def test_unknown_bundled_name_lists_the_bundled_ones():
    with pytest.raises(TopologyError, match="available: simple-micro, boutique-like, ticket-like"):
        bundled_topology("mega-micro")
