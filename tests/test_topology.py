import pytest

from remlab.errors import TopologyError
from remlab.topology import (
    BUNDLED_TOPOLOGIES,
    bundled_topology,
    parse_topology,
    summarize,
)


def test_minimal_topology():
    topo = parse_topology({"name": "t", "services": [{"name": "a", "replicas": 1}]})
    assert list(topo.services) == ["a"]
    assert topo.service("a").desired_replicas == 1


def test_duplicate_service_rejected():
    with pytest.raises(TopologyError, match="duplicate service"):
        parse_topology(
            {"name": "t", "services": [{"name": "a"}, {"name": "a"}]}
        )


def test_undeclared_dependency_rejected():
    with pytest.raises(TopologyError, match="undeclared"):
        parse_topology(
            {"name": "t", "services": [{"name": "a", "dependencies": ["ghost"]}]}
        )


def test_dependency_cycle_rejected():
    with pytest.raises(TopologyError, match="cycle"):
        parse_topology(
            {
                "name": "t",
                "services": [
                    {"name": "a", "dependencies": ["b"]},
                    {"name": "b", "dependencies": ["a"]},
                ],
            }
        )


def test_replicas_below_one_rejected():
    with pytest.raises(TopologyError, match="replicas"):
        parse_topology({"name": "t", "services": [{"name": "a", "replicas": 0}]})


def test_self_dependency_rejected():
    with pytest.raises(TopologyError):
        parse_topology({"name": "t", "services": [{"name": "a", "dependencies": ["a"]}]})


def test_duplicate_link_rejected():
    with pytest.raises(TopologyError, match="duplicate link"):
        parse_topology(
            {
                "name": "t",
                "services": [{"name": "a"}, {"name": "b"}],
                "links": [{"src": "a", "dst": "b"}, {"src": "a", "dst": "b"}],
            }
        )


def test_link_must_connect_distinct_services():
    with pytest.raises(TopologyError, match="distinct"):
        parse_topology(
            {
                "name": "t",
                "services": [{"name": "a"}],
                "links": [{"src": "a", "dst": "a"}],
            }
        )


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
