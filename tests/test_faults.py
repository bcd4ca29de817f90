import json

import pytest
from hypothesis import example, given, settings, strategies as st

from remlab import cluster, faults, loop, playbook
from remlab.cluster import (
    ClearLinkShaping,
    KillProcess,
    PerturbationKind,
    PodPhase,
    RemovePerturbation,
    RestartPod,
    RestartService,
    SetConfig,
)
from remlab.errors import (
    InjectionError,
    LineageError,
    NotFoundError,
    SuiteGenerationError,
)
from remlab.faults import (
    CORRUPT_VALUE,
    FailureSpec,
    FailureType,
    SUITE_SIZES,
    build_aux,
    composite_report,
    gen_suite,
    inject,
    make_report,
    oracle_verify,
    report_faults,
    restore,
    suite_from_jsonl,
    suite_to_jsonl,
)
from remlab.playbook import Play, Playbook, TaskDef
from remlab.policies import (
    CONTEXT_CLASSES,
    HistoryItem,
    PolicyInput,
    classify_context,
    context_probes,
)
from remlab.topology import BUNDLED_TOPOLOGIES, bundled_topology

ALL_TYPES = list(FailureType)


def _target_for(topo, ftype):
    return faults.candidate_targets(topo, ftype)[0]


# --- inject ---------------------------------------------------------------------


def test_inject_cpu_converges(state):
    record = inject(state, FailureSpec(FailureType.CPU_SATURATION, "orders", 95.0))
    assert record.handles
    for _ in range(50):
        cluster.step(state, 1000)
    assert all(p.cpu_pct >= 90.0 for p in state.service_pods("orders"))


def test_inject_config_error_saves_original(state):
    record = inject(state, FailureSpec(FailureType.CONFIG_ERROR, "orders", 0.0))
    assert record.handles == ()
    assert record.original_values == {"db_url": "postgres://orders-db:5432/orders"}
    cluster.step(state, 1000)
    assert all(p.phase == PodPhase.CRASH_LOOP for p in state.service_pods("orders"))


def test_inject_unknown_target(state):
    with pytest.raises(NotFoundError):
        inject(state, FailureSpec(FailureType.CPU_SATURATION, "ghost"))
    with pytest.raises(NotFoundError):
        inject(state, FailureSpec(FailureType.NETWORK_DELAY, "frontend->datastore"))


def test_inject_duplicate_rejected(state):
    inject(state, FailureSpec(FailureType.MEMORY_SATURATION, "gateway"))
    with pytest.raises(InjectionError, match="active injection"):
        inject(state, FailureSpec(FailureType.MEMORY_SATURATION, "gateway"))


def test_inject_magnitude_out_of_range(state):
    with pytest.raises(InjectionError, match="out of range"):
        inject(state, FailureSpec(FailureType.CPU_SATURATION, "orders", 200.0))


def test_pod_failure_marks_first_running_pod(state):
    inject(state, FailureSpec(FailureType.POD_FAILURE, "frontend", 1.0))
    pods = state.service_pods("frontend")
    assert pods[0].phase == PodPhase.CRASH_LOOP
    assert pods[1].phase == PodPhase.RUNNING


# --- reports --------------------------------------------------------------------


def test_report_contains_target_and_label(state, simple_micro):
    aux = build_aux(simple_micro)
    record = inject(state, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    report = make_report(record, aux)
    assert "orders" in report.description
    assert "CPU Saturation" in report.description


def test_network_report_names_both_endpoints(state, simple_micro):
    aux = build_aux(simple_micro)
    record = inject(state, FailureSpec(FailureType.NETWORK_DELAY, "frontend->gateway"))
    report = make_report(record, aux)
    assert "frontend" in report.description and "gateway" in report.description


def test_report_is_deterministic(state, simple_micro):
    aux = build_aux(simple_micro)
    record = inject(state, FailureSpec(FailureType.IO_SATURATION, "datastore"))
    assert make_report(record, aux).description == make_report(record, aux).description


def test_report_hygiene_no_handles_or_originals(state, simple_micro):
    aux = build_aux(simple_micro)
    records = [
        inject(state, FailureSpec(FailureType.CPU_SATURATION, "orders")),
        inject(state, FailureSpec(FailureType.CONFIG_ERROR, "gateway", 0.0)),
    ]
    reports = [make_report(r, aux) for r in records]
    blob = json.dumps(
        [
            {
                "target": r.target_service,
                "type": r.failure_type,
                "description": r.description,
                "aux": {
                    "environment_summary": r.aux_context.environment_summary,
                    "constraints": list(r.aux_context.action_constraints),
                    "probes": list(r.aux_context.probe_catalog),
                },
            }
            for r in reports
        ]
    )
    for record in records:
        for handle in record.handles:
            assert handle not in blob
        for original in record.original_values.values():
            assert original not in blob


def test_composite_report_joins_fields(state, simple_micro):
    aux = build_aux(simple_micro)
    r1 = make_report(inject(state, FailureSpec(FailureType.CPU_SATURATION, "orders")), aux)
    r2 = make_report(inject(state, FailureSpec(FailureType.POD_FAILURE, "frontend")), aux)
    combined = composite_report([r1, r2])
    assert combined.target_service == "orders,frontend"
    pairs = report_faults(combined)
    assert pairs == [
        (FailureType.CPU_SATURATION, "orders"),
        (FailureType.POD_FAILURE, "frontend"),
    ]


# --- oracle and restore ------------------------------------------------------------


@pytest.mark.parametrize("ftype", ALL_TYPES)
def test_oracle_false_after_inject_true_after_restore(simple_micro, ftype):
    state = cluster.load_topology(simple_micro, seed=11)
    record = inject(state, FailureSpec(ftype, _target_for(simple_micro, ftype)))
    assert oracle_verify(state, record) is False
    restore(state, record)
    assert oracle_verify(state, record) is True


def test_oracle_after_remove_and_settle(state):
    record = inject(state, FailureSpec(FailureType.CPU_SATURATION, "orders", 95.0))
    for _ in range(20):
        cluster.step(state, 1000)  # let the stressed metric climb
    cluster.apply(
        state, cluster.RemovePerturbation(PerturbationKind.CPU_STRESS, "orders")
    )
    assert oracle_verify(state, record) is False  # cause gone, metrics not settled yet
    for _ in range(50):
        cluster.step(state, 1000)
    assert oracle_verify(state, record) is True


def test_oracle_requires_running_phase(state):
    record = inject(state, FailureSpec(FailureType.POD_FAILURE, "frontend"))
    cluster.apply(
        state, cluster.RemovePerturbation(PerturbationKind.POD_KILL, "frontend")
    )
    # cause gone, but the pod was left in CrashLoop
    assert oracle_verify(state, record) is False
    cluster.apply(state, cluster.RestartService("frontend"))
    assert oracle_verify(state, record) is True


def test_restore_is_idempotent(state):
    record = inject(state, FailureSpec(FailureType.NETWORK_LOSS, "orders->inventory"))
    restore(state, record)
    first = cluster.digest(state)
    restore(state, record)
    assert cluster.digest(state) == first


def test_restore_inject_is_identity_modulo_clock_and_restarts(simple_micro):
    for ftype in ALL_TYPES:
        state = cluster.load_topology(simple_micro, seed=3)
        before = _doc_modulo_clock_and_restarts(state)
        record = inject(state, FailureSpec(ftype, _target_for(simple_micro, ftype)))
        restore(state, record)
        assert _doc_modulo_clock_and_restarts(state) == before, ftype


def _doc_modulo_clock_and_restarts(state):
    doc = cluster.state_doc(state)
    del doc["clock_ms"]
    doc["pods"] = [[*pod[:-1], None] for pod in doc["pods"]]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _act(state, kind, which):
    """Apply one remediation action that leaves every service's replica count alone."""
    services = list(state.topology.services)
    svc = services[which % len(services)]
    if kind == 0:
        cluster.apply(state, RestartPod(state.pods[which % len(state.pods)].pod_id))
    elif kind == 1:
        cluster.apply(state, RestartService(svc))
    elif kind == 2:
        declared = state.topology.service(svc).config
        if declared:
            key = sorted(declared)[which % len(declared)]
            cluster.apply(state, SetConfig(svc, key, declared[key] if which % 2 else "zz"))
    elif kind == 3:
        if state.process_table:
            handles = sorted(state.process_table)
            cluster.apply(state, KillProcess(handles[which % len(handles)]))
    elif kind == 4:
        link = state.links[which % len(state.links)]
        cluster.apply(state, ClearLinkShaping(link.src, link.dst))
    elif state.perturbations:
        pert = state.perturbations[which % len(state.perturbations)]
        cluster.apply(state, RemovePerturbation(pert.kind, pert.target))


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(BUNDLED_TOPOLOGIES),
    seed=st.integers(0, 2**32 - 1),
    injected=st.lists(
        st.tuples(st.sampled_from(ALL_TYPES), st.integers(0, 40), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=3,
    ),
    # Each operation is a step of dt_ms, or (action kind, which) for _act.
    ops=st.lists(
        st.one_of(st.sampled_from([500, 1000, 3000]), st.tuples(st.integers(0, 5), st.integers(0, 40))),
        max_size=25,
    ),
)
def test_restore_of_every_record_satisfies_every_oracle(name, seed, injected, ops):
    """Whatever a policy did in between, restoring every record leaves every oracle true.

    Scaling is left out on purpose: restore undoes the injection, not the
    policy's actions, so a service the policy scaled to 0 stays without pods
    and its oracle stays False.
    """
    topo = bundled_topology(name)
    state = cluster.load_topology(topo, seed=seed)
    records = []
    for ftype, which, fraction in injected:
        targets = faults.candidate_targets(topo, ftype)
        lo, hi = faults.ROW_OF[ftype].magnitude_range
        spec = FailureSpec(ftype, targets[which % len(targets)], lo + fraction * (hi - lo))
        try:
            records.append(inject(state, spec))
        except InjectionError:  # that fault is already active on that target
            continue
    for op in ops:
        if isinstance(op, int):
            cluster.step(state, op)
        else:
            _act(state, *op)
    for record in records:
        restore(state, record)
    assert all(oracle_verify(state, record) for record in records)


def test_restore_on_foreign_record_raises(state, simple_micro):
    other = cluster.load_topology(simple_micro, seed=99)
    record = inject(other, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    with pytest.raises(LineageError):
        restore(state, record)
    with pytest.raises(LineageError):
        oracle_verify(state, record)


# --- one recovery rule -------------------------------------------------------------
# The three recovery checks that cluster.nominal replaced, kept as references.


def _ref_oracle_verify(state, record):
    faults._check_lineage(state, record)
    spec = record.spec

    if spec.ftype == FailureType.CONFIG_ERROR:
        for key, original in record.original_values.items():
            if state.config_store.get((spec.target, key)) != original:
                return False
        return _ref_pods_running(state, spec.target)

    kind = spec.row.kind
    if state.active(kind, spec.target):
        return False

    if spec.ftype in faults.NETWORK_TYPES:
        link = state.find_link(*cluster.split_link_key(spec.target))
        return link is not None and cluster.in_band(getattr(link, cluster.METRIC_OF[kind].name), 0.0)

    if not _ref_pods_running(state, spec.target):
        return False
    if kind not in cluster.METRIC_OF:  # pod_kill
        return True
    metric = cluster.METRIC_OF[kind].name
    baseline = getattr(state.topology.service(spec.target).baseline, metric)
    return all(cluster.in_band(getattr(p, metric), baseline) for p in state.service_pods(spec.target))


def _ref_pods_running(state, service):
    pods = state.service_pods(service)
    return bool(pods) and all(p.phase == PodPhase.RUNNING for p in pods)


def _ref_target_nominal(state, target):
    if "->" in target:
        link = state.find_link(*cluster.split_link_key(target))
        if link is None:
            raise NotFoundError(f"unknown link {target!r}")
        return cluster.in_band(link.added_delay_ms, 0.0) and cluster.in_band(link.loss_pct, 0.0)
    if target not in state.topology.services:
        raise NotFoundError(f"unknown service {target!r}")
    baseline = state.topology.service(target).baseline
    pods = state.service_pods(target)
    if not pods:
        return False
    for pod in pods:
        if pod.phase != PodPhase.RUNNING or not (
            cluster.in_band(pod.cpu_pct, baseline.cpu_pct)
            and cluster.in_band(pod.mem_pct, baseline.mem_pct)
            and cluster.in_band(pod.io_await_ms, baseline.io_await_ms)
        ):
            return False
    return True


def _ref_classify_context(inp, topology):
    ftype, target = report_faults(inp.report)[0]
    named = cluster.target_services(target)
    deps = set(topology.service(named[0]).dependencies)
    target_degraded = False
    dependency_degraded = False
    for item in inp.history:
        if item.kind != "probe_result" or not item.payload:
            continue
        payload = item.payload
        if "pods" in payload and payload.get("service"):
            degraded = _ref_pods_degraded(payload, topology)
            if payload["service"] in named:
                target_degraded = target_degraded or degraded
            elif payload["service"] in deps:
                dependency_degraded = dependency_degraded or degraded
        elif "loss_pct" in payload:
            if {payload.get("src"), payload.get("dst")}.intersection(named):
                band = cluster.RECOVERY_BAND
                if payload["loss_pct"] > band or payload["added_delay_ms"] > band:
                    target_degraded = True
    return (ftype, target_degraded, dependency_degraded)


def _ref_pods_degraded(payload, topology):
    service = payload["service"]
    if service not in topology.services:
        return False
    baseline = topology.service(service).baseline
    band = cluster.RECOVERY_BAND
    for pod in payload["pods"]:
        if pod.get("phase") != "Running":
            return True
        if "cpu_pct" not in pod:
            continue
        if (
            abs(pod["cpu_pct"] - baseline.cpu_pct) > band
            or abs(pod["mem_pct"] - baseline.mem_pct) > band
            or abs(pod["io_await_ms"] - baseline.io_await_ms) > band
        ):
            return True
    return False


def _pick(items, focus, which):
    """An item of ``focus`` for even ``which``, when there is one, else of ``items``."""
    pool = focus if focus and which % 2 == 0 else items
    return pool[which // 2 % len(pool)] if pool else None


def _catalog_command(state, records, op, which):
    """One remediation command of kind ``op``. Even ``which`` aims it at what
    the faults touched: a crashed pod, a faulted service or a faulted link."""
    named = [svc for r in records for svc in cluster.target_services(r.spec.target)]
    svc = _pick(list(state.topology.services), named, which)
    if op == "delete":
        crashed = [p for p in state.pods if p.phase != PodPhase.RUNNING]
        pod = _pick(state.pods, crashed, which)
        return None if pod is None else f"kubectl delete pod {pod.pod_id}"
    if op == "restart":
        return f"kubectl rollout restart deploy {svc}"
    if op == "scale":
        declared = state.topology.service(svc).desired_replicas
        return f"kubectl scale deploy {svc} --replicas={(0, 1, declared, declared + 1)[which // 2 % 4]}"
    if op == "pkill":
        return f"pkill {_pick(sorted(state.process_table), [], which) or 'cpu_stress-' + svc}"
    if op == "tc":
        shaped = [link for link in state.links if any(r.spec.target == link.key for r in records)]
        link = _pick(state.links, shaped, which)
        return f"tc qdisc del dev {link.src}:{link.dst} {('netem delay', 'netem loss', '')[which % 3]}"
    config = state.topology.service(svc).config
    key = sorted(config)[which % len(config)] if config else "none"
    return f"set-config {svc} {key} {config[key] if config and which % 3 else 'zz'}"


def _assert_recovery_verdicts_agree(state, records, report):
    topology = state.topology
    for record in records:
        assert oracle_verify(state, record) == _ref_oracle_verify(state, record), record.spec
    targets = report.target_service.split(",")
    assert loop.observable_verify(state, report) == all(_ref_target_nominal(state, t) for t in targets)
    assert loop._degraded_targets(state, report) == [
        t for t in targets if not _ref_target_nominal(state, t)
    ]
    inp = PolicyInput(report=report, context=report.aux_context)
    service = cluster.target_services(targets[0])[0]
    for query in (*context_probes(report, topology), cluster.pod_list_query(service)):
        result = cluster.observe(state, query)
        inp.history.append(HistoryItem("probe_result", result.text, dict(result.payload)))
    expected = CONTEXT_CLASSES.index(_ref_classify_context(inp, topology))
    assert classify_context(inp, topology) == expected


_REMEDIES = ("delete", "restart", "scale", "pkill", "tc", "set-config")


# Each example kills one way of writing the rule wrongly: phase-only records
# judged on every metric, a link record judged on both link metrics, and a
# service with no pods taken as nominal.
@example(
    name="simple-micro",
    seed=0,
    injected=[(FailureType.POD_FAILURE, 0, 0.0), (FailureType.CPU_SATURATION, 0, 1.0)],
    ops=[("delete", 0)],
)
@example(
    name="simple-micro",
    seed=0,
    injected=[(FailureType.NETWORK_DELAY, 0, 0.5), (FailureType.NETWORK_LOSS, 0, 0.5)],
    ops=[("tc", 0)],
)
@example(
    name="simple-micro",
    seed=0,
    injected=[(FailureType.CPU_SATURATION, 0, 1.0)],
    ops=[("pkill", 0), ("scale", 0)],
)
@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(BUNDLED_TOPOLOGIES),
    seed=st.integers(0, 3),
    # Few targets, so two kinds often share a service or a link. The fraction
    # places the magnitude in its legal range; at 0 a pod kill takes one pod.
    injected=st.lists(
        st.tuples(
            st.sampled_from(ALL_TYPES),
            st.integers(0, 1),
            st.sampled_from([0.0, 0.5, 1.0]),
        ),
        min_size=1,
        max_size=3,
    ),
    # Each operation is a step of dt_ms, or (op, which) for _catalog_command.
    ops=st.lists(
        st.one_of(
            st.sampled_from([500, 1000, 3000]),
            st.tuples(st.sampled_from(_REMEDIES), st.integers(0, 40)),
        ),
        max_size=12,
    ),
)
def test_one_recovery_rule_matches_the_three_it_replaced(name, seed, injected, ops):
    topology = bundled_topology(name)
    state = cluster.load_topology(topology, seed=seed)
    records = []
    for ftype, which, fraction in injected:
        targets = faults.candidate_targets(topology, ftype)
        lo, hi = faults.ROW_OF[ftype].magnitude_range
        spec = FailureSpec(ftype, targets[which % len(targets)], lo + fraction * (hi - lo))
        try:
            records.append(inject(state, spec))
        except InjectionError:  # that fault is already active on that target
            continue
    for _ in range(5):
        cluster.step(state, 1000)
    report = composite_report([make_report(r, build_aux(topology)) for r in records])
    _assert_recovery_verdicts_agree(state, records, report)
    for op in ops:
        if isinstance(op, int):
            cluster.step(state, op)
        elif (command := _catalog_command(state, records, *op)) is not None:
            task = TaskDef(name="t", action="shell", command=command)
            playbook.execute(Playbook(plays=(Play("p", "all", False, (task,)),)), state)
        _assert_recovery_verdicts_agree(state, records, report)

# --- suites ----------------------------------------------------------------------


@pytest.mark.parametrize("difficulty", ["easy", "medium", "hard"])
@pytest.mark.parametrize("topo_name", ["simple-micro", "boutique-like", "ticket-like"])
def test_suite_sizes_exact(topo_name, difficulty):
    topo = bundled_topology(topo_name)
    suite = gen_suite(topo, difficulty, seed=1)
    assert len(suite) == SUITE_SIZES[difficulty]


def _coupled(topology, a, b):
    """Whether a service of ``a``'s target depends on, or is a dependency of, one of ``b``'s."""
    sa, sb = cluster.target_services(a.target), cluster.target_services(b.target)
    return any(x != y and topology.adjacent(x, y) for x in sa for y in sb)


def test_suite_composition_rules(simple_micro):
    easy = gen_suite(simple_micro, "easy", seed=1)
    assert all(len(s.faults) == 1 for s in easy)

    medium = gen_suite(simple_micro, "medium", seed=1)
    for s in medium:
        assert len(s.faults) == 2
        assert faults._independent(simple_micro, s.faults[0], s.faults[1])

    hard = gen_suite(simple_micro, "hard", seed=1)
    for s in hard:
        assert 2 <= len(s.faults) <= 3
        assert any(
            _coupled(simple_micro, a, b)
            for i, a in enumerate(s.faults)
            for b in s.faults[i + 1 :]
        )


def test_suite_covers_all_failure_types(simple_micro):
    for difficulty in ("easy", "medium", "hard"):
        suite = gen_suite(simple_micro, difficulty, seed=1)
        seen = {f.ftype for s in suite for f in s.faults}
        assert seen == set(FailureType)


def test_suite_deterministic_and_seed_sensitive(simple_micro):
    a = gen_suite(simple_micro, "medium", seed=1)
    b = gen_suite(simple_micro, "medium", seed=1)
    c = gen_suite(simple_micro, "medium", seed=2)
    assert a == b
    assert a != c


def test_suite_scenarios_have_distinct_targets_per_scenario(simple_micro):
    for difficulty in ("medium", "hard"):
        for scenario in gen_suite(simple_micro, difficulty, seed=1):
            seen: set[str] = set()
            for fault in scenario.faults:
                assert fault.target not in seen
                seen.add(fault.target)


def test_suite_too_small_topology():
    from remlab.topology import parse_topology

    topo = parse_topology(
        {"name": "tiny", "services": [{"name": "a", "config": {"k": "v"}}]}
    )
    with pytest.raises(SuiteGenerationError):
        gen_suite(topo, "medium", seed=1)
    with pytest.raises(SuiteGenerationError):
        gen_suite(topo, "hard", seed=1)
    # easy still impossible: no links for network faults
    with pytest.raises(SuiteGenerationError):
        gen_suite(topo, "easy", seed=1)


def test_suite_serialization_round_trip(simple_micro):
    suite = gen_suite(simple_micro, "easy", seed=1)
    text = suite_to_jsonl(suite, simple_micro.name)
    assert suite_from_jsonl(text) == suite
    assert suite_to_jsonl(suite, simple_micro.name) == text


def test_all_scenarios_injectable(simple_micro):
    for difficulty in ("easy", "medium", "hard"):
        for scenario in gen_suite(simple_micro, difficulty, seed=1):
            state = cluster.load_topology(simple_micro, seed=5)
            records = [inject(state, spec) for spec in scenario.faults]
            assert len(records) == len(scenario.faults)


def test_corrupt_value_marker_never_matches_declared(simple_micro):
    for spec in simple_micro.services.values():
        for value in spec.config.values():
            assert value != CORRUPT_VALUE
