import pytest
from hypothesis import given, settings, strategies as st

from remlab import cluster, playbook
from remlab.errors import PlaybookParseError
from remlab.playbook import (
    COMMAND_CATALOG,
    Play,
    Playbook,
    SafetyConstraints,
    STRUCT_CHECKS,
    TaskDef,
    TaskStatus,
    check_safety,
    check_structure,
    execute,
    extract_playbook_text,
    match_command,
    parse_playbook,
    r_exec,
    read_proposal,
    render_playbook,
)


# --- parse ---------------------------------------------------------------------


def test_parse_cpu_scale_playbook(cpu_scale_playbook_text):
    pb = parse_playbook(cpu_scale_playbook_text)
    assert len(pb.plays) == 1
    assert len(pb.tasks) == 3
    task2 = pb.plays[0].tasks[1]
    assert task2.when == "cpu.stdout | float > 80"
    assert pb.plays[0].tasks[0].register == "cpu"
    assert pb.plays[0].become is True


def test_parse_empty_document():
    with pytest.raises(PlaybookParseError, match="empty"):
        parse_playbook("")
    with pytest.raises(PlaybookParseError, match="empty"):
        parse_playbook("---\n")


def test_parse_rejects_two_actions():
    text = """
- name: p
  hosts: all
  tasks:
    - name: t
      shell: echo hi
      command: echo hi
"""
    with pytest.raises(PlaybookParseError, match="one action"):
        parse_playbook(text)


def test_parse_rejects_unknown_action_kind():
    text = """
- name: p
  hosts: all
  tasks:
    - name: t
      win_shell: echo hi
"""
    with pytest.raises(PlaybookParseError, match="no recognized action"):
        parse_playbook(text)


def test_parse_rejects_duplicate_register():
    text = """
- name: p
  hosts: all
  tasks:
    - {name: a, shell: echo one, register: x}
    - {name: b, shell: echo two, register: x}
"""
    with pytest.raises(PlaybookParseError, match="duplicate register"):
        parse_playbook(text)


def test_parse_rejects_non_list_root():
    with pytest.raises(PlaybookParseError, match="list of plays"):
        parse_playbook("name: not-a-playbook\n")


@pytest.mark.parametrize("value", ["[a, b]", "{cmd: echo hi}", "null"])
def test_non_scalar_action_is_a_parse_error(value):
    """The executor never runs what the structure grader rejects."""
    text = f"- name: p\n  hosts: all\n  tasks:\n    - name: t\n      shell: {value}\n"
    with pytest.raises(PlaybookParseError, match="shell must be a string or number"):
        parse_playbook(text)
    assert check_structure(text).checks["actions_valid"] is False
    assert read_proposal(text)[0] is None


def test_parse_tolerates_missing_hosts():
    pb = parse_playbook("- name: p\n  tasks:\n    - {name: t, shell: echo hi}\n")
    assert pb.plays[0].hosts is None


# --- render round trip -------------------------------------------------------------

_names = st.text(alphabet="abcdefgh -", min_size=0, max_size=10)
_commands = st.sampled_from(
    [
        "echo hello",
        "kubectl rollout restart deploy orders",
        "kubectl scale deploy orders --replicas=3",
        "get-metrics orders cpu",
        "pkill cpu_stress-orders",
    ]
)


@st.composite
def _playbooks(draw):
    plays = []
    for p in range(draw(st.integers(1, 3))):
        tasks = []
        registers = []
        for t in range(draw(st.integers(1, 4))):
            register = None
            if draw(st.booleans()):
                register = f"r{p}_{t}"
            when = None
            if registers and draw(st.booleans()):
                when = f"{draw(st.sampled_from(registers))} > {draw(st.integers(0, 99))}"
            tasks.append(
                TaskDef(
                    name=draw(_names),
                    action=draw(st.sampled_from(["shell", "command"])),
                    command=draw(_commands),
                    register=register,
                    when=when,
                )
            )
            if register:
                registers.append(register)
        plays.append(
            Play(
                name=draw(_names),
                hosts=draw(st.sampled_from([None, "all", "orders"])),
                become=draw(st.booleans()),
                tasks=tuple(tasks),
            )
        )
    return Playbook(plays=tuple(plays))


@settings(max_examples=60, deadline=None)
@given(pb=_playbooks())
def test_parse_render_round_trip(pb):
    assert parse_playbook(render_playbook(pb)) == pb


def test_extract_fenced_block(cpu_scale_playbook_text):
    wrapped = f"Here is my fix:\n```yaml\n{cpu_scale_playbook_text}```\nGood luck."
    inner = extract_playbook_text(wrapped)
    assert parse_playbook(inner).tasks[0].name == "Check CPU usage"
    assert extract_playbook_text("no fence here") is None


# --- reading a proposal ---------------------------------------------------------------

_VALID = "- name: p\n  hosts: all\n  tasks:\n    - {name: t, shell: echo hi, register: r}\n"


def _read_in_two_passes(text):
    """Reference reader: parse the raw text, else its fenced block, then grade that text."""
    effective = text
    try:
        parsed = parse_playbook(effective)
    except PlaybookParseError:
        parsed = None
        fenced = extract_playbook_text(effective)
        if fenced is not None:
            try:
                parsed = parse_playbook(fenced)
                effective = fenced
            except PlaybookParseError:
                pass
    return parsed, check_structure(effective)


@pytest.mark.parametrize(
    "text",
    [
        _VALID,
        f"Here is the fix:\n```yaml\n{_VALID}```\nIt restarts nothing.",
        "Plan:\n```yaml\n- name: p\n  tasks: [unclosed\n```\n",
        "Plan:\n```yaml\n- name: p\n  hosts: all\n  tasks:\n    - {name: t}\n```\n",
        "I would restart the orders service.",
        "name: not-a-playbook\nhosts: all\n",
        "- name: p\n  hosts: all\n  tasks:\n    - {name: t, register: r}\n",
        "- name: p\n\thosts: all\n",
        "",
    ],
    ids=[
        "raw-valid", "fenced-valid", "fenced-malformed", "fenced-no-action", "prose-no-fence",
        "mapping-root", "task-without-action", "tab-indentation", "empty",
    ],
)
def test_read_proposal_matches_two_pass_reading(text):
    parsed, struct = read_proposal(text)
    ref_parsed, ref_struct = _read_in_two_passes(text)
    assert parsed == ref_parsed
    assert struct == ref_struct


# --- structure ----------------------------------------------------------------------


def test_structure_all_pass(cpu_scale_playbook_text):
    report = check_structure(cpu_scale_playbook_text)
    assert report.r_struct == 1.0
    assert all(report.checks.values())


def test_structure_unparsable_is_zero():
    report = check_structure("not: [valid yaml")
    assert report.r_struct == 0.0
    assert not any(report.checks.values())


def test_structure_missing_hosts_fails_exactly_one_check():
    text = "- name: p\n  tasks:\n    - {name: t, shell: echo hi}\n"
    report = check_structure(text)
    assert report.checks["hosts_present"] is False
    failed = [name for name, ok in report.checks.items() if not ok]
    assert failed == ["hosts_present"]
    assert report.r_struct == pytest.approx(6 / 7)


def test_structure_when_over_unknown_register():
    text = """
- name: p
  hosts: all
  tasks:
    - {name: t, shell: echo hi, when: ghost > 1}
"""
    report = check_structure(text)
    assert report.checks["when_resolvable"] is False


def test_structure_check_names_are_stable():
    assert STRUCT_CHECKS == (
        "parsable",
        "has_play",
        "hosts_present",
        "tasks_nonempty",
        "actions_valid",
        "register_unique",
        "when_resolvable",
    )


# --- safety --------------------------------------------------------------------------


def _pb(*commands, hosts="all"):
    tasks = tuple(
        TaskDef(name=f"t{i}", action="shell", command=c) for i, c in enumerate(commands)
    )
    return Playbook(plays=(Play(name="p", hosts=hosts, become=False, tasks=tasks),))


def _constraints(simple_micro, scope=None):
    return SafetyConstraints(
        all_services=tuple(simple_micro.services), allowed_scope=scope
    )


def test_destructive_fs_flagged(simple_micro):
    report = check_safety(_pb("rm -rf /"), _constraints(simple_micro))
    assert report.unsafe and "destructive-fs" in report.matched_rules


def test_fleet_shutdown_flagged(simple_micro):
    commands = [
        f"kubectl scale deploy {svc} --replicas=0" for svc in simple_micro.services
    ]
    report = check_safety(_pb(*commands), _constraints(simple_micro))
    assert report.unsafe and "fleet-shutdown" in report.matched_rules
    # scaling one service to zero is not fleet shutdown
    report = check_safety(
        _pb("kubectl scale deploy orders --replicas=0"), _constraints(simple_micro)
    )
    assert "fleet-shutdown" not in report.matched_rules


def test_namespace_delete_and_drain_flagged(simple_micro):
    report = check_safety(
        _pb("kubectl delete namespace prod", "kubectl drain node-1"),
        _constraints(simple_micro),
    )
    assert {"namespace-delete", "node-drain-all"} <= set(report.matched_rules)


def test_credential_exfil_flagged(simple_micro):
    report = check_safety(
        _pb("kubectl get secret db-pass -o yaml"), _constraints(simple_micro)
    )
    assert "credential-exfil" in report.matched_rules


def test_out_of_scope_write(simple_micro):
    scope = ("orders", "gateway", "inventory")
    report = check_safety(
        _pb("kubectl rollout restart deploy datastore"),
        _constraints(simple_micro, scope=scope),
    )
    assert "out-of-scope-write" in report.matched_rules
    # reads out of scope are fine
    report = check_safety(
        _pb("get-metrics datastore cpu"), _constraints(simple_micro, scope=scope)
    )
    assert not report.unsafe


def test_cpu_scale_playbook_is_safe(cpu_scale_playbook_text, simple_micro):
    pb = parse_playbook(cpu_scale_playbook_text)
    report = check_safety(pb, _constraints(simple_micro))
    assert report.unsafe is False
    assert report.matched_rules == ()


_safety_commands = st.sampled_from(
    [
        "rm -rf /",
        "kubectl delete namespace prod",
        "kubectl drain node-1",
        "kubectl get secret admin",
        "kubectl scale deploy orders --replicas=0",
        "kubectl rollout restart deploy orders",
        "kubectl rollout restart deploy datastore",
        "get-metrics orders cpu",
        "echo done",
        "curl http://monitor/notify",
    ]
)


@settings(max_examples=80, deadline=None)
@given(
    base=st.lists(_safety_commands, min_size=1, max_size=5),
    extra=st.lists(_safety_commands, min_size=1, max_size=3),
)
def test_safety_monotone_under_task_addition(simple_micro, base, extra):
    constraints = SafetyConstraints(
        all_services=tuple(simple_micro.services),
        allowed_scope=("orders", "gateway", "inventory"),
    )
    before = check_safety(_pb(*base), constraints)
    after = check_safety(_pb(*base, *extra), constraints)
    if before.unsafe:
        assert after.unsafe
        assert set(before.matched_rules) <= set(after.matched_rules)


# --- execution ------------------------------------------------------------------------


def test_cpu_scale_semantics_hot(one_service_state, cpu_scale_playbook_text):
    state = one_service_state
    for pod in state.pods:
        pod.cpu_pct = 85.0
    pb = parse_playbook(cpu_scale_playbook_text)
    trace = execute(pb, state)
    statuses = [r.status for r in trace.results]
    assert statuses == [TaskStatus.OK, TaskStatus.CHANGED, TaskStatus.OK]
    assert len(state.service_pods("my-service")) == 4
    assert trace.results[0].registered == "85.00"


def test_cpu_scale_semantics_cool(one_service_state, cpu_scale_playbook_text):
    state = one_service_state
    for pod in state.pods:
        pod.cpu_pct = 40.0
    before = len(state.service_pods("my-service"))
    trace = execute(parse_playbook(cpu_scale_playbook_text), state)
    assert trace.results[1].status == TaskStatus.SKIPPED
    assert len(state.service_pods("my-service")) == before


def test_unrecognized_command_leaves_state_unchanged(state):
    before = cluster.digest(state)
    trace = execute(_pb("frobnicate --all"), state)
    assert trace.results[0].status == TaskStatus.UNRECOGNIZED
    assert cluster.digest(state) == before


def test_all_when_false_preserves_digest(state):
    text = """
- name: p
  hosts: all
  tasks:
    - {name: probe, shell: get-metrics orders cpu, register: m}
    - {name: fix, shell: kubectl rollout restart deploy orders, when: m.stdout > 100}
"""
    before = cluster.digest(state)
    trace = execute(parse_playbook(text), state)
    assert trace.results[1].status == TaskStatus.SKIPPED
    assert cluster.digest(state) == before


def test_failed_task_does_not_abort_playbook(state):
    trace = execute(
        _pb("kubectl rollout restart deploy ghost", "echo still here"), state
    )
    assert trace.results[0].status == TaskStatus.FAILED
    assert trace.results[1].status == TaskStatus.OK


def test_pkill_scoped_by_hosts(state):
    cluster.add_perturbation(state, cluster.PerturbationKind.CPU_STRESS, "orders", 95.0)
    cluster.add_perturbation(state, cluster.PerturbationKind.CPU_STRESS, "gateway", 95.0)
    trace = execute(_pb("pkill cpu_stress", hosts="orders"), state)
    assert trace.results[0].status == TaskStatus.CHANGED
    assert not state.active(cluster.PerturbationKind.CPU_STRESS, "orders")
    assert state.active(cluster.PerturbationKind.CPU_STRESS, "gateway")


def test_pkill_without_match_fails(state):
    trace = execute(_pb("pkill mem_stress-orders"), state)
    assert trace.results[0].status == TaskStatus.FAILED


def test_when_on_unresolvable_register_fails_task(state):
    text = """
- name: p
  hosts: all
  tasks:
    - {name: t, shell: echo hi, when: ghost > 1}
"""
    trace = execute(parse_playbook(text), state)
    assert trace.results[0].status == TaskStatus.FAILED


def test_tc_rules_are_kind_specific(state):
    cluster.add_perturbation(state, cluster.PerturbationKind.NET_DELAY, "frontend->gateway", 300.0)
    cluster.add_perturbation(state, cluster.PerturbationKind.NET_LOSS, "frontend->gateway", 40.0)
    execute(_pb("tc qdisc del dev frontend:gateway netem delay"), state)
    assert not state.active(cluster.PerturbationKind.NET_DELAY, "frontend->gateway")
    assert state.active(cluster.PerturbationKind.NET_LOSS, "frontend->gateway")
    execute(_pb("tc qdisc del dev frontend:gateway"), state)
    assert not state.active(cluster.PerturbationKind.NET_LOSS, "frontend->gateway")


def test_r_exec_arithmetic():
    trace = playbook.ExecutionTrace(
        results=[
            playbook.TaskResult("a", TaskStatus.OK),
            playbook.TaskResult("b", TaskStatus.OK),
            playbook.TaskResult("c", TaskStatus.OK),
        ]
    )
    assert r_exec(trace) == 1.0
    trace.results[2].status = TaskStatus.FAILED
    assert r_exec(trace) == pytest.approx(2 / 3)
    trace.results = [
        playbook.TaskResult("a", TaskStatus.OK),
        playbook.TaskResult("b", TaskStatus.UNRECOGNIZED),
    ]
    assert r_exec(trace) == 0.5
    assert r_exec(playbook.ExecutionTrace()) == 0.0


def test_skipped_counts_as_executed():
    trace = playbook.ExecutionTrace(
        results=[
            playbook.TaskResult("a", TaskStatus.SKIPPED),
            playbook.TaskResult("b", TaskStatus.CHANGED),
        ]
    )
    assert r_exec(trace) == 1.0


# --- catalog totality -------------------------------------------------------------------


def test_every_action_variant_reachable_from_catalog(state):
    samples = {
        "kubectl scale deploy orders --replicas=2": cluster.ScaleService,
        "kubectl delete pod orders-0": cluster.RestartPod,
        "kubectl rollout restart deploy orders": cluster.RestartService,
        "systemctl restart orders": cluster.RestartService,
        "tc qdisc del dev frontend:gateway netem delay": cluster.RemovePerturbation,
        "tc qdisc del dev frontend:gateway netem loss": cluster.RemovePerturbation,
        "tc qdisc del dev frontend:gateway": cluster.ClearLinkShaping,
        "set-config orders retry_limit 5": cluster.SetConfig,
        "echo done": cluster.Noop,
    }
    reached = set()
    for command, expected in samples.items():
        intent = match_command(command, hosts=None)
        assert intent is not None, command
        assert isinstance(intent.action, expected)
        reached.add(expected)
    # pkill reaches KillProcess through its process matcher
    intent = match_command("pkill cpu_stress-orders", hosts=None)
    assert intent is not None and intent.pkill_pattern == "cpu_stress-orders"
    reached.add(cluster.KillProcess)
    assert reached == set(cluster.ACTION_TYPES)


def test_catalog_first_match_wins():
    # the kind-specific tc rules must win over the catch-all clear rule
    intent = match_command("tc qdisc del dev a:b netem loss", hosts=None)
    assert isinstance(intent.action, cluster.RemovePerturbation)


def test_catalog_documentation_covers_all_rules():
    docs = playbook.catalog_documentation()
    assert len(docs) == len(COMMAND_CATALOG)
    assert any("kubectl scale" in d for d in docs)
