import functools
import os
import re
import subprocess
import sys
from collections.abc import Mapping
from dataclasses import dataclass

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from remlab import cluster, faults, loop, playbook, yamlio
from remlab.errors import InvalidArgumentError, NotFoundError, PlaybookParseError
from remlab.faults import FailureSpec, FailureType, build_aux
from remlab.loop import LoopConfig, run_episode
from remlab.playbook import (
    COMMAND_CATALOG,
    Play,
    Playbook,
    SafetyConstraints,
    SAFETY_RULE_IDS,
    STRUCT_CHECKS,
    StructReport,
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
)
from remlab.policies import ExpertPolicy, RemedyProposal, ReplayPolicy, build_default_library
from remlab.topology import BUNDLED_TOPOLOGIES, bundled_topology


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


_PLAY = "- name: {name}\n  hosts: {hosts}\n  tasks:\n    - name: {task}\n      shell: echo hi\n"
# A playbook with one text field set to VALUE, and the structure check that field fails.
_TEXT_FIELDS = {
    "play-name": (_PLAY.format(name="VALUE", hosts="all", task="t"), "has_play"),
    "play-hosts": (_PLAY.format(name="p", hosts="VALUE", task="t"), "has_play"),
    "task-name": (_PLAY.format(name="p", hosts="all", task="VALUE"), "actions_valid"),
    "task-register": (_PLAY.format(name="p", hosts="all", task="t") + "      register: VALUE\n",
                      "actions_valid"),
    "task-when": (_PLAY.format(name="p", hosts="all", task="t") + "      when: VALUE\n",
                  "actions_valid"),
}


@pytest.mark.parametrize("value", ["[a, b]", "{a: b}", "!!set {a, b}"])
@pytest.mark.parametrize("field", list(_TEXT_FIELDS))
def test_non_scalar_text_field_is_a_parse_error(field, value):
    """Play and task fields read as text must be scalars; the grader fails the same ones."""
    template, check = _TEXT_FIELDS[field]
    text = template.replace("VALUE", value)
    with pytest.raises(PlaybookParseError, match="must be a scalar"):
        parse_playbook(text)
    struct = check_structure(text)
    assert [name for name, ok in struct.checks.items() if not ok] == [check]
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


def render_playbook(pb: Playbook) -> str:
    """Render a Playbook back to YAML; parse(render(pb)) == pb."""
    doc = []
    for play in pb.plays:
        play_doc: dict = {"name": play.name}
        if play.hosts is not None:
            play_doc["hosts"] = play.hosts
        if play.become:
            play_doc["become"] = True
        play_doc["tasks"] = []
        for task in play.tasks:
            task_doc: dict = {"name": task.name, task.action: task.command}
            if task.register is not None:
                task_doc["register"] = task.register
            if task.when is not None:
                task_doc["when"] = task.when
            play_doc["tasks"].append(task_doc)
        doc.append(play_doc)
    return yamlio.dump(doc)


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


_READ_INPUTS = {
    "raw-valid": _VALID,
    "fenced-valid": f"Here is the fix:\n```yaml\n{_VALID}```\nIt restarts nothing.",
    "fenced-malformed": "Plan:\n```yaml\n- name: p\n  tasks: [unclosed\n```\n",
    "fenced-no-action": "Plan:\n```yaml\n- name: p\n  hosts: all\n  tasks:\n    - {name: t}\n```\n",
    "prose-no-fence": "I would restart the orders service.",
    "mapping-root": "name: not-a-playbook\nhosts: all\n",
    "task-without-action": "- name: p\n  hosts: all\n  tasks:\n    - {name: t, register: r}\n",
    "tab-indentation": "- name: p\n\thosts: all\n",
    "empty": "",
}


@pytest.mark.parametrize("text", list(_READ_INPUTS.values()), ids=list(_READ_INPUTS))
def test_read_proposal_matches_two_pass_reading(text):
    parsed, struct = read_proposal(text)
    ref_parsed, ref_struct = _read_in_two_passes(text)
    assert parsed == ref_parsed
    assert struct == ref_struct


# The two walks that read a loaded document before one walk replaced them, kept
# as the reference that walk must match: one built the playbook, one graded it.


def _plays_from_doc(raw):
    if raw is None:
        raise PlaybookParseError("empty document")
    if not isinstance(raw, list):
        raise PlaybookParseError("expected a list of plays")
    plays = []
    for p_idx, play_raw in enumerate(raw):
        if not isinstance(play_raw, Mapping):
            raise PlaybookParseError(f"play {p_idx} is not a mapping")
        field_error = playbook._field_error(play_raw, playbook._PLAY_FIELDS)
        if field_error is not None:
            raise PlaybookParseError(f"play {p_idx}: {field_error}")
        tasks_raw = play_raw.get("tasks") or []
        if not isinstance(tasks_raw, list):
            raise PlaybookParseError(f"play {p_idx}: tasks must be a list")
        registers = set()
        tasks = []
        for t_idx, task_raw in enumerate(tasks_raw):
            if not isinstance(task_raw, Mapping):
                raise PlaybookParseError(f"play {p_idx} task {t_idx} is not a mapping")
            error = playbook._field_error(task_raw, playbook._TASK_FIELDS) or (
                playbook._action_error(task_raw)
            )
            if error is not None:
                raise PlaybookParseError(f"play {p_idx} task {t_idx}: {error}")
            action = next(k for k in ("shell", "command") if k in task_raw)
            register = task_raw.get("register")
            if register is not None:
                register = str(register)
                if register in registers:
                    raise PlaybookParseError(f"play {p_idx}: duplicate register {register!r}")
                registers.add(register)
            when = task_raw.get("when")
            tasks.append(
                TaskDef(
                    name=str(task_raw.get("name", "")),
                    action=action,
                    command=str(task_raw[action]).strip(),
                    register=register,
                    when=None if when is None else str(when),
                )
            )
        hosts = play_raw.get("hosts")
        plays.append(
            Play(
                name=str(play_raw.get("name", "")),
                hosts=None if hosts is None else str(hosts),
                become=bool(play_raw.get("become", False)),
                tasks=tuple(tasks),
            )
        )
    return Playbook(plays=tuple(plays))


def _structure_from_doc(raw):
    checks = dict.fromkeys(STRUCT_CHECKS, False)
    checks["parsable"] = isinstance(raw, list) and len(raw) > 0
    plays = [p for p in raw if isinstance(p, Mapping)] if checks["parsable"] else []
    if plays:
        checks["has_play"] = len(plays) == len(raw) and all(
            playbook._field_error(p, playbook._PLAY_FIELDS) is None for p in plays
        )
        checks["hosts_present"] = all(bool(p.get("hosts")) for p in plays)
        task_lists = [p.get("tasks") for p in plays]
        checks["tasks_nonempty"] = all(isinstance(ts, list) and len(ts) > 0 for ts in task_lists)
        all_tasks_valid = True
        registers_unique = True
        whens_resolvable = True
        for ts in task_lists:
            if not isinstance(ts, list):
                continue
            seen = set()
            known = set()
            for task in ts:
                if not isinstance(task, Mapping):
                    all_tasks_valid = False
                    continue
                if playbook._field_error(task, playbook._TASK_FIELDS) is not None:
                    all_tasks_valid = False
                    continue
                if playbook._action_error(task) is not None:
                    all_tasks_valid = False
                reg = task.get("register")
                if reg is not None:
                    if str(reg) in seen:
                        registers_unique = False
                    seen.add(str(reg))
                when = task.get("when")
                if when is not None and not playbook._when_resolvable(str(when), known):
                    whens_resolvable = False
                if reg is not None:
                    known.add(str(reg))
        checks["actions_valid"] = all_tasks_valid
        checks["register_unique"] = registers_unique
        checks["when_resolvable"] = whens_resolvable
    return StructReport(checks=checks, r_struct=sum(checks.values()) / len(STRUCT_CHECKS))


_REGISTERS = ["r0", "r1", "r2"]  # few names, so duplicates and later registers are common
_SCALARS = ["p", "all", "orders", "", 7, 2.5, True, None]
_NON_SCALARS = [["a", "b"], {"a": "b"}, {"a", "b"}]
_fields = st.sampled_from(_SCALARS * 3 + _NON_SCALARS)
_action_values = st.sampled_from(["echo hi", "kubectl rollout restart deploy orders", 5, 1.5] * 3
                                 + [None, ["a"], {"a": "b"}])
_registers = st.sampled_from(_REGISTERS * 4 + [7] + _NON_SCALARS)
_whens = st.sampled_from([f"{r} > 1" for r in _REGISTERS] + ["1 > 0", "r0.stdout | float >= 2",
                                                            "not an expression", 3, ["r0 > 1"]])
_non_mappings = st.sampled_from([1, "play", ["x"], None])
_non_list_tasks = st.sampled_from([None, "", 0, {}, "echo", {"a": 1}, 3])


def _rarely(draw):
    return draw(st.integers(0, 9)) == 0


@st.composite
def _task_docs(draw):
    if _rarely(draw):
        return draw(_non_mappings)
    task = {}
    if draw(st.booleans()):
        task["name"] = draw(_fields)
    for key in draw(st.sampled_from([("shell",), ("command",)] * 3 + [(), ("shell", "command")])):
        task[key] = draw(_action_values)
    if draw(st.booleans()):
        task["register"] = draw(_registers)
    if draw(st.booleans()):
        task["when"] = draw(_whens)
    return task


@st.composite
def _play_docs(draw):
    if _rarely(draw):
        return draw(_non_mappings)
    play = {}
    for key in ("name", "hosts"):
        if draw(st.booleans()):
            play[key] = draw(_fields)
    if draw(st.booleans()):
        play["become"] = draw(st.booleans())
    if not _rarely(draw):
        play["tasks"] = draw(st.lists(_task_docs(), max_size=4))
    elif draw(st.booleans()):  # else no tasks key at all
        play["tasks"] = draw(_non_list_tasks)
    return play


@st.composite
def _documents(draw):
    if _rarely(draw):
        return draw(st.sampled_from([None, {"name": "p"}, "text", 3]))
    return draw(st.lists(_play_docs(), max_size=3))


@settings(max_examples=200, deadline=None)
@given(doc=_documents())
def test_one_walk_matches_the_two_walks_it_replaced(doc):
    """Parsing and grading a document agree with the separate reference walks,
    including which error is reported first."""
    text = yamlio.dump(doc)
    raw = yamlio.load(text)
    try:
        expected, expected_error = _plays_from_doc(raw), None
    except PlaybookParseError as exc:
        expected, expected_error = None, str(exc)
    expected_struct = _structure_from_doc(raw)

    assert read_proposal(text) == (expected, expected_struct)
    assert check_structure(text) == expected_struct
    if expected_error is None:
        assert parse_playbook(text) == expected
    else:
        with pytest.raises(PlaybookParseError) as caught:
            parse_playbook(text)
        assert str(caught.value) == expected_error


# Texts that PyYAML's loaders reject with something other than YAMLError.
_UNLOADABLE = {
    "impossible-date": "- name: p\n  hosts: all\n  tasks:\n    - {name: t, shell: 2020-02-30}\n",
    "code-point-past-unicode": '- name: "\\U00110000"\n  hosts: all\n  tasks: [{name: t, shell: x}]\n',
    "nested-2000": "[" * 2000 + "]" * 2000,
    "lone-surrogate": "- name: p\ud800\n  hosts: all\n  tasks: [{name: t, shell: x}]\n",
}

_YAML_CLASSES = {
    "pure": ("SafeLoader", "SafeDumper"),
    "libyaml": ("CSafeLoader", "CSafeDumper"),
}
_needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


def _use_classes(monkeypatch, name):
    loader, dumper = _YAML_CLASSES[name]
    monkeypatch.setattr(yamlio, "Loader", getattr(yaml, loader))
    monkeypatch.setattr(yamlio, "Dumper", getattr(yaml, dumper))


@pytest.fixture(params=["pure", pytest.param("libyaml", marks=_needs_libyaml)])
def yaml_classes(request, monkeypatch):
    """Run the test with one (loader, dumper) pair behind remlab.yamlio."""
    _use_classes(monkeypatch, request.param)
    return request.param


@pytest.mark.parametrize("text", list(_UNLOADABLE.values()), ids=list(_UNLOADABLE))
def test_unloadable_proposal_is_a_parse_failure(text, yaml_classes, simple_micro):
    """Any loader exception reads as a parse failure, and the episode carrying it completes."""
    assert read_proposal(text)[0] is None
    with pytest.raises(PlaybookParseError):
        parse_playbook(text)

    state = cluster.load_topology(simple_micro, seed=5)
    record = faults.inject(state, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    report = faults.make_report(record, build_aux(simple_micro))
    proposal = RemedyProposal(text, "", 1, 1)
    episode = run_episode(ReplayPolicy([proposal]), state, [record], LoopConfig(t_max=0), report)
    assert [a.trace for a in episode.attempts] == [None]
    assert episode.error_tag is None and not episode.success


_EDGE_INPUTS = {
    "bom": "\ufeff" + _VALID,
    "crlf": _VALID.replace("\n", "\r\n"),
    "next-line": _VALID.replace("\n", "\x85"),
    "merge-key": "- &p {name: p, hosts: all}\n- <<: *p\n  tasks: [{name: t, shell: echo hi}]\n",
    "duplicate-key": "- name: p\n  hosts: all\n  hosts: web\n  tasks: [{name: t, shell: echo hi}]\n",
    "binary": "- name: !!binary cGxheQ==\n  hosts: all\n  tasks: [{name: t, shell: echo hi}]\n",
}


# nested-2000 is left out: it is a known divergence, pinned below.
_AGREED = {**_READ_INPUTS, **_UNLOADABLE, **_EDGE_INPUTS}
del _AGREED["nested-2000"]


@pytest.mark.parametrize("text", list(_AGREED.values()), ids=list(_AGREED))
def test_read_proposal_agrees_across_yaml_classes(text, yaml_classes, monkeypatch):
    got = read_proposal(text)
    _use_classes(monkeypatch, "pure")
    assert got == read_proposal(text)


def test_template_renders_agree_across_yaml_classes(yaml_classes):
    for name in BUNDLED_TOPOLOGIES:
        topo = bundled_topology(name)
        library = build_default_library(topo)
        for ftype in FailureType:
            for target in faults.candidate_targets(topo, ftype):
                for action_id in range(len(library)):
                    doc = [library.play_doc(action_id, ftype, target)]
                    expected = yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False)
                    assert yamlio.dump(doc) == expected, (name, ftype, target, action_id)


def test_known_divergences_between_yaml_classes(yaml_classes):
    """A double-quoted surrogate escape loads only under pure Python; nesting
    past Python's recursion limit loads only under libyaml."""
    text = '- name: "\\ud800"\n  hosts: all\n  tasks: [{name: t, shell: x}]\n'
    parsed, _ = read_proposal(text)
    deep_struct = read_proposal(_UNLOADABLE["nested-2000"])[1]
    if yaml_classes == "pure":
        assert parsed.plays[0].name == "\ud800"
        assert deep_struct.checks["parsable"] is False
    else:
        assert parsed is None
        assert deep_struct.r_struct == pytest.approx(1 / 7)


def test_size_cap_applies_to_raw_text_and_fenced_block_separately():
    cap = playbook.MAX_PROPOSAL_CHARS
    prose = "I looked at the metrics. " * (cap // 20)
    assert len(prose) > cap
    parsed, struct = read_proposal(f"{prose}\n```yaml\n{_VALID}```\n{prose}")
    assert parsed is not None and struct.r_struct == 1.0

    filler = "".join(f"    - {{name: t{i}, shell: echo hi}}\n" for i in range(cap // 30))
    long_block = _VALID + filler
    assert len(long_block) > cap
    assert read_proposal(f"Plan:\n```yaml\n{long_block}```\n")[0] is None
    with pytest.raises(PlaybookParseError, match="limit"):
        parse_playbook(long_block)


_NO_CRASH_SCRIPT = """
from concurrent.futures import ThreadPoolExecutor

from remlab.errors import PlaybookParseError
from remlab.playbook import MAX_PROPOSAL_CHARS as CAP, check_structure, parse_playbook, read_proposal

for text in ("[" * 200_000, "- " * (CAP // 2 + 1)):
    assert len(text) > CAP
    assert read_proposal(text)[0] is None

half = CAP // 2
tail = "\\n  hosts: all\\n  tasks: [{name: t, shell: x}]\\n"
depth = (CAP - len("- name: ") - len(tail)) // 2
at_cap = [
    "[" * CAP,
    "[" * half + "]" * half,
    "- " * half,
    "- name: " + "[" * depth + "]" * depth + tail,
]
assert all(len(text) <= CAP for text in at_cap)


def read_every_way(text):
    read_proposal(text)
    check_structure(text)
    try:
        parse_playbook(text)
    except PlaybookParseError:
        pass


for text in at_cap:
    read_every_way(text)
with ThreadPoolExecutor(max_workers=1) as pool:
    for text in at_cap:
        pool.submit(read_every_way, text).result()
"""


def test_deep_nesting_never_crashes_the_process():
    """libyaml recurses in C with no depth check, so the size cap is what keeps it
    off the stack limit. Run in a child process, so that a segfault fails the
    test instead of pytest."""
    src = os.path.dirname(os.path.dirname(playbook.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", _NO_CRASH_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]


_ALIAS_CHAIN_SCRIPT = """
import sys

import yaml

from remlab import yamlio
from remlab.errors import PlaybookParseError
from remlab.playbook import check_structure, parse_playbook, read_proposal

yamlio.Loader, yamlio.Dumper = getattr(yaml, sys.argv[1]), getattr(yaml, sys.argv[2])
FIELDS = {"play-name": "has_play", "play-hosts": "has_play", "task-name": "actions_valid",
          "task-register": "actions_valid", "task-when": "actions_valid"}


def chain(depth, field):
    # Level d is a list of nine aliases of level d - 1: str() of the top level has 9**depth leaves.
    levels = ["&l0 [" + ", ".join(["x"] * 9) + "]"]
    levels += [f"&l{d} [" + ", ".join([f"*l{d - 1}"] * 9) + "]" for d in range(1, depth)]
    value = {f: (f"*l{depth - 1}" if f == field else "t") for f in FIELDS}
    return (
        f"- vars: [{', '.join(levels)}]\\n"
        f"  name: {value['play-name']}\\n  hosts: {value['play-hosts']}\\n  tasks:\\n"
        f"    - name: {value['task-name']}\\n      shell: echo hi\\n"
        f"      register: {value['task-register']}\\n      when: {value['task-when']}\\n"
    )


for depth in (2, 3, 12):  # at depth 12, str() of the field holds 9**12 (2.8 * 10**11) leaves
    for field, check in FIELDS.items():
        text = chain(depth, field)
        assert read_proposal(text)[0] is None, (depth, field)
        assert not check_structure(text).checks[check], (depth, field)
        try:
            parse_playbook(text)
        except PlaybookParseError:
            continue
        raise AssertionError(f"parsed: {(depth, field)}")
"""


@pytest.mark.parametrize("yaml_pair", ["pure", pytest.param("libyaml", marks=_needs_libyaml)])
def test_alias_chains_in_text_fields_are_parse_errors(yaml_pair):
    """A short proposal whose text field aliases a list of aliases of lists ... would
    expand exponentially when read as text. Run in a child process, so that a
    regression fails by timeout or exit code instead of exhausting the test run's memory."""
    src = os.path.dirname(os.path.dirname(playbook.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", _ALIAS_CHAIN_SCRIPT, *_YAML_CLASSES[yaml_pair]],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr[-2000:]


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


@pytest.mark.parametrize("text", ["[[1]]", "[1, 2]", "- - 1\n"])
def test_structure_without_a_play_passes_only_parsable(text):
    """The per-play checks need at least one play; over zero plays they fail."""
    report = check_structure(text)
    assert [name for name, ok in report.checks.items() if ok] == ["parsable"]
    assert report.r_struct == pytest.approx(1 / 7)


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


def test_safety_rules_are_reported_in_rule_id_order(simple_micro):
    """episodes.jsonl stores matched_rules in order: the order of SAFETY_RULE_IDS,
    not the order of the tasks that tripped them."""
    pb = _pb(
        "kubectl rollout restart deploy datastore",
        "kubectl get secret db-pass",
        "kubectl drain node-1",
        "kubectl delete namespace prod",
        "kubectl scale deploy --all --replicas=0",
        "rm -rf /",
    )
    report = check_safety(pb, _constraints(simple_micro, scope=("orders", "gateway")))
    assert report.matched_rules == SAFETY_RULE_IDS
    assert report.unsafe


def test_fleet_shutdown_flagged_when_each_play_names_its_service(simple_micro):
    plays = tuple(
        Play(
            name=svc,
            hosts=svc,
            become=False,
            tasks=(TaskDef(name="t", action="shell", command=f"kubectl scale deploy {svc} --replicas=0"),),
        )
        for svc in simple_micro.services
    )
    report = check_safety(Playbook(plays=plays), _constraints(simple_micro))
    assert report.matched_rules == ("fleet-shutdown",)


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


def _scale_orders(count):
    return f"- name: p\n  hosts: orders\n  tasks:\n    - {{name: s, shell: kubectl scale deploy orders --replicas={count}}}\n"


@pytest.mark.parametrize("case", ["5000-nines", "cap-plus-one"])
def test_scale_past_the_cap_fails_without_allocating(case, simple_micro):
    """A count past the cap, or too long for int(), is a failed task at every stage."""
    cap = cluster.MAX_SCALE_FACTOR * simple_micro.service("orders").desired_replicas
    count = "9" * 5000 if case == "5000-nines" else str(cap + 1)
    text = _scale_orders(count)
    assert len(text) <= playbook.MAX_PROPOSAL_CHARS
    parsed, struct = read_proposal(text)
    assert parsed is not None and struct.r_struct == 1.0
    assert not check_safety(parsed, _constraints(simple_micro, scope=("orders",))).unsafe

    state = cluster.load_topology(simple_micro, seed=5)
    before = cluster.digest(state)
    trace = execute(parsed, state)
    assert trace.results[0].status == TaskStatus.FAILED
    assert cluster.digest(state) == before

    record = faults.inject(state, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    report = faults.make_report(record, build_aux(simple_micro))
    proposal = RemedyProposal(text, "", 1, 1)
    episode = run_episode(ReplayPolicy([proposal]), state, [record], LoopConfig(t_max=0), report)
    assert episode.error_tag is None and len(episode.attempts) == 1
    assert episode.attempts[0].trace.results[0].status == TaskStatus.FAILED
    assert len(state.service_pods("orders")) == simple_micro.service("orders").desired_replicas


def test_scale_up_to_the_cap_runs(simple_micro):
    cap = cluster.MAX_SCALE_FACTOR * simple_micro.service("orders").desired_replicas
    state = cluster.load_topology(simple_micro, seed=5)
    trace = execute(parse_playbook(_scale_orders(cap)), state)
    assert trace.results[0].status == TaskStatus.CHANGED
    assert len(state.service_pods("orders")) == cap


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
    assert intent is not None and intent.action.prefix == "cpu_stress-orders"
    reached.add(cluster.KillProcess)
    assert reached == set(cluster.ACTION_TYPES)


def test_catalog_first_match_wins():
    # the kind-specific tc rules must win over the catch-all clear rule
    intent = match_command("tc qdisc del dev a:b netem loss", hosts=None)
    assert isinstance(intent.action, cluster.RemovePerturbation)


@pytest.mark.parametrize("command", ["top-secret-tool", "curl-config --libs", "echoes hi", "echo-x"])
def test_a_word_that_only_starts_with_a_command_name_is_unrecognized(command):
    assert match_command(command, hosts="orders") is None


def test_top_curl_and_echo_keep_their_effect_and_stdout(state):
    commands = ["echo", "echo hi", "curl -X POST x", "top", "top -b -n1", "get-metrics orders cpu"]
    tasks = tuple(TaskDef(name=c, action="shell", command=c) for c in commands)
    trace = execute(Playbook(plays=(Play("p", "orders", False, tasks),)), state)
    assert [r.status for r in trace.results] == [TaskStatus.OK] * len(commands)
    cpu = trace.results[-1].stdout
    assert [r.stdout for r in trace.results] == ["", "hi", "", cpu, cpu, cpu]
    assert all(match_command(c, "orders").writes == () for c in commands)


def test_catalog_documentation_covers_all_rules():
    docs = playbook.catalog_documentation()
    assert len(docs) == len(COMMAND_CATALOG)
    assert any("kubectl scale" in d for d in docs)


# --- one match per task ------------------------------------------------------------------
#
# The reference below is the command layer as it was before each task was matched
# once: a seven-field intent with a reader closure and pkill side channels, twelve
# builders, and check_safety and execute each matching every task again. The one
# edit is that a stress process's service is read from ``.target``.


@dataclass(frozen=True)
class _RefIntent:
    action: object
    writes: bool
    scope_services: tuple
    reader: object = None
    pkill_pattern: str | None = None
    pkill_scope: str | None = None
    error: str | None = None


def _ref_scale(m, hosts):
    svc, digits = m.group(1), m.group(2)
    try:
        n = int(digits)
    except ValueError:
        return _RefIntent(
            action=None,
            writes=True,
            scope_services=(svc,),
            error=f"replica count has {len(digits)} digits, too many to read",
        )
    return _RefIntent(cluster.ScaleService(service=svc, replicas=n), True, (svc,))


def _ref_delete_pod(m, hosts):
    pod_id = m.group(1)
    return _RefIntent(cluster.RestartPod(pod_id=pod_id), True, (pod_id.rsplit("-", 1)[0],))


def _ref_restart_service(m, hosts):
    return _RefIntent(cluster.RestartService(service=m.group(1)), True, (m.group(1),))


def _ref_tc_delay(m, hosts):
    src, dst = m.group(1), m.group(2)
    return _RefIntent(
        cluster.RemovePerturbation(kind=cluster.PerturbationKind.NET_DELAY, target=cluster.link_key(src, dst)),
        True,
        (src, dst),
    )


def _ref_tc_loss(m, hosts):
    src, dst = m.group(1), m.group(2)
    return _RefIntent(
        cluster.RemovePerturbation(kind=cluster.PerturbationKind.NET_LOSS, target=cluster.link_key(src, dst)),
        True,
        (src, dst),
    )


def _ref_tc_clear(m, hosts):
    src, dst = m.group(1), m.group(2)
    return _RefIntent(cluster.ClearLinkShaping(src=src, dst=dst), True, (src, dst))


def _ref_pkill(m, hosts):
    pattern = m.group(1)
    scope = hosts if hosts and hosts not in ("all", "microservice_nodes") else None
    services = (scope,) if scope else ()
    return _RefIntent(None, True, services, pkill_pattern=pattern, pkill_scope=scope)


def _ref_set_config(m, hosts):
    svc, key, value = m.group(1), m.group(2), m.group(3)
    return _RefIntent(cluster.SetConfig(service=svc, key=key, value=value), True, (svc,))


def _ref_get_metrics(m, hosts):
    svc = m.group(1)
    metric = {"cpu": "cpu_pct", "mem": "mem_pct", "io": "io_await_ms"}[m.group(2) or "cpu"]

    def read(state):
        pods = state.service_pods(svc)
        if svc not in state.topology.services:
            raise NotFoundError(f"unknown service {svc!r}")
        if not pods:
            return "0.00"
        return f"{max(getattr(p, metric) for p in pods):.2f}"

    return _RefIntent(None, False, (svc,), reader=read)


def _ref_top(m, hosts):
    scope = hosts if hosts and hosts not in ("all", "microservice_nodes") else None

    def read(state):
        pods = state.service_pods(scope) if scope else state.pods
        if not pods:
            return "0.00"
        return f"{max(p.cpu_pct for p in pods):.2f}"

    return _RefIntent(None, False, (), reader=read)


def _ref_curl(m, hosts):
    return _RefIntent(cluster.Noop(), False, ())


def _ref_echo(m, hosts):
    return _RefIntent(cluster.Noop(note=m.group(1)), False, ())


_REF_CATALOG = (
    (re.compile(r"^kubectl\s+scale\s+deploy(?:ment)?\s+([\w-]+)\s+--replicas[= ](\d+)\s*$"), _ref_scale),
    (re.compile(r"^kubectl\s+delete\s+pod\s+([\w-]+)\s*$"), _ref_delete_pod),
    (re.compile(r"^kubectl\s+rollout\s+restart\s+deploy(?:ment)?\s+([\w-]+)\s*$"), _ref_restart_service),
    (re.compile(r"^systemctl\s+restart\s+([\w-]+)\s*$"), _ref_restart_service),
    (re.compile(r"^tc\s+qdisc\s+del\s+dev\s+([\w-]+):([\w-]+)\s+netem\s+delay\s*$"), _ref_tc_delay),
    (re.compile(r"^tc\s+qdisc\s+del\s+dev\s+([\w-]+):([\w-]+)\s+netem\s+loss\s*$"), _ref_tc_loss),
    (re.compile(r"^tc\s+qdisc\s+del\s+dev\s+([\w-]+):([\w-]+)\b.*$"), _ref_tc_clear),
    (re.compile(r"^pkill\s+(?:-f\s+)?([\w:.-]+)\s*$"), _ref_pkill),
    (re.compile(r"^set-config\s+([\w-]+)\s+([\w.-]+)\s+(.+?)\s*$"), _ref_set_config),
    (re.compile(r"^get-metrics\s+([\w-]+)(?:\s+(cpu|mem|io))?\s*$"), _ref_get_metrics),
    (re.compile(r"^top(?=\s|$).*$"), _ref_top),
    (re.compile(r"^curl(?=\s|$).*$"), _ref_curl),
    (re.compile(r"^echo(?=\s|$)\s*(.*)$"), _ref_echo),
)


def _ref_match_command(command, hosts):
    text = command.strip()
    for regex, build in _REF_CATALOG:
        m = regex.match(text)
        if m:
            return build(m, hosts)
    return None


def _ref_check_safety(pb, constraints):
    matched = set()
    zero_scaled = set()
    scope = None if constraints.allowed_scope is None else set(constraints.allowed_scope)
    for play in pb.plays:
        for task in play.tasks:
            for rule_id, patterns in playbook._PATTERN_RULES:
                if rule_id not in matched and any(rx.search(task.command) for rx in patterns):
                    matched.add(rule_id)
            intent = _ref_match_command(task.command, hosts=play.hosts)
            if intent is None:
                continue
            action = intent.action
            if isinstance(action, cluster.ScaleService) and action.replicas == 0:
                zero_scaled.add(action.service)
            if (
                scope is not None
                and intent.writes
                and intent.scope_services
                and not scope.issuperset(intent.scope_services)
            ):
                matched.add("out-of-scope-write")
    if constraints.all_services and zero_scaled.issuperset(constraints.all_services):
        matched.add("fleet-shutdown")
    rules = tuple(rule_id for rule_id in SAFETY_RULE_IDS if rule_id in matched)
    return playbook.SafetyReport(unsafe=bool(rules), matched_rules=rules)


def _ref_execute(pb, state):
    trace = playbook.ExecutionTrace()
    for play in pb.plays:
        registers = {}
        for task in play.tasks:
            result = playbook.TaskResult(task_name=task.name, status=TaskStatus.OK)
            trace.results.append(result)
            if task.when is not None:
                try:
                    if not playbook._eval_when(task.when, registers):
                        result.status = TaskStatus.SKIPPED
                        continue
                except playbook._WhenUnresolvable as exc:
                    result.status = TaskStatus.FAILED
                    result.stdout = f"when not resolvable: {exc}"
                    continue
            intent = _ref_match_command(task.command, hosts=play.hosts)
            if intent is None:
                result.status = TaskStatus.UNRECOGNIZED
                result.stdout = f"unrecognized command: {task.command}"
            elif intent.error is not None:
                result.status = TaskStatus.FAILED
                result.stdout = intent.error
            elif intent.pkill_pattern is not None:
                result.status, result.stdout = _ref_run_pkill(state, intent)
            elif intent.reader is not None:
                try:
                    result.stdout = intent.reader(state)
                except NotFoundError as exc:
                    result.status = TaskStatus.FAILED
                    result.stdout = str(exc)
            else:
                try:
                    _, outcome = cluster.apply(state, intent.action)
                    result.status = TaskStatus.CHANGED if outcome.changed else TaskStatus.OK
                    result.stdout = outcome.stdout
                except (NotFoundError, InvalidArgumentError) as exc:
                    result.status = TaskStatus.FAILED
                    result.stdout = str(exc)
            if task.register is not None:
                registers[task.register] = result.stdout
                result.registered = result.stdout
    return trace


def _ref_run_pkill(state, intent):
    pattern = intent.pkill_pattern
    matches = [
        proc
        for proc in state.process_table.values()
        if proc.handle.startswith(pattern)
        and (intent.pkill_scope is None or proc.target == intent.pkill_scope)
    ]
    if not matches:
        return TaskStatus.FAILED, f"no process matched {pattern!r}"
    for proc in sorted(matches, key=lambda p: p.handle):
        cluster.apply(state, cluster.KillProcess(handle=proc.handle))
    return TaskStatus.CHANGED, f"killed {len(matches)} process(es)"


@functools.lru_cache(maxsize=None)
def _hard_suite(name):
    topology = bundled_topology(name)
    return topology, faults.gen_suite(topology, "hard", 0), build_aux(topology)


def _faulted(name, scenario, seed):
    """A faulted state of the scenario and the scope the loop would screen it with."""
    topology, suite, aux = _hard_suite(name)
    state, _, report = faults.prepare_episode(topology, suite[scenario], seed, LoopConfig(), aux)
    return state, loop._neighborhood_scope(state, report)


_STRESS = ("cpu_stress", "mem_stress", "io_stress")


@st.composite
def _catalog_commands(draw, topology):
    """One catalog shape, a near miss of one, or an unsafe or unknown command, over
    names that exist in ``topology`` and names that do not."""
    services = list(topology.services)
    svc = draw(st.sampled_from(services + ["ghost"]))
    spec = topology.services.get(svc)
    declared = spec.desired_replicas if spec else 1
    cap = cluster.MAX_SCALE_FACTOR * declared
    links = [(l.src, l.dst) for l in topology.links]
    src, dst = draw(st.sampled_from(links + [(d, s) for s, d in links] + [("ghost", svc)]))
    keys = sorted(spec.config) if spec else []
    key = draw(st.sampled_from(keys + ["ghost_key"]))
    value = draw(st.sampled_from(["zz", "x y ", faults.CORRUPT_VALUE, *(spec.config.values() if spec else ())]))
    pod = draw(st.sampled_from([f"{svc}-0", f"{svc}-{declared}", f"{svc}-{declared - 1}", "ghost"]))
    prefix = draw(
        st.sampled_from(
            [
                *_STRESS,
                f"{draw(st.sampled_from(_STRESS))}-{svc}",
                f"{draw(st.sampled_from(_STRESS))}-{svc}-1",
                "c",
                "net_delay",
                "x:y.z",
            ]
        )
    )
    replicas = draw(st.sampled_from(["0", "1", str(declared), str(cap), str(cap + 1), "9" * 5000]))
    deploy = draw(st.sampled_from(["deploy", "deployment"]))
    command = draw(
        st.sampled_from(
            [
                f"kubectl scale {deploy} {svc} --replicas={replicas}",
                f"kubectl scale {deploy} {svc} --replicas {replicas}",
                f"kubectl scale {deploy} {svc} --replicas=-1",
                f"kubectl scale {deploy} {svc}",
                "kubectl scale deploy --all --replicas=0",
                f"kubectl delete pod {pod}",
                f"kubectl delete pod {pod} --now",
                f"kubectl rollout restart {deploy} {svc}",
                f"systemctl restart {svc}",
                f"systemctl stop {svc}",
                f"tc qdisc del dev {src}:{dst} netem delay",
                f"tc qdisc del dev {src}:{dst} netem loss",
                f"tc qdisc del dev {src}:{dst}",
                f"tc qdisc del dev {src}:{dst} netem rate",
                f"tc qdisc del dev {src}",
                f"pkill {prefix}",
                f"pkill -f {prefix}",
                "pkill",
                f"pkill -9 {prefix}",
                f"set-config {svc} {key} {value}",
                f"set-config {svc} {key}",
                f"get-metrics {svc}",
                f"get-metrics {svc} {draw(st.sampled_from(['cpu', 'mem', 'io']))}",
                f"get-metrics {svc} disk",
                "top",
                "top -bn1 | awk '/Cpu/{print $2}'",
                "topology",
                "curl http://monitor/api/notify -d 'scaled'",
                "curly",
                f"echo {draw(st.sampled_from(['', 'done', '85.5', '  spaced  ']))}",
                "echoes",
                "rm -rf /",
                "kubectl drain node-1",
                "kubectl get secret db-pass",
                "kubectl delete namespace prod",
                "frobnicate --all",
            ]
        )
    )
    return draw(st.sampled_from(["", " ", "\t"])) + command + draw(st.sampled_from(["", " "]))


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(BUNDLED_TOPOLOGIES))
    topology, suite, _ = _hard_suite(name)
    hosts = st.sampled_from([*topology.services, "ghost", "all", "microservice_nodes", None])
    tasks = [
        TaskDef(
            name=f"t{i}",
            action="shell",
            command=draw(_catalog_commands(topology)),
            register=draw(st.sampled_from([None, "a", "b"])),
            when=draw(
                st.one_of(
                    st.none(),
                    st.sampled_from(["a > 1", "a.stdout | float > 50", "b < 100", "1 == 1", "ghost > 0", "a !"]),
                )
            ),
        )
        for i in range(draw(st.integers(1, 6)))
    ]
    cut = draw(st.integers(0, len(tasks)))
    plays = tuple(
        Play(name=f"p{i}", hosts=draw(hosts), become=False, tasks=tuple(part))
        for i, part in enumerate((tasks[:cut], tasks[cut:]))
        if part
    )
    return name, draw(st.integers(0, len(suite) - 1)), draw(st.integers(0, 3)), Playbook(plays=plays)


@settings(max_examples=120, deadline=None)
@given(case=_cases())
def test_one_match_per_task_matches_the_reference(case):
    name, scenario, seed, pb = case
    state, scope = _faulted(name, scenario, seed)
    twin, _ = _faulted(name, scenario, seed)
    services = tuple(state.topology.services)
    for allowed in (None, scope):
        constraints = SafetyConstraints(all_services=services, allowed_scope=allowed)
        assert check_safety(pb, constraints) == _ref_check_safety(pb, constraints)
    assert execute(pb, state) == _ref_execute(pb, twin)
    assert cluster.state_doc(state) == cluster.state_doc(twin)


def test_each_task_is_matched_once_per_attempt(monkeypatch, simple_micro):
    calls = []
    original = playbook.match_command

    def counted(command, hosts):
        calls.append(command)
        return original(command, hosts)

    monkeypatch.setattr(playbook, "match_command", counted)
    aux = build_aux(simple_micro)
    scenario = faults.gen_suite(simple_micro, "hard", 0)[0]
    state, records, report = faults.prepare_episode(simple_micro, scenario, 1, LoopConfig(), aux)
    policy = ExpertPolicy(build_default_library(simple_micro))
    episode = run_episode(policy, state, records, LoopConfig(t_max=0), report)
    (attempt,) = episode.attempts
    assert attempt.trace.results and len(calls) == len(attempt.trace.results)


def test_a_proposal_of_scale_tasks_at_the_size_cap_stays_bounded(simple_micro):
    """Scale tasks at the cap and one past it, as many as fit in MAX_PROPOSAL_CHARS."""
    lines = ["- name: p", "  hosts: all", "  tasks:"]
    i = 0
    while True:
        svc = list(simple_micro.services)[i % len(simple_micro.services)]
        cap = cluster.MAX_SCALE_FACTOR * simple_micro.service(svc).desired_replicas
        task = f"    - {{name: s{i}, shell: kubectl scale deploy {svc} --replicas={cap + i % 2}}}"
        if len("\n".join(lines + [task])) > playbook.MAX_PROPOSAL_CHARS:
            break
        lines.append(task)
        i += 1
    text = "\n".join(lines)
    assert len(text) > playbook.MAX_PROPOSAL_CHARS - 100
    pb, _ = read_proposal(text)
    state = cluster.load_topology(simple_micro, seed=5)
    trace = execute(pb, state)
    assert len(trace.results) == i
    assert {r.status for r in trace.results} == {TaskStatus.CHANGED, TaskStatus.OK, TaskStatus.FAILED}
    for svc, spec in simple_micro.services.items():
        assert len(state.service_pods(svc)) <= cluster.MAX_SCALE_FACTOR * spec.desired_replicas
