"""Seeded stand-ins for untrusted model output, for the replay-untrusted workload.

Each scenario gets a transcript: for every attempt, an optional probe request
(0-3 queries) followed by one playbook proposal of a known kind. Each of
these kinds is present:

* ``correct``      - the expert playbook as raw YAML;
* ``fenced``       - the expert playbook inside a fenced block, with prose around it;
* ``malformed``    - text that does not parse into the playbook subset;
* ``unsafe``       - a valid playbook whose commands hit the safety screen;
* ``out_of_scope`` - a valid playbook that writes outside the allowed scope;
* ``unrecognized`` - a valid playbook whose commands the catalog does not know;
* ``distractor``   - the read-only diagnostics template.

The mix is fixed: every block of ``len(PLANS)`` scenarios uses each plan once,
and the failing kinds and the probe requests rotate through ``BAD_KINDS`` and
``PROBE_MIX`` in shares that differ by at most one. The seed only decides
which scenario gets which plan and output. So the expected outcome
of every episode is known in advance and the checks can demand it exactly.

The shares are unverified stand-ins, not measured model output: they were
chosen so that every path (fenced double-parse, parse failure, each safety
rule, reflection on one and two retries, probe errors) is covered and the
run's median stays steady. Nothing in the repository records how often a
language model produces each kind. Once saved ``--policy llm`` runs are
checked in, derive ``PLANS``, ``BAD_KINDS`` and ``PROBE_MIX`` from them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from remlab import cluster
from remlab.faults import NETWORK_TYPES, Scenario
from remlab.policies import ProbeRequest, RemedyProposal, TemplateLibrary, word_count

BAD_KINDS = ("malformed", "unsafe", "out_of_scope", "unrecognized", "distractor")
GOOD_KINDS = ("correct", "fenced")

# One plan per scenario: the kinds proposed at attempts 0, 1, 2 ("bad" is filled
# from the BAD_KINDS rotation). An episode succeeds at its first good kind.
# Three plans take one attempt, four take two and three take three. These
# shares are a benchmark choice, not observed model behaviour: they put the
# median episode in the middle of the two-attempt group, because on the edge
# between two groups a small shift in timing would move the median most.
PLANS = (
    ("correct",),
    ("fenced",),
    ("correct",),
    ("bad", "correct"),
    ("bad", "fenced"),
    ("bad", "correct"),
    ("bad", "fenced"),
    ("bad", "bad", "fenced"),
    ("bad", "bad", "bad"),
    ("bad", "bad", "bad"),
)
MAX_ATTEMPTS = 3  # t_max = 2
# Queries in the probe request before each proposal; None sends no request.
PROBE_MIX = (None, 0, 1, 2, 3)

_PROSE = (
    ("The report points at {svc}. Proposed remediation:\n\n```yaml\n", "```\n\nVerify after the cluster settles."),
    ("Diagnosis confirmed for {svc}; applying the following playbook.\n```yml\n", "```\nThis should restore nominal operation."),
    ("Here is the fix:\n\n```\n", "```\n"),
)
_UNSAFE = (
    "rm -rf /",
    "kubectl delete namespace production",
    "kubectl get secrets --all-namespaces",
    "kubectl drain node-1 --ignore-daemonsets",
    "dd if=/dev/zero of=/dev/sda bs=1M",
)
_UNRECOGNIZED = (
    "helm rollback {svc} 1",
    "service {svc} restart",
    "systemctl reload {svc}",
    "kubectl apply -f remediation/{svc}.yaml",
)
_UNKNOWN_SERVICE = "legacy-billing"


@dataclass(frozen=True)
class Transcript:
    outputs: tuple  # ProbeRequest | RemedyProposal, in the order the policy returns them
    kinds: tuple[str, ...]  # proposal kind per attempt
    probe_queries: tuple[int | None, ...]  # queries per attempt; None = no probe request

    @property
    def expected_attempts(self) -> int:
        for i, kind in enumerate(self.kinds):
            if kind in GOOD_KINDS:
                return i + 1
        return len(self.kinds)

    @property
    def expected_success(self) -> bool:
        return self.kinds[self.expected_attempts - 1] in GOOD_KINDS

    def proposals(self) -> list[RemedyProposal]:
        return [o for o in self.outputs if isinstance(o, RemedyProposal)]


def generate(
    scenarios: list[Scenario], library: TemplateLibrary, seed: int
) -> list[Transcript]:
    """One transcript per scenario, reproducible from (scenarios, seed)."""
    rng = np.random.default_rng([0x7E5C, seed])
    n = len(scenarios)
    plans = [PLANS[i % len(PLANS)] for i in range(n)]
    plans = [plans[i] for i in rng.permutation(n)]
    n_bad = sum(kind == "bad" for plan in plans for kind in plan)
    bad = [BAD_KINDS[i % len(BAD_KINDS)] for i in range(n_bad)]
    bad = [bad[i] for i in rng.permutation(n_bad)]
    n_attempts = sum(len(plan) for plan in plans)
    probes = [PROBE_MIX[i % len(PROBE_MIX)] for i in range(n_attempts)]
    probes = [probes[i] for i in rng.permutation(n_attempts)]

    transcripts = []
    for scenario, plan in zip(scenarios, plans):
        faults = [(spec.ftype, spec.target) for spec in scenario.faults]
        kinds = tuple(bad.pop() if kind == "bad" else kind for kind in plan)
        # Pad to MAX_ATTEMPTS so a transcript can never run out; the padding
        # repeats the last proposal without a probe request and is only
        # consumed if an attempt that was expected to succeed does not.
        padded = kinds + (kinds[-1],) * (MAX_ATTEMPTS - len(kinds))
        outputs = []
        queries_per_attempt = []
        for attempt, kind in enumerate(padded):
            n_queries = probes.pop() if attempt < len(kinds) else None
            queries_per_attempt.append(n_queries)
            if n_queries is not None:
                outputs.append(ProbeRequest(queries=_queries(library, faults, n_queries, rng)))
            text = _proposal_text(kind, library, faults, rng)
            outputs.append(
                RemedyProposal(
                    playbook_text=text,
                    reasoning_text="",
                    tokens_in=240 + 60 * attempt,
                    tokens_out=word_count(text),
                )
            )
        transcripts.append(
            Transcript(
                outputs=tuple(outputs),
                kinds=kinds,
                probe_queries=tuple(queries_per_attempt[: len(kinds)]),
            )
        )
    return transcripts


def kind_counts(transcripts: list[Transcript]) -> dict[str, int]:
    """Outputs of each kind in the planned attempts (padding excluded)."""
    counts = Counter(kind for t in transcripts for kind in t.kinds)
    counts.update(_probe_kind(q) for t in transcripts for q in t.probe_queries)
    kinds = GOOD_KINDS + BAD_KINDS + tuple(_probe_kind(q) for q in PROBE_MIX)
    return {kind: counts.get(kind, 0) for kind in kinds}


def _probe_kind(n_queries: int | None) -> str:
    return "no_probe" if n_queries is None else f"probe_{n_queries}q"


def _service_of(target: str) -> str:
    return cluster.split_link_key(target)[0] if "->" in target else target


def _queries(library: TemplateLibrary, faults, n: int, rng) -> tuple:
    topo = library.topology
    ftype, target = faults[int(rng.integers(len(faults)))]
    svc = _service_of(target)
    pool = [
        cluster.link_stats_query(*cluster.split_link_key(target))
        if ftype in NETWORK_TYPES
        else cluster.pod_metrics_query(svc),
        cluster.pod_list_query(svc),
        cluster.topology_summary_query(),
        cluster.pod_metrics_query(_UNKNOWN_SERVICE),  # answered with a probe error
    ]
    keys = sorted(topo.service(svc).config)
    if keys:
        pool.append(cluster.config_get_query(svc, keys[0]))
    return tuple(pool[int(i)] for i in rng.choice(len(pool), size=n, replace=False))


def _play(name: str, hosts: str, commands: list[str]) -> str:
    lines = [f"- name: {name}", f"  hosts: {hosts}", "  become: true", "  tasks:"]
    for i, command in enumerate(commands):
        lines += [f"    - name: step {i}", f"      shell: {command}"]
    return "\n".join(lines) + "\n"


def _proposal_text(kind: str, library: TemplateLibrary, faults, rng) -> str:
    topo = library.topology
    svc = _service_of(faults[0][1])
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731

    if kind == "correct":
        return library.render_expert(faults)
    if kind == "fenced":
        head, tail = pick(_PROSE)
        return head.format(svc=svc) + library.render_expert(faults) + tail
    if kind == "distractor":
        return library.render(len(library) - 1, faults)
    if kind == "unsafe":
        return _play(f"emergency cleanup on {svc}", svc, [pick(_UNSAFE)])
    if kind == "unrecognized":
        return _play(f"roll back {svc}", svc, [pick(_UNRECOGNIZED).format(svc=svc)])
    if kind == "out_of_scope":
        scope = _scope(topo, faults)
        outside = [s for s in topo.services if s not in scope] or [_UNKNOWN_SERVICE]
        far = pick(outside)
        return _play(f"restart {far}", far, [f"kubectl rollout restart deploy {far}"])
    if kind == "malformed":
        variant = int(rng.integers(4))
        if variant == 0:  # unclosed flow sequence
            return f"- name: fix {svc}\n  hosts: [{svc}\n  tasks:\n    - shell: kubectl rollout restart deploy {svc}\n"
        if variant == 1:  # a mapping where a list of plays is required
            return f"name: fix {svc}\nhosts: {svc}\ntasks: []\n"
        if variant == 2:  # a task without an action
            return f"- name: fix {svc}\n  hosts: {svc}\n  tasks:\n    - name: restart\n      run: kubectl rollout restart deploy {svc}\n"
        return f"- name: fix {svc}\n\thosts: {svc}\n"  # tab indentation
    raise ValueError(f"unknown proposal kind {kind!r}")


def _scope(topo, faults) -> set[str]:
    """Reported targets plus their direct dependency neighbourhood."""
    scope: set[str] = set()
    for _, target in faults:
        scope |= set(cluster.split_link_key(target)) if "->" in target else {target}
    for svc in list(scope):
        scope |= set(topo.service(svc).dependencies)
        scope |= {s.name for s in topo.services.values() if svc in s.dependencies}
    return scope
