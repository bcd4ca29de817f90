"""Chat-completion endpoint client policy.

Speaks the standard message-list request / choice-list response wire
protocol over HTTP. The endpoint URL, credential, and model name come from
environment variables (``<PREFIX>_URL``, ``<PREFIX>_KEY``, ``<PREFIX>_MODEL``;
default prefix ``REMLAB_LLM``). Transport failures are retried with
exponential backoff and then surfaced as ``TransportError``; a response
with no extractable playbook is not an error, it becomes an unparsable
proposal and is graded accordingly.

The prompt contract (versioned in docs/prompt_template.md) asks the model
to either request probes, one per line::

    PROBE: pod_metrics <service>
    PROBE: link_stats <src> <dst>
    PROBE: config_get <service> <key>
    PROBE: topology_summary

or to answer with a single fenced ``yaml`` playbook block.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from . import cluster
from .errors import TransportError
from .playbook import extract_playbook_text
from .policies import Policy, PolicyInput, PolicyOutput, ProbeRequest, RemedyProposal, render_prompt

DEFAULT_ENV_PREFIX = "REMLAB_LLM"
# A reply longer than this is a TransportError; no more than one byte past it is read.
MAX_REPLY_BYTES = 1 << 20

SYSTEM_TEMPLATE = """\
You are a site reliability engineer remediating a simulated microservice cluster.

{environment_summary}

Forbidden operations (any match voids the attempt): {constraints}.
Available probes: {probes}.

Reply with EITHER probe requests, one per line, in the form
"PROBE: <kind> <args>" -- OR a single remediation playbook in a fenced
```yaml block. The playbook must be a YAML list of plays; each task uses
`shell`, optionally `register` and `when` (`<ident> <op> <number>`).

Example playbook:
```yaml
- name: relieve cpu stress on orders
  hosts: orders
  become: true
  tasks:
    - name: kill stress process
      shell: pkill cpu_stress-orders
    - name: restart service
      shell: kubectl rollout restart deploy orders
```
"""

_PROBE_LINE = re.compile(
    r"^\s*PROBE:\s*(pod_metrics|pod_list|config_get|link_stats|topology_summary)\s*(.*)$",
    re.MULTILINE,
)


@dataclass(frozen=True)
class EndpointConfig:
    url: str
    api_key: str | None = None
    model: str = "default"
    max_retries: int = 3
    backoff_s: float = 0.5
    timeout_s: float = 60.0
    max_inflight: int = 4  # in-flight request bound shared by policies on this config
    _gate: threading.BoundedSemaphore = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        object.__setattr__(self, "_gate", threading.BoundedSemaphore(self.max_inflight))

    @classmethod
    def from_env(cls, prefix: str = DEFAULT_ENV_PREFIX) -> "EndpointConfig":
        url = os.environ.get(f"{prefix}_URL")
        if not url:
            raise TransportError(f"environment variable {prefix}_URL is not set")
        return cls(
            url=url,
            api_key=os.environ.get(f"{prefix}_KEY"),
            model=os.environ.get(f"{prefix}_MODEL", "default"),
        )


class LlmPolicy(Policy):
    policy_id = "llm"
    deterministic = False

    def __init__(self, config: EndpointConfig):
        self.config = config

    def decide(self, inp: PolicyInput) -> PolicyOutput:
        messages = self._messages(inp)
        payload = self._post({"model": self.config.model, "messages": messages})
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        usage = payload.get("usage") or {}
        tokens_in = int(usage.get("prompt_tokens", 0))
        tokens_out = int(usage.get("completion_tokens", 0))

        probes = self._parse_probes(content)
        if probes:
            return ProbeRequest(queries=tuple(probes))

        fenced = extract_playbook_text(content)
        return RemedyProposal(
            playbook_text=fenced if fenced is not None else "",
            reasoning_text=content,
            tokens_in=tokens_in,
            tokens_out=tokens_out,
        )

    def _messages(self, inp: PolicyInput) -> list[dict]:
        system = SYSTEM_TEMPLATE.format(
            environment_summary=inp.context.environment_summary,
            constraints=", ".join(inp.context.action_constraints),
            probes=", ".join(inp.context.probe_catalog),
        )
        user = render_prompt(inp)
        return [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ]

    def _post(self, body: dict) -> dict:
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries):
            if attempt:
                time.sleep(self.config.backoff_s * (2 ** (attempt - 1)))
            request = urllib.request.Request(self.config.url, data=data, headers=headers)
            try:
                with self.config._gate:
                    with urllib.request.urlopen(request, timeout=self.config.timeout_s) as resp:
                        raw = resp.read(MAX_REPLY_BYTES + 1)
                if len(raw) > MAX_REPLY_BYTES:
                    raise TransportError(f"endpoint reply is longer than {MAX_REPLY_BYTES} bytes")
                return json.loads(raw.decode("utf-8"))
            except (urllib.error.URLError, TimeoutError, json.JSONDecodeError, OSError) as exc:
                last_error = exc
        raise TransportError(
            f"endpoint unreachable after {self.config.max_retries} attempts: {last_error}"
        )

    @staticmethod
    def _parse_probes(content: str) -> list[cluster.ProbeQuery]:
        queries = []
        for kind, args_raw in _PROBE_LINE.findall(content):
            args = args_raw.split()
            if kind == "pod_metrics" and len(args) == 1:
                queries.append(cluster.pod_metrics_query(args[0]))
            elif kind == "pod_list" and len(args) == 1:
                queries.append(cluster.pod_list_query(args[0]))
            elif kind == "config_get" and len(args) == 2:
                queries.append(cluster.config_get_query(args[0], args[1]))
            elif kind == "link_stats" and len(args) == 2:
                queries.append(cluster.link_stats_query(args[0], args[1]))
            elif kind == "topology_summary":
                queries.append(cluster.topology_summary_query())
        return queries
