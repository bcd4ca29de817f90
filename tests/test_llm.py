"""Endpoint client tests against a local mock chat-completion server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from remlab import cluster, faults, llm
from remlab.errors import TransportError
from remlab.faults import FailureSpec, FailureType, build_aux
from remlab.llm import EndpointConfig, LlmPolicy
from remlab.policies import PolicyInput, ProbeRequest, RemedyProposal


class _MockHandler(BaseHTTPRequestHandler):
    responses: list[dict] = []
    calls: list[dict] = []
    authorization: list[str | None] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).calls.append(body)
        type(self).authorization.append(self.headers.get("Authorization"))
        if not type(self).responses:
            self.send_response(500)
            self.end_headers()
            return
        payload = type(self).responses.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _MockHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _MockHandler.responses = []
    _MockHandler.calls = []
    _MockHandler.authorization = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


def _completion(content, prompt_tokens=120, completion_tokens=60):
    return {
        "choices": [{"message": {"role": "assistant", "content": content}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def _input(simple_micro):
    aux = build_aux(simple_micro)
    state = cluster.load_topology(simple_micro, seed=5)
    record = faults.inject(state, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    report = faults.make_report(record, aux)
    return PolicyInput(report=report, context=aux, history=[])


def test_fenced_playbook_extracted(mock_endpoint, simple_micro, cpu_scale_playbook_text):
    _MockHandler.responses = [
        _completion(f"Scaling should fix it.\n```yaml\n{cpu_scale_playbook_text}```")
    ]
    policy = LlmPolicy(EndpointConfig(url=mock_endpoint))
    out = policy.decide(_input(simple_micro))
    assert isinstance(out, RemedyProposal)
    from remlab.playbook import parse_playbook

    assert len(parse_playbook(out.playbook_text).tasks) == 3
    assert out.tokens_in == 120 and out.tokens_out == 60


def test_prose_only_becomes_unparsable_proposal(mock_endpoint, simple_micro):
    _MockHandler.responses = [_completion("I would restart the service, probably.")]
    policy = LlmPolicy(EndpointConfig(url=mock_endpoint))
    out = policy.decide(_input(simple_micro))
    assert isinstance(out, RemedyProposal)
    assert out.playbook_text == ""
    from remlab.playbook import check_structure

    assert check_structure(out.playbook_text).r_struct == 0.0


def test_probe_lines_become_probe_request(mock_endpoint, simple_micro):
    _MockHandler.responses = [
        _completion("PROBE: pod_metrics orders\nPROBE: link_stats frontend gateway\n")
    ]
    policy = LlmPolicy(EndpointConfig(url=mock_endpoint))
    out = policy.decide(_input(simple_micro))
    assert isinstance(out, ProbeRequest)
    assert len(out.queries) == 2
    assert out.queries[0].service == "orders"


def test_probe_lines_of_every_kind_parse():
    content = (
        "PROBE: pod_metrics orders\n"
        "PROBE: pod_list orders\n"
        "PROBE: config_get orders retry_limit\n"
        "PROBE: link_stats frontend gateway\n"
        "PROBE: topology_summary\n"
        "PROBE: pod_list\n"  # a line with the wrong argument count is dropped
        "PROBE: config_get orders\n"
    )
    assert LlmPolicy._parse_probes(content) == [
        cluster.pod_metrics_query("orders"),
        cluster.pod_list_query("orders"),
        cluster.config_get_query("orders", "retry_limit"),
        cluster.link_stats_query("frontend", "gateway"),
        cluster.topology_summary_query(),
    ]


@pytest.mark.parametrize("reply", [{}, {"choices": []}, {"choices": [{"message": None}]}])
def test_malformed_reply_is_a_transport_error(mock_endpoint, simple_micro, reply):
    _MockHandler.responses = [reply]
    policy = LlmPolicy(EndpointConfig(url=mock_endpoint))
    with pytest.raises(TransportError, match="malformed completion response"):
        policy.decide(_input(simple_micro))


def test_api_key_is_sent_as_a_bearer_token(mock_endpoint, simple_micro):
    _MockHandler.responses = [_completion("PROBE: topology_summary")] * 2
    LlmPolicy(EndpointConfig(url=mock_endpoint, api_key="sk-demo")).decide(_input(simple_micro))
    LlmPolicy(EndpointConfig(url=mock_endpoint)).decide(_input(simple_micro))
    assert _MockHandler.authorization == ["Bearer sk-demo", None]


def test_over_cap_reply_is_a_transport_error(mock_endpoint, simple_micro, monkeypatch):
    monkeypatch.setattr(llm, "BACKOFF_S", 0.01)
    _MockHandler.responses = [_completion("x" * llm.MAX_REPLY_BYTES)]
    policy = LlmPolicy(EndpointConfig(url=mock_endpoint))
    with pytest.raises(TransportError, match="longer than"):
        policy.decide(_input(simple_micro))
    assert len(_MockHandler.calls) == 1


def test_unreachable_endpoint_raises_after_retries(simple_micro, monkeypatch):
    monkeypatch.setattr(llm, "MAX_RETRIES", 2)
    monkeypatch.setattr(llm, "BACKOFF_S", 0.01)
    monkeypatch.setattr(llm, "TIMEOUT_S", 0.5)
    config = EndpointConfig(url="http://127.0.0.1:9/nothing")
    with pytest.raises(TransportError, match="after 2 attempts"):
        LlmPolicy(config).decide(_input(simple_micro))


def test_retry_then_success(mock_endpoint, simple_micro, monkeypatch):
    # first response missing -> 500, then a good one
    _MockHandler.responses = []

    def feed():
        _MockHandler.responses.append(_completion("PROBE: topology_summary"))

    timer = threading.Timer(0.2, feed)
    timer.start()
    monkeypatch.setattr(llm, "BACKOFF_S", 0.3)
    policy = LlmPolicy(EndpointConfig(url=mock_endpoint))
    out = policy.decide(_input(simple_micro))
    assert isinstance(out, ProbeRequest)
    timer.cancel()


def test_inflight_requests_are_bounded(simple_micro, monkeypatch):
    import threading
    import time
    from http.server import ThreadingHTTPServer

    peak = {"now": 0, "max": 0}
    lock = threading.Lock()

    class SlowHandler(_MockHandler):
        def do_POST(self):
            with lock:
                peak["now"] += 1
                peak["max"] = max(peak["max"], peak["now"])
            time.sleep(0.05)
            data = json.dumps(_completion("PROBE: topology_summary")).encode()
            with lock:
                peak["now"] -= 1
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    server = ThreadingHTTPServer(("127.0.0.1", 0), SlowHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        monkeypatch.setattr(llm, "MAX_INFLIGHT", 2)
        config = EndpointConfig(url=f"http://127.0.0.1:{server.server_port}/v1/chat/completions")
        inp = _input(simple_micro)
        threads = [
            threading.Thread(target=lambda: LlmPolicy(config).decide(inp))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak["max"] <= 2
    finally:
        server.shutdown()


def test_endpoint_config_from_env(monkeypatch):
    monkeypatch.setenv("REMLAB_LLM_URL", "http://example.test/v1/chat")
    monkeypatch.setenv("REMLAB_LLM_KEY", "sk-demo")
    monkeypatch.setenv("REMLAB_LLM_MODEL", "small-model")
    config = EndpointConfig.from_env()
    assert config.url.endswith("/v1/chat")
    assert config.api_key == "sk-demo"
    assert config.model == "small-model"
    monkeypatch.delenv("REMLAB_LLM_URL")
    with pytest.raises(TransportError, match="REMLAB_LLM_URL"):
        EndpointConfig.from_env()
