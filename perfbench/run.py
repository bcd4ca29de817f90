#!/usr/bin/env python3
"""remlab benchmark: time the pipeline end to end and per layer, check its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload suite-expert --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The last line of a measured run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it name every metric with its unit and sample count, the
environment, and the output hashes. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from pace import PACE, REF_MS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("suite-expert", "train-chain", "replay-untrusted")
SETUP_PROBES = 5
SETUP_ROUNDS = 7  # calibration rounds between the steps of a set-up probe
WARMUP_UNIT = 999  # a unit index no run reaches, so no timed scenario is seen twice
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs; checks outputs, not speed")
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload at tiny size and validate the result schema")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def require_source() -> None:
    """Import remlab from this checkout's src/, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "remlab", "__init__.py")):
        sys.exit(f"perfbench: no remlab source under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import remlab

    if not os.path.abspath(remlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported remlab from {remlab.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_command(workload, seed, seconds, trace, tiny, extra=()):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    return cmd + (["--tiny"] if tiny else [])


# --- statistics ---------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at p90 of 100 values, 10 values lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for q in (0.99, 0.9):
        if n * (1 - q) >= 10:
            return q
    return 0.5


# --- one measured run ---------------------------------------------------------------


def environment(args) -> dict:
    import numpy
    import yaml

    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha,
        "src_hash": source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def source_hash() -> str:
    """Hash of every file under src/remlab, which identifies the code outside git."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    base = os.path.join(SRC, "remlab")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def setup_probe(args, tally) -> tuple[float, float]:
    """Wall and speed-adjusted seconds of a fresh process that only imports
    remlab and builds the inputs; the child's calibration rounds do not count."""
    cmd = child_command(args.workload, args.seed, args.seconds, 0, args.tiny, ["--setup-probe"])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    try:
        child = last_json_line(proc.stdout)
    except json.JSONDecodeError:
        child = None
    if proc.returncode != 0 or not child:
        tally.note(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return seconds, seconds
    # Interpreter start-up and exit lie outside the child's steps; scale them
    # by the speed the child measured first.
    outside = seconds - child["spent"] - child["wall"]
    return seconds - child["spent"], child["adjusted"] + outside * child["first_factor"]


def setup_child(args) -> int:
    """The set-up probe's own process: the steps of set-up with calibration
    rounds between them; prints their wall and speed-adjusted seconds."""
    import importlib

    def calibrate() -> float:
        first = len(PACE.rounds)
        for _ in range(SETUP_ROUNDS):
            PACE.tick()
        return REF_MS / (statistics.median(PACE.rounds[first:]) * 1e3)

    made = []
    steps = (
        require_source,
        lambda: made.append(importlib.import_module("workloads").WORKLOADS[args.workload]()),
        lambda: made[0].setup(args.seed, args.tiny, os.path.join(OUT, "unused")),
    )
    first_factor = before = calibrate()
    wall = adjusted = 0.0
    for step in steps:
        t0 = time.perf_counter()
        step()
        seconds = time.perf_counter() - t0
        after = calibrate()
        wall += seconds
        adjusted += seconds * (before + after) / 2
        before = after
    print(json.dumps({"wall": wall, "adjusted": adjusted, "first_factor": first_factor,
                      "spent": PACE.spent}))
    return 0


def measure(wl, args, tally, traced_tally, tracer_cls):
    """Run units until the time is up, with set-up probes spread over the run.

    Returns (untraced units, traced unit walls, set-up probes, hashes, tracer).
    An untraced unit is (wall time without calibration rounds, first round,
    end round); a probe is (wall time, speed-adjusted time). Probes taken all at once
    would catch only one phase of the host's speed; the time they take does not
    count as measuring. Traced units run no calibration rounds.
    """
    import workloads

    units, traced_s, setup_s, hashes = [], [], [], {}
    probes = 2 if args.tiny else SETUP_PROBES
    tracer = tracer_cls() if tracer_cls else None
    if tracer is None and wl.unit_key(WARMUP_UNIT) != wl.unit_key(0):
        # Warm up, untimed, on a unit the timed ones never repeat.
        warmup = workloads.Tally()
        wl.prepare(WARMUP_UNIT)
        try:
            wl.unit(WARMUP_UNIT, warmup)
        except Exception:
            tally.note("warm-up unit raised:\n" + traceback.format_exc(limit=8))
        for problem in warmup.problems:
            tally.note("warm-up unit: " + problem)
    start = time.perf_counter()
    probing = 0.0
    k = 0
    while True:
        measured = time.perf_counter() - start - probing
        if len(setup_s) < probes and measured >= len(setup_s) * args.seconds / probes:
            t0 = time.perf_counter()
            setup_s.append(setup_probe(args, tally))
            probing += time.perf_counter() - t0
        traced = tracer is not None and k % 2 == 1
        index = 0 if tracer is not None else k  # a traced run repeats unit 0
        wl.prepare(index)
        if traced:
            tracer.install()
        PACE.enabled = not traced
        first, spent, t0 = len(PACE.rounds), PACE.spent, time.perf_counter()
        try:
            h = wl.unit(index, traced_tally if traced else tally)
        except Exception:
            tally.note("unit raised:\n" + traceback.format_exc(limit=8))
            break
        finally:
            PACE.enabled = True
            if traced:
                tracer.uninstall()
        work = time.perf_counter() - t0 - (PACE.spent - spent)
        if traced:
            traced_s.append(work)
        else:
            units.append((work, first, len(PACE.rounds)))
        hashes.setdefault(wl.unit_key(index), []).append(h)
        k += 1
        elapsed = time.perf_counter() - start - probing
        if tracer is not None:
            if traced and elapsed >= args.seconds:
                break
        elif elapsed >= args.seconds and k >= wl.min_units and len(tally.op_ms) >= wl.min_ops:
            break

    # Outputs must repeat: rerun unit 0 if the run did not already repeat it.
    if hashes and len(hashes.get(wl.unit_key(0), ())) < 2:
        rerun = workloads.Tally()
        wl.prepare(0)
        try:
            hashes[wl.unit_key(0)].append(wl.unit(0, rerun))
        except Exception:
            tally.note("rerun of unit 0 raised:\n" + traceback.format_exc(limit=8))
        for problem in rerun.problems:
            tally.note("rerun of unit 0: " + problem)
    for key, seen in hashes.items():
        if any(h != seen[0] for h in seen[1:]):
            tally.note(f"unit {key} outputs differ between repeats: {seen}")
    while len(setup_s) < probes:
        setup_s.append(setup_probe(args, tally))
    return units, traced_s, setup_s, hashes, tracer


def check_references(args, wl_name, hashes, tally) -> None:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    if args.seed != refs["seed"] or not hashes:
        return
    expected = refs["tiny" if args.tiny else "full"].get(wl_name)
    got = hashes[0][0]
    if expected != got:
        tally.note(f"unit 0 hashes {got} differ from the reference {expected}")


def adjusted(tally, units, setup_s) -> tuple[list, list, list]:
    """Speed-adjusted op times (ms), unit times and set-up times (s); see pace.py."""
    f = PACE.factors()
    op_ms = [ms * f[r] for ms, r in zip(tally.op_ms, tally.op_round)]
    unit_s = [work * statistics.mean(f[a:b]) for work, a, b in units]
    return op_ms, unit_s, [adjusted_s for _, adjusted_s in setup_s]


def end_to_end(wl, tally, units, setup) -> tuple[dict, dict]:
    """Contract metrics plus the workload's own names (printed, not in the JSON)."""
    op_ms, unit_s, setup_s = adjusted(tally, units, setup)
    n = len(op_ms)
    metrics = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "episodes_per_s": (n / sum(unit_s), n),
        "episode_ms_p50": (statistics.median(op_ms), n),
        "episode_ms_p90": (percentile(op_ms, 0.9), n),
        "unit_s": (statistics.mean(unit_s), len(unit_s)),
        "ra": (statistics.mean(tally.ra), len(tally.ra)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    q = tail_percentile(n)
    tail = f"p{round(q * 100)}"
    named = {}
    if wl.name == "train-chain":
        named.update({
            "rollout_ms_p50": (metrics["episode_ms_p50"][0], n, "ms"),
            f"rollout_ms_{tail}": (percentile(op_ms, q), n, "ms"),
            "chain_s": (metrics["unit_s"][0], len(unit_s), "s"),
        })
    elif q > 0.9:
        named[f"episode_ms_{tail}"] = (percentile(op_ms, q), n, "ms")
    for key, ops in sorted(tally.extra.items()):
        if key.startswith("episode_op."):
            named[f"episode_ms_p50[{key[11:]}]"] = (statistics.median(op_ms[i] for i in ops), len(ops), "ms")
    if wl.name == "replay-untrusted":
        f = PACE.factors()
        replayed = tally.extra["replayed"]
        replay_s = [s * f[int(r)] for s, r in zip(tally.extra["replay_s"], tally.extra["replay_round"])]
        named["replay_episodes_per_s"] = (sum(replayed) / sum(replay_s), int(sum(replayed)), "1/s")
    named["error_rate"] = (tally.failed / max(1, tally.attempted), tally.attempted, "ratio")
    walls = [work for work, _, _ in units]
    named.update({
        "wall.setup_s": (statistics.median(wall for wall, _ in setup), len(setup), "s"),
        "wall.episode_ms_p50": (statistics.median(tally.op_ms), n, "ms"),
        "wall.episode_ms_p90": (percentile(tally.op_ms, 0.9), n, "ms"),
        "wall.unit_s": (statistics.mean(walls), len(walls), "s"),
        "host.speed_factor_p50": (statistics.median(PACE.factors()), len(PACE.rounds), "ratio"),
    })
    return metrics, named


def per_layer(tally, unit_s, traced_s, setup_tracer, tracer) -> dict:
    """Per-layer metrics from the traced units; wall times, not speed-adjusted."""
    from tracer import layer_metrics

    n_units = max(1, len(traced_s))
    metrics = layer_metrics(setup_tracer, tracer, n_units, sum(traced_s))
    for stage in ("harvest", "sft", "sim_rft", "mine", "real_rft"):
        values = tally.extra.get(f"stage_s.{stage}")
        metrics[f"training.stage_s.{stage}"] = statistics.median(values) if values else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(unit_s) - 1.0 if unit_s and traced_s else 0.0
    )
    return metrics


def run_one(args, spec) -> int:
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]()
    tally, traced_tally = workloads.Tally(), workloads.Tally()

    os.makedirs(OUT, exist_ok=True)
    out_root = os.path.join(OUT, f"runs-{os.getpid()}")
    wl.instrument()
    setup_tracer = Tracer()
    try:
        if args.trace:
            setup_tracer.install()
        try:
            wl.setup(args.seed, args.tiny, out_root)
        finally:
            setup_tracer.uninstall()
        units, traced_s, setup_s, hashes, tracer = measure(
            wl, args, tally, traced_tally, Tracer if args.trace else None
        )
    finally:
        wl.uninstrument()
        shutil.rmtree(out_root, ignore_errors=True)
    check_references(args, wl.name, hashes, tally)

    unit_s = [work for work, _, _ in units]
    ops_ok = tally.op_ms and unit_s
    samples, named = {}, {}
    if args.trace:
        values = per_layer(tally, unit_s, traced_s, setup_tracer, tracer) if ops_ok else {}
        section = spec["per_layer"]
    else:
        measured, named = end_to_end(wl, tally, units, setup_s) if ops_ok else ({}, {})
        values = {k: v[0] for k, v in measured.items()}
        samples = {k: v[1] for k, v in measured.items()}
        section = spec["end_to_end"]
    env = environment(args)
    problems = tally.problems + traced_tally.problems
    attempted = tally.attempted + traced_tally.attempted
    failed = tally.failed + traced_tally.failed
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        problems.append(f"no value for {missing}")
    correct = not problems and failed == 0 and attempted > 0

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"operations: {attempted} attempted, {failed} failed; units timed {len(unit_s)}"
          + (f", traced {len(traced_s)}" if args.trace else ""))
    for m in section:
        if m["name"] in values:
            n = f"  (n={samples[m['name']]})" if m["name"] in samples else ""
            print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}{n}")
    for name, (value, samples, unit) in named.items():
        print(f"  {name:<40} {value:>14.6g} {unit}  (n={samples})")
    for key, value in sorted(tally.extra.items()):
        if key.startswith("kind."):
            print(f"  transcript {key[5:]:<28} {int(sum(value))} outputs over {len(value)} suites")
    print(f"hashes of unit 0: {json.dumps(hashes[0][0] if hashes else None, sort_keys=True)}")
    for problem in problems:
        print(f"PROBLEM: {problem}")

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    extra = {k: v for k, v in tally.extra.items() if not k.startswith("episode_op.")}
    detail = {"environment": env, "values": values, "named": named, "hashes": hashes,
              "problems": problems, "extra": extra, "unit_s": unit_s, "traced_s": traced_s,
              "setup_s": setup_s, "op_ms": tally.op_ms, "op_round": tally.op_round,
              "rounds": PACE.rounds}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, sort_keys=True, indent=1, default=str)
    if tracer is not None:
        write_spans(os.path.join(OUT, f"trace-{tag}.jsonl"), env, setup=setup_tracer, units=tracer)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section if m["name"] in values},
    }
    print(json.dumps(result))
    return 0


def write_spans(path, env, **tracers) -> None:
    """One JSON header line, then one line per span:
    [phase, name, start_ns, end_ns, parent, episode, ok, replay].

    ``parent`` indexes the spans of the same phase; ``replay`` marks spans below
    ``bench.replay_run``.
    """
    from tracer import COLUMNS

    with open(path, "w", encoding="utf-8") as fh:
        header = {"environment": env, "columns": ["phase", *COLUMNS],
                  "counters": {phase: dict(t.counters) for phase, t in tracers.items()}}
        fh.write(json.dumps(header) + "\n")
        for phase, t in tracers.items():
            for span in t.spans:
                fh.write(json.dumps([phase, *span]) + "\n")


# --- modes that run children ----------------------------------------------------------


def last_json_line(stdout: str):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def validate(result, spec, trace: int) -> list[str]:
    errors = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result) if isinstance(result, dict) else result!r}"]
    if result["correct"] is not True:
        errors.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    if result["failed"] != 0:
        errors.append(f"failed = {result['failed']}")
    section = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    got = result["metrics"]
    if set(got) != set(expected):
        errors.append(f"metric names differ: missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    for name, entry in got.items():
        if set(entry) != {"value", "unit"} or entry.get("unit") != expected.get(name):
            errors.append(f"{name}: bad entry {entry}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            errors.append(f"{name}: value {entry['value']!r} is not a finite number")
        elif not trace and entry["value"] == 0:
            errors.append(f"{name}: an end-to-end metric reads 0")
    return errors


def self_check(spec) -> int:
    """Tiny runs of every workload in both modes; checks schema and outputs, not speed."""
    failures = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = child_command(workload, 0, 1, trace, True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            try:
                errors = validate(last_json_line(proc.stdout), spec, trace)
            except json.JSONDecodeError:
                errors = ["last line is not JSON"]
            if proc.returncode != 0:
                errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            errors += [line for line in proc.stdout.splitlines() if line.startswith("PROBLEM")]
            print(f"self-check {workload} trace={trace}: {'ok' if not errors else 'FAILED'}")
            for error in errors:
                print(f"  {error}")
            failures += bool(errors)
    print("self-check " + ("passed" if not failures else f"failed ({failures} runs)"))
    return 1 if failures else 0


def run_all(args) -> int:
    status = 0
    for workload in WORKLOAD_NAMES:
        print(f"== {workload}", flush=True)
        # A unit can end up to one unit past --seconds; a warm-up unit and a rerun of unit 0 add two.
        timeout = 3 * args.seconds + CHILD_TIMEOUT_S
        try:
            proc = subprocess.run(child_command(workload, args.seed, args.seconds, args.trace, args.tiny),
                                  cwd=ROOT, text=True, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{workload}: no result within {timeout} s", file=sys.stderr)
            status = 1
            continue
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
        result = last_json_line(proc.stdout) if proc.returncode == 0 else None
        status |= proc.returncode != 0 or not (result and result.get("correct"))
    return int(status)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.setup_probe:
        return setup_child(args)
    require_source()
    if args.self_check:
        return self_check(spec)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
