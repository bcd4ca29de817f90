"""
Benchmark runs, metrics, and replay
===================================

Run the expert and noop policies over a generated suite, persist the runs
under their manifest hashes, read back the accuracy/latency/token metrics,
and verify the persisted run by replaying it.
"""

import os
import tempfile

from remlab import bench, faults
from remlab.bench import RunManifest, run_suite
from remlab.loop import LoopConfig
from remlab.policies import ExpertPolicy, NoopPolicy, build_default_library
from remlab.topology import bundled_topology

topo = bundled_topology("simple-micro")
library = build_default_library(topo)
scenarios = faults.gen_suite(topo, "easy", seed=1)
# The runs are written to a temporary directory that is removed on exit.
with tempfile.TemporaryDirectory(prefix="remlab-demo-") as root:
    for policy_id, factory in (
        ("expert", lambda i, s: ExpertPolicy(library)),
        ("noop", lambda i, s: NoopPolicy()),
    ):
        manifest = RunManifest(
            topology=topo.name, difficulty="easy", seed=1, policy_id=policy_id,
            loop=LoopConfig(t_max=1),
        )
        result = run_suite(factory, topo, scenarios, manifest, out_dir=root)
        agg = result.aggregates
        arl = f"{agg['arl_ms']:.0f}ms" if agg["arl_ms"] is not None else "null"
        atc = f"{agg['atc']:.0f}" if agg["atc"] is not None else "null"
        print(f"{policy_id:7s} ra={agg['ra']:.2f} arl={arl:>8s} atc={atc:>6s} "
              f"agreement={agg['oracle_observable_agreement']:.2f} "
              f"-> {os.path.join(root, manifest.manifest_hash)}")

    # The persisted directory holds everything needed to reproduce the run.
    expert_hash = RunManifest(
        topology=topo.name, difficulty="easy", seed=1, policy_id="expert",
        loop=LoopConfig(t_max=1),
    ).manifest_hash
    run_dir = os.path.join(root, expert_hash)
    print("\npersisted files:", sorted(os.listdir(run_dir)))

    with open(os.path.join(run_dir, "summary.txt")) as fh:
        print("\n" + fh.read())

    # Replay: recompute aggregates from the log and re-execute every episode's
    # proposals against fresh injections; digests must match.
    outcome = bench.replay_run(run_dir, topology=topo)
    print(f"replay: aggregates_match={outcome['aggregates_match']} "
          f"digest_matches={outcome['digest_matches']}/{outcome['replayed']}")
