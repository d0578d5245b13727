"""TPC-C on all five systems: the §6.1.2 comparison in one script.

Runs the scaled-down TPC-C benchmark on AEON (multi-ownership), AEON_SO,
EventWave, Orleans (tree-locked) and Orleans* (non-serializable), prints
throughput/latency, and — the punchline — checks the cross-context
invariant (warehouse YTD == sum of district YTDs == sum of customer YTD
payments).  Every strictly serializable system preserves it; Orleans*
visibly does not.

Run with::

    python examples/tpcc_comparison.py
"""

from repro.apps.tpcc import TpccConfig, TpccWorkload, build_tpcc
from repro.harness.runner import SYSTEMS, make_testbed
from repro.workloads import ClosedLoopClients

DURATION_MS = 8000.0
WARMUP_MS = 2500.0


def run_system(system, duration_ms=DURATION_MS, warmup_ms=WARMUP_MS, n_clients=48):
    # Plain data out, so the testbed lives in a ``with`` block: five
    # deployments run in this process, and each is freed as it finishes.
    with make_testbed(system, n_servers=4, seed=1) as testbed:
        config = TpccConfig(districts=4, customers_per_district=10)
        deployment = build_tpcc(
            testbed.runtime,
            config,
            multi_ownership=(system == "aeon"),
            servers=testbed.servers,
            colocate=system in ("aeon", "aeon_so", "eventwave"),
        )
        workload = TpccWorkload(deployment, system)
        clients = ClosedLoopClients(
            testbed.runtime, workload.sample_op, n_clients=n_clients,
            think_ms=5.0, rng=testbed.rng, stop_at_ms=duration_ms,
        )
        clients.start()
        testbed.sim.run(until=duration_ms + 15000.0)

        runtime = testbed.runtime
        window_s = (duration_ms - warmup_ms) / 1000.0
        throughput = runtime.latency.count_between(warmup_ms, duration_ms) / window_s
        latency = runtime.latency.mean_latency(warmup_ms)
        probe = deployment.consistency_probe()
        consistent = (
            probe["warehouse_ytd"] == probe["district_ytd"] == probe["customer_ytd"]
        )
        return throughput, latency, consistent, probe


def main(systems=SYSTEMS, duration_ms=DURATION_MS, warmup_ms=WARMUP_MS,
         n_clients=48):
    """Compare the systems (tests call this with a reduced roster/scale)."""
    print(f"{'system':>13}  {'txn/s':>8}  {'mean lat':>9}  {'YTD invariant':>14}")
    for system in systems:
        throughput, latency, consistent, probe = run_system(
            system, duration_ms, warmup_ms, n_clients
        )
        verdict = "holds" if consistent else "VIOLATED"
        print(f"{system:>13}  {throughput:8.0f}  {latency:8.1f}m  {verdict:>14}")
        if not consistent:
            print(f"{'':>13}  warehouse={probe['warehouse_ytd']}  "
                  f"districts={probe['district_ytd']}  "
                  f"customers={probe['customer_ytd']}")
    print("\nOrleans* is the paper's 'best-case but erroneous' baseline: "
          "fast, and it breaks the money-conservation invariant.")


if __name__ == "__main__":
    main()
