"""Benchmark harness for amplitude-lab: workloads, oracles, spans and metrics."""

# The workloads BENCHMARK.json lists.
WORKLOAD_NAMES = ("dense-pairs", "product-chain", "cli-oneshot")
# Runnable by name but left out of BENCHMARK.json: on a shared host its ops
# take about 1.5 times longer in slow phases than in fast ones, so its run
# medians can spread past the largest allowed bound (see README.md).
UNLISTED_WORKLOADS = ("abelian-chain",)
