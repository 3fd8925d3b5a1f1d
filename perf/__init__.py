"""The repo's performance benchmark (see perf/README.md and BENCHMARK.json)."""
