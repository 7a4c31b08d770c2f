"""Benchmark for fusionkit: fixed workloads through the CLI and the public API."""
