"""Benchmark harness for vsrkit: workloads, tracing and the run command."""
