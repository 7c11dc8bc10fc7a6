"""Benchmark of the rfrac package: seeded workloads, references, layer trace."""
