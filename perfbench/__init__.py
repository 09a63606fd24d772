"""Repository benchmark: workloads, timing shims and the runner."""
