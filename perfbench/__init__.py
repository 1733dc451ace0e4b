"""The abincull benchmark: seeded workloads, a closed-loop runner, tracing."""
