"""facepipe's benchmark: seeded workloads driven through the public CLI."""
