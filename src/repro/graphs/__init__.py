"""Graph substrate: generators, basic ops, triangles."""
