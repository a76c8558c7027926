"""Configuration for the LambdaCC Louvain framework.

One config drives both the sequential (Algorithm 2) and parallel
(Algorithm 1) engines, and both objectives:

- ``objective="cc"``: correlation clustering with unit vertex weights
  ``k_v = 1`` and ``λ = resolution`` (the paper's PAR-CC / SEQ-CC).
- ``objective="modularity"``: ``k_v = weighted degree``,
  ``λ = resolution / (2W)`` with ``2W`` the total directed edge weight,
  so maximizing CC maximizes Reichardt–Bornholdt modularity with
  ``γ = resolution`` and ``Q = CC / (2W)`` (paper §2).
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CCConfig:
    """Knobs of Algorithm 1/2 and the §3.2 optimizations."""

    resolution: float = 0.5  # λ for "cc", γ for "modularity"
    objective: str = "cc"  # "cc" | "modularity"
    num_iter: int = 10  # best-move iterations per BEST-MOVES call
    to_convergence: bool = False  # SEQ^CON / ignore num_iter (capped at 200)
    async_moves: bool = True  # §3.2.1: async (True) vs synchronous (False)
    frontier: str = "vertices"  # §3.2.2: "all" | "vertices" | "clusters"
    refine: bool = True  # §3.2.3: multi-level refinement
    max_levels: int = 20
    seed: int = 0
    # P logical edge blocks (the async "threads"), run in min(P, cores) Spark tasks
    partitions: int = 8
    move_tol: float = 1e-9  # positive-delta threshold for a move

    def __post_init__(self) -> None:
        if self.objective not in ("cc", "modularity"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.frontier not in ("all", "vertices", "clusters"):
            raise ValueError(f"unknown frontier {self.frontier!r}")
        if not (0.0 <= self.resolution):
            raise ValueError("resolution must be non-negative")

    @property
    def effective_num_iter(self) -> int:
        return 200 if self.to_convergence else self.num_iter

    def with_(self, **kw) -> "CCConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kw)
