"""Function-unit resource classes and per-cluster configurations."""

from __future__ import annotations

import enum
from typing import Dict, Optional


class FUClass(enum.Enum):
    """Function-unit classes; each op class executes on exactly one."""

    INT = "int"
    FLOAT = "float"
    MEM = "mem"
    BRANCH = "branch"


class ClusterConfig:
    """Resources of one cluster: FU counts and local memory capacity.

    ``memory_bytes`` bounds the data-object bytes homed on the cluster when
    a finite scratchpad is modelled; ``None`` means unbounded (the paper
    parameterises balance rather than capacity).
    """

    def __init__(
        self,
        fu_counts: Dict[FUClass, int],
        memory_bytes: Optional[int] = None,
        name: str = "",
    ):
        self.fu_counts = dict(fu_counts)
        self.memory_bytes = memory_bytes
        self.name = name
        for cls in FUClass:
            self.fu_counts.setdefault(cls, 0)

    def units(self, cls: FUClass) -> int:
        return self.fu_counts.get(cls, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = ", ".join(f"{c.value}={n}" for c, n in self.fu_counts.items())
        return f"<cluster {self.name or '?'}: {counts}>"


class InterclusterNetwork:
    """The shared move network: fixed bandwidth bus with uniform latency.

    The paper's model: "The intercluster network bandwidth allows for
    1 move per cycle with latencies of 1, 5 or 10 cycles."
    """

    def __init__(self, move_latency: int = 5, bandwidth: int = 1):
        if move_latency < 0 or bandwidth < 1:
            raise ValueError("move_latency >= 0 and bandwidth >= 1 required")
        self.move_latency = move_latency
        self.bandwidth = bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<bus latency={self.move_latency} bw={self.bandwidth}/cycle>"
