"""Whole-program cycle estimation.

The paper assumes partitioned caches with a 100% hit rate, so execution
time is fully determined by the static schedules: total cycles =
Σ over blocks (list-schedule length × profiled execution count).  The same
weighting yields the dynamic intercluster move count used by Figure 10.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..ir import Module
from ..machine import Machine
from ..schedule import ListScheduler


class BlockStats:
    """Schedule outcome of one block."""

    __slots__ = ("length", "frequency", "moves")

    def __init__(self, length: int, frequency: float, moves: int):
        self.length = length
        self.frequency = frequency
        self.moves = moves


class EvalResult:
    """Whole-program cycle and traffic totals."""

    def __init__(self):
        self.cycles = 0.0
        self.dynamic_moves = 0.0
        self.static_moves = 0
        self.blocks: Dict[Tuple[str, str], BlockStats] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<eval: {self.cycles:.0f} cycles, "
            f"{self.dynamic_moves:.0f} dynamic moves>"
        )


def evaluate_module(
    module: Module,
    assignment: Dict[int, int],
    machine: Machine,
    block_freq: Callable[[str, str], float],
) -> EvalResult:
    """Schedule every block and accumulate profile-weighted totals.

    ``assignment`` must cover every operation (including inserted
    ICMOVEs); ``block_freq(func, block)`` returns execution counts.
    """
    scheduler = ListScheduler(machine)
    result = EvalResult()
    for func in module:
        for block in func:
            if not block.ops:
                continue
            sched = scheduler.schedule_block(block, assignment)
            freq = block_freq(func.name, block.name)
            result.blocks[(func.name, block.name)] = BlockStats(
                sched.length, freq, sched.move_count
            )
            result.cycles += sched.length * freq
            result.dynamic_moves += sched.move_count * freq
            result.static_moves += sched.move_count
    return result
