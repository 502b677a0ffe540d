"""repro: compiler-directed data partitioning for multicluster processors.

A from-scratch reproduction of Chu & Mahlke, *Compiler-directed Data
Partitioning for Multicluster Processors* (CGO 2006): a MiniC compiler
frontend, whole-program analyses, a profiling interpreter, a clustered-VLIW
machine model and list scheduler, a multilevel graph partitioner, and the
paper's Global Data Partitioning algorithm with its evaluation baselines.

Typical use (one driver, configured by one :class:`RunConfig`)::

    from repro import RunConfig
    from repro.pipeline import Pipeline

    pipe = Pipeline(RunConfig(latency=5, cache="off"))
    prepared = pipe.prepare(MINIC_SOURCE, "demo")
    result = pipe.run(prepared, "gdp")
    print(result.cycles)
"""

__version__ = "1.0.0"

from .exec.runconfig import RunConfig
from .ir import Module, verify_module
from .lang import compile_source

__all__ = [
    "Module", "RunConfig", "verify_module", "compile_source", "__version__",
]
