"""The resilient driver is :class:`repro.pipeline.Pipeline` (retry with
reseed, the degradation ladder, budgets and fault injection all live
there)."""

from ..pipeline.driver import Pipeline

#: Kept as a class attribute path because ``perfbench/spans.py`` wraps
#: ``ResilientPipeline.run`` (found with ``inspect.getattr_static``).
ResilientPipeline = Pipeline
