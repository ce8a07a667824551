"""Staged scheduling-cycle pipeline.

One TetriSched cycle is a fixed sequence of typed stages::

    StrlGeneration -> Compilation -> ModelBuild -> Decompose -> Solve -> Extract

(or ``StrlGeneration -> GreedyScheduling`` for the -NG ablation).  Each
stage is a small object with a ``name`` and a ``run(ctx)`` method; the
:class:`~repro.pipeline.driver.CyclePipeline` driver runs them in order
under per-stage :mod:`repro.obs` spans and records wall-clock timings in
the shared :class:`~repro.pipeline.context.CycleContext`.  A stage may
``ctx.halt()`` to short-circuit the rest of the cycle (nothing to
schedule, solver returned no solution).

This makes ``TetriSched.run_cycle`` a thin driver and gives experiments a
uniform "where does cycle time go" breakdown (see docs/architecture.md).
"""

from repro.pipeline.context import CycleContext
from repro.pipeline.driver import CyclePipeline, global_pipeline, greedy_pipeline
from repro.pipeline.stages import (
    Compilation,
    Decompose,
    Extract,
    GreedyScheduling,
    ModelBuild,
    Solve,
    Stage,
    StageName,
    StrlGeneration,
)

__all__ = [
    "CycleContext",
    "CyclePipeline",
    "Stage",
    "StageName",
    "StrlGeneration",
    "Compilation",
    "ModelBuild",
    "Decompose",
    "Solve",
    "Extract",
    "GreedyScheduling",
    "global_pipeline",
    "greedy_pipeline",
]
