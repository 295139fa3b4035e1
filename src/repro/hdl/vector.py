"""The ``vector`` backend: the compiled kernels at a 4096-lane quantum.

Compiled kernels (:mod:`repro.hdl.compile`) run on Python bigints of
any width, so a wide sweep needs no separate kernel — only a wider
sweep quantum.  :class:`VectorEngine` is the compiled engine with its
capability record changed: ``sweep_lanes`` is 4096, so fault-parallel
campaigns pack thousands of faults next to one golden lane per sweep
and the serving layer admits batches to match.  It overrides no hook,
so every sweep runs exactly the compiled engine's code.

``auto`` never picks it (``auto_priority`` sits below compiled): the
default campaign and serving width stays the compiled engine's 63
lanes, because wider sweeps hold more packed wire values in memory at
once.  Wide-sweep callers opt in with ``backend="vector"``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.hdl.engine import register_engine
from repro.hdl.simulator import CompiledEngine

__all__ = ["VECTOR_SWEEP_LANES", "VectorEngine"]

#: Payload-lane sweep quantum of the ``vector`` backend.  Wide enough
#: that a whole stuck-at campaign usually fits in one sweep.
VECTOR_SWEEP_LANES = 4096


@register_engine
class VectorEngine(CompiledEngine):
    """The compiled engine with a 4096-lane sweep quantum."""

    name = "vector"
    capabilities = replace(
        CompiledEngine.capabilities,
        name="vector",
        sweep_lanes=VECTOR_SWEEP_LANES,
        auto_priority=50,
    )
