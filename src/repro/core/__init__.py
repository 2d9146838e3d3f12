"""MultiLogVC core: the paper's primary contribution.

Public surface: the :class:`MultiLogVC` engine, the vertex-centric
programming API (:class:`VertexProgram`, :class:`VertexContext`,
:class:`InitialState`) and the run-result types.
"""

from .active import ActiveTracker
from .api import InitialState, VertexContext, VertexProgram
from .edgelog import EdgeLogOptimizer
from .engine import MultiLogVC
from .loader import GraphLoaderUnit, LoadReport
from .multilog import MultiLogUnit
from .mutation import MutationBuffer
from .results import ComputeMeter, RunResult, SuperstepRecord, speedup
from .sortgroup import SortedGroup, SortGroupUnit
from .update import UpdateBatch

__all__ = [
    "ActiveTracker",
    "InitialState",
    "VertexContext",
    "VertexProgram",
    "EdgeLogOptimizer",
    "MultiLogVC",
    "GraphLoaderUnit",
    "LoadReport",
    "MultiLogUnit",
    "MutationBuffer",
    "ComputeMeter",
    "RunResult",
    "SuperstepRecord",
    "speedup",
    "SortedGroup",
    "SortGroupUnit",
    "UpdateBatch",
]
