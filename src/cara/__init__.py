"""Confidence-aware rotation averaging on SO(3)."""

from . import graph, kernels, metrics, so3, solver, stream, synth, tree_init
from .graph import EdgeStream
from .metrics import AlignedErrorStats, align, alignment_loss, error_stats
from .solver import (RobustKernel, SolveConfig, SolveReport, cal_loss,
                     cao_solve, irls_solve)
from .synth import SyntheticScene, SyntheticSceneSpec
from .tree_init import SpanningTree, maximum_spanning_tree, propagate

__version__ = "0.1.0"
