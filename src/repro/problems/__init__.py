"""Classic LCL problems and their solvers (the blue dots of Figure 1)."""

from repro.problems.coloring import LinialColoringSolver, VertexColoring
from repro.problems.cycle_coloring import CycleColoringSolver, ThreeColoringCycles
from repro.problems.matching import (
    ColorClassMatchingSolver,
    LubyMatchingSolver,
    MaximalMatching,
    line_graph,
)
from repro.problems.mis import (
    ColorClassMisSolver,
    LubyMisSolver,
    MaximalIndependentSet,
)
from repro.problems.orientation import IN, OUT, Orientation, fix_deficient
from repro.problems.sinkless import SinklessOrientation
from repro.problems.sinkless_solvers import (
    DeterministicSinklessSolver,
    RandomizedSinklessSolver,
    anchor_scan,
)
from repro.problems.trivial import (
    ConstantLabelProblem,
    ConstantSolver,
    ParityOfDegreeProblem,
    ParitySyncSolver,
    ParityViewSolver,
)

__all__ = [
    "LinialColoringSolver",
    "VertexColoring",
    "CycleColoringSolver",
    "ThreeColoringCycles",
    "ColorClassMatchingSolver",
    "LubyMatchingSolver",
    "MaximalMatching",
    "line_graph",
    "ColorClassMisSolver",
    "LubyMisSolver",
    "MaximalIndependentSet",
    "IN",
    "OUT",
    "Orientation",
    "fix_deficient",
    "SinklessOrientation",
    "DeterministicSinklessSolver",
    "RandomizedSinklessSolver",
    "anchor_scan",
    "ConstantLabelProblem",
    "ConstantSolver",
    "ParityOfDegreeProblem",
    "ParitySyncSolver",
    "ParityViewSolver",
]
