"""repro: an executable reproduction of Balliu, Brandt, Olivetti, Suomela,
"How much does randomness help with locally checkable problems?"
(PODC 2020, arXiv:1902.06803).

The package provides:

* ``repro.local`` — the LOCAL model substrate: port-numbered multigraphs,
  radius-metered views, and a synchronous message-passing engine.
* ``repro.lcl`` — the node-edge-checkable LCL formalism and its verifier.
* ``repro.problems`` — classic LCLs (sinkless orientation, colorings,
  MIS, matching) with deterministic and randomized solvers.
* ``repro.gadgets`` — the (log, Delta)-gadget family of Section 4 with
  its local checker, the error-pointer LCL Psi, and the prover V.
* ``repro.core`` — the paper's contribution: padded graphs, the padded
  problem Pi', its generic solver, hard instances, and the problem
  family Pi_i of Theorem 11.
* ``repro.generators`` / ``repro.analysis`` — instances, n-sweeps, and
  growth-shape fitting used to regenerate the paper's landscape.
* ``repro.runtime`` — the registry-driven execution layer: catalogs of
  problems, solvers, and families, and the one trial executor
  (``TrialBatch``) every (problem, solver, family) trial runs through.
* ``repro.engine`` — parallel, cached experiment orchestration over
  registry-generated specs (``python -m repro.engine``).
"""

__version__ = "1.0.0"
