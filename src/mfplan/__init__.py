"""Entropy-regularized dynamic optimal transport (mean-field planning) in 1-D.

Two independent routes to the same optimum:

* a primal Douglas-Rachford splitting of the kinetic+entropy+congestion
  functional under the discrete continuity constraint (``primal``), and
* a nested-mesh Newton solver for the quasilinear space-time elliptic
  equation satisfied by the dual potential (``dual``),

plus numerical checks of the associated a-priori estimates (``estimates``)
and a config-driven CLI (``cli``).  Each name lives in its module only:
``mfplan.primal.solve_primal``, not ``mfplan.solve_primal``.
"""

__version__ = "0.1.0"
