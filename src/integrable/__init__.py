"""Numerical toolkit for exactly solvable lattice models.

Subpackages cover q-arithmetic, tensor-space operators, quantum-group
representations, Yang-Baxter and reflection-equation checks, ASEP
generators (whose closed chain, seen through its reversible law, is the
U_q(sl2)-symmetric XXZ chain), stochastic vertex-model sampling and
fusion, matrix product ansatz stationary measures, and oscillator
realizations.
"""

__version__ = "0.1.0"
