"""Numerical higher parallel transport for matrix Lie 2-groups.

The package realizes the two directions of the dictionary between surface
transport and pairs (A, B) of Lie-algebra-valued differential forms:
reconstruction by nested initial value problems, and extraction by
difference quotients, together with the BF criticality check and
loop-space transgression built on top of them.
"""

__version__ = "0.1.0"
