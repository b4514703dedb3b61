"""Hydrodynamic (polar) formulation of the Dirac theory.

Spinor fields are handled through their polar variables: scalar density and
chiral angle, velocity and spin direction, plus a residual phase. The package
provides the Clifford algebra scaffolding, bilinear quadratics and their
algebraic interdependencies, the polar decomposition itself, field backgrounds
with derivative access, the full set of real bilinear balance equations, the
momentum/velocity guidance map in both directions, and trajectory integration,
all wired into a command line interface.  Each name is imported from the
module that defines it, such as ``diracpolar.polar``.
"""
