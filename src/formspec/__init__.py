"""formspec: exact-arithmetic lattice minima of homogeneous binary forms.

Subpackages by concern:

``exactcore``   rationals, intervals, integer polynomials, algebraic reals
``cfengine``    continued fractions, convergents, cylinder measures
``forms``       binary forms, discriminants, the unimodular action
``minima``      lattice minima m(P) and root minima
``diophsets``   Diophantine membership sets, structural search, AEL search
``spectrum``    spectrum-filling families, diagonal sweeps, Markoff triples
``cli``         command-line surface with a reproducible result cache
"""

__version__ = "0.1.3"
