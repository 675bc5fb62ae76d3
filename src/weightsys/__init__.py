"""Exact Lie-algebra weight systems on oriented trivalent graphs.

Three independent routes to the same numbers: a generic tensor state sum
over any metrized Lie algebra, the gl(N) marking expansion yielding an
integer polynomial in N, and signed edge-3-coloring sums with the Tait
correspondence on the planar side.  All arithmetic is exact.

The layer modules are the API, each name imported from the one module
that defines it: ``graphs`` (pairings, parsing, connectivity, genus),
``algebra`` (metrized Lie algebras), ``poly`` (integer polynomials in N),
``statesum`` (the tensor state sum), ``ribbon`` (the marking expansion),
``coloring`` (edge 3-colorings, Penrose sums, face maps, Tait),
``catalog`` (catalogs, identity checks, surveys) and ``cli``.  Importing
one loads only the layers it uses; the package itself holds only
``__version__``.
"""

__version__ = "0.1.0"
