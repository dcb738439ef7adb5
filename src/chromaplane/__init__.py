"""chromaplane: bounds and exact colorings for interval-distance graphs of the plane.

The package studies colorings of the plane in which no two points at
distance in [1, b] share a color. Each name is imported from its module:

- geom: points, unit-circle chords, pair distances, seeded forbidden-pair draws;
- distgraph: distance graphs, read-only point and edge arrays, on circle configurations;
- solver: exact k-colorability plus DIMACS/CNF/LP exports;
- annulus: radial annulus colorings, lower-bound configurations,
  threshold bisection and the annulus bounds table;
- hexcolor: (p, q) colorings of the hexagonal tiling and their reach;
- eightcol: the eight-coloring's constraint system and optimum;
- text: the one print format of every table and record (CSV and JSON);
- cli: deterministic command-line front end.
"""

from . import annulus, distgraph, eightcol, geom, hexcolor, solver

__version__ = "0.1.0"
