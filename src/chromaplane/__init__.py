"""chromaplane: bounds and exact colorings for interval-distance graphs of the plane.

The package studies colorings of the plane in which no two points at
distance in [1, b] share a color. It provides:

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
from .geom import Point2, chord
from .distgraph import (
    CircleSpec,
    DistanceGraph,
    PointConfig,
    build_graph,
    export_dimacs,
    graph_from_points,
)
from .solver import (
    COLORABLE,
    NOT_COLORABLE,
    BudgetExhausted,
    ColoringOutcome,
    KColorQuery,
    chromatic_number,
    export_cnf,
    export_lp,
    k_colorable,
    verify_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "COLORABLE",
    "CircleSpec",
    "ColoringOutcome",
    "DistanceGraph",
    "KColorQuery",
    "NOT_COLORABLE",
    "Point2",
    "PointConfig",
    "build_graph",
    "chord",
    "chromatic_number",
    "export_cnf",
    "export_dimacs",
    "export_lp",
    "graph_from_points",
    "k_colorable",
    "verify_coloring",
]
