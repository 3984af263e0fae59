"""Cannings fixation-probability simulator.

Dirichlet-type and spiked paintboxes, the selective frequency process,
its Galton-Watson bounding processes with exact survival solvers, and a
Monte Carlo experiment layer with reproducible parallel streams.

Import each name from the module that defines it (`haldane.paintbox`,
`haldane.cannings`, ...); importing the package loads none of them.
"""

__version__ = "0.5.2"
