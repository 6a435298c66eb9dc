"""Computable core of Gelfand-Shilov space theory for composition dynamics.

Weight functions and their structural conditions, Young conjugates, exact
polynomial iteration with fixed-point classification, jets with Faa di
Bruno composition, seminorm evaluation, and growth witnesses for
topologizability experiments.
"""

__version__ = "0.1.0"
