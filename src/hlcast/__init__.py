"""Household lending capacity and house-price forecasting toolkit.

Importing the package loads no submodule: import each name from the module
that defines it. ``spec`` holds the names that several modules share.
"""

__version__ = "0.1.0"
