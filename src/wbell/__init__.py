"""Bell-test analysis for single-photon path-entangled states.

The package models an N-mode single-photon state (optionally entangled with
an atom), applies realistic two- and three-outcome detector models, and
quantifies nonlocality three ways: closed-form Bell functionals, critical
detection efficiencies found by bisection over optimized measurements, and
the exact EPR2 nonlocal content from a linear program over the local
polytope. Each name is imported from the module that defines it; the
package itself exports none.
"""

__version__ = "0.1.0"
