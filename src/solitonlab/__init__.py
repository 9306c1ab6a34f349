"""solitonlab: desk-scale spectral and dynamical experiments around solitons.

Subpackages by topic: radial grids/operators (radial), static profiles
(solitons), half-line spectral analysis (spectral), linearized NLS pairs
(linearized), low-energy resolvent machinery (resolvent), radial wave
dynamics and the stable-manifold experiment (dynamics), command line (cli).
"""

__version__ = "0.1.0"
