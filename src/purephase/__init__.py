"""purephase: simulate, prepare and certify pure phase entangled photon pairs.

Modules: states (Gaussian biphoton algebra), optics (operator chains and
the split-measurement model), gridsim (numerical oracle), frames (Monte-Carlo
camera frames), estimation (frame statistics), density (density grids and
their files), wavelets and denoise (spectral cleaning), fitting (Gaussian
fits), sidecar (key=value metadata files), config/pipeline/cli (batch
reproduction).

Submodules import numpy; this package imports none of them, so the CLI can
pin thread counts first.
"""
__version__ = "0.1.0"
