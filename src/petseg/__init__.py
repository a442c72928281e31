"""petseg: a desk-scale PET/CT lesion-segmentation pipeline.

NIfTI-1 I/O, spacing-aware resampling, 4-channel windowing, coronal-MIP
tracer discrimination trained from scratch, organ-label fusion,
tracer-routed ensemble inference with test-time augmentation, and
Dice/FPV/FNV evaluation, each imported from its own module (the
package root holds only ``__version__``).
"""

__version__ = "0.1.0"
