"""Desk-scale mask-piloted training for a masked-attention segmentation decoder.

Importing the package sets the OpenBLAS that numpy bundles to one thread
for the whole process (see ``_blas``). Every matrix here is small, so a
second BLAS thread only spins on a core between calls, which doubles a
training step's CPU time and leaves its wall time level.
"""

from . import _blas

_blas.set_threads(1)

from .masks import iou, scale_noise, shift_noise, to_attention_blocks
from .synth import Scene, SynthConfig, generate_scene, synth_features
from .tensor import Tensor
from .decoder import DecoderParams, ForwardSpec, LayerOutputs, binarize_masks, \
    full_forward, init_params
from .mp import MPConfig, MPPart, build_mp_part, dynamic_groups
from .losses import LossWeights, hungarian, layer_losses
from .metrics import MetricsReport, ap_lite, miou_layerwise, refinement_bounds, \
    util_layerwise

__version__ = "0.1.0"
