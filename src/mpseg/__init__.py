"""Desk-scale mask-piloted training for a masked-attention segmentation decoder."""

from .masks import BinaryMask, iou, point_noise, resize_nearest, scale_noise, \
    shift_noise, to_attention_blocks
from .synth import FeaturePyramid, Scene, SynthConfig, generate_scene, synth_features
from .tensor import Tensor
from .decoder import DecoderParams, ForwardSpec, LayerOutputs, binarize_masks, \
    full_forward, init_params
from .mp import MPConfig, MPPart, build_mp_part, dynamic_groups
from .losses import Assignment, LossWeights, hungarian, layer_losses, mask_losses
from .metrics import MetricsReport, ap_lite, miou_layerwise, refinement_bounds, \
    unbiased_weight_ratio, util_layerwise, util_mp_hard

__version__ = "0.1.0"
