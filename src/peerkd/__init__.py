"""Online mutual knowledge distillation between co-trained convolutional
classifiers: temperature-softened logit mimicry plus adversarial feature-map
matching through per-edge discriminators, with a cyclic topology for three
or more peers."""

from .analysis import SimilarityReport, export_pgm, feature_similarity, grad_cam
from .blocks import (Discriminator, IdentityTransfer, Network, TransferLayer,
                     build_discriminator, build_network, build_transfer_layer)
from .data import (Dataset, RunConfig, batches, build_config, channel_stats,
                   load_idx, load_splits, parse_config_file, save_idx, standardize,
                   synth_blobs)
from .losses import cross_entropy, kl_mimicry, l1_alignment, lsgan_d_loss, lsgan_g_loss
from .optim import Adam, SGDMomentum, lr_at
from .tensor import Tensor, backward, no_grad
from .trainer import DistillPlan, StepRecord, build_plan, evaluate, run_experiment, train_step

__version__ = "0.1.0"
