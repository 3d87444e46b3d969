"""Desk-scale physics-informed deformable Gaussian splatting.

A self-contained, fully differentiable reconstruction engine for monocular
dynamic scenes: anisotropic Gaussian particles, a 4D decomposed hash-grid
deformation field, a plane-factorized material field predicting velocity and
stress, momentum-residual regularization, and camera-compensated flow
supervision — all on a from-scratch reverse-mode tape over numpy arrays.

The renderer is ``pidg.render.render``. It is not re-exported here, so the
package attribute ``pidg.render`` stays the submodule.

Importing ``pidg`` pins BLAS to one thread unless the environment names a
count: a product that reduces over the particle axis gives other bytes with
two OpenBLAS threads than with one, and seeded runs must reproduce byte for
byte on any machine. BLAS reads these variables when numpy loads, so when
numpy was imported first and they were unset, a note on stderr says so.
"""

import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(v not in os.environ for v in _BLAS_THREAD_VARS):
    print("note: numpy was imported before pidg, so its BLAS may run several threads and a "
          "seeded run's bytes may depend on the core count; set OPENBLAS_NUM_THREADS=1 "
          "(or import pidg first) to reproduce them exactly", file=sys.stderr)
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from . import autodiff
from .camera import Camera, camera_from_fov, look_at
from .config import RunConfig
from .deform import DeformConfig, DeformationField
from .encoding import MultiResHashGrid3D, PlaneGrid2D, decomposed_entry_count, monolithic_entry_count
from .flow import FlowField, decompose_backward, gaussian_flow, lpfm_loss, velocity_flow
from .material import MaterialConfig, MaterialField
from .optim import Adam, exp_decay
from .physics import block_sampled_cmr, cmr_loss, momentum_residual
from .render import RenderSettings, render_brute_force
from .scene import GaussianCloud, SceneNormalizer, densify_and_prune, partition_dynamic
from .synth import SceneSpec, generate, load_scene, scene_data, write_scene
from .train import Trainer, TrainingAborted, load_model

__all__ = [
    "Adam", "Camera", "DeformConfig", "DeformationField", "FlowField", "GaussianCloud",
    "MaterialConfig", "MaterialField", "MultiResHashGrid3D", "PlaneGrid2D", "RenderSettings",
    "RunConfig", "SceneNormalizer", "SceneSpec", "Trainer", "TrainingAborted", "autodiff",
    "block_sampled_cmr", "camera_from_fov", "cmr_loss", "decompose_backward",
    "decomposed_entry_count", "densify_and_prune", "exp_decay", "gaussian_flow", "generate",
    "load_model", "load_scene", "look_at", "lpfm_loss", "momentum_residual",
    "monolithic_entry_count", "partition_dynamic", "render_brute_force",
    "scene_data", "velocity_flow", "write_scene",
]

__version__ = "0.1.0"
