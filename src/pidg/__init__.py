"""Desk-scale physics-informed deformable Gaussian splatting.

A self-contained, fully differentiable reconstruction engine for monocular
dynamic scenes: anisotropic Gaussian particles, a 4D decomposed hash-grid
deformation field, a plane-factorized material field predicting velocity and
stress, momentum-residual regularization, and camera-compensated flow
supervision — all on a from-scratch reverse-mode tape over numpy arrays.

The renderer is ``pidg.render.render``. It is not re-exported here, so the
package attribute ``pidg.render`` stays the submodule.
"""

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
