"""Synthetic toy scenes with closed-form ground truth.

Every motion variant is a global space deformation map Phi_t with a closed
form (and closed-form inverse), applied to a small Gaussian cloud observed by
an orbiting pinhole camera:

* ``rigid``    — X(t) = Rz(theta t)(X0 - c) + c + t*T
* ``shear``    — X(t) = X0 + gamma * t * y0 * ex  (steady simple shear)
* ``elastic``  — X(t) = X0 - (A/w) sin(k x0 - w t) * ex, w = c*k,
                 c^2 = (lam + 2 mu)/rho (longitudinal plane wave)
* ``advect``   — X(t) = X0 + v*t

Ground-truth assets are mutually consistent by construction: the emitted
depth map is the coverage-normalized expected splat depth, so backprojecting
a pixel lands on a virtual surface point, and the emitted backward flow is
that exact point's reprojected motion under Phi. Decomposing the generated
flow against the generated depth therefore recovers the analytic object flow
to f64 roundoff on every valid pixel — there is no discretization gap to
tune around.

Pixel validity marks object coverage (opacity-weight sum above a small
threshold); empty pixels carry zero flow and zero depth. Motion masks are
pixels whose analytic motion flow exceeds 0.1 px.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import camera_from_fov
from .config import _set_fields
from .flow import FlowField, _pixel_grid, surface_points
from .render import RenderSettings, render
from .scene import SH_C0, GaussianCloud
from . import io as pio

MASK_THRESHOLD_PX = 0.1


@dataclass
class SceneSpec:
    variant: str = "rigid"
    frames: int = 8
    width: int = 64
    height: int = 64
    seed: int = 42
    # particles
    num_particles: int = 60
    center: tuple = (0.0, 0.0, 0.0)
    radius: float = 0.5
    base_scale: float = 0.06
    opacity: float = 0.9
    color_mode: str = "random"  # or "gray"
    # camera orbit
    fov_deg: float = 45.0
    orbit_radius: float = 3.0
    orbit_height: float = 0.6
    orbit_degrees: float = 20.0
    orbit_start_deg: float = 180.0
    # motion parameters (variant-dependent)
    translate: tuple = (0.4, 0.0, 0.0)
    rotate_z_deg: float = 0.0
    rotate_center: tuple = (0.0, 0.0, 0.0)
    gamma: float = 0.6
    eta: float = 1.0
    amplitude: float = 0.05
    wavenumber: float = 6.283185307179586
    lam: float = 1.0
    mu: float = 0.5
    rho: float = 1.0
    velocity: tuple = (0.3, 0.1, 0.0)
    pressure: float = 0.0
    coverage_threshold: float = 0.05

    def validate(self) -> list[str]:
        errors = []
        if self.variant not in ("rigid", "shear", "elastic", "advect"):
            errors.append(f"unknown variant {self.variant!r}")
        if self.frames < 2:
            errors.append("need at least 2 frames")
        if self.num_particles < 1:
            errors.append("need at least 1 particle")
        if self.orbit_radius <= 0:
            errors.append("camera orbit has zero volume (orbit_radius must be > 0)")
        if self.width < 8 or self.height < 8:
            errors.append("image too small")
        for name, ok, bounds in (("fov_deg", 0 < self.fov_deg < 180, "in (0, 180)"),
                                 ("base_scale", self.base_scale > 0, "> 0"),
                                 ("opacity", 0 < self.opacity <= 1, "in (0, 1]"),
                                 ("coverage_threshold", 0 <= self.coverage_threshold < 1, "in [0, 1)")):
            if not ok:
                errors.append(f"{name} must be {bounds}, not {getattr(self, name)!r}")
        if self.variant == "elastic":
            c = np.sqrt((self.lam + 2.0 * self.mu) / self.rho)
            if self.amplitude / c >= 0.9:
                errors.append("elastic amplitude too large for invertible motion (A/c must be < 0.9)")
        return errors

    def to_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.__dict__.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        """The spec a JSON object describes, by the run config's type rule.
        Raises ``ValueError`` with one line per unknown field and per value
        of the wrong type."""
        spec = cls()
        errors = _set_fields(spec, d, "", "scene spec")
        if errors:
            raise ValueError("\n".join(errors))
        return spec


class MotionModel:
    """Closed-form deformation map Phi_t with inverse and material velocity."""

    def __init__(self, spec: SceneSpec):
        self.spec = spec
        if spec.variant == "elastic":
            self.c = float(np.sqrt((spec.lam + 2.0 * spec.mu) / spec.rho))
            self.omega = self.c * spec.wavenumber

    def forward(self, x0: np.ndarray, t: float) -> np.ndarray:
        """Material points at reference positions x0 -> world positions at t."""
        s = self.spec
        x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
        if s.variant == "rigid":
            th = np.deg2rad(s.rotate_z_deg) * t
            rz = np.array([[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]])
            c = np.asarray(s.rotate_center)
            return (x0 - c) @ rz.T + c + t * np.asarray(s.translate)
        if s.variant == "shear":
            out = x0.copy()
            out[:, 0] += s.gamma * t * x0[:, 1]
            return out
        if s.variant == "elastic":
            out = x0.copy()
            out[:, 0] += -(s.amplitude / self.omega) * np.sin(s.wavenumber * x0[:, 0] - self.omega * t)
            return out
        if s.variant == "advect":
            return x0 + t * np.asarray(s.velocity)
        raise ValueError(s.variant)

    def inverse(self, x: np.ndarray, t: float) -> np.ndarray:
        """World positions at t -> reference positions (exact, or fixed-point)."""
        s = self.spec
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if s.variant == "rigid":
            th = np.deg2rad(s.rotate_z_deg) * t
            rz = np.array([[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]])
            c = np.asarray(s.rotate_center)
            return (x - c - t * np.asarray(s.translate)) @ rz + c
        if s.variant == "shear":
            out = x.copy()
            out[:, 0] -= s.gamma * t * x[:, 1]
            return out
        if s.variant == "elastic":
            x0 = x[:, 0].copy()
            amp = s.amplitude / self.omega
            for _ in range(200):
                nxt = x[:, 0] + amp * np.sin(s.wavenumber * x0 - self.omega * t)
                if np.abs(nxt - x0).max() < 1e-15:
                    x0 = nxt
                    break
                x0 = nxt
            out = x.copy()
            out[:, 0] = x0
            return out
        if s.variant == "advect":
            return x - t * np.asarray(s.velocity)
        raise ValueError(s.variant)

    def velocity(self, x0: np.ndarray, t: float) -> np.ndarray:
        """Material velocity dX/dt at reference positions x0 (per unit t)."""
        s = self.spec
        x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
        n = x0.shape[0]
        if s.variant == "rigid":
            w = np.deg2rad(s.rotate_z_deg)
            th = w * t
            drz = w * np.array([[-np.sin(th), -np.cos(th), 0.0], [np.cos(th), -np.sin(th), 0.0], [0.0, 0.0, 0.0]])
            c = np.asarray(s.rotate_center)
            return (x0 - c) @ drz.T + np.asarray(s.translate)
        if s.variant == "shear":
            v = np.zeros((n, 3))
            v[:, 0] = s.gamma * x0[:, 1]
            return v
        if s.variant == "elastic":
            v = np.zeros((n, 3))
            v[:, 0] = s.amplitude * np.cos(s.wavenumber * x0[:, 0] - self.omega * t)
            return v
        if s.variant == "advect":
            return np.tile(np.asarray(s.velocity, dtype=np.float64), (n, 1))
        raise ValueError(s.variant)

    def stress(self, x0: np.ndarray, t: float) -> np.ndarray:
        """Analytic Cauchy stress (N, 3, 3) where the variant defines one."""
        s = self.spec
        x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
        n = x0.shape[0]
        out = np.zeros((n, 3, 3))
        if s.variant == "rigid":
            return out  # e = 0 identically
        if s.variant == "shear":
            out[:, 0, 1] = out[:, 1, 0] = s.eta * s.gamma  # 2*eta*(gamma/2)
            return out
        if s.variant == "elastic":
            exx = -(s.amplitude / self.c) * np.cos(s.wavenumber * x0[:, 0] - self.omega * t)
            out[:, 0, 0] = (s.lam + 2.0 * s.mu) * exx
            out[:, 1, 1] = out[:, 2, 2] = s.lam * exx
            return out
        if s.variant == "advect":
            out[:, 0, 0] = out[:, 1, 1] = out[:, 2, 2] = -s.pressure
            return out
        raise ValueError(s.variant)


class SyntheticScene:
    """Generated scene: exact in-memory assets plus the analytic motion model."""

    def __init__(self, spec: SceneSpec, cloud0: GaussianCloud, cameras, times, images,
                 depths, flows_b, flows_fwd, masks, bounds):
        self.spec = spec
        self.cloud0 = cloud0
        self.cameras = cameras
        self.times = times
        self.images = images      # (F, H, W, 3)
        self.depths = depths      # (F, H, W) coverage-normalized; 0 where empty
        self.flows_b = flows_b    # F-1 backward FlowFields (frame f+1 -> f)
        self.flows_fwd = flows_fwd  # F-1 forward FlowFields (frame f -> f+1)
        self.masks = masks        # (F, H, W) bool
        self.bounds = bounds      # (center (3,), scale float) for normalization
        self.motion = MotionModel(spec)

    @property
    def frames(self) -> int:
        return len(self.times)

    def cloud_at(self, f: int) -> GaussianCloud:
        """Ground-truth cloud posed at frame f (rigid variants rotate shapes)."""
        t = self.times[f]
        c0 = self.cloud0
        mu = self.motion.forward(c0.mu.data, t)
        quat = c0.quat.data.copy()
        if self.spec.variant == "rigid" and self.spec.rotate_z_deg != 0.0:
            th = np.deg2rad(self.spec.rotate_z_deg) * t
            qrot = np.array([np.cos(th / 2.0), 0.0, 0.0, np.sin(th / 2.0)])
            quat = _quat_multiply(qrot, quat)
        return GaussianCloud(mu, quat, c0.log_scale.data.copy(), c0.sh.data.copy(),
                             c0.opacity_logit.data.copy(), c0.ids.copy(), c0.dynamic.copy())

    def analytic_motion_flow(self, pair: int) -> FlowField:
        """Object motion flow anchored at I_{pair+1}, projected through cam_pair.

        This is exactly what decompose_backward should recover from the
        generated backward flow and depth.
        """
        f0, f1 = pair, pair + 1
        surf = surface_points(self.depths[f1], self.cameras[f1])
        valid = self.depths[f1] > 0.0
        x0 = self.motion.inverse(surf.reshape(-1, 3), self.times[f1])
        xa = self.motion.forward(x0, self.times[f0])
        p_now, z_now = self.cameras[f0].project(surf.reshape(-1, 3))
        p_then, z_then = self.cameras[f0].project(xa)
        vec = (p_now - p_then).reshape(self.depths[f1].shape + (2,))
        ok = valid & (z_now > 0).reshape(valid.shape) & (z_then > 0).reshape(valid.shape)
        return FlowField(vec, ok)


def _quat_multiply(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Hamilton product q*p, q one quaternion (w,x,y,z), p a batch (N, 4)."""
    w1, x1, y1, z1 = q
    w2, x2, y2, z2 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=1)


def _init_cloud(spec: SceneSpec, rng) -> GaussianCloud:
    cloud = GaussianCloud.random_init(rng, spec.num_particles, spec.center, spec.radius,
                                      spec.base_scale, opacity=spec.opacity)
    if spec.color_mode == "random":
        dc = (rng.uniform(0.15, 0.85, (spec.num_particles, 3)) - 0.5) / SH_C0
        cloud.sh.data[:, 0, :] = dc
        cloud.sh.data[:, 1:, :] = rng.normal(0.0, 0.04, (spec.num_particles, 3, 3))
    return cloud


def _orbit_cameras(spec: SceneSpec):
    cams = []
    for f in range(spec.frames):
        frac = f / (spec.frames - 1)
        th = np.deg2rad(spec.orbit_start_deg + spec.orbit_degrees * frac)
        pos = (np.asarray(spec.center)
               + np.array([spec.orbit_radius * np.cos(th), spec.orbit_height, spec.orbit_radius * np.sin(th)]))
        cams.append(camera_from_fov(pos, spec.center, spec.fov_deg, spec.width, spec.height))
    return cams


def generate(spec: SceneSpec) -> SyntheticScene:
    """Build the scene: render targets, exact depth/flow/mask ground truth."""
    errors = spec.validate()
    if errors:
        raise ValueError("invalid scene spec: " + "; ".join(errors))
    rng = np.random.default_rng(spec.seed)
    cloud0 = _init_cloud(spec, rng)
    cams = _orbit_cameras(spec)
    times = [f / (spec.frames - 1) for f in range(spec.frames)]
    motion = MotionModel(spec)
    settings = RenderSettings(threads=1)

    scene = SyntheticScene(spec, cloud0, cams, times, None, None, None, None, None, None)
    images = np.zeros((spec.frames, spec.height, spec.width, 3))
    depths = np.zeros((spec.frames, spec.height, spec.width))
    covers = np.zeros((spec.frames, spec.height, spec.width), dtype=bool)
    for f in range(spec.frames):
        out = render(scene.cloud_at(f), cams[f], times[f], settings=settings)
        images[f] = out.image_np()
        coverage = 1.0 - out.t_final
        ok = coverage > spec.coverage_threshold
        # normalized expected depth: exact mixture of object depths, no bg leak
        depths[f] = np.where(ok, out.depth_np() / np.where(ok, coverage, 1.0), 0.0)
        covers[f] = ok
    scene.images, scene.depths = images, depths

    grid = _pixel_grid(spec.height, spec.width).reshape(-1, 2)

    def carried_flow(src: int, dst: int) -> FlowField:
        """Flow at I_src: where each surface point of frame src is at time dst,
        seen by camera dst."""
        surf = surface_points(depths[src], cams[src]).reshape(-1, 3)
        p, z = cams[dst].project(motion.forward(motion.inverse(surf, times[src]), times[dst]))
        ok = covers[src].reshape(-1) & (z > 0)
        return FlowField((p - grid).reshape(spec.height, spec.width, 2), ok.reshape(spec.height, spec.width))

    scene.flows_b = [carried_flow(f + 1, f) for f in range(spec.frames - 1)]
    scene.flows_fwd = [carried_flow(f, f + 1) for f in range(spec.frames - 1)]

    masks = np.zeros((spec.frames, spec.height, spec.width), dtype=bool)
    for f in range(spec.frames):
        pair = (f, f + 1) if f < spec.frames - 1 else (f - 1, f)
        surf = surface_points(depths[f], cams[f]).reshape(-1, 3)
        x0 = motion.inverse(surf, times[f])
        pa, za = cams[f].project(motion.forward(x0, times[pair[0]]))
        pb, zb = cams[f].project(motion.forward(x0, times[pair[1]]))
        mag = np.hypot(*(pb - pa).T)
        masks[f] = (covers[f].reshape(-1) & (za > 0) & (zb > 0)
                    & (mag > MASK_THRESHOLD_PX)).reshape(spec.height, spec.width)
    scene.masks = masks

    # normalization bounds: particle positions across all frames, with margin
    all_pos = np.concatenate([motion.forward(cloud0.mu.data, t) for t in times])
    center = 0.5 * (all_pos.min(axis=0) + all_pos.max(axis=0))
    half = float(np.max(all_pos.max(axis=0) - all_pos.min(axis=0))) * 0.5
    margin = 4.0 * spec.base_scale + 0.2 * max(half, 1e-3)
    scene.bounds = (center, 2.0 * (half + margin))
    return scene


# ---------------------------------------------------------------------------
# on-disk scene directories

def write_scene(scene: SyntheticScene, out_dir) -> Path:
    """Emit frames (PPM), flows (backward + forward), depths, masks, cameras."""
    out = pio.ensure_dir(out_dir)
    for f in range(scene.frames):
        pio.write_ppm(out / f"frame_{f:04d}.ppm", scene.images[f])
        pio.write_depth(out / f"depth_{f:04d}.dep", scene.depths[f])
        pio.write_pgm(out / f"mask_{f:04d}.pgm", scene.masks[f])
    for f in range(scene.frames - 1):
        pio.write_flow(out / f"flow_b_{f:04d}.flo", scene.flows_b[f])
        pio.write_flow(out / f"flow_fwd_{f:04d}.flo", scene.flows_fwd[f])
    pio.write_cameras(out / "cameras.json", scene.cameras)
    manifest = {
        "spec": scene.spec.to_dict(),
        "frames": scene.frames,
        "times": list(scene.times),
        "bounds": {"center": list(map(float, scene.bounds[0])), "scale": float(scene.bounds[1])},
    }
    with open(out / "scene.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return out


class SceneData:
    """A training-ready scene loaded from disk (or taken from memory)."""

    def __init__(self, images, depths, flows_b, flows_fwd, masks, cameras, times, bounds, spec=None):
        self.images = images
        self.depths = depths
        self.flows_b = flows_b
        self.flows_fwd = flows_fwd
        self.masks = masks
        self.cameras = cameras
        self.times = times
        self.bounds = bounds
        self.spec = spec

    @property
    def frames(self) -> int:
        return len(self.times)


def scene_data(scene: SyntheticScene) -> SceneData:
    """Exact in-memory assets (no file quantization)."""
    return SceneData(scene.images, scene.depths, scene.flows_b, scene.flows_fwd,
                     scene.masks, scene.cameras, scene.times, scene.bounds, scene.spec)


def _manifest_bounds(bounds, path) -> tuple[np.ndarray, float]:
    """The (center, scale) of a manifest's ``bounds`` entry: an object with a
    3-number ``center`` and a positive finite ``scale``."""
    if not isinstance(bounds, dict):
        raise ValueError(f"{path}: 'bounds' must be an object with 'center' and 'scale'")
    center, scale = bounds.get("center"), bounds.get("scale")
    if not (isinstance(center, list) and len(center) == 3 and all(map(_finite_number, center))):
        raise ValueError(f"{path}: 'bounds.center' must list 3 finite numbers, got {center!r}")
    if not (_finite_number(scale) and scale > 0):
        raise ValueError(f"{path}: 'bounds.scale' must be a positive finite number, got {scale!r}")
    return np.asarray(center, dtype=np.float64), float(scale)


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def load_scene(scene_dir) -> SceneData:
    """The scene ``write_scene`` wrote to ``scene_dir``; a malformed
    scene.json raises a ValueError naming the file and the bad entry."""
    d = Path(scene_dir)
    path = d / "scene.json"
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    for key in ("frames", "times", "bounds"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise ValueError(f"{path} has no '{key}' entry")
    frames, times = manifest["frames"], manifest["times"]
    if type(frames) is not int or not isinstance(times, list) or len(times) != frames:
        raise ValueError(f"{path}: 'times' must list one time for each of 'frames' ({frames!r})")
    images = np.stack([pio.read_ppm(d / f"frame_{f:04d}.ppm") for f in range(frames)])
    depths = np.stack([pio.read_depth(d / f"depth_{f:04d}.dep") for f in range(frames)])
    masks = np.stack([pio.read_pgm(d / f"mask_{f:04d}.pgm") > 0 for f in range(frames)])
    flows_b = [pio.read_flow(d / f"flow_b_{f:04d}.flo") for f in range(frames - 1)]
    flows_fwd = [pio.read_flow(d / f"flow_fwd_{f:04d}.flo") for f in range(frames - 1)]
    cameras = pio.read_cameras(d / "cameras.json")
    bounds = _manifest_bounds(manifest["bounds"], path)
    spec = SceneSpec.from_dict(manifest["spec"]) if "spec" in manifest else None
    return SceneData(images, depths, flows_b, flows_fwd, masks, cameras, times=times,
                     bounds=bounds, spec=spec)
