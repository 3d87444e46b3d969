"""Pinhole camera: intrinsics, world-to-camera pose, projection helpers.

Conventions: camera looks along its +z axis; pixel (u, v) addresses image
array element [v, u] with pixel centers at integer coordinates; world frame
is right-handed with +y up by default in the synthetic scenes.
"""

from __future__ import annotations

import numpy as np


class Camera:
    def __init__(self, fx, fy, cx, cy, rot, trans, width, height):
        self.fx = float(fx)
        self.fy = float(fy)
        self.cx = float(cx)
        self.cy = float(cy)
        self.rot = np.asarray(rot, dtype=np.float64).reshape(3, 3)  # world -> camera
        self.trans = np.asarray(trans, dtype=np.float64).reshape(3)
        self.width = int(width)
        self.height = int(height)

    @property
    def center(self) -> np.ndarray:
        """Camera position in world coordinates."""
        return -self.rot.T @ self.trans

    def world_to_cam(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rot.T + self.trans

    def project(self, points: np.ndarray):
        """World points (N,3) -> pixel coordinates (N,2) and camera depth (N,)."""
        pc = self.world_to_cam(np.atleast_2d(points))
        z = pc[:, 2]
        u = self.fx * pc[:, 0] / z + self.cx
        v = self.fy * pc[:, 1] / z + self.cy
        return np.stack([u, v], axis=1), z

    def backproject(self, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Pixels (N,2) with camera depths (N,) -> world points (N,3).

        The camera-space point is K^-1 * D * (u, v, 1)^T.
        """
        pixels = np.atleast_2d(pixels)
        depths = np.asarray(depths, dtype=np.float64)
        x = (pixels[:, 0] - self.cx) / self.fx * depths
        y = (pixels[:, 1] - self.cy) / self.fy * depths
        pc = np.stack([x, y, depths], axis=1)
        return (pc - self.trans) @ self.rot

    def to_dict(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "rot": self.rot.reshape(-1).tolist(),
            "trans": self.trans.tolist(),
            "width": self.width,
            "height": self.height,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Camera":
        return cls(d["fx"], d["fy"], d["cx"], d["cy"], d["rot"], d["trans"], d["width"], d["height"])


def look_at(position, target, up=(0.0, 1.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """World-to-camera rotation and translation for a camera at ``position``
    looking toward ``target``."""
    position = np.asarray(position, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    z = target - position
    nz = np.linalg.norm(z)
    if nz < 1e-12:
        raise ValueError("camera position coincides with the look-at target")
    z = z / nz
    x = np.cross(up, z)
    nx = np.linalg.norm(x)
    if nx < 1e-12:
        raise ValueError("camera up vector is parallel to the viewing direction")
    x = x / nx
    y = np.cross(z, x)
    rot = np.stack([x, y, z], axis=0)  # rows are camera axes in world coords
    trans = -rot @ position
    return rot, trans


def camera_from_fov(position, target, fov_deg, width, height, up=(0.0, 1.0, 0.0)) -> Camera:
    rot, trans = look_at(position, target, up)
    f = 0.5 * width / np.tan(0.5 * np.deg2rad(fov_deg))
    return Camera(f, f, (width - 1) / 2.0, (height - 1) / 2.0, rot, trans, width, height)
