"""Run configuration: one validated, JSON-serializable object.

Every setting has one default, here or in the field configs
(``DeformConfig``, ``MaterialConfig``): the desk-scale values the end-to-end
tests use. A JSON config names only what it changes, nested field sections
included; the rest keep their defaults. Full-scale hyperparameters from the
underlying method are a config edit (see the README), not a code edit.
``validate`` returns *all* problems at once — a run never starts with a
half-checked config.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .deform import DeformConfig
from .material import MaterialConfig

ABLATIONS = ("none", "no-lpfm", "no-physics")


@dataclass
class RunConfig:
    scene_dir: str = ""
    out_dir: str = "run"
    seed: int = 42
    iterations: int = 2000
    stage_switch: float = 0.6
    log_interval: int = 1
    checkpoint_interval: int = 1000
    # loss weights
    lambda_c: float = 0.2
    lambda_cmr: float = 0.1
    lambda_lpfm: float = 0.01
    lambda_g: float = 0.5
    lambda_v: float = 0.5
    ablate: str = "none"
    # sampling
    top_k: int = 8
    cmr_samples: int = 256
    cmr_block: int = 256
    cmr_include_advection: bool = True
    # cloud
    init_particles: int = 150
    max_particles: int = 300
    densify_interval: int = 200
    densify_grad_threshold: float = 2e-3
    prune_scale_threshold: float = 0.15
    min_opacity: float = 0.005
    dynamic_fraction: float = 0.3
    # learning rates
    lr_position: float = 5e-4
    lr_sh: float = 5e-3
    lr_opacity: float = 5e-2
    lr_scale: float = 5e-3
    lr_rotation: float = 2e-3
    lr_decoder: float = 2e-3
    grid_lr_multiplier: float = 20.0
    lr_material: float = 2e-3
    # field hyperparameters
    deform: DeformConfig = field(default_factory=DeformConfig)
    material: MaterialConfig = field(default_factory=MaterialConfig)

    def validate(self) -> list[str]:
        """Every problem of the config: each field of the wrong type, checked
        by ``from_dict``'s rule, then each range rule, with a wrong-typed
        field checked at its default."""
        typed = RunConfig()
        return _set_fields(typed, self.to_dict(), "") + typed._range_errors()

    def _range_errors(self) -> list[str]:
        e = []
        if self.iterations < 1:
            e.append("iterations must be >= 1")
        if not 0.0 < self.stage_switch <= 1.0:
            e.append("stage_switch must be in (0, 1]")
        for name in ("lambda_c", "lambda_cmr", "lambda_lpfm", "lambda_g", "lambda_v"):
            if getattr(self, name) < 0.0:
                e.append(f"{name} must be >= 0")
        if not 0.0 <= self.lambda_c <= 1.0:
            e.append("lambda_c must be in [0, 1]")
        if self.ablate not in ABLATIONS:
            e.append(f"ablate must be one of {ABLATIONS}")
        if self.top_k < 1:
            e.append("top_k must be >= 1")
        if self.cmr_samples < 1 or self.cmr_block < 1:
            e.append("cmr_samples and cmr_block must be >= 1")
        if self.init_particles < 1:
            e.append("init_particles must be >= 1")
        if self.max_particles < self.init_particles:
            e.append("max_particles must be >= init_particles")
        if self.log_interval < 1 or self.checkpoint_interval < 1:
            e.append("log and checkpoint intervals must be >= 1")
        if self.densify_interval < 1:
            e.append("densify_interval must be >= 1")
        if not 0.0 <= self.dynamic_fraction <= 1.0:
            e.append("dynamic_fraction must be in [0, 1]")
        for name in ("lr_position", "lr_sh", "lr_opacity", "lr_scale", "lr_rotation",
                     "lr_decoder", "lr_material"):
            if getattr(self, name) <= 0.0:
                e.append(f"{name} must be > 0")
        if self.grid_lr_multiplier <= 0.0:
            e.append("grid_lr_multiplier must be > 0")
        for name in ("deform.spatial_levels", "deform.temporal_levels", "deform.feature_dim",
                     "deform.spatial_base", "deform.spatial_max", "deform.time_base",
                     "deform.time_max", "deform.table_size_log2", "deform.attn_width",
                     "deform.hidden_width", "material.plane_levels", "material.fourier_n",
                     "material.plane_base", "material.plane_max", "material.table_size",
                     "material.embed_dim", "material.hidden_width"):
            section, key = name.split(".")
            if getattr(getattr(self, section), key) < 1:
                e.append(f"{name} must be >= 1")
        if self.material.rho <= 0.0:
            e.append("material.rho must be > 0")
        return e

    def require_valid(self) -> "RunConfig":
        errors = self.validate()
        if errors:
            raise ValueError("invalid config:\n  - " + "\n  - ".join(errors))
        return self

    def stage2_start(self) -> int:
        """The first stage-2 iteration."""
        return max(1, int(round(self.stage_switch * self.iterations)))

    def effective_weights(self) -> tuple[float, float]:
        """(lambda_cmr, lambda_lpfm) with the ablation applied."""
        cmr = 0.0 if self.ablate == "no-physics" else self.lambda_cmr
        lpfm = 0.0 if self.ablate == "no-lpfm" else self.lambda_lpfm
        return cmr, lpfm

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config a JSON object describes. Raises ``ValueError`` with one
        line per unknown field and per value of the wrong type."""
        cfg = cls()
        errors = _set_fields(cfg, d, "")
        if errors:
            raise ValueError("\n".join(errors))
        return cfg

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def save_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)


def _set_fields(obj, d, prefix: str, what: str = "config") -> list[str]:
    """Set the fields of dataclass ``obj`` that ``d`` names, a nested
    dataclass from a nested object; return the problems found, each field
    named by its dotted path. A value must have its default's type, except
    that an int is fine for a float; a bool is not a number. A tuple field
    takes a list of as many numbers as its default holds."""
    if not isinstance(d, dict):
        return [f"{prefix[:-1] or what} must be a JSON object"]
    names = {f.name for f in fields(obj)}
    errors = []
    for key, value in d.items():
        name = prefix + key
        if key not in names:
            errors.append(f"unknown {what} field {name!r}")
            continue
        default = getattr(obj, key)
        if is_dataclass(default):
            errors += _set_fields(default, value, name + ".", what)
        elif isinstance(default, tuple):
            if (isinstance(value, (list, tuple)) and len(value) == len(default)
                    and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
                setattr(obj, key, tuple(value))
            else:
                errors.append(f"{name} must be a list of {len(default)} numbers, not {value!r}")
        elif (isinstance(value, bool) == isinstance(default, bool)
              and isinstance(value, (int, float) if isinstance(default, float) else type(default))):
            setattr(obj, key, value)
        else:
            errors.append(f"{name} must be {type(default).__name__}, not {value!r}")
    return errors
