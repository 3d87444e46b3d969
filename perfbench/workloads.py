"""The benchmark workloads: a seeded synthetic scene plus a run config.

The seed given on the command line makes the scene (particle layout, colors
and shapes) and seeds the trainer; everything else about a workload is fixed
here, so the same seed always gives the same inputs and the same run.
"""

from __future__ import annotations

from dataclasses import dataclass

from pidg.config import RunConfig
from pidg.physics import AnalyticJetField, shear_flow_field, uniform_advection_field
from pidg.synth import SceneSpec

# Shortened two-stage schedule shared by every workload: 36 stage-1 steps
# with densify/prune after steps 12 and 24, then 24 stage-2 steps with the
# flow-matching loss on. The defaults train for 2000 steps; the per-step work
# is the same, so step medians carry over. The low densify threshold fills
# the particle budget by step 24 on every seed, so the per-step work in the
# last third of stage 1 and in stage 2 does not depend on the seed.
SCHEDULE = dict(iterations=60, stage_switch=0.6, densify_interval=12,
                densify_grad_threshold=1e-4, log_interval=1, checkpoint_interval=1000)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict
    run: dict

    def scene_spec(self, seed: int) -> SceneSpec:
        return SceneSpec(seed=seed, **self.scene)

    def run_config(self, seed: int) -> RunConfig:
        return RunConfig(seed=seed, **SCHEDULE, **self.run)


# criterion 7's scene (6 frames at 64x64, 40 particles), which both workloads
# start from with another motion
RIGID_SCENE = dict(variant="rigid", frames=6, width=64, height=64, num_particles=40,
                   translate=(0.35, 0.12, 0.0), rotate_z_deg=0.0, base_scale=0.05)

# why each workload exists is recorded in BENCHMARK.json and the README
WORKLOADS = {
    w.name: w for w in (
        Workload("shear128", dict(RIGID_SCENE, variant="shear", gamma=0.6, width=128, height=128),
                 dict(init_particles=150, max_particles=300)),
        Workload("advect_dense", dict(RIGID_SCENE, variant="advect"),
                 dict(init_particles=600, max_particles=1200, cmr_samples=1024)),
    )
}


def closed_form_field(spec: SceneSpec) -> AnalyticJetField:
    """The exact velocity/stress field of the scene's own motion."""
    if spec.variant == "shear":
        return shear_flow_field(spec.gamma, spec.eta, spec.rho)
    if spec.variant == "advect":
        return uniform_advection_field(spec.velocity, spec.rho)
    raise ValueError(f"no closed-form field for variant {spec.variant!r}")
