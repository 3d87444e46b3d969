"""Adam with per-parameter step counts, row freezing, and row remapping.

Rows (axis 0 slices) can be frozen per step: frozen rows receive no parameter
update and their first/second-moment state does not advance, so unfreezing
later resumes exactly where that row left off. When the particle set is
edited (densify/prune), ``remap_rows`` carries the surviving rows' state over
and zero-initializes state for appended rows.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
DECAY_FACTOR, DECAY_PERIOD = 0.1, 0.4  # ``exp_decay``: one decade per 40% of the run


class Adam:
    def __init__(self):
        self.slots: dict[str, dict] = {}

    def register(self, name: str, param: Tensor) -> None:
        if name in self.slots:
            raise ValueError(f"parameter {name!r} registered twice")
        self.slots[name] = {
            "param": param,
            "m": np.zeros_like(param.data),
            "v": np.zeros_like(param.data),
            "t": 0,
        }

    def zero_grad(self) -> None:
        for slot in self.slots.values():
            slot["param"].grad = None

    def step(self, rates: dict[str, float], freeze_rows: dict[str, np.ndarray] | None = None) -> None:
        """One update for every registered parameter present in ``rates``.

        ``freeze_rows[name]`` is a boolean mask over axis 0; masked rows keep
        both their value and their optimizer state. A parameter with no
        gradient this step still advances its step count (a zero-gradient
        step), matching the hand-update contract.
        """
        freeze_rows = freeze_rows or {}
        for name, lr in rates.items():
            slot = self.slots[name]
            p = slot["param"]
            slot["t"] += 1
            g = p.grad
            if g is None:
                continue
            live = ~freeze_rows[name] if name in freeze_rows else slice(None)
            m, v, t = slot["m"], slot["v"], slot["t"]
            m[live] = BETA1 * m[live] + (1.0 - BETA1) * g[live]
            v[live] = BETA2 * v[live] + (1.0 - BETA2) * g[live] ** 2
            mhat = m[live] / (1.0 - BETA1**t)
            vhat = v[live] / (1.0 - BETA2**t)
            p.data[live] -= lr * mhat / (np.sqrt(vhat) + EPS)

    def remap_rows(self, name: str, kept_rows: np.ndarray, n_appended: int) -> None:
        """Reorder state after a row edit: kept rows first, fresh rows zeroed."""
        slot = self.slots[name]
        for key in ("m", "v"):
            old = slot[key]
            new = np.zeros((len(kept_rows) + n_appended,) + old.shape[1:])
            new[: len(kept_rows)] = old[kept_rows]
            slot[key] = new

    def state_arrays(self) -> dict[str, np.ndarray | int]:
        """Flat view of the optimizer state for checkpointing."""
        out: dict[str, np.ndarray | int] = {}
        for name, slot in self.slots.items():
            out[f"{name}.m"] = slot["m"]
            out[f"{name}.v"] = slot["v"]
            out[f"{name}.t"] = slot["t"]
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        """Adopt checkpointed moments: float64 arrays are taken, not copied."""
        for name, slot in self.slots.items():
            slot["m"] = np.asarray(arrays[f"{name}.m"], dtype=np.float64)
            slot["v"] = np.asarray(arrays[f"{name}.v"], dtype=np.float64)
            slot["t"] = int(np.asarray(arrays[f"{name}.t"]).item())


def exp_decay(iteration: int, total: int) -> float:
    """DECAY_FACTOR^(i / (DECAY_PERIOD * total)): 1 at the start, then one decade per period."""
    return DECAY_FACTOR ** (iteration / (DECAY_PERIOD * total))
