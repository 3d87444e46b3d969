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
        self._buffers = (np.empty(0), np.empty(0))

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

        The update runs in place: each ufunc writes into ``m``, ``v``, the
        parameter or one of two scratch arrays, and its ``where`` skips the
        frozen rows. Every expression is the textbook one in its usual
        order, so the bytes equal those of the out-of-place formulas.
        """
        freeze_rows = freeze_rows or {}
        for name, lr in rates.items():
            slot = self.slots[name]
            p = slot["param"]
            slot["t"] += 1
            g = p.grad
            if g is None:
                continue
            live = True
            if name in freeze_rows:
                live = ~freeze_rows[name].reshape((-1,) + (1,) * (g.ndim - 1))
            m, v, t = slot["m"], slot["v"], slot["t"]
            a, b = self._scratch(g.shape)
            np.multiply(m, BETA1, out=m, where=live)
            np.multiply(g, 1.0 - BETA1, out=a, where=live)
            np.add(m, a, out=m, where=live)  # m = BETA1 m + (1 - BETA1) g
            np.multiply(v, BETA2, out=v, where=live)
            np.square(g, out=a, where=live)
            np.multiply(a, 1.0 - BETA2, out=a, where=live)
            np.add(v, a, out=v, where=live)  # v = BETA2 v + (1 - BETA2) g^2
            np.divide(m, 1.0 - BETA1**t, out=a, where=live)  # mhat
            np.multiply(a, lr, out=a, where=live)
            np.divide(v, 1.0 - BETA2**t, out=b, where=live)  # vhat
            np.sqrt(b, out=b, where=live)
            np.add(b, EPS, out=b, where=live)
            np.divide(a, b, out=a, where=live)
            np.subtract(p.data, a, out=p.data, where=live)  # p -= lr mhat / (sqrt(vhat) + EPS)

    def _scratch(self, shape) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch arrays of ``shape``, views of buffers kept across steps."""
        size = int(np.prod(shape))
        if self._buffers[0].size < size:
            self._buffers = (np.empty(size), np.empty(size))
        return tuple(buf[:size].reshape(shape) for buf in self._buffers)

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
