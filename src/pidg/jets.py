"""First-order jets: a field value bundled with its four coordinate partials.

A jet carries (value, d/dx, d/dy, d/dz, d/dt), each a tape tensor of the same
shape. Field evaluators produce jets by propagating tangents alongside values
(one forward sweep); because every slot is an ordinary tape tensor, losses
built from the partials remain differentiable with respect to the field's
parameters.
"""

from __future__ import annotations


class JetVec:
    __slots__ = ("val", "dx", "dy", "dz", "dt")

    def __init__(self, val, dx, dy, dz, dt):
        self.val = val
        self.dx = dx
        self.dy = dy
        self.dz = dz
        self.dt = dt

    def partials(self):
        return (self.dx, self.dy, self.dz, self.dt)
