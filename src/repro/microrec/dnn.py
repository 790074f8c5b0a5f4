"""The fully-connected CTR head: functional MLP + FPGA timing.

After the embedding lookups, a recommendation inference concatenates
the vectors and runs a small MLP down to one click-through-rate logit.
:class:`Mlp` is the functional network (ReLU hidden layers, linear
output); :func:`fpga_mlp_latency_s` prices one inference on a DSP
systolic array (the "low-latency DNN computation" half of Figure 5).

Pricing needs only the layer widths, so an :class:`Mlp` holds its
widths and draws its weights on the first :meth:`Mlp.forward`; a model
that is only priced never draws them.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.clocking import FABRIC_300MHZ, ClockDomain

__all__ = ["Mlp", "fpga_mlp_latency_s"]


class Mlp:
    """A ReLU MLP with a linear scalar output.

    Layer ``l`` maps ``widths[l]`` to ``widths[l + 1]`` features.  Its
    float32 weights and biases are drawn, layer by layer, from one
    generator seeded with ``seed`` on the first :meth:`forward`.
    """

    def __init__(
        self,
        input_width: int,
        hidden_layers: tuple[int, ...],
        seed: int = 0,
    ) -> None:
        if input_width < 1:
            raise ValueError("input width must be >= 1")
        if any(w < 1 for w in hidden_layers):
            raise ValueError("hidden widths must be >= 1")
        self.widths = (input_width, *hidden_layers, 1)
        self.seed = seed
        self._params: tuple[list[np.ndarray], list[np.ndarray]] | None = None

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """``(fan_in, fan_out)`` of each layer's weight matrix."""
        return tuple(zip(self.widths[:-1], self.widths[1:]))

    @property
    def n_macs(self) -> int:
        """Multiply-accumulates of one inference."""
        return sum(a * b for a, b in self.layer_shapes)

    @property
    def weight_nbytes(self) -> int:
        """Bytes of the float32 weight matrices."""
        return 4 * self.n_macs

    def parameters(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``(weights, biases)``, drawn on the first call."""
        if self._params is None:
            rng = np.random.default_rng(self.seed)
            weights: list[np.ndarray] = []
            biases: list[np.ndarray] = []
            for fan_in, fan_out in self.layer_shapes:
                scale = math.sqrt(2.0 / fan_in)
                weights.append(
                    (rng.standard_normal((fan_in, fan_out)) * scale).astype(
                        np.float32
                    )
                )
                biases.append(
                    (rng.standard_normal(fan_out) * 0.1).astype(np.float32)
                )
            self._params = weights, biases
        return self._params

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; returns ``(batch,)`` logits."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.widths[0]:
            raise ValueError(
                f"input must be (batch, {self.widths[0]}), got {x.shape}"
            )
        weights, biases = self.parameters()
        h = x
        last = len(weights) - 1
        for i, (w, b) in enumerate(zip(weights, biases)):
            h = h @ w + b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h[:, 0]


def fpga_mlp_latency_s(
    mlp: Mlp,
    n_dsp_macs: int = 2048,
    clock: ClockDomain = FABRIC_300MHZ,
    pipeline_depth: int = 32,
) -> float:
    """One inference through a DSP systolic array.

    Layer ``l`` takes ``ceil(macs_l / n_dsp_macs)`` cycles (the array
    is time-multiplexed across layers); weights are on-chip so no
    memory term.  ``pipeline_depth`` covers accumulation/activation
    latency per layer.
    """
    if n_dsp_macs < 1:
        raise ValueError("need at least one MAC unit")
    cycles = sum(
        math.ceil(a * b / n_dsp_macs) + pipeline_depth
        for a, b in mlp.layer_shapes
    )
    return clock.cycles_to_seconds(cycles)
