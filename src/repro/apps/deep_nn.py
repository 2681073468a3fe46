"""Zama Deep-NN models (the Fig. 7 application benchmark).

The paper evaluates the deep neural networks of Chillotti et al. [34]
("Programmable bootstrapping enables efficient homomorphic inference of deep
neural networks"): NN-20, NN-50 and NN-100.  The input is a 28x28 image with
every pixel encrypted individually; the first layer is a convolution with
10x11 kernels producing a [1, 2, 21, 20] output, every following layer is a
dense layer with 92 neurons, and every layer is followed by a ReLU evaluated
with one programmable bootstrap per activation.

Every model is one netlist the reference backend decrypts and the simulator
prices (``compile_netlist(deep_nn_netlist(model, params), instances)``):

* :func:`deep_nn_netlist` — the model with seeded quantized weights: one
  ``linear`` operation per convolution activation over its window of
  pixels, then the dense layers of :func:`mlp_netlist`;
* :func:`mlp_netlist` — a dense network with seeded quantized weights
  (:func:`mlp_weights`) and ReLU LUT activations; :func:`forward_plaintext`
  is its plaintext reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.params import TFHEParameters
from repro.sim.compiler import Netlist
from repro.tfhe.lut import relu_lut


@dataclass(frozen=True)
class DeepNNModel:
    """Shape description of one Zama Deep-NN model.

    Attributes
    ----------
    name:
        Model name (``"NN-20"`` ...).
    depth:
        Total number of layers (1 convolution + ``depth - 1`` dense layers).
    image_size:
        Input image side length (28 for MNIST).
    conv_kernel:
        Convolution kernel shape of the first layer.
    conv_output_shape:
        Output tensor shape of the first layer, ``[batch, ch, h, w]``.
    dense_neurons:
        Width of every dense layer.
    """

    name: str
    depth: int
    image_size: int = 28
    conv_kernel: tuple[int, int] = (10, 11)
    conv_output_shape: tuple[int, int, int, int] = (1, 2, 21, 20)
    dense_neurons: int = 92

    @property
    def conv_activations(self) -> int:
        """Activations (and therefore PBS) after the convolution layer."""
        batch, channels, height, width = self.conv_output_shape
        return batch * channels * height * width

    @property
    def dense_layers(self) -> int:
        """Number of dense layers following the convolution."""
        return self.depth - 1

    def pbs_count(self) -> int:
        """Total programmable bootstraps of one inference."""
        return self.conv_activations + self.dense_layers * self.dense_neurons


#: The three Deep-NN models of Fig. 7.
ZAMA_DEEP_NN_MODELS: dict[str, DeepNNModel] = {
    "NN-20": DeepNNModel("NN-20", depth=20),
    "NN-50": DeepNNModel("NN-50", depth=50),
    "NN-100": DeepNNModel("NN-100", depth=100),
}


def mlp_weights(
    layer_sizes: list[int], weight_magnitude: int = 1, seed: int = 0
) -> list[np.ndarray]:
    """Seeded quantized weights of a dense MLP, one ``(n_out, n_in)`` matrix per layer."""
    if len(layer_sizes) < 2:
        raise ValueError("an MLP needs at least an input and an output layer")
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-weight_magnitude, weight_magnitude + 1, size=(n_out, n_in))
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:])
    ]


def mlp_netlist(params: TFHEParameters, weights: list[np.ndarray]) -> Netlist:
    """The MLP as a netlist over the input wires ``x0, x1, ...``.

    Every neuron is one ``linear`` operation (its weight row as coefficients)
    followed by one ReLU ``lut`` operation; the last layer's activations are
    the output wires ``y0, y1, ...``.
    """
    shape = [weights[0].shape[1]] + [weight.shape[0] for weight in weights]
    netlist = Netlist(params, name="mlp-" + "x".join(map(str, shape)))
    wires = tuple(netlist.add_input(f"x{index}") for index in range(shape[0]))
    _add_dense_layers(netlist, wires, [weight.tolist() for weight in weights])
    return netlist


def _add_dense_layers(netlist: Netlist, wires: tuple[str, ...], weights: list[list]) -> None:
    """One ``linear`` and one ReLU ``lut`` per neuron, a row of integer weights.

    The last layer's activations are the wires ``y0, y1, ...``.
    """
    activation = relu_lut(netlist.params)
    for layer, weight in enumerate(weights):
        activations = []
        for j, row in enumerate(weight):
            name = f"y{j}" if layer == len(weights) - 1 else f"h{layer}_{j}"
            coefficients = tuple(row)
            dot = netlist.add_linear(f"{name}_dot", wires, cost=len(row), coefficients=coefficients)
            activations.append(netlist.add_lut(name, dot, function=activation))
        wires = tuple(activations)


#: A random byte's weight: its value modulo 3, less one, as a signed byte.
_BYTE_TO_WEIGHT = bytes((byte % 3 - 1) % 256 for byte in range(256))


def _quantized_weights(rng: random.Random, count: int) -> tuple[int, ...]:
    """``count`` seeded weights in ``{-1, 0, 1}``, one random byte each."""
    return tuple(memoryview(rng.randbytes(count).translate(_BYTE_TO_WEIGHT)).cast("b"))


def deep_nn_netlist(model: DeepNNModel, params: TFHEParameters, seed: int = 0) -> Netlist:
    """One inference of ``model`` as a netlist over the pixel wires ``x0, x1, ...``.

    Pixel ``(row, col)`` of the ``image_size`` square is wire
    ``x{row * image_size + col}``.  Convolution activation ``(c, i, j)`` is
    one ``linear`` operation over the kernel's window of distinct pixels
    anchored at ``(i, j)``, wrapped around the image edge rather than
    zero-padded, then one ReLU ``lut``.  The dense layers follow as in
    :func:`mlp_netlist`.  Weights are quantized to ``{-1, 0, 1}`` and drawn
    from ``random.Random(seed)``, kernel by kernel then neuron by neuron (not
    from numpy's generator, which a serving process would otherwise import
    only for this).
    """
    batch, channels, height, width = model.conv_output_shape
    rows, cols = model.conv_kernel
    side = model.image_size
    if rows > side or cols > side:
        raise ValueError(f"a {rows}x{cols} kernel does not fit a {side}x{side} image")
    netlist = Netlist(params, name=model.name)
    pixels = [netlist.add_input(f"x{index}") for index in range(side * side)]
    rng = random.Random(seed)
    activation = relu_lut(params)
    activations = []
    for channel in range(batch * channels):
        coefficients = _quantized_weights(rng, rows * cols)
        for i in range(height):
            for j in range(width):
                window = tuple(
                    pixels[(i + di) % side * side + (j + dj) % side]
                    for di in range(rows)
                    for dj in range(cols)
                )
                name = f"c{channel}_{i}_{j}"
                dot = netlist.add_linear(
                    f"{name}_dot", window, cost=len(window), coefficients=coefficients
                )
                activations.append(netlist.add_lut(name, dot, function=activation))
    widths = [len(activations)] + [model.dense_neurons] * model.dense_layers
    weights = [
        [_quantized_weights(rng, n_in) for _ in range(n_out)]
        for n_in, n_out in zip(widths, widths[1:])
    ]
    _add_dense_layers(netlist, tuple(activations), weights)
    return netlist


def forward_plaintext(
    params: TFHEParameters, weights: list[np.ndarray], inputs: list[int]
) -> list[int]:
    """Plaintext reference of :func:`mlp_netlist`: what its outputs decrypt to.

    Intermediate values are tracked modulo ``2p`` (the full torus message
    range including the padding half) and the activation is evaluated with
    the negacyclic PBS semantics, so the reference matches the homomorphic
    pipeline even when a dot product overflows the nominal message range.
    Outputs are reduced modulo ``p``, as decryption reduces them.
    """
    two_p = 2 * params.message_modulus
    activation = relu_lut(params)
    values = list(inputs)
    for weight in weights:
        values = [activation.evaluate_torus(int(np.dot(row, values)) % two_p) for row in weight]
    return [value % params.message_modulus for value in values]
