"""Zama Deep-NN models (the Fig. 7 application benchmark).

The paper evaluates the deep neural networks of Chillotti et al. [34]
("Programmable bootstrapping enables efficient homomorphic inference of deep
neural networks"): NN-20, NN-50 and NN-100.  The input is a 28x28 image with
every pixel encrypted individually; the first layer is a convolution with
10x11 kernels producing a [1, 2, 21, 20] output, every following layer is a
dense layer with 92 neurons, and every layer is followed by a ReLU evaluated
with one programmable bootstrap per activation.

This module provides both views of the workload:

* :func:`build_deep_nn_graph` — the computation graph consumed by the Strix
  scheduler and the CPU/GPU baseline models (what Fig. 7 needs);
* :func:`mlp_netlist` — a small dense network with seeded quantized weights
  (:func:`mlp_weights`) and ReLU LUT activations, as a netlist the reference
  backend decrypts; :func:`forward_plaintext` is its plaintext reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import TFHEParameters
from repro.sim.compiler import Netlist
from repro.sim.graph import ComputationGraph
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


def build_deep_nn_graph(model: DeepNNModel, params: TFHEParameters) -> ComputationGraph:
    """Build the computation graph of one Deep-NN inference.

    Every layer contributes one linear node (convolution or dense
    matrix-vector product) followed by one PBS node evaluating the ReLU of
    each activation; consecutive layers depend on each other, which is what
    limits batching to one layer's worth of ciphertexts.
    """
    graph = ComputationGraph(params, name=f"{model.name}/N={params.N}")
    kernel_ops = model.conv_kernel[0] * model.conv_kernel[1]
    graph.add_linear_layer("conv", model.conv_activations, kernel_ops)
    graph.add_pbs_layer("conv_relu", model.conv_activations, depends_on=["conv"])
    previous = "conv_relu"
    previous_width = model.conv_activations
    for layer in range(model.dense_layers):
        linear_name = f"dense{layer}"
        relu_name = f"dense{layer}_relu"
        graph.add_linear_layer(
            linear_name, model.dense_neurons, previous_width, depends_on=[previous]
        )
        graph.add_pbs_layer(relu_name, model.dense_neurons, depends_on=[linear_name])
        previous = relu_name
        previous_width = model.dense_neurons
    return graph


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
    activation = relu_lut(params)
    wires = tuple(netlist.add_input(f"x{index}") for index in range(shape[0]))
    for layer, weight in enumerate(weights):
        activations = []
        for j, row in enumerate(weight):
            name = f"y{j}" if layer == len(weights) - 1 else f"h{layer}_{j}"
            coefficients = tuple(int(w) for w in row)
            dot = netlist.add_linear(f"{name}_dot", wires, cost=len(row), coefficients=coefficients)
            activations.append(netlist.add_lut(name, dot, function=activation))
        wires = tuple(activations)
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
