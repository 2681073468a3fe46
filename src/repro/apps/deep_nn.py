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
* :class:`EncryptedMLP` — a small functional homomorphic inference path that
  actually runs on the TFHE substrate (quantized weights, LUT activations),
  exercised by the integration tests and the example scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.params import TFHEParameters
from repro.sim.graph import ComputationGraph
from repro.tfhe.context import TFHEContext
from repro.tfhe.lut import LookUpTable, relu_lut
from repro.tfhe.lwe import LweCiphertext

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime import cycle
    from repro.runtime.session import Session


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


class EncryptedMLP:
    """A small functional homomorphic MLP running on the TFHE substrate.

    Weights are quantized to small signed integers and activations are kept
    in the TFHE message space; every layer computes an encrypted dot product
    (scalar multiplications and additions on LWE ciphertexts) followed by a
    programmable bootstrap that applies the activation LUT and rescales the
    accumulator back into the message range.  It is intentionally tiny — the
    full Zama models would take hours in pure Python — but it executes the
    exact same homomorphic operation sequence per neuron.

    ``context`` is anything with the encrypt / decrypt / ``apply_lut``
    surface: a :class:`~repro.tfhe.context.TFHEContext` or a key-owning
    :class:`~repro.runtime.session.Session`.
    """

    def __init__(
        self,
        context: Union[TFHEContext, "Session"],
        layer_sizes: list[int],
        weight_magnitude: int = 1,
        seed: int = 0,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("an MLP needs at least an input and an output layer")
        self.context = context
        self.params = context.params
        self.layer_sizes = list(layer_sizes)
        rng = np.random.default_rng(seed)
        self.weights = [
            rng.integers(-weight_magnitude, weight_magnitude + 1, size=(n_out, n_in))
            for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:])
        ]
        self.activation = self._scaled_relu()

    def _scaled_relu(self) -> LookUpTable:
        """ReLU composed with a wrap-to-range reduction for the accumulators."""
        return relu_lut(self.params)

    # -- plaintext reference ----------------------------------------------------------

    def forward_plaintext(self, inputs: list[int]) -> list[int]:
        """Reference inference emulating the torus arithmetic exactly.

        Intermediate values are tracked modulo ``2p`` (the full torus message
        range including the padding half) and the activation is evaluated
        with the negacyclic PBS semantics, so the reference matches the
        homomorphic pipeline even when a dot product overflows the nominal
        message range.
        """
        two_p = 2 * self.params.message_modulus
        values = list(inputs)
        for weight in self.weights:
            accumulated = []
            for row in weight:
                total = int(np.dot(row, values)) % two_p
                accumulated.append(self.activation.evaluate_torus(total))
            values = accumulated
        return values

    def infer_plaintext(self, inputs: list[int]) -> list[int]:
        """Plaintext reference of :meth:`infer` (outputs reduced modulo ``p``)."""
        p = self.params.message_modulus
        return [value % p for value in self.forward_plaintext(inputs)]

    # -- homomorphic inference ----------------------------------------------------------

    def forward_encrypted(self, ciphertexts: list[LweCiphertext]) -> list[LweCiphertext]:
        """Homomorphic inference: linear layers + one PBS per activation."""
        if len(ciphertexts) != self.layer_sizes[0]:
            raise ValueError(
                f"expected {self.layer_sizes[0]} input ciphertexts, got {len(ciphertexts)}"
            )
        activations = list(ciphertexts)
        for weight in self.weights:
            next_activations = []
            for row in weight:
                accumulator = None
                for coefficient, ciphertext in zip(row, activations):
                    if coefficient == 0:
                        continue
                    term = ciphertext.scalar_multiply(int(coefficient))
                    accumulator = term if accumulator is None else accumulator + term
                if accumulator is None:
                    accumulator = LweCiphertext.trivial(0, activations[0].dimension, self.params)
                next_activations.append(self.context.apply_lut(accumulator, self.activation))
            activations = next_activations
        return activations

    def infer(self, inputs: list[int]) -> list[int]:
        """Encrypt, run homomorphically and decrypt (round-trip helper)."""
        ciphertexts = [self.context.encrypt(value) for value in inputs]
        outputs = self.forward_encrypted(ciphertexts)
        return [self.context.decrypt(ciphertext) for ciphertext in outputs]
