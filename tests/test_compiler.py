"""``compile_netlist`` prices what the reference backend decrypts.

Three definitions meet here, in the circlestark idiom of a slow readable
definition beside the fast one:

* ``spec_evaluate`` — a netlist in plain integers, with the mod-``2p``
  semantics of :func:`~repro.apps.deep_nn.forward_plaintext`: what every
  output wire decrypts to;
* the compiled graph's edges — for every operation, the node holding it
  depends on the node holding each of its producers, and the graph holds
  exactly the netlist's PBS, MACs and linear outputs;
* ``paper_graph`` — the Deep-NN graph of Fig. 7 as the paper describes it,
  one linear and one ReLU node per layer, which the compiled
  :func:`~repro.apps.deep_nn.deep_nn_netlist` schedules as node for node.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.apps.boolean_circuits import greater_than_netlist
from repro.apps.deep_nn import (
    ZAMA_DEEP_NN_MODELS,
    DeepNNModel,
    deep_nn_netlist,
    forward_plaintext,
    mlp_netlist,
    mlp_weights,
)
from repro.arch.accelerator import StrixAccelerator
from repro.params import DEEP_NN_N1024, PARAM_SET_I, TOY_PARAMETERS, TFHEParameters
from repro.sim.compiler import Netlist, Operation, compile_netlist, full_adder_netlist
from repro.sim.graph import ComputationGraph, NodeKind
from repro.sim.scheduler import StrixScheduler
from repro.tfhe.batch import GATES
from repro.tfhe.lut import LookUpTable

#: Plaintext truth of every gate; ``mux`` is ``(select, if_true, if_false)``.
TRUTH = {
    "not": lambda a: not a,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "nand": lambda a, b: not (a and b),
    "nor": lambda a, b: not (a or b),
    "xor": lambda a, b: a != b,
    "xnor": lambda a, b: a == b,
    "andny": lambda a, b: (not a) and b,
    "mux": lambda select, if_true, if_false: if_true if select else if_false,
}


def spec_evaluate(netlist: Netlist, inputs: dict) -> dict:
    """What each output wire of ``netlist`` decrypts to, in plain integers.

    Gate wires are booleans.  Message wires are tracked modulo ``2p``, the
    whole torus including the padding half: a LUT sums its inputs and
    evaluates its table negacyclically there, as the PBS does; a linear
    operation is its dot product.  Outputs are reduced modulo ``p``, as
    decryption reduces them.  Missing inputs are ``False``, as in ``run``.
    """
    p = netlist.params.message_modulus
    values = {wire: inputs.get(wire, False) for wire in netlist.primary_inputs}
    for operation in netlist.operations:
        args = [values[wire] for wire in operation.inputs]
        if operation.kind == "gate":
            value = bool(TRUTH[operation.name](*args))
        elif operation.kind == "lut":
            table = LookUpTable.from_function(operation.function, netlist.params)
            value = table.evaluate_torus(sum(args))
        else:
            value = sum(c * v for c, v in zip(operation.coefficients, args)) % (2 * p)
        values[operation.output] = value
    return {
        wire: values[wire] if isinstance(values[wire], bool) else values[wire] % p
        for wire in netlist.output_wires()
    }


def model_graph(model: str, params: TFHEParameters) -> ComputationGraph:
    """A Fig. 7 model compiled from its netlist, bound to ``params``.

    The compiled shape does not depend on the parameter set, so each model
    is built once per test session (at set I) and re-bound.
    """
    return _compiled(model).with_params(params)


@functools.cache
def _compiled(model: str) -> ComputationGraph:
    return compile_netlist(deep_nn_netlist(ZAMA_DEEP_NN_MODELS[model], PARAM_SET_I))


# -- spec_evaluate is the plaintext reference of the builders --------------------


def test_spec_evaluate_is_forward_plaintext_on_an_mlp():
    weights = mlp_weights([5, 4, 3], weight_magnitude=2, seed=4)
    netlist = mlp_netlist(TOY_PARAMETERS, weights)
    rng = np.random.default_rng(4)
    for image in rng.integers(0, TOY_PARAMETERS.message_modulus, size=(20, 5)).tolist():
        outputs = spec_evaluate(netlist, {f"x{i}": value for i, value in enumerate(image)})
        assert list(outputs.values()) == forward_plaintext(TOY_PARAMETERS, weights, image)


def test_spec_evaluate_adds_and_compares_bits():
    bits = 4
    adder = full_adder_netlist(TOY_PARAMETERS, bits)
    greater = greater_than_netlist(TOY_PARAMETERS, bits)
    for a, b in [(0, 0), (11, 6), (15, 15), (3, 12)]:
        wires = {f"{n}{i}": bool(v >> i & 1) for n, v in (("a", a), ("b", b)) for i in range(bits)}
        total = spec_evaluate(adder, wires)
        assert sum(int(bit) << i for i, bit in enumerate(total.values())) == a + b
        assert spec_evaluate(greater, wires) == {f"gt{bits - 1}": a > b}


# -- the compiled graph holds every operation after its producers ----------------


def random_netlist(seed: int, size: int) -> Netlist:
    """Gates, LUTs and linear operations of costs 1-3 over earlier wires.

    Inputs favour the last few wires, so chains of linear operations with
    mixed costs inside one level are common.
    """
    rng = np.random.default_rng(seed)
    netlist = Netlist(PARAM_SET_I, name=f"random{seed}")
    wires = [netlist.add_input(f"x{index}") for index in range(int(rng.integers(1, 4)))]

    def pick(count: int) -> tuple[str, ...]:
        recent = wires[-3:] if rng.random() < 0.6 else wires
        return tuple(recent[int(rng.integers(len(recent)))] for _ in range(count))

    for index in range(size):
        output, kind = f"w{index}", ("gate", "lut", "linear")[int(rng.integers(3))]
        if kind == "gate":
            gate = sorted(GATES)[int(rng.integers(len(GATES)))]
            netlist.add_gate(gate, output, *pick(GATES[gate][0]))
        elif kind == "lut":
            netlist.add_lut(output, *pick(int(rng.integers(1, 3))))
        else:
            netlist.add_linear(output, pick(int(rng.integers(1, 4))), cost=int(rng.integers(1, 4)))
        wires.append(output)
    return netlist


def holders(netlist: Netlist) -> dict[str, str | None]:
    """The node holding each operation's output wire, from the compiler's contract.

    A level's bootstraps are ``level{L}_pbs``.  A linear operation sits one
    deeper than the level's linear operations it consumes and is held by the
    ``(depth, cost)`` node of its level (``level{L}_linear`` when the level
    has one).  A free NOT holds nothing; it passes its input's depth on.
    """
    held: dict[str, str | None] = {wire: None for wire in netlist.primary_inputs}
    for index, level in enumerate(netlist.levelize()):
        depth: dict[str, int] = {}
        linear: dict[str, tuple[int, int]] = {}
        for operation in level:
            if operation.bootstraps:
                held[operation.output] = f"level{index}_pbs"
                continue
            depth[operation.output] = max((depth.get(w, -1) for w in operation.inputs), default=-1)
            if operation.kind == "linear":
                depth[operation.output] += 1
                linear[operation.output] = (depth[operation.output], operation.cost)
            else:
                held[operation.output] = None
        split = len(set(linear.values())) > 1
        for wire, (at, cost) in linear.items():
            held[wire] = f"level{index}_linear" + (f"{at}_cost{cost}" if split else "")
    return held


def producers(operations: dict[str, Operation], wire: str) -> set[str]:
    """The output wires of the priced operations feeding ``wire``, through free NOTs."""
    found: set[str] = set()
    for source in operations[wire].inputs:
        if source in operations:
            priced = operations[source].bootstraps or operations[source].kind == "linear"
            found |= {source} if priced else producers(operations, source)
    return found


def ancestors(graph: ComputationGraph) -> dict[str, set[str]]:
    """Every node's transitive dependencies."""
    closure: dict[str, set[str]] = {}
    for node in graph.topological_order():
        closure[node.name] = set(node.depends_on).union(*(closure[d] for d in node.depends_on))
    return closure


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40), instances=st.integers(1, 5))
def test_every_operation_is_held_after_its_producers(seed, size, instances):
    netlist = random_netlist(seed, size)
    graph = compile_netlist(netlist, instances)
    held, reach = holders(netlist), ancestors(graph)
    kinds = {node.name: node.kind for node in graph}
    operations = {operation.output: operation for operation in netlist.operations}
    for wire, operation in operations.items():
        node = held[wire]
        if node is None:
            continue
        assert kinds[node] is (NodeKind.LINEAR if operation.kind == "linear" else NodeKind.PBS_KS)
        for source in producers(operations, wire):
            assert held[source] in reach[node], (wire, source)
    assert graph.total_pbs() == netlist.pbs_count() * instances
    costs = Counter(op.cost for op in netlist.operations if op.kind == "linear")
    outputs = Counter()
    for node in graph:
        if node.kind is NodeKind.LINEAR:
            outputs[node.operations_per_ciphertext] += node.ciphertexts
    assert outputs == Counter({cost: count * instances for cost, count in costs.items()})
    assert graph.total_linear_operations() == sum(c * n for c, n in costs.items()) * instances


# -- Deep-NN netlists decrypt, and price as Fig. 7's graph -----------------------


@pytest.mark.parametrize("width, depth", [(4, 3), (6, 4), (8, 5)])
def test_a_toy_deep_nn_decrypts_to_its_plaintext(toy_session, width, depth):
    model = DeepNNModel(
        f"toy-{width}x{depth}",
        depth=depth,
        image_size=4,
        conv_kernel=(2, 3),
        conv_output_shape=(1, 2, 2, 2),
        dense_neurons=width,
    )
    netlist = deep_nn_netlist(model, TOY_PARAMETERS)
    assert netlist.pbs_count() == model.pbs_count()
    rng = np.random.default_rng(width)
    images = [
        {f"x{i}": value for i, value in enumerate(image)}
        for image in rng.integers(0, TOY_PARAMETERS.message_modulus, size=(4, 16)).tolist()
    ]
    # ``as_netlist`` turns the model itself into the same netlist (seed 0).
    result = run(
        model, backend="reference", params=TOY_PARAMETERS, session=toy_session, inputs=images
    )
    assert result.outputs == [spec_evaluate(netlist, image) for image in images]
    assert any(any(outputs.values()) for outputs in result.outputs)


def test_a_convolution_activation_reads_its_wrapped_window():
    model = DeepNNModel(
        "toy", depth=1, image_size=4, conv_kernel=(2, 3), conv_output_shape=(1, 1, 4, 4)
    )
    operations = {op.output: op for op in deep_nn_netlist(model, TOY_PARAMETERS).operations}
    corner = operations["c0_3_3_dot"]
    assert corner.inputs == ("x15", "x12", "x13", "x3", "x0", "x1")
    assert corner.cost == 6 and len(operations) == 2 * 16


def paper_graph(model: DeepNNModel, params: TFHEParameters) -> ComputationGraph:
    """Fig. 7's Deep-NN as the paper describes it: a linear then a ReLU node per layer."""
    graph = ComputationGraph(params)
    graph.add_linear_layer("conv", model.conv_activations, np.prod(model.conv_kernel).item())
    graph.add_pbs_layer("conv_relu", model.conv_activations, depends_on=["conv"])
    previous, width = "conv_relu", model.conv_activations
    for layer in range(model.dense_layers):
        graph.add_linear_layer(f"dense{layer}", model.dense_neurons, width, depends_on=[previous])
        graph.add_pbs_layer(f"relu{layer}", model.dense_neurons, depends_on=[f"dense{layer}"])
        previous, width = f"relu{layer}", model.dense_neurons
    return graph


@pytest.mark.parametrize("model", ["NN-20", "NN-100"])
@pytest.mark.parametrize("params", [PARAM_SET_I, DEEP_NN_N1024], ids=lambda p: p.name)
def test_a_compiled_deep_nn_schedules_as_the_paper_graph(model, params):
    scheduler = StrixScheduler(StrixAccelerator())
    netlist = deep_nn_netlist(ZAMA_DEEP_NN_MODELS[model], params)
    compiled = scheduler.run(compile_netlist(netlist))
    paper = scheduler.run(paper_graph(ZAMA_DEEP_NN_MODELS[model], params))
    # Node for node (kind, start, end, epochs); only the names differ.
    nodes = [[node[1:] for node in run.node_schedules] for run in (compiled, paper)]
    assert nodes[0] == nodes[1]
    totals = [(run.total_time_s, run.total_epochs, run.total_pbs) for run in (compiled, paper)]
    assert totals[0] == totals[1]
    if params is DEEP_NN_N1024:
        expected = {"NN-20": (0.049092856562500044, 21), "NN-100": (0.19505566489583379, 101)}
        assert (compiled.total_time_s, compiled.total_epochs) == expected[model]
