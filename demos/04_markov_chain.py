#!/usr/bin/env python3
"""A three-node signal chain end to end: b -> c -> a.

The source b fires state 0 with weight alpha and state 1 with weight beta;
c and a copy their parent's state with weight alpha and flip it with beta.
The total tensor collects the weight of every joint outcome, and the
node-tensor product route must reproduce the direct computation exactly.
"""

from tensordag import (JukesCantor, NetworkSpec, NodeSpec, PolyScalar,
                       PreparedNetwork, SourceVector, node_pipeline,
                       serialize_tensor, total_bmp, total_direct, verify_totals)

alpha = PolyScalar.parameter("alpha")
beta = PolyScalar.parameter("beta")

chain = NetworkSpec(2, (
    NodeSpec("b", (), SourceVector((alpha, beta))),
    NodeSpec("c", ("b",), JukesCantor(alpha, beta)),
    NodeSpec("a", ("c",), JukesCantor(alpha, beta)),
))

print("# the expansion pipeline, node by node")
prepared = PreparedNetwork(chain)  # validated, and its activations built, once for every route
for i, node in enumerate(chain.nodes):
    stages = node_pipeline(prepared, i)
    print(f"node {node.id}: activation order {stages.activation.order} "
          f"-> widened order {stages.widened.order}"
          + (f" -> blown order {stages.blown.order}" if stages.blown else " (sink: no blow)")
          + f" -> node tensor order {stages.node_tensor.order}")

print()
print("# node tensor of the source: the blown vector padded to order 3")
print(serialize_tensor(node_pipeline(prepared, 0).node_tensor))

print("# total tensor, direct route (cell = product of activation entries)")
direct = total_direct(prepared)
print(serialize_tensor(direct))

print("# total tensor, product route (one contraction of the node tensors)")
print("equal to the direct route?", total_bmp(prepared) == direct)
outcome = verify_totals(prepared)
print(f"verify_totals: equal={outcome.equal} over {outcome.cells} cells")

print()
print("# a deterministic special case: alpha=1, beta=0 forces the all-zero path")
indicator = {idx: direct[idx].evaluate({"alpha": 1, "beta": 0}) for idx in direct.indices()}
print({idx: val for idx, val in indicator.items() if val != 0})

print()
print("# conditional independence shows up as rank-1 slices: fixing the")
print("# middle node makes the (first, last) face a rank-1 matrix")
for mid in (0, 1):
    det = (direct[(0, mid, 0)] * direct[(1, mid, 1)]
           - direct[(0, mid, 1)] * direct[(1, mid, 0)])
    print(f"face determinant with middle state {mid}: {det}")
