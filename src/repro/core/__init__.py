"""The paper's primary contribution: the protocol derivation algorithm.

Pipeline (paper Section 4):

1. parse the service specification and put every disable operand in
   action prefix form (:mod:`repro.lotos.expansion`);
2. number the syntax-tree nodes and synthesize the SP/EP/AP attributes
   (:mod:`repro.core.attributes`, Table 2);
3. check the restrictions R1-R3 (:mod:`repro.core.restrictions`);
4. apply the derivation function ``T_p`` for every place ``p``
   (:mod:`repro.core.derivation`, Tables 3 and 4), eliminating
   ``empty`` fragments as each node is built (the Section 4.2 laws of
   :mod:`repro.core.simplify`).

:mod:`repro.core.generator` packages the pipeline as the paper's
"Protocol Generator (PG)".
"""

from repro.core.attributes import AttributeTable, Attrs, evaluate_attributes, number_nodes
from repro.core.generator import DerivationResult, ProtocolGenerator, derive_protocol

__all__ = [
    "AttributeTable",
    "Attrs",
    "evaluate_attributes",
    "number_nodes",
    "DerivationResult",
    "ProtocolGenerator",
    "derive_protocol",
]
