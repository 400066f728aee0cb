"""domlab: a desk-scale laboratory for domination structure in small graphs.

Exact domination and independent-domination solvers, a bit-exact graph6
codec, domination-preserving graph surgery, seamlessly linked families of
0-mod-3 cycles, and a sweep harness that audits the package's structural
claims over graph corpora.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    delete_edges,
    gnp_random,
    is_connected,
    is_cubic,
    named_graph,
    random_cubic,
    vertex_connectivity,
)
from .graph6 import Graph6ParseError, encode_graph6, parse_graph6, read_graph6_lines
from .domination import (
    DominationCertificate,
    SolverTimeout,
    enumerate_min_dsets,
    gamma_bruteforce,
    gamma_exact,
    idom_exact,
    is_dominating,
)
from .reduction import (
    AuditVerdict,
    check_detach_fact,
    check_pair_separation,
    check_removal_fact,
    detachable_vertices,
    find_forbidden_core,
    find_induced_claw,
    removable_edges,
)
from .cycles import Cycle, mod3_cycles
from .seams import (
    CycleCollection,
    family_dset_audit,
    prune_nonexclusive,
    seamless_families,
    spaced_assignments,
)

__all__ = [
    "__version__",
    "Graph",
    "delete_edges",
    "gnp_random",
    "is_connected",
    "is_cubic",
    "named_graph",
    "random_cubic",
    "vertex_connectivity",
    "Graph6ParseError",
    "encode_graph6",
    "parse_graph6",
    "read_graph6_lines",
    "DominationCertificate",
    "SolverTimeout",
    "enumerate_min_dsets",
    "gamma_bruteforce",
    "gamma_exact",
    "idom_exact",
    "is_dominating",
    "AuditVerdict",
    "check_detach_fact",
    "check_pair_separation",
    "check_removal_fact",
    "detachable_vertices",
    "find_forbidden_core",
    "find_induced_claw",
    "removable_edges",
    "Cycle",
    "mod3_cycles",
    "CycleCollection",
    "family_dset_audit",
    "prune_nonexclusive",
    "seamless_families",
    "spaced_assignments",
]
