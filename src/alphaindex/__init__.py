"""alpha-index computation and desk-scale verification for minimally
2-connected graphs: graph6 interchange, exact small-graph enumeration,
A_alpha spectra with Perron vectors, polynomial certificates, neighbour
rotations, and theorem/lemma verification campaigns."""

from .certificates import (
    Cubic,
    eval_f,
    eval_g,
    identity_check_f,
    identity_check_g,
    largest_real_root,
    sign_grid,
    sk_cubic,
)
from .connectivity import (
    is_minimally_two_connected_by_chords,
    is_minimally_two_connected_by_deletion,
    is_two_connected,
)
from .enumeration import (
    EnumerationLimitError,
    canonical_form,
    graphs_by_order,
    graphs_by_size,
    ingest_graph6,
)
from .families import build
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    NonEdgeError,
    emit_graph6,
    parse_graph6,
)
from .harness import (
    VerificationReport,
    verify_lemma_suite,
    verify_theorem_order,
    verify_theorem_size,
)
from .spectral import (
    ConvergenceError,
    DisconnectedGraphError,
    SpectralError,
    SpectralResult,
    alpha_index,
    closed_form_complete_bipartite,
    column_sums,
    perron_symmetry_check,
)
from .transforms import (
    Rotation,
    RotationCheck,
    RotationError,
    rotate,
    rotation_monotonicity_check,
)

__version__ = "0.1.0"
