"""Joins of graphs over labeled vertex classes, with exact spectra.

Build a join of factor graphs along a host graph, where cross edges pair
vertices carrying the same label, and compute characteristic polynomials of
the adjacency, Laplacian, signless Laplacian, Seidel, or any universal
matrix exactly, factored through small per-factor main functions."""

from .errors import (
    BlockFactorizationError,
    CarryForwardError,
    HmJoinError,
    HypothesisNotMetError,
    InexactDivisionError,
    InvalidParametersError,
    NonSymmetricInputError,
    SizeMismatchError,
    SpecValidationError,
    TheoremViolationError,
    TooLargeError,
)
from .polynomials import Polynomial
from .exactlinalg import charpoly
from .graphs import (
    Graph,
    UniversalParams,
    disjoint_union,
    graph_to_edgelist,
    make_named,
    universal_matrix,
)
from .joins import (
    REDUCTION_MODES,
    IndexingMap,
    JoinSpec,
    hm_join,
    indexing_matrix,
    reduce_labels,
    reduction_report,
)
from .spectra import (
    CarryForwardRow,
    EigenvalueClass,
    MainFunction,
    SpectralReport,
    block_charpoly,
    classify_e_main,
    main_function,
    universal_block_charpoly,
)
from .families import (
    FamilyRealization,
    cartesian_product,
    generalized_helm,
    generalized_petersen,
    generalized_web,
    lollipop,
    tadpole,
)
from .cospectral import (
    COSPECTRAL_KINDS,
    CospectralCertificate,
    GeneralizedJoinSpec,
    check_cospectral_conditions,
    generalized_universal_charpoly,
    isomorphism_test,
    kind_parameters,
    search_pairs,
)
from .serialize import (
    canonical_dumps,
    certificate_to_json,
    fraction_from_json,
    fraction_to_json,
    generalized_spec_from_json,
    generalized_spec_to_json,
    graph_from_json,
    graph_to_json,
    params_from_json,
    params_to_json,
    parse_spec,
    polynomial_to_json,
    report_to_json,
    spec_document_from_json,
    spec_from_json,
    spec_to_json,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
