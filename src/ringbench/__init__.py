"""Workbench for finite graded rings: construct small graded rings, enumerate
and classify their graded ideals, and verify structural identities of
absorbing ideals over a corpus."""

from .classify import (
    DEFAULT_IDEAL_CAP,
    ClassificationError,
    ClassificationReport,
    GTripleZeroCensus,
    ImproperIdealError,
    Verdict,
    classify_ideal,
    find_g_triple_zeros,
    is_g_weakly_2_absorbing,
    is_graded_2_absorbing,
    is_graded_completely_weakly_2_absorbing,
    is_graded_prime,
    is_graded_strongly_weakly_2_absorbing,
    is_graded_weakly_2_absorbing,
    is_graded_weakly_prime,
    verify_witness,
)
from .constructions import (
    ConstructionError,
    GradedBimodule,
    GradedRingHom,
    hom_image,
    hom_kernel,
    hom_preimage,
    make_graded_hom,
    make_idealization,
    make_quotient,
    quotient_bimodule,
    regular_bimodule,
    validate_bimodule,
    validate_graded_hom,
)
from .grading import (
    GradedRing,
    Grading,
    GradingError,
    attach_grading,
    decompose,
    make_checkerboard_grading,
    make_gaussian_grading,
    make_product_grading,
    make_trivial_grading,
    validate_grading,
)
from .groups import FiniteGroup, make_cyclic, make_product_group, validate_group
from .ideals import (
    LEFT,
    RIGHT,
    TWO_SIDED,
    EnumerationCapError,
    IdealSubset,
    check_closure,
    enumerate_graded_ideals,
    generate_ideal,
    ideal_product,
    ideal_sum,
    is_graded_ideal,
    minimal_homogeneous_generators,
)
from .rings import (
    DEFAULT_RING_CAP,
    FiniteRing,
    RingTooLargeError,
    make_gaussian,
    make_matrix_ring,
    make_product_ring,
    make_table_ring,
    make_zn,
    validate_ring,
)
from .specs import BuiltSpec, ParseError, RingSpecDocument, build_document, parse_document
from .theorems import (
    PROPERTY_IDS,
    CorpusMember,
    PropertyOutcome,
    default_corpus,
    directory_corpus,
    evaluate_ring,
    run_all_properties,
    run_property,
    search_question1,
    triple_zero_census,
)

__version__ = "0.1.0"
