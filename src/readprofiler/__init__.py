"""Reconstruction of species identities and frequencies in a mixed sample
from short-read frequency data against a reference sequence database."""

from .identifiability import (
    IdentifiabilityReport,
    analyze,
    critical_read_length_scan,
    is_identifiable,
    partially_identifiable,
)
from .metrics import (
    EvaluationResult,
    evaluate,
    gram_lambda_min,
    l2_error_bound,
    l2_metric,
    mahalanobis_error_bound,
    mahalanobis_metric,
)
from .experiments import (
    ExperimentConfig,
    generate_random_db,
    run_error_vs_reads,
    run_identifiability_scan,
)
from .mixture_sim import (
    MixtureSpec,
    ReadCounts,
    empirical_frequencies,
    sample_power_law_mixture,
    simulate_reads,
)
from .nnls import NnlsSolution, nnls_from_gram, nnls_solve
from .read_matrix import (
    FrequencyVector,
    ReadSamplingMatrix,
    build_matrix,
    reweight_to_dna,
    unweight_from_dna,
)
from .reconstruct import (
    DncParams,
    ReconstructionReport,
    divide_and_conquer,
    partition_species,
)
from .sequence_db import (
    SequenceDatabase,
    SpeciesRecord,
    lex_decode,
    lex_encode,
    parse_fasta,
)

__version__ = "0.1.0"
