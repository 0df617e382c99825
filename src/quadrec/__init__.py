"""Quadratic residue symbols, Pell units, and the quartic edge invariant.

The package computes Legendre/Jacobi/quartic symbols, fundamental units of
real quadratic fields and their residue characters, exact square
detection in multiquadratic fields, GF(2) cycle spaces of prime graphs, and
the invariant that predicts unit symbols from quartic residue data, plus
sweep drivers that compare every prediction against an independent oracle.
"""

from .arith import (
    DomainError,
    factorize,
    is_prime,
    is_squarefree,
    jacobi,
    legendre,
    prime_divisors,
    primes_in_v,
    primes_up_to,
    quartic,
    sqrt_2adic,
    sqrt_mod,
    squarefree_kernel,
    v_symbol,
)
from .pell import (
    CubeCongruenceReport,
    QuadUnit,
    check_unit_congruences,
    compute_fundamental_unit,
    fundamental_unit,
    unit_symbol,
)
from .mquad import (
    MQElement,
    MQField,
    field_containing,
    find_d,
    is_square,
)
from .f2graph import (
    auxiliary_primes,
    boundary_space,
    build_graph,
    cycle_space,
    edge,
    triangle_decompose,
)
from .invariants import (
    InvariantReport,
    edge_invariant,
    general_invariant,
    odd_nonresidue_vertices,
    scholz2_predict,
    scholz_predict,
    triangle_invariant,
)
from .apps import (
    CandmResult,
    CandpResult,
    KurodaExampleResult,
    QIndex,
    candm_check,
    candp_check,
    kuroda_example_check,
    kuroda_q,
    norm_sign_predict,
    positive_norm_square_check,
    theorem_sq_check,
    unit_product,
)
from .sweeps import (
    SweepConfig,
    SweepRecord,
    run_check,
    summarize,
)

__version__ = "0.1.0"
