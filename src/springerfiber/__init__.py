"""Combinatorics of Springer fiber components in type A.

Partitions and tableaux with the jeu-de-taquin slide calculus, the
equinonsingularity move classes, exact rational linear algebra for flags
and Spaltenstein cells, and machine-checked certificates: a singular
component of shape (3,2,2) and smooth charts through the special flags of
the components labelled by Q(k,k,1).
"""

from .partitions import Partition, SmoothnessVerdict, partitions_of
from .tableaux import (
    StandardTableau,
    Tableau,
    concat,
    dist,
    enumerate_tableaux,
    make_P,
    make_P_shift,
    make_Q,
    parse_tableau,
    restrict,
    schuetzenberger,
    standardize,
    tableau,
    tau,
)
from .eqsmoves import (
    EqsClass,
    MoveLabel,
    MoveError,
    block_move,
    c_inverse,
    c_move,
    dist_class_invariant,
    eqs_class,
    eqs_partition,
)
from .exactlin import (
    ChartError,
    Flag,
    Matrix,
    NilpotentOperator,
    Permutation,
    StabilityError,
    bilinear_form,
    cell_of,
    cell_prime_of,
    chart_coords,
    jordan_flag,
    jordan_operator,
    perp_flag,
    quotient_type,
    restricted_type,
    special_flag,
    special_perm,
)
from .certificates import (
    CertificateError,
    Jet,
    SingularityCertificate,
    certify_322,
    phi_map,
    verify_curve_membership,
    verify_smooth_chart,
)

__version__ = "0.1.0"
