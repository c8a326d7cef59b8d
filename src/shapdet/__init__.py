"""shapdet: exact Shapovalov-form Gram determinants for affine ADE types,
with the Cartan-determinant corollaries for symmetric-group and Hecke
blocks.  Everything is computed in exact arithmetic.
"""

from .exact import (CycNumber, ExactMatrix, InternalCheckError, as_integer,
                    det_exact, invert)
from .roots import (ROSTER, AffineType, FiniteRootData, a_matrix, det_a,
                    finite_root_data, index_set, parse_type)
from .partitions import (enumerate_basis, enumerate_partitions, exponents,
                         exponent_totals, multiplicities)
from .series import (TruncSeries, ab_series, cartan_series, dimension_series,
                     divisor_series, partition_series)
from .gram import (FormEngine, GramReport, gram_matrices, transition_matrices,
                   verify, x_in_y)
from .blocks import BlockRecord, cartan_exponent, enumerate_blocks, p_core

__version__ = "0.1.0"
