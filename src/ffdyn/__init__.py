"""Finite-difference dynamics on cyclic sequences over finite fields."""

from .errors import DegenerateOperatorError, DomainError, ResourceLimitError
from .ffield import FieldElem, FieldSpec, parse_field_spec
from .polyring import Poly, Factorization, crt_split, factorize, resultant
from .groupalg import (CyclicSeq, DiffOperator, apply_op, build_operator,
                       delta, delta_operator, parse_seq, poly_to_seq, seq_to_poly)
from .dynamics import (GraphSummary, OrbitSummary, build_graph, cycle_spectrum,
                       max_period, max_preperiod, orbit_algebraic, orbit_brute)
from .complexity import (ComplexityVerdict, ProjectionProfile, QuotaReport,
                         census, classify, d_complicated_oracle, eigen_product,
                         is_delta1, is_delta2, projection_profile, quota)
from .seqgen import (GeneratorSpec, arnold_log_seq, legendre_seq,
                     legendre_symbol, multiplicative_family, random_seq,
                     regular_seqs)

__version__ = "0.1.0"
