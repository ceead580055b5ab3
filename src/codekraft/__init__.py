"""codekraft: exact Kraft sums, unique decipherability, and the refinement
order on variable-length codes.

All arithmetic is exact rational; all decision procedures emit
independently checkable certificates.
"""

from .core import (
    Alphabet,
    Code,
    Factorization,
    Word,
    concat,
)
from .decipher import UdVerdict, is_ud
from .errors import (
    CertificateError,
    ChainViolationError,
    CodeError,
    CodeFileError,
    EmptyCodeError,
    EmptyWordError,
    MissingAlphabetError,
    MixedAlphabetsError,
    NotRefinementError,
    ResourceLimitError,
    UnknownSymbolError,
)
from .kraft import approx_str, exact_str, kraft_sum
from .power import PowerChain, code_power, power_chain
from .props import (
    PropositionId,
    PropositionReport,
    check_chain,
    check_equal_kraft_finiteness,
    check_mcmillan,
    check_monotonicity,
    check_power_law,
    equal_kraft_refinements,
    verify,
)
from .refine import first_factorization, irredundant_refinements, is_irredundant_refinement, refines
from .cli import CodeFile, emit_code_file, export_hasse, parse_code_file, run_command

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CertificateError",
    "ChainViolationError",
    "Code",
    "CodeError",
    "CodeFile",
    "CodeFileError",
    "EmptyCodeError",
    "EmptyWordError",
    "Factorization",
    "MissingAlphabetError",
    "MixedAlphabetsError",
    "NotRefinementError",
    "PowerChain",
    "PropositionId",
    "PropositionReport",
    "ResourceLimitError",
    "UdVerdict",
    "UnknownSymbolError",
    "Word",
    "approx_str",
    "check_chain",
    "check_equal_kraft_finiteness",
    "check_mcmillan",
    "check_monotonicity",
    "check_power_law",
    "code_power",
    "concat",
    "emit_code_file",
    "equal_kraft_refinements",
    "exact_str",
    "export_hasse",
    "first_factorization",
    "irredundant_refinements",
    "is_irredundant_refinement",
    "is_ud",
    "kraft_sum",
    "parse_code_file",
    "power_chain",
    "refines",
    "run_command",
    "verify",
]
