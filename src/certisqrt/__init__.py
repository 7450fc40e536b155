"""Runtime-verified Newton square roots over exact, fix-point, and
floating-point arithmetic models, checked against an exact rational
oracle."""

from .errors import (
    CertisqrtError,
    DivisionByZero,
    DomainError,
    EpsTooSmall,
    ExponentRange,
    InternalInvariantError,
    IterationBudgetError,
    MantissaRange,
    NoFeasibleEps,
    ProfileMismatch,
    RangeOverflow,
    ResourceLimit,
    SeedContractError,
    UsageError,
)
from .exact import (
    cmp_sqrt,
    rat_str,
    sqrt_abs_err_lt,
    sqrt_enclosure,
    within_of_sqrt,
)
from .fixarith import (
    FixProfile,
    FixVal,
    check_profile_assumptions,
    fix_add,
    fix_div,
    fix_mul,
    fix_sub,
    quantize,
)
from .floatmodel import (
    FloatProfile,
    FloatVal,
    check_float_profile,
    compose,
    encode_rational,
    value_of,
)
from .lut import (
    RootTable,
    StepConfig,
    build_root_table,
    round_up_to_step,
    sup_fn,
    validate_step,
)
from .newton import (
    Correction,
    GridTrace,
    Trace,
    TraceStep,
    derive_eps_for_ulp,
    fix_sqr,
    flt_sqr,
    fsqr_exact,
    grid_inputs,
    isqr_exact,
    min_iterations_for_step,
    min_legal_iterations,
    mix_sqr,
    sqr_exact,
)
from .report import CheckResult, VerifyReport
from .verify import (
    BalanceRow,
    ProbeRow,
    adjust_runs,
    balance_sweep,
    check_fsqr_annotations,
    check_sqr_annotations,
    check_table_properties,
    iteration_cap,
    monotonicity_probe,
)

__version__ = "0.1.0"
