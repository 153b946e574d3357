"""Exact-arithmetic finite-generation tests for Cox rings of blown-up
triangle toric surfaces."""

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    OverlapGaps,
    context_for,
    dump_element,
    invert_unit,
    multiply,
    subspace_decompose,
    x_basis,
    xi_power,
    z_element,
)
from .cohomology import (
    CohomReport,
    FactorizationOutcome,
    ObstructionMatrix,
    char0_b2_check,
    cohomology_dims,
    factorization_search,
    per_level_chi,
)
from .decision import (
    FG_EXACT,
    FG_WITNESS,
    NO_WITNESS_UP_TO_BOUNDS,
    NOT_FG_EXACT,
    ScanRow,
    SearchBounds,
    SuiteItem,
    VERSION,
    Verdict,
    d_set,
    decide,
    family_triangle,
    reference_example_suite,
    scan_family,
)
from .fields import RATIONALS, FieldSpec
from .geometry import (
    ConeTables,
    EmuReport,
    NormalizedTriangle,
    PeriodData,
    ToricData,
    cone_tables,
    delta_prime,
    emu_check,
    normalize_triangle,
    overlaps_and_gaps,
    pa_member,
    pb_member,
    period_data,
    read_triangle_file,
    toric_data,
)

__version__ = VERSION
