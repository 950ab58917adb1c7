"""Decision procedures for finitely presented monoids via reversing grids.

The package decides, for a presentation given by generators and relations:
whether right reversing is complete for it (the diamond condition checker),
whether the presented monoid is left/right cancellative by the reversing
criterion, common right multiples and right lcms, and the defect of a
complete presentation.
"""

from .cancellativity import (
    CancellativityVerdict,
    MultipleResult,
    check_left_cancellative,
    check_right_cancellative,
    common_right_multiple,
    right_lcm,
)
from .catalog import CatalogEntry, braid, colored_braid, malcev, restricted_colored
from .completeness import (
    CompletenessReport,
    DefectResult,
    DiamondReport,
    check_completeness,
    check_diamond,
    decide_equiv_by_reversing,
    defect,
)
from .congruence import (
    Budget,
    DEFAULT_BUDGET,
    EquivStatus,
    EquivalenceOutcome,
    INFINITE,
    are_equivalent,
    equivalence_class,
)
from .core import (
    Diagnostic,
    ParseError,
    Presentation,
    PresentationError,
    Relation,
    Tile,
    TileKind,
    Word,
    format_presentation,
    is_right_complemented,
    left_cancel_conflicts,
    make_presentation,
    mirror,
    parse_presentation,
    validate,
)
from .grids import (
    Grid,
    GridError,
    ReversalOutcome,
    ReversalStatus,
    TargetSearch,
    check_grid,
    compose_h,
    grid_from_json,
    grid_to_json,
    render_grid,
    replay,
    reverse_complemented,
    reverse_enumerate,
    reverse_targets,
    split_h,
    tiles,
)

__all__ = [name for name in dir() if not name.startswith("_")]
