"""Graph-induced concept classes and their exact teaching/VC dimensions."""

from .concepts import (
    ConceptClass,
    Sample,
    is_shattered,
    read_class,
    sample_of,
)
from .connected import (
    OpponentSet,
    build_con_class,
    con_superset_teacher,
    con_tree_teacher,
    con_triple,
    con_vcd_matching_teacher,
    leaf_tree_condition,
    maximal_opponents,
)
from .context import GraphContext
from .dimensions import (
    RtdCertificate,
    check_chain,
    rtd,
    rtd_subclass_lower_bound,
    rtd_value,
    sauer_bound,
    sauer_rtd_implication,
    td_max,
    td_min,
    td_of,
    vcd,
)
from .errors import (
    BudgetExceededError,
    ClassFormatError,
    GraphFormatError,
    PreferenceCycleError,
    TeacherPreconditionError,
)
from .graphs import (
    DEFAULT_ENUM_BUDGET,
    MAX_VERTICES,
    Graph,
    Tree,
    components,
    connected_set_masks,
    graph_from_edges,
    is_connected,
    max_leaf_number,
    max_leaf_number_exhaustive,
    max_open_neighborhood,
    read_graph,
    spanned_subgraph,
)
from .stars import (
    VmaxGroup,
    VmaxPartition,
    build_star_class,
    star_special_teacher,
    star_subset_teacher,
    star_triple,
    star_vcd_characterization,
    vmax_partition,
)
from .teaching import (
    PBTeacher,
    PreferenceRelation,
    format_teacher,
    lex_refine,
    plan_to_teacher,
    subset_preferences,
    superset_preferences,
    verify_pb_teacher,
)

__all__ = [name for name in dir() if not name.startswith("_")]
