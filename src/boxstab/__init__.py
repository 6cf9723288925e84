"""3-d orthogonal point location and rectangle stabbing structures.

Static word-RAM-style geometric data structures over integer grids: 3-d
point location on disjoint boxes via round-robin square-root recursion,
5-/6-sided and z-restricted rectangle stabbing via grid trees and shallow
cuttings, and top-k weighted variants, plus brute-force oracles and counted
instrumentation that validates the query/space recurrences empirically.
"""

from .counters import Counters
from .geom import (
    Box2,
    Box3,
    ModelParams,
    RankSpace,
    ValidationError,
    contains,
    contains2,
    rank_locate,
    rank_reduce,
)
from .oracle import (
    NotDisjointError,
    brute_count,
    brute_dominance,
    brute_locate,
    brute_stab,
    brute_topk_dominance,
    brute_topk_stab,
    verify_cutting,
)

from .domcut import (  # noqa: E402
    Dominance3,
    ShallowCutting2,
    ShallowCutting3,
    build_cutting2,
    build_cutting3,
    build_dominance3,
    find_any,
    query_dominance3,
)
from .range2d import (  # noqa: E402
    DomCount2,
    PL2,
    StabEmpty2,
    build_pl2,
    build_stab_count,
    dominance_count,
    query_pl2,
    query_stab_count,
    query_stab_empty,
)
from .pl3d import PL3, build_pl3, query_pl3  # noqa: E402
from .stab5 import (  # noqa: E402
    build_leaf5,
    build_slow5,
    build_stab5,
    query_leaf5,
    query_slow5,
    query_stab5,
)
from .stab6 import (  # noqa: E402
    build_stab6,
    build_zr4_fast,
    build_zr4_slow,
    build_zr6,
    query_stab6,
    query_zr4_fast,
    query_zr4_slow,
    query_zr6,
)
from .topk import (  # noqa: E402
    WeightStream,
    build_topk_dom,
    build_topk_stab,
    open_stream,
    query_topk_dom,
    query_topk_stab,
)

__all__ = [
    "Box2",
    "Box3",
    "Counters",
    "DomCount2",
    "Dominance3",
    "ModelParams",
    "NotDisjointError",
    "PL2",
    "PL3",
    "RankSpace",
    "ShallowCutting2",
    "ShallowCutting3",
    "StabEmpty2",
    "ValidationError",
    "WeightStream",
    "brute_count",
    "brute_dominance",
    "brute_locate",
    "brute_stab",
    "brute_topk_dominance",
    "brute_topk_stab",
    "build_cutting2",
    "build_cutting3",
    "build_dominance3",
    "build_leaf5",
    "build_pl2",
    "build_pl3",
    "build_slow5",
    "build_stab5",
    "build_stab6",
    "build_stab_count",
    "build_topk_dom",
    "build_topk_stab",
    "build_zr4_fast",
    "build_zr4_slow",
    "build_zr6",
    "contains",
    "contains2",
    "dominance_count",
    "find_any",
    "open_stream",
    "query_dominance3",
    "query_leaf5",
    "query_pl2",
    "query_pl3",
    "query_slow5",
    "query_stab5",
    "query_stab6",
    "query_stab_count",
    "query_stab_empty",
    "query_topk_dom",
    "query_topk_stab",
    "query_zr4_fast",
    "query_zr4_slow",
    "query_zr6",
    "rank_locate",
    "rank_reduce",
    "verify_cutting",
]
