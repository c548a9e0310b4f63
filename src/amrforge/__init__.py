"""amrforge: AMR graph toolkit.

Parsing and serializing PENMAN, depth-first linearization with pointer
tokens, denoising corruption, training-sample construction, and the
Smatch/BLEU evaluation stack.
"""

from .amr import (
    AmrGraph,
    Diagnostic,
    GraphStats,
    InvalidGraphError,
    compute_stats,
    is_isomorphic,
    validate,
)
from .corrupt import (
    CorruptionConfig,
    compose,
    corrupt_graph,
    derive_rng,
    mask_nodes_edges,
    mask_subgraph,
    mask_text,
    node_edge_step,
    restore_tokens,
    subgraph_step,
)
from .linearize import (
    EMPTY_GRAPH_TOKENS,
    RepairError,
    StructureError,
    delinearize,
    linearize,
    repair,
)
from .metrics import (
    BleuResult,
    SmatchResult,
    TripleSet,
    corpus_bleu_details,
    fine_grained,
    smatch,
    to_triples,
)
from .penman import (
    CorpusError,
    PenmanDocument,
    PenmanSyntaxError,
    empty_graph,
    graph_to_penman,
    parse_penman,
    read_corpus,
    serialize_penman,
)
from .tasks import (
    ALL_TAGS,
    FINETUNING_TAGS,
    PRETRAINING_TAGS,
    MaskSchedule,
    TaskError,
    TaskSample,
    TaskTag,
    build_corpus,
    build_sample,
    sample_to_json,
    schedule_rate,
)
from .vocab import (
    PointerCapacityError,
    SymbolInventory,
    UnknownTokenError,
    Vocabulary,
    build_vocabulary,
    collect_symbols,
    decode,
    encode,
    load_vocabulary,
    save_vocabulary,
)

__version__ = "0.1.0"
