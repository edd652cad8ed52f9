"""Trace-set semantics for shared state.

Decide provable equality and refinement of terms in the built-in theories
of shared state, global state, and transitions, through their free models
over closed sets of rely/guarantee traces.
"""

from .kernel import (
    CEDE,
    HOLD,
    STAR,
    Algebra,
    App,
    ArityMismatch,
    MissingBinding,
    Operator,
    Signature,
    Sort,
    SortMismatch,
    Term,
    TermError,
    UnknownOperator,
    UnknownVariable,
    Var,
    app,
    bottom,
    check_sort,
    evaluate,
    free_vars,
    identity_substitution,
    join,
    substitute,
)
from .store import Store, StoreSpace, Transition
from .theories import (
    AxiomInstance,
    Bounds,
    Presentation,
    Translation,
    UnknownTheory,
    apply_translation,
    build,
    builtin_translations,
    compose,
    distributivity_instances,
    encode_inequation,
    instantiate_axioms,
)
from .traces import (
    BROOKES,
    SORTED,
    BudgetExceeded,
    Trace,
    TraceSet,
    brookes_set,
    canonicalize,
    closure_bounded,
    equal,
    member,
    sorted_set,
    step_deductions,
    subset,
)
from .model import (
    BrookesAlgebra,
    GTable,
    GTableAlgebra,
    TraceAlgebra,
    embed_cede,
    gtable_to_traceset,
    hush_step,
    kleisli,
    par,
    reify,
    reify_trace,
    single_cell_witness,
    strip_cede,
    unit,
    yield1,
    yield2,
)
from .checker import (
    Report,
    SampleConfig,
    Verdict,
    check_equal,
    check_refines,
    check_representation,
    check_roundtrip,
    cross_check_G,
    denote,
    denote_B,
    denote_G,
    random_brookes_set,
    random_closed_set,
    random_term,
    run_nogo2,
    run_nogo3,
    validate_axioms,
    validate_distributivity,
    validate_translation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
