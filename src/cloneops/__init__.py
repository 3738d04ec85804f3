"""Computations in clone theory over finite domains.

Modules:
    core        -- domains, operations (one numpy row, `table` its scalar view),
                   relations and operation sets, all in one row encoding
    textio      -- plain-text formats for operations and relations
    commutation -- preservation, commutation, centraliser/polymorphism enumeration
    clonegen    -- n-ary clone fragments and subuniverse closure
    snow        -- the separating construction, its formula, verification
    ppformula   -- primitive positive formulas: evaluation, text and SMT output
    synthesis   -- primitive positive definitions from a generating system
    cli         -- command-line front end
"""

__version__ = "0.1.0"

import gc as _gc

# The imports below (numpy among them) build over 10,000 objects that live as
# long as the process and hold no cyclic garbage, and the collector would
# otherwise make about 30 passes over them on the way.  It is paused for the
# imports and then left as the importer had it, also when an import fails.
_collecting = _gc.isenabled()
_gc.disable()
try:
    from .core import (CapExceeded, Domain, KernelView, Operation, OperationSet,
                       Relation, compose, equality_relation, evaluate, fix_of,
                       full_relation, graph_of, image_of, is_projection, kernel_of,
                       make_constant, make_projection, minor, relation, sparse_op)
    from .commutation import (EnumerationStats, commutes, enumerate_centraliser,
                              enumerate_polymorphisms, family_op, preserves)
    from .clonegen import clone_fragment, fragment_contains, subuniverse_closure
    from .ppformula import (PPFormula, RelationEnv, emit_smt, emit_text,
                            eval_formula, formula_defines, parse_formula)
    from .snow import (ArrowPlan, SeparationReport, SnowInstance, arrow_plan,
                       snow_f, snow_instance, snow_pp_formula, snow_t,
                       snow_t_value, verify_separation)
    from .synthesis import (GeneratingSystem, SynthesisResult, dedup_rows,
                            synthesize_ppdef, validate_synthesis,
                            validation_details)
    from .textio import (FormatError, emit_operations, emit_relations,
                         parse_operations, parse_relations, parse_tuple_lists)
finally:
    if _collecting:
        _gc.enable()
del _gc, _collecting
