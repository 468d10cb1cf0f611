(** Reverse-order static test-set compaction.

    Patterns are fault-simulated in reverse generation order with fault
    dropping; a pattern that detects no still-active fault is discarded.
    Because deterministic ATPG appends the hardest faults' tests last,
    reverse order lets late, highly-specific patterns subsume the early
    broad ones (Pomeranz & Reddy's classic observation cited as [15] in
    the paper). *)

open Reseed_fault

(** [reverse_order sim tests] returns the kept patterns, preserving their
    relative order, and the number dropped.  Coverage over the
    simulator's fault list is exactly preserved.  A pattern is kept
    exactly when it is the last one to detect some fault; one
    fault-dropping {!Fault_sim.first_detections} sweep over the reversed
    sequence finds them all.  Stuck-at semantics: under a transition-delay
    simulator the reversed sequence would pair other launch and capture
    patterns, which is why the ATPG flow skips compaction there. *)
val reverse_order : Fault_sim.t -> bool array array -> bool array array * int

(** [covering sim tests] — exact minimum-cardinality compaction: selects
    a smallest subset of [tests] with the same fault coverage by solving
    the pattern × fault covering instance with the set covering engine
    (the COMPACTEST idea the paper cites as its precedent for covering
    models in testing).  More expensive than {!reverse_order} but optimal
    with respect to the given test set.  Returns the kept patterns (in
    original order) and the number dropped. *)
val covering : Fault_sim.t -> bool array array -> bool array array * int
