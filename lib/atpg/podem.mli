(** PODEM — path-oriented decision making deterministic test generation.

    Classic Goel-style PODEM: decisions are made only on primary inputs,
    objectives are derived from fault activation and the D-frontier, and a
    backtrace maps each objective to a PI assignment.  The search is
    complete, so exhausting it proves the fault untestable (redundant);
    a backtrack budget bounds worst-case behaviour.

    The good and the faulty machine are two {!Ternary} value arrays that
    persist across the decisions of one {!generate} call.  Implication is
    incremental: every PI change (a decision, a backtrack's flip, each
    unassignment to X) queues the PI's fanouts in a level-bucket queue;
    nodes are re-evaluated in level order, in both machines, and their
    fanouts are queued only where a value changed.  Every node value is a
    function of the PI assignment alone, and a node whose fanins did not
    change already holds that function's value, so both arrays equal a
    full re-simulation after every implication: the decisions, backtracks
    and random draws are exactly those of full re-simulation.  A search
    iteration allocates nothing. *)

open Reseed_netlist
open Reseed_fault
open Reseed_util

type outcome =
  | Test of bool array
      (** a fully-specified test pattern (don't-cares filled from the RNG) *)
  | Untestable  (** complete search exhausted: the fault is redundant *)
  | Aborted  (** backtrack budget exceeded *)

type stats = { mutable backtracks : int; mutable decisions : int }

val new_stats : unit -> stats

(** [generate c fault ~rng ?max_backtracks ?budget ?testability ?stats ()]
    attempts to derive a test for [fault].  The search aborts once
    [stats.backtracks] exceeds [max_backtracks] (default 2000).  The
    limit applies to the counter in [stats], not to this call: with a
    [stats] shared across calls (as {!Atpg.run} does) it is a cumulative
    budget, and once it is spent every later call aborts before its first
    decision.  An expired [budget] aborts the fault at the next decision,
    like a blown backtrack limit.  Pass a precomputed [testability] when
    generating for many faults of the same circuit (it guides branch
    ordering; recomputed per call otherwise). *)
val generate :
  Circuit.t ->
  Fault.t ->
  rng:Rng.t ->
  ?max_backtracks:int ->
  ?budget:Budget.t ->
  ?testability:Testability.t ->
  ?stats:stats ->
  unit ->
  outcome
