(** Three-valued (0 / 1 / X) logic used by the deterministic ATPG.

    PODEM tracks the good machine and the faulty machine as two ternary
    value arrays; a node carries a fault effect (the "D" or "D-bar" of
    the classical D-calculus) when its good and faulty values are both
    known and differ.  Every evaluation goes through one in-place gate
    evaluator, {!eval_node}. *)

open Reseed_netlist

type v = F | T | X

val of_bool : bool -> v

(** [to_bool v] for known values; raises [Invalid_argument] on [X]. *)
val to_bool : v -> bool

val known : v -> bool
val v_not : v -> v

(** [eval kind args] evaluates one gate over ternary values with standard
    X-propagation (a controlling value dominates any X). *)
val eval : Gate.kind -> v array -> v

(** How one stuck-at fault enters the faulty machine: an [Out] fault pins
    its node's value, a [Pin] fault forces one fanin of its gate. *)
type injection

(** [no_injection] is the good machine. *)
val no_injection : injection

val injection : Reseed_fault.Fault.t -> injection

(** [eval_node c inj values i] is node [i]'s value under [inj], read in
    place from its fanins' entries in [values]; an input node returns
    [values.(i)] (its assignment), unless [inj] pins it.  Allocates
    nothing. *)
val eval_node : Circuit.t -> injection -> v array -> int -> v

(** [simulate c pi_values ?fault ()] runs a full forward ternary
    simulation from the PI assignment (indexed in PI order).  With
    [?fault], the faulty machine is simulated instead: an [Out] fault
    pins the site node to its stuck value; a [Pin] fault forces that
    fanin while evaluating the faulty gate. *)
val simulate :
  Circuit.t -> v array -> ?fault:Reseed_fault.Fault.t -> unit -> v array

(** [error ~good ~faulty i] — node [i] carries a fault effect. *)
val error : good:v array -> faulty:v array -> int -> bool

val to_char : v -> char
